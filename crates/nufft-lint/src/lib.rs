//! Static kernel verifier for the cuFINUFFT reproduction.
//!
//! Two independent fronts, both producing typed
//! [`LintFinding`](nufft_common::LintFinding)s with stable ids:
//!
//! * **Access-plan analysis** ([`lint_access_plans`]) — enumerates every
//!   launch configuration reachable from a [`TransformSpec`] matrix
//!   (grid sizes including Bluestein/prime fine-grid shapes, the eps
//!   ladder, bin / `M_sub` sweeps, both precisions, all spreading
//!   methods), derives the launch geometry with plan construction's own
//!   derivation ([`cufinufft::access_plan::PlanGeometry`]), and runs the
//!   execution-free checker passes from `gpu_sim::access_plan` over each
//!   kernel's symbolic plan: interval bounds (AP001), static race
//!   classes (AP002), contract atomic cross-validation (AP003), and
//!   Remark-2 / launch feasibility (AP004-AP006).
//! * **Source policy** ([`src_lint`]) — a std-only textual scanner over
//!   the workspace for repo-policy violations (SRC001-SRC003), with a
//!   count-based baseline allowlist.
//!
//! The binary (`nufft-lint`) runs both by default; see `--help`.

#![forbid(unsafe_code)]

pub mod src_lint;

use cufinufft::access_plan::{plans_for, PlanGeometry};
use cufinufft::opts::Tuning;
use gpu_sim::DeviceProps;
use nufft_common::smooth::FineSizing;
use nufft_common::spec::{Method, Precision, TransformSpec};
use nufft_common::LintReport;
use nufft_trace::Trace;

/// One cell of the launch-configuration matrix.
#[derive(Clone, Debug)]
pub struct MatrixCell {
    pub spec: TransformSpec,
    pub m: usize,
    pub tuning: Tuning,
}

/// Grid families mirroring the conformance harness: power-of-two sizes
/// (5-smooth fine grids) and prime sizes under `FineSizing::Exact`
/// (the Bluestein path's awkward fine-grid shapes).
fn grids(dim: usize, full: bool) -> Vec<(Vec<usize>, FineSizing)> {
    let mut out = match dim {
        1 => vec![
            (vec![256], FineSizing::Smooth),
            (vec![211], FineSizing::Exact),
        ],
        2 => vec![
            (vec![32, 32], FineSizing::Smooth),
            (vec![37, 16], FineSizing::Exact),
        ],
        _ => vec![
            (vec![16, 16, 16], FineSizing::Smooth),
            (vec![37, 8, 8], FineSizing::Exact),
        ],
    };
    if full {
        // one larger anisotropic shape per dim widens the stride space
        out.push(match dim {
            1 => (vec![4096], FineSizing::Smooth),
            2 => (vec![128, 32], FineSizing::Smooth),
            _ => (vec![64, 16, 8], FineSizing::Smooth),
        });
    }
    out
}

/// The launch-configuration matrix. `full = false` is the quick tier
/// scripts/check.sh runs by default; `full = true` widens the eps
/// ladder, adds 1D, more point counts, and bin / `M_sub` tuning sweeps.
pub fn spec_matrix(full: bool) -> Vec<MatrixCell> {
    let dims: &[usize] = if full { &[1, 2, 3] } else { &[2, 3] };
    let eps_ladder: &[f64] = if full {
        &[1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
    } else {
        &[1e-2, 1e-5]
    };
    let ms: &[usize] = if full { &[1, 1000, 100_000] } else { &[1000] };
    let mut tunings = vec![Tuning::default()];
    if full {
        // M_sub sweep: many tiny subproblems stress the SM count ranges
        tunings.push(Tuning {
            msub: 16,
            ..Tuning::default()
        });
        // non-default bin size exercises the clamped-bin geometry
        tunings.push(Tuning {
            bin_size: Some([8, 8, 2]),
            ..Tuning::default()
        });
    }
    let mut cells = Vec::new();
    for &dim in dims {
        for (modes, sizing) in grids(dim, full) {
            for precision in [Precision::F32, Precision::F64] {
                for method in [Method::Gm, Method::GmSort, Method::Sm] {
                    for &eps in eps_ladder {
                        for &m in ms {
                            for tuning in &tunings {
                                cells.push(MatrixCell {
                                    spec: TransformSpec::type1(&modes)
                                        .eps(eps)
                                        .precision(precision)
                                        .method(method)
                                        .fine_sizing(sizing),
                                    m,
                                    tuning: *tuning,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

/// Run the static checker over every reachable launch configuration in
/// the matrix. Cells the library itself would refuse (explicit SM
/// beyond the Remark-2 budget, tolerances outside the kernel table) are
/// counted as skipped, exactly mirroring plan construction. Findings
/// carry the spec label of the cell that produced them; `lint.*`
/// counters are mirrored into `trace` when given.
pub fn lint_access_plans(full: bool, trace: Option<&Trace>) -> LintReport {
    let props = DeviceProps::v100();
    let mut report = LintReport::default();
    for cell in spec_matrix(full) {
        let geom = PlanGeometry::from_spec(&cell.spec, &cell.tuning, props.shared_mem_per_block);
        let geom = match geom {
            Ok(g) => g,
            Err(_) => {
                // the library would refuse this configuration too — the
                // launches it describes are unreachable, not unproven
                report.configs_skipped += 1;
                continue;
            }
        };
        report.configs_checked += 1;
        let ctx = format!("{} m={}", cell.spec.label(), cell.m);
        for plan in plans_for(&geom, cell.m) {
            report.plans_checked += 1;
            for finding in plan.check_all(&props, geom.shared_budget) {
                report.findings.push(finding.with_context(&ctx));
            }
        }
    }
    if let Some(t) = trace {
        t.counter("lint.configs_checked")
            .add(report.configs_checked as i64);
        t.counter("lint.configs_skipped")
            .add(report.configs_skipped as i64);
        t.counter("lint.plans_checked")
            .add(report.plans_checked as i64);
        t.counter("lint.errors").add(report.error_count() as i64);
        t.counter("lint.warnings").add(report.warn_count() as i64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_has_both_grid_families_and_methods() {
        let cells = spec_matrix(false);
        assert!(cells
            .iter()
            .any(|c| c.spec.fine_sizing == FineSizing::Exact));
        assert!(cells.iter().any(|c| c.spec.dim() == 3));
        for m in [Method::Gm, Method::GmSort, Method::Sm] {
            assert!(cells.iter().any(|c| c.spec.method == m));
        }
        // full strictly widens
        assert!(spec_matrix(true).len() > cells.len());
    }

    #[test]
    fn quick_access_plan_pass_is_clean_and_counts_coverage() {
        let trace = Trace::new();
        let report = lint_access_plans(false, Some(&trace));
        assert!(report.is_clean(), "{report}");
        assert!(report.configs_checked > 0);
        assert!(report.plans_checked > report.configs_checked);
        // explicit-SM Remark-2-infeasible cells exist in the matrix
        // (3D f64 at tight eps) and must be skipped, not silently green
        assert!(report.configs_skipped > 0);
        let rep = trace.report();
        assert_eq!(
            rep.counters.get("lint.configs_checked").copied(),
            Some(report.configs_checked as i64)
        );
        assert_eq!(rep.counters.get("lint.errors").copied(), Some(0));
    }
}

//! Options and spreading-method selection, mirroring `cufinufft_opts`.
//!
//! The option surface is split along the semantic/performance line:
//! what a transform *is* lives in
//! [`TransformSpec`](nufft_common::TransformSpec) (type, dims,
//! tolerance, precision, method, mode order, fine sizing), while how
//! fast it runs lives in [`Tuning`] (bin sizes, `M_sub`, thread count,
//! shared-memory budget, upsampling factor). [`GpuOpts`] carries both
//! plus the operational knobs (tracing, recovery, hazard checking).

use crate::recovery::RecoveryPolicy;
use gpu_sim::{HazardMode, Trace};
use nufft_common::error::{NufftError, Result};
use nufft_common::smooth::FineSizing;
// Method and ModeOrder are part of a transform's semantic identity and
// live in nufft-common (`TransformSpec` references them); re-exported
// here so existing `cufinufft::opts::Method` imports keep working.
pub use nufft_common::spec::{Method, ModeOrder};
// Kernel-evaluation choice (exact vs Horner fast path) lives with the
// kernels; re-exported here because it is set through `Tuning`.
pub use nufft_kernels::KernelEval;

/// Performance-tuning knobs, separated from the semantic
/// [`TransformSpec`](nufft_common::TransformSpec) fields: two plans
/// whose specs match compute the same transform regardless of tuning;
/// tuning only moves the wall clock. `Default` reproduces the paper's
/// settings (sigma = 2, M_sub = 1024, Remark-1 bin sizes, 128 threads
/// per block, 49 kB shared memory).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tuning {
    /// Bin size in fine-grid cells; `None` = paper defaults per dim
    /// (Remark 1: 32x32 in 2D, 16x16x2 in 3D).
    pub bin_size: Option<[usize; 3]>,
    /// Maximum nonuniform points per SM subproblem.
    pub msub: usize,
    /// Upsampling factor sigma.
    pub upsampfac: f64,
    /// Threads per block for the GM kernels.
    pub threads_per_block: usize,
    /// Shared-memory budget per block used in the SM feasibility check.
    /// The paper quotes 49 kB (Remark 2 uses 49000).
    pub shared_mem_budget: usize,
    /// How `eval_row` is computed in the spread/interp hot paths: the
    /// fitted Horner/Chebyshev fast path, the exact exponential, or
    /// (default) an automatic plan-time choice gated on the measured fit
    /// error meeting the plan tolerance. Tuning-only: any setting
    /// computes the same transform to within the plan tolerance.
    pub kernel_eval: KernelEval,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            bin_size: None,
            msub: 1024,
            upsampfac: 2.0,
            threads_per_block: 128,
            shared_mem_budget: 49_000,
            kernel_eval: KernelEval::Auto,
        }
    }
}

impl Tuning {
    /// Reject values that cannot produce a working plan.
    pub fn validate(&self) -> Result<()> {
        if self.msub == 0 {
            return Err(NufftError::BadMsub(self.msub));
        }
        if self.upsampfac <= 1.0 || self.upsampfac.is_nan() {
            return Err(NufftError::BadUpsampfac(self.upsampfac));
        }
        if let Some(b) = self.bin_size {
            if b.contains(&0) {
                return Err(NufftError::BadBinSize(b));
            }
        }
        if self.threads_per_block == 0 {
            return Err(NufftError::BadOptions(
                "threads_per_block must be positive".into(),
            ));
        }
        if self.shared_mem_budget == 0 {
            return Err(NufftError::BadOptions(
                "shared_mem_budget must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Plan options (defaults follow the paper: sigma = 2, M_sub = 1024,
/// bins 32x32 in 2D and 16x16x2 in 3D — Remark 1).
#[derive(Clone, Debug)]
pub struct GpuOpts {
    pub method: Method,
    /// Mode ordering of the coefficient arrays.
    pub modeord: ModeOrder,
    /// Performance-tuning knobs (bin size, `M_sub`, sigma, thread
    /// count, shared-memory budget); see [`Tuning`].
    pub tuning: Tuning,
    /// Fine-grid sizing policy: round up to a 5-smooth FFT size (paper
    /// rule, the default) or keep `max(ceil(sigma*n), 2w)` exactly so
    /// prime sizes exercise the Bluestein FFT path (conformance use).
    pub fine_sizing: FineSizing,
    /// Maximum transforms per pipelined chunk in `execute_many`
    /// (the C API's `maxbatchsize`); 0 picks a heuristic that yields
    /// several chunks so transfers can hide under compute.
    pub max_batch: usize,
    /// Tracing session the plan records into (see `nufft-trace`). When
    /// set, the plan attaches it to the device, opens host spans around
    /// build/setpts/execute, records stage-level device spans, and
    /// publishes load-balance counters. `None` disables all of it.
    pub trace: Option<Trace>,
    /// Fault-recovery behavior: bounded retry of transient device
    /// faults, OOM-driven chunk shrinking in `execute_many`, and
    /// (opt-in) SM-to-GM-sort method fallback. See
    /// [`RecoveryPolicy`]; `RecoveryPolicy::none()` restores
    /// fail-fast semantics.
    pub recovery: RecoveryPolicy,
    /// Race / access-contract checking (see `gpu_sim::hazard`). Under
    /// `HazardMode::Check` every instrumented kernel launch records a
    /// shadow access trace, the device runs the happens-before checker
    /// over it, and findings accumulate on the plan
    /// ([`Plan::hazard_findings`](crate::plan::Plan::hazard_findings)).
    /// Off by default: tracing every access is far slower than the
    /// pure performance model.
    pub hazard: HazardMode,
}

impl Default for GpuOpts {
    fn default() -> Self {
        GpuOpts {
            method: Method::Auto,
            modeord: ModeOrder::default(),
            tuning: Tuning::default(),
            fine_sizing: FineSizing::default(),
            max_batch: 0,
            trace: None,
            recovery: RecoveryPolicy::default(),
            hazard: HazardMode::default(),
        }
    }
}

impl GpuOpts {
    /// Enable tracing into `trace` (builder-style).
    pub fn with_tracing(mut self, trace: &Trace) -> Self {
        self.trace = Some(trace.clone());
        self
    }

    /// Enable race / access-contract checking (builder-style).
    pub fn with_hazard_checking(mut self) -> Self {
        self.hazard = HazardMode::Check;
        self
    }

    /// Reject option values that cannot produce a working plan. Called
    /// by the plan builder before any device work happens, so bad
    /// options surface as typed errors instead of downstream panics or
    /// silent misbehaviour.
    pub fn validate(&self) -> Result<()> {
        self.tuning.validate()?;
        self.recovery.validate()?;
        Ok(())
    }
}

/// Paper-default bin sizes (Remark 1).
pub fn default_bin_size(dim: usize) -> [usize; 3] {
    match dim {
        1 => [1024, 1, 1],
        2 => [32, 32, 1],
        _ => [16, 16, 2],
    }
}

/// Extents of the padded bin an SM block stages in shared memory:
/// `bin_i + 2 ceil(w/2)` in each of the `dim` used dimensions, 1 beyond
/// (paper eq. 13).
pub fn sm_tile(bin: [usize; 3], dim: usize, w: usize) -> [usize; 3] {
    let mut p = bin.map(|b| b + 2 * w.div_ceil(2));
    p[dim..].fill(1);
    p
}

/// Shared-memory bytes needed by an SM subproblem: the [`sm_tile`] in
/// complex working precision.
pub fn sm_shared_bytes(bin: [usize; 3], dim: usize, w: usize, complex_bytes: usize) -> usize {
    sm_tile(bin, dim, w).iter().product::<usize>() * complex_bytes
}

/// The brownout downgrade for a spec's spreading method: SM (and
/// Auto, which may resolve to SM) degrade to the globally-ordered
/// GM-sort path, which exercises different kernels and shared-memory
/// behaviour and so can dodge an SM-specific fault streak. GM and
/// GM-sort have no cheaper GPU sibling — `None` tells the serve layer
/// to fall through to its next degradation tier (CPU backend or
/// fast-fail).
pub fn degraded_method_for(spec: &nufft_common::TransformSpec) -> Option<Method> {
    match spec.method {
        Method::Sm | Method::Auto => Some(Method::GmSort),
        Method::Gm | Method::GmSort => None,
    }
}

/// Check whether SM spreading is feasible for this configuration
/// (paper Remark 2: fails for 3D double precision once w > 8).
pub fn sm_feasible(
    bin: [usize; 3],
    dim: usize,
    w: usize,
    complex_bytes: usize,
    budget: usize,
) -> bool {
    sm_shared_bytes(bin, dim, w, complex_bytes) <= budget
}

/// Resolve `Auto` into a concrete method for a type-1 spread.
pub fn resolve_spread_method(
    method: Method,
    bin: [usize; 3],
    dim: usize,
    w: usize,
    complex_bytes: usize,
    budget: usize,
) -> Result<Method> {
    match method {
        Method::Auto => {
            if sm_feasible(bin, dim, w, complex_bytes, budget) {
                Ok(Method::Sm)
            } else {
                Ok(Method::GmSort)
            }
        }
        Method::Sm => {
            if sm_feasible(bin, dim, w, complex_bytes, budget) {
                Ok(Method::Sm)
            } else {
                Err(NufftError::MethodUnavailable(format!(
                    "SM needs {} B shared memory (bin {bin:?}, w={w}), budget is {budget} B",
                    sm_shared_bytes(bin, dim, w, complex_bytes)
                )))
            }
        }
        m => Ok(m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bin_defaults() {
        assert_eq!(default_bin_size(2), [32, 32, 1]);
        assert_eq!(default_bin_size(3), [16, 16, 2]);
    }

    #[test]
    fn shared_bytes_formula() {
        // 2D f32: (32+6)^2 * 8 = 11552 for w=6 (pad = 2*ceil(6/2) = 6)
        assert_eq!(sm_shared_bytes([32, 32, 1], 2, 6, 8), 38 * 38 * 8);
        // 3D f32 w=5: pad 6 -> (22)(22)(8) * 8
        assert_eq!(sm_shared_bytes([16, 16, 2], 3, 5, 8), 22 * 22 * 8 * 8);
    }

    #[test]
    fn remark2_3d_double_high_accuracy_infeasible() {
        // 3D double precision, w = 9 (eps ~ 1e-8): padded bin
        // (16+10)(16+10)(2+10) * 16 B = 129792 B > 49000 B
        assert!(!sm_feasible([16, 16, 2], 3, 9, 16, 49_000));
        // but w = 5 in 3D double fits? (22*22*8)*16 = 61952 > 49000 — no.
        // 3D double is tight even at moderate w, matching the paper's
        // decision to test only GM-sort there.
        assert!(!sm_feasible([16, 16, 2], 3, 5, 16, 49_000));
        // 3D single at w=6: (22*22*8)*8 = 30976 <= 49000 — feasible.
        assert!(sm_feasible([16, 16, 2], 3, 6, 8, 49_000));
        // 2D double at w=13: (44*44)*16 = 30976 <= 49000 — feasible
        // (paper runs SM for 2D double at high accuracy).
        assert!(sm_feasible([32, 32, 1], 2, 13, 16, 49_000));
    }

    #[test]
    fn auto_resolves_by_feasibility() {
        let m = resolve_spread_method(Method::Auto, [32, 32, 1], 2, 6, 8, 49_000).unwrap();
        assert_eq!(m, Method::Sm);
        let m = resolve_spread_method(Method::Auto, [16, 16, 2], 3, 9, 16, 49_000).unwrap();
        assert_eq!(m, Method::GmSort);
    }

    #[test]
    fn explicit_sm_fails_loudly_when_infeasible() {
        let r = resolve_spread_method(Method::Sm, [16, 16, 2], 3, 9, 16, 49_000);
        assert!(r.is_err());
    }

    #[test]
    fn explicit_gm_passes_through() {
        let m = resolve_spread_method(Method::Gm, [16, 16, 2], 3, 9, 16, 49_000).unwrap();
        assert_eq!(m, Method::Gm);
    }

    #[test]
    fn default_opts_validate() {
        assert!(GpuOpts::default().validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_msub() {
        let opts = GpuOpts {
            tuning: Tuning {
                msub: 0,
                ..Tuning::default()
            },
            ..GpuOpts::default()
        };
        assert_eq!(opts.validate(), Err(NufftError::BadMsub(0)));
    }

    #[test]
    fn validate_rejects_non_upsampling_sigma() {
        for bad in [1.0, 0.5, 0.0, -2.0, f64::NAN] {
            let opts = GpuOpts {
                tuning: Tuning {
                    upsampfac: bad,
                    ..Tuning::default()
                },
                ..GpuOpts::default()
            };
            match opts.validate() {
                Err(NufftError::BadUpsampfac(s)) => {
                    assert!(s == bad || (s.is_nan() && bad.is_nan()))
                }
                other => panic!("sigma {bad} accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_zero_bin_entry() {
        let opts = GpuOpts {
            tuning: Tuning {
                bin_size: Some([32, 0, 1]),
                ..Tuning::default()
            },
            ..GpuOpts::default()
        };
        assert_eq!(opts.validate(), Err(NufftError::BadBinSize([32, 0, 1])));
    }

    #[test]
    fn validate_rejects_zero_threads() {
        let opts = GpuOpts {
            tuning: Tuning {
                threads_per_block: 0,
                ..Tuning::default()
            },
            ..GpuOpts::default()
        };
        assert!(matches!(opts.validate(), Err(NufftError::BadOptions(_))));
    }

    #[test]
    fn validate_rejects_zero_shared_mem_budget() {
        let opts = GpuOpts {
            tuning: Tuning {
                shared_mem_budget: 0,
                ..Tuning::default()
            },
            ..GpuOpts::default()
        };
        assert!(matches!(opts.validate(), Err(NufftError::BadOptions(_))));
    }

    #[test]
    fn default_tuning_matches_paper_values() {
        let t = Tuning::default();
        assert_eq!(t.msub, 1024);
        assert_eq!(t.upsampfac, 2.0);
        assert_eq!(t.threads_per_block, 128);
        assert_eq!(t.shared_mem_budget, 49_000);
        assert_eq!(t.bin_size, None);
        assert_eq!(t.kernel_eval, KernelEval::Auto);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_recovery_backoff() {
        let opts = GpuOpts {
            recovery: RecoveryPolicy {
                backoff: f64::NAN,
                ..RecoveryPolicy::default()
            },
            ..GpuOpts::default()
        };
        assert!(matches!(opts.validate(), Err(NufftError::BadOptions(_))));
    }
}

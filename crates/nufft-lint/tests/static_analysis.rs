//! Integration tier for the static kernel verifier:
//!
//! * **quick matrix green** — every shipped kernel plan over the quick
//!   spec matrix is bounds-safe, race-class-clean, contract-consistent,
//!   and launch-feasible, with `lint.*` counters mirrored to the trace;
//! * **negative controls** — a deliberately out-of-bounds footprint and
//!   an under-declared-atomics contract are both flagged statically,
//!   with their stable finding ids;
//! * **one geometry** — over the quick matrix, a built plan's
//!   `geometry()` equals the device-free `PlanGeometry::from_spec`, and
//!   the two refuse the same cells with the same error;
//! * **static refines dynamic** — replay real `HazardMode::Check`
//!   kernel traces from full plan lifecycles (type 1 + type 2) and
//!   assert every recorded access is contained in the static plans
//!   derived from those very plans' geometries, across GM / GM-sort /
//!   SM × 2D / 3D × precisions.

use std::collections::BTreeMap;

use cufinufft::access_plan::{
    plans_for, spread_gm_oob_plan, spread_gm_racy_plan, spread_gm_underdeclared_plan, PlanGeometry,
};
use cufinufft::{Method, Plan, Tuning};
use gpu_sim::{AccessPlan, Device, DeviceProps, HazardMode};
use nufft_common::real::Real;
use nufft_common::spec::{Precision, TransformSpec};
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, TransformType};
use nufft_lint::{lint_access_plans, spec_matrix};
use nufft_trace::Trace;

#[test]
fn quick_matrix_proves_all_shipped_kernels_clean() {
    let trace = Trace::new();
    let report = lint_access_plans(false, Some(&trace));
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(report.is_clean(), "{}", rendered.join("\n"));
    assert!(report.configs_checked >= 40, "{}", report.configs_checked);
    assert!(report.plans_checked >= 100, "{}", report.plans_checked);
    let rep = trace.report();
    for key in [
        "lint.configs_checked",
        "lint.configs_skipped",
        "lint.plans_checked",
        "lint.errors",
        "lint.warnings",
    ] {
        assert!(rep.counters.contains_key(key), "missing counter {key}");
    }
    assert_eq!(rep.counters["lint.errors"], 0);
}

#[test]
fn negative_controls_are_flagged_through_the_full_checker() {
    let spec = TransformSpec::type1(&[64, 64])
        .eps(1e-5)
        .precision(Precision::F32);
    let props = DeviceProps::v100();
    let g = PlanGeometry::from_spec(&spec, &Tuning::default(), props.shared_mem_per_block)
        .expect("geometry");
    let budget = g.shared_budget;

    let oob = spread_gm_oob_plan(&g, 2000).check_all(&props, budget);
    assert!(oob.iter().any(|f| f.id == "AP001"), "{oob:?}");

    let under = spread_gm_underdeclared_plan(&g, 2000).check_all(&props, budget);
    assert!(under.iter().any(|f| f.id == "AP003"), "{under:?}");

    let racy = spread_gm_racy_plan(&g, 2000).check_all(&props, budget);
    assert!(racy.iter().any(|f| f.id == "AP002"), "{racy:?}");
}

/// Build every quick-matrix cell both ways: a plan that builds carries
/// exactly the geometry the device-free derivation gives, and a cell
/// the library refuses is refused by both with the same error.
#[test]
fn plan_geometry_equals_static_geometry_over_quick_matrix() {
    fn check<T: Real>(spec: &TransformSpec, dev: &Device) -> bool {
        let cap = dev.props().shared_mem_per_block;
        let stat = PlanGeometry::from_spec(spec, &Tuning::default(), cap);
        match (Plan::<T>::from_spec(spec, dev), stat) {
            (Ok(plan), Ok(g)) => {
                assert_eq!(plan.geometry(), &g, "{}", spec.label());
                true
            }
            (Err(e), Err(se)) => {
                assert_eq!(e, se, "{}", spec.label());
                false
            }
            (p, g) => panic!("{}: plan {:?} vs static {:?}", spec.label(), p.err(), g),
        }
    }
    let dev = Device::v100();
    let (mut built, mut refused) = (0, 0);
    for cell in spec_matrix(false) {
        assert_eq!(cell.tuning, Tuning::default());
        let ok = match cell.spec.precision {
            Precision::F32 => check::<f32>(&cell.spec, &dev),
            Precision::F64 => check::<f64>(&cell.spec, &dev),
        };
        if ok {
            built += 1;
        } else {
            refused += 1;
        }
    }
    assert!(built > 0 && refused > 0, "built {built}, refused {refused}");
}

/// Run a full checked plan lifecycle (type 1 spread + type 2 interp) on
/// one device and return every retained kernel access trace, with the
/// static plans of both plans' own geometries keyed by kernel name
/// (type-1 and type-2 geometries agree wherever a kernel name repeats,
/// so one plan per name suffices).
fn traced_lifecycle<T: Real>(
    modes: &[usize],
    method: Method,
    m: usize,
) -> (Vec<gpu_sim::KernelTrace>, BTreeMap<String, AccessPlan>) {
    let dev = Device::v100();
    dev.retain_access_traces(true);
    let mut plans = BTreeMap::new();
    for (ttype, seed) in [(TransformType::Type1, 31), (TransformType::Type2, 32)] {
        let mut plan = Plan::<T>::builder(ttype, modes)
            .eps(1e-5)
            .method(method)
            .hazard(HazardMode::Check)
            .build(&dev)
            .expect("plan build");
        for p in plans_for(plan.geometry(), m) {
            plans.insert(p.kernel.clone(), p);
        }
        let dim = modes.len();
        let pts = gen_points::<T>(PointDist::Rand, dim, m, plan.fine_grid_shape(), seed);
        plan.set_pts(&pts).expect("set_pts");
        let nmodes: usize = modes.iter().product();
        match ttype {
            TransformType::Type1 => {
                let c = gen_strengths::<T>(m, seed + 1);
                let mut f = vec![Complex::<T>::ZERO; nmodes];
                plan.execute(&c, &mut f).expect("type1 execute");
            }
            _ => {
                let f = gen_strengths::<T>(nmodes, seed + 1);
                let mut c = vec![Complex::<T>::ZERO; m];
                plan.execute(&f, &mut c).expect("type2 execute");
            }
        }
    }
    assert!(dev.hazard_findings().is_clean(), "dynamic hazards present");
    let traces = dev.take_access_traces();
    (traces.into_iter().map(|(t, _)| t).collect(), plans)
}

/// The cross-validation harness: every dynamic access recorded during a
/// real checked execution must fall inside the static plan's predicted
/// set — "static refines dynamic".
fn assert_static_refines_dynamic<T: Real>(
    modes: &[usize],
    method: Method,
    m: usize,
    expect_kernels: &[&str],
) {
    let (traces, plans) = traced_lifecycle::<T>(modes, method, m);
    assert!(!traces.is_empty(), "no kernel traces retained");
    let mut covered = Vec::new();
    for trace in &traces {
        let Some(plan) = plans.get(trace.name()) else {
            // kernels without a declared access plan (FFT, deconvolve)
            // are outside the verifier's scope
            continue;
        };
        let mismatches = plan.contains_trace(trace);
        assert!(
            mismatches.is_empty(),
            "{} {:?} dim{}: dynamic access escaped the static plan:\n{}",
            trace.name(),
            method,
            modes.len(),
            mismatches.join("\n")
        );
        covered.push(trace.name().to_string());
    }
    for want in expect_kernels {
        assert!(
            covered.iter().any(|k| k == want),
            "expected a dynamic trace for {want}, saw {covered:?}"
        );
    }
}

const GM_KERNELS: &[&str] = &["spread_GM", "interp_GM"];
const GM_SORT_KERNELS: &[&str] = &[
    "calc_binidx",
    "bin_histogram",
    "bin_scan",
    "bin_scatter",
    "spread_GM-sort",
    "interp_GM-sort",
];
const SM_KERNELS: &[&str] = &[
    "calc_binidx",
    "bin_histogram",
    "bin_scan",
    "bin_scatter",
    "spread_SM",
    "interp_GM-sort",
];

#[test]
fn static_refines_dynamic_gm_2d_and_3d() {
    assert_static_refines_dynamic::<f32>(&[32, 32], Method::Gm, 1200, GM_KERNELS);
    assert_static_refines_dynamic::<f32>(&[16, 16, 16], Method::Gm, 1200, GM_KERNELS);
}

#[test]
fn static_refines_dynamic_gm_sort_2d_and_3d() {
    assert_static_refines_dynamic::<f32>(&[32, 32], Method::GmSort, 1200, GM_SORT_KERNELS);
    assert_static_refines_dynamic::<f32>(&[16, 16, 16], Method::GmSort, 1200, GM_SORT_KERNELS);
}

#[test]
fn static_refines_dynamic_sm_2d_and_3d() {
    // type 2 degrades SM to a sorted interp, so the SM spread kernel
    // itself appears via the type-1 leg
    assert_static_refines_dynamic::<f32>(&[32, 32], Method::Sm, 1200, SM_KERNELS);
    assert_static_refines_dynamic::<f32>(&[16, 16, 16], Method::Sm, 1200, SM_KERNELS);
}

#[test]
fn static_refines_dynamic_double_precision() {
    // 2D f64 SM is Remark-2 feasible at this tolerance; 3D f64 GM-sort
    // covers the wide-stride double path
    assert_static_refines_dynamic::<f64>(&[32, 32], Method::Sm, 1200, SM_KERNELS);
    assert_static_refines_dynamic::<f64>(&[16, 16, 16], Method::GmSort, 1200, GM_SORT_KERNELS);
}

#[test]
fn prime_grid_lifecycles_stay_inside_static_plans() {
    use nufft_common::smooth::FineSizing;
    // Bluestein-path fine grids (FineSizing::Exact on a prime size)
    // produce awkward strides; the static plans must still contain them.
    let dev = Device::v100();
    dev.retain_access_traces(true);
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &[37, 16])
        .eps(1e-5)
        .method(Method::GmSort)
        .fine_sizing(FineSizing::Exact)
        .hazard(HazardMode::Check)
        .build(&dev)
        .expect("plan build");
    let m = 900;
    let pts = gen_points::<f32>(PointDist::Rand, 2, m, plan.fine_grid_shape(), 41);
    plan.set_pts(&pts).expect("set_pts");
    let c = gen_strengths::<f32>(m, 42);
    let mut f = vec![Complex::<f32>::ZERO; 37 * 16];
    plan.execute(&c, &mut f).expect("execute");
    let plans: BTreeMap<String, AccessPlan> = plans_for(plan.geometry(), m)
        .into_iter()
        .map(|p| (p.kernel.clone(), p))
        .collect();
    let traces = dev.take_access_traces();
    let mut saw_spread = false;
    for (trace, _) in &traces {
        if let Some(plan) = plans.get(trace.name()) {
            let mismatches = plan.contains_trace(trace);
            assert!(
                mismatches.is_empty(),
                "{}: {}",
                trace.name(),
                mismatches.join("\n")
            );
            saw_spread |= trace.name() == "spread_GM-sort";
        }
    }
    assert!(saw_spread);
}

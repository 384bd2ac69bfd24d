//! GM / GM-sort spread launches are priced once per point set
//! (DESIGN.md §5l): the first execute after `set_pts` prices the spread
//! kernel, later executes replay its report. Replay must be invisible —
//! the same outputs to the bit and the same timeline records as a fresh
//! plan that prices every launch — and must never apply where a launch
//! has to run in full: under hazard checking, and on points bound since
//! the last pricing.

use cufinufft::{Method, Plan, RecoveryReport, TransformType};
use gpu_sim::{Device, FaultMode, FaultPlan, HazardMode, OpKind, TimelineRecord};
use nufft_common::workload::{gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, Points, Real};

/// The timeline records appended since `from`, minus allocations (a
/// plan's first execute allocates its IO buffers, later ones do not).
fn records_since(dev: &Device, from: usize) -> Vec<TimelineRecord> {
    dev.timeline()[from..]
        .iter()
        .filter(|r| r.kind != OpKind::Alloc)
        .cloned()
        .collect()
}

fn record_bits(r: &TimelineRecord) -> [u64; 8] {
    let b = &r.breakdown;
    [
        r.duration,
        b.makespan,
        b.l2,
        b.dram,
        b.compute,
        b.atomic_hotspot,
        b.atomic_ops,
        b.overhead,
    ]
    .map(f64::to_bits)
}

fn assert_records_eq(a: &[TimelineRecord], b: &[TimelineRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((&x.name, x.kind), (&y.name, y.kind), "{what}");
        assert_eq!(record_bits(x), record_bits(y), "{what}: {}", x.name);
    }
}

fn assert_bits_eq<T: Real>(a: &[Complex<T>], b: &[Complex<T>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_f64().to_bits() == y.re.to_f64().to_bits()
                && x.im.to_f64().to_bits() == y.im.to_f64().to_bits(),
            "{what}[{i}]: {x:?} != {y:?}"
        );
    }
}

fn spread_record<'a>(recs: &'a [TimelineRecord], what: &str) -> &'a TimelineRecord {
    recs.iter()
        .find(|r| r.kind == OpKind::Kernel && r.name.starts_with("spread_GM"))
        .unwrap_or_else(|| panic!("{what}: no spread launch recorded"))
}

fn type1_plan<T: Real>(dev: &Device, modes: &[usize], eps: f64, method: Method) -> Plan<T> {
    Plan::<T>::builder(TransformType::Type1, modes)
        .eps(eps)
        .method(method)
        .build(dev)
        .unwrap()
}

/// Execute once; return the output and the execute's records.
fn execute<T: Real>(
    plan: &mut Plan<T>,
    cs: &[Complex<T>],
) -> (Vec<Complex<T>>, Vec<TimelineRecord>) {
    let dev = plan.device().clone();
    let from = dev.timeline().len();
    let mut out = vec![Complex::<T>::ZERO; plan.modes().total()];
    plan.execute(cs, &mut out).unwrap();
    (out, records_since(&dev, from))
}

/// A fresh plan on a fresh device, bound to `pts`, executing once.
fn fresh_once<T: Real>(
    modes: &[usize],
    eps: f64,
    method: Method,
    pts: &Points<T>,
    cs: &[Complex<T>],
) -> (Vec<Complex<T>>, Vec<TimelineRecord>) {
    let dev = Device::v100();
    let mut plan = type1_plan::<T>(&dev, modes, eps, method);
    plan.set_pts(pts).unwrap();
    execute(&mut plan, cs)
}

fn check_replay<T: Real>(modes: &[usize], m: usize, eps: f64, method: Method, seed: u64) {
    let tag = format!("{method:?} modes={modes:?} f64={}", T::IS_DOUBLE);
    let dev = Device::v100();
    let mut plan = type1_plan::<T>(&dev, modes, eps, method);
    let fine = plan.fine_grid_shape();
    let rand: Points<T> = gen_points(PointDist::Rand, modes.len(), m, fine, seed);
    plan.set_pts(&rand).unwrap();
    let mut rand_spread = None;
    for k in 0..3 {
        let cs = gen_strengths::<T>(m, seed + 10 + k);
        let (out, recs) = execute(&mut plan, &cs);
        let (want, want_recs) = fresh_once(modes, eps, method, &rand, &cs);
        let what = format!("{tag} execute {k}");
        assert_bits_eq(&out, &want, &what);
        assert_records_eq(&recs, &want_recs, &what);
        rand_spread = Some(spread_record(&recs, &what).clone());
    }
    let rand_spread = rand_spread.expect("three executes ran");

    // the rest of an execute_many batch replays the first vector's price
    let batch: Vec<Complex<T>> = (0..3)
        .flat_map(|k| gen_strengths::<T>(m, seed + 10 + k))
        .collect();
    let from = dev.timeline().len();
    let mut outs = vec![Complex::<T>::ZERO; 3 * modes.iter().product::<usize>()];
    plan.execute_many(&batch, &mut outs).unwrap();
    let recs = records_since(&dev, from);
    let spreads: Vec<_> = recs
        .iter()
        .filter(|r| r.name == rand_spread.name)
        .cloned()
        .collect();
    assert_eq!(spreads.len(), 3, "{tag}: one spread launch per vector");
    for s in &spreads {
        assert_eq!(record_bits(s), record_bits(&rand_spread), "{tag}: batch");
    }

    // new points drop the stored price: the next execute is priced on
    // the clustered points, not replayed from the uniform ones
    let cluster: Points<T> = gen_points(PointDist::Cluster, modes.len(), m, fine, seed + 1);
    plan.set_pts(&cluster).unwrap();
    let cs = gen_strengths::<T>(m, seed + 20);
    let (out, recs) = execute(&mut plan, &cs);
    let (want, want_recs) = fresh_once(modes, eps, method, &cluster, &cs);
    let what = format!("{tag} after set_pts");
    assert_bits_eq(&out, &want, &what);
    assert_records_eq(&recs, &want_recs, &what);
    assert_ne!(
        record_bits(spread_record(&recs, &what)),
        record_bits(&rand_spread),
        "{what}: clustered spread priced like the uniform one"
    );
}

#[test]
fn repeat_executes_match_fresh_plans_2d() {
    for method in [Method::Gm, Method::GmSort] {
        check_replay::<f32>(&[24, 20], 400, 1e-5, method, 1);
        check_replay::<f64>(&[20, 24], 300, 1e-9, method, 2);
    }
}

#[test]
fn repeat_executes_match_fresh_plans_3d() {
    for method in [Method::Gm, Method::GmSort] {
        check_replay::<f32>(&[8, 10, 6], 250, 1e-5, method, 3);
        check_replay::<f64>(&[6, 8, 8], 150, 1e-8, method, 4);
    }
}

#[test]
fn hazard_checked_executes_are_never_replayed() {
    let dev = Device::v100();
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &[24, 24])
        .eps(1e-4)
        .method(Method::GmSort)
        .hazard(HazardMode::Check)
        .build(&dev)
        .unwrap();
    let m = 300;
    let pts: Points<f32> = gen_points(PointDist::Rand, 2, m, plan.fine_grid_shape(), 5);
    plan.set_pts(&pts).unwrap();
    let spread_traces = |dev: &Device| {
        dev.hazard_findings()
            .kernels
            .iter()
            .filter(|k| k.kernel == "spread_GM-sort")
            .count()
    };
    for k in 0..3 {
        let cs = gen_strengths::<f32>(m, 6 + k as u64);
        execute(&mut plan, &cs);
        assert_eq!(spread_traces(&dev), k + 1, "execute {k}");
    }
    assert!(dev.hazard_findings().is_clean());
}

/// Execute, arm a one-shot spread launch fault, execute again. With
/// `rebind`, `set_pts` binds the same points in between, so the second
/// execute prices its launch instead of replaying it.
fn faulted_second_execute(
    rebind: bool,
) -> (Vec<Complex<f64>>, Vec<TimelineRecord>, RecoveryReport, u64) {
    let modes = [8, 8, 6];
    let m = 200;
    let dev = Device::v100();
    let mut plan = type1_plan::<f64>(&dev, &modes, 1e-7, Method::GmSort);
    let pts: Points<f64> = gen_points(PointDist::Rand, 3, m, plan.fine_grid_shape(), 7);
    plan.set_pts(&pts).unwrap();
    execute(&mut plan, &gen_strengths::<f64>(m, 8));
    if rebind {
        plan.set_pts(&pts).unwrap();
    }
    dev.inject_faults(FaultPlan::new(9).fail_kernel("spread", FaultMode::Once));
    let (out, recs) = execute(&mut plan, &gen_strengths::<f64>(m, 10));
    (
        out,
        recs,
        plan.recovery_report().clone(),
        dev.faults_injected(),
    )
}

#[test]
fn launch_faults_hit_replayed_executes() {
    let (out, recs, report, injected) = faulted_second_execute(false);
    let (want, want_recs, want_report, want_injected) = faulted_second_execute(true);
    assert_eq!(injected, 1, "the replayed launch consulted the fault plan");
    assert_eq!(injected, want_injected);
    assert_eq!(report, want_report);
    assert_eq!(report.retries, 1);
    assert_bits_eq(&out, &want, "faulted execute");
    assert_records_eq(&recs, &want_recs, "faulted execute");
}

//! GM / GM-sort spread launches are priced once per point set
//! (DESIGN.md §5l): the first execute after `set_pts` prices the spread
//! kernel, later executes replay its report. Replay must be invisible —
//! the same outputs to the bit and the same timeline records as a fresh
//! plan that prices every launch — and must never apply where a launch
//! has to run in full: under hazard checking, and on points bound since
//! the last pricing. The last test pins the device clock, every stage
//! timing and an output digest of single and batched executions to the
//! bit.

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

/// Bit patterns of what one execution leaves behind: the device clock,
/// every `GpuStageTimings` field, and an FNV-1a digest of the output's
/// `to_bits`.
fn pin_bits<T: Real>(plan: &Plan<T>, out: &[Complex<T>]) -> [u64; 12] {
    let t = plan.timings();
    let digest = out
        .iter()
        .flat_map(|z| [z.re.to_f64().to_bits(), z.im.to_f64().to_bits()])
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ b).wrapping_mul(0x0100_0000_01b3)
        });
    [
        plan.device().clock().to_bits(),
        t.alloc.to_bits(),
        t.h2d_pts.to_bits(),
        t.sort.to_bits(),
        t.h2d_data.to_bits(),
        t.spread_interp.to_bits(),
        t.fft.to_bits(),
        t.deconv.to_bits(),
        t.d2h.to_bits(),
        t.batches as u64,
        t.pipe_wall.to_bits(),
        digest,
    ]
}

/// Build → `set_pts` → `execute` on a fresh device; the pins after the
/// execute and after a following two-vector `execute_many`.
fn pinned_run<T: Real>(
    ttype: TransformType,
    modes: &[usize],
    eps: f64,
    method: Method,
    seed: u64,
) -> [[u64; 12]; 2] {
    let dev = Device::v100();
    let mut plan = Plan::<T>::builder(ttype, modes)
        .eps(eps)
        .method(method)
        .build(&dev)
        .unwrap();
    let m = 1500;
    let n: usize = modes.iter().product();
    let (len_in, len_out) = match ttype {
        TransformType::Type1 => (m, n),
        TransformType::Type2 => (n, m),
    };
    let pts: Points<T> = gen_points(
        PointDist::Rand,
        modes.len(),
        m,
        plan.fine_grid_shape(),
        seed,
    );
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<T>::ZERO; len_out];
    plan.execute(&gen_strengths::<T>(len_in, seed + 1), &mut out)
        .unwrap();
    let single = pin_bits(&plan, &out);
    let mut outs = vec![Complex::<T>::ZERO; 2 * len_out];
    plan.execute_many(&gen_strengths::<T>(2 * len_in, seed + 2), &mut outs)
        .unwrap();
    [single, pin_bits(&plan, &outs)]
}

/// Simulated times and outputs of single and batched executions, pinned
/// to the bit on a 2D f32 SM plan and a 3D f64 GM-sort plan of both
/// types. A change to any stage's pricing, to the order of device
/// operations or to the arithmetic of an output moves a pin.
#[test]
fn execute_pins_clock_stage_timings_and_outputs() {
    use TransformType::{Type1, Type2};
    let got = [
        pinned_run::<f32>(Type1, &[32, 24], 1e-5, Method::Sm, 11),
        pinned_run::<f32>(Type2, &[32, 24], 1e-5, Method::Sm, 12),
        pinned_run::<f64>(Type1, &[12, 10, 8], 1e-9, Method::GmSort, 13),
        pinned_run::<f64>(Type2, &[12, 10, 8], 1e-9, Method::GmSort, 14),
    ];
    // recorded before the single and batched paths shared one stage
    // body, so the pins also hold that merge to bit-identity
    #[rustfmt::skip]
    let want: [[[u64; 12]; 2]; 4] = [
        [
            [
                0x3f4d18ad6f574ccb, 0x3f4a37657c438dee, 0x3ef6052502eec7c0,
                0x3eef8e2f39323e00, 0x3ee711947cfa26c0, 0x3ef9629344a98720,
                0x3eca15036fcb4900, 0x3ec947c570e83100, 0x3ee60b964765d640,
                0x0000000000000001, 0x0000000000000000, 0x980f17400a8b9b25,
            ],
            [
                0x3f54cf7ff3d96bea, 0x3f52063041c0ccd0, 0x3ef6052502eec7c0,
                0x3eef8e2f39323e00, 0x3ef711947cfa26a3, 0x3f09629344a98740,
                0x3eda15036fcb4800, 0x3ed947c570e83000, 0x3ef60b964765d65a,
                0x0000000000000002, 0x3f158abb88ebfac0, 0xdf0bddc1a4351325,
            ],
        ],
        [
            [
                0x3f4c73b193c91e44, 0x3f4a37657c438dee, 0x3ef6052502eec7c0,
                0x3ee9438896ee1280, 0x3ee60b964765d640, 0x3ed2ef20d7b77180,
                0x3eca15036fcb4900, 0x3ed9566e70d3d700, 0x3ee711947cfa26c0,
                0x0000000000000001, 0x0000000000000000, 0x5b1f18407a464b85,
            ],
            [
                0x3f53f130c50d36ce, 0x3f52063041c0cccf, 0x3ef6052502eec7c0,
                0x3ee9438896ee1280, 0x3ef60b964765d65a, 0x3ee2ef20d7b77200,
                0x3eda15036fcb4800, 0x3ee9566e70d3d700, 0x3ef711947cfa26a3,
                0x0000000000000002, 0x3f099b4ef1343a80, 0x4832ca6aaa08c7e5,
            ],
        ],
        [
            [
                0x3f5109b2339e4c54, 0x3f4a39053cfd4ccc, 0x3f014d2f5dbb9d10,
                0x3ee9521b9959d780, 0x3ee92a737110e440, 0x3f258714833dc6f8,
                0x3ed0e0bcb2922800, 0x3ec973c070ab2400, 0x3ee7a7e765297a80,
                0x0000000000000001, 0x0000000000000000, 0x41ee3ffb01541245,
            ],
            [
                0x3f5bf38205d80f4a, 0x3f5207b36066b36e, 0x3f014d2f5dbb9d10,
                0x3ee9521b9959d780, 0x3ef92a737110e454, 0x3f358714833dc6f0,
                0x3ee0e0bcb2922800, 0x3ed973c070ab2400, 0x3ef7a7e765297a78,
                0x0000000000000002, 0x3f37fa7c4146d7b8, 0xb0ebfa53461522b2,
            ],
        ],
        [
            [
                0x3f4e1d6d91049fa6, 0x3f4a39053cfd4ccc, 0x3f014d2f5dbb9d10,
                0x3ee9521b9959d780, 0x3ee7a7e765297a80, 0x3f051355628649b0,
                0x3ed0e0bcb2922800, 0x3eda065a6fdfa280, 0x3ee92a737110e440,
                0x0000000000000001, 0x0000000000000000, 0x414c4121bbb482ed,
            ],
            [
                0x3f56028fc48419c9, 0x3f5207b36066b36e, 0x3f014d2f5dbb9d10,
                0x3ee9521b9959d780, 0x3ef7a7e765297a78, 0x3f151355628649c0,
                0x3ee0e0bcb2922800, 0x3eea065a6fdfa200, 0x3ef92a737110e454,
                0x0000000000000002, 0x3f204541d0cde770, 0xe31d53c93a21ece9,
            ],
        ],
    ];
    assert_eq!(got, want, "pins moved; actual:\n{got:#018x?}");
}

//! Correctness and behaviour of the comparator libraries.

use gpu_sim::Device;
use nufft_baselines::{CunfftPlan, GpunufftPlan};
use nufft_common::metrics::rel_l2;
use nufft_common::reference::{type1_direct, type2_direct};
use nufft_common::workload::{gen_coeffs, gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, Points, Shape, TransformType};

#[test]
fn cunfft_type1_meets_moderate_tolerances() {
    for eps in [1e-2, 1e-4, 1e-6] {
        let dev = Device::v100();
        let modes = [20usize, 16];
        let shape = Shape::from_slice(&modes);
        let mut plan = CunfftPlan::<f64>::new(TransformType::Type1, &modes, -1, eps, &dev).unwrap();
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 300, plan.fine_grid_shape(), 1);
        let cs = gen_strengths::<f64>(300, 2);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        let want = type1_direct(&pts, &cs, shape, -1);
        let err = rel_l2(&out, &want);
        assert!(err < 30.0 * eps, "eps={eps}: err={err}");
    }
}

#[test]
fn cunfft_type2_works() {
    let dev = Device::v100();
    let modes = [18usize, 22];
    let shape = Shape::from_slice(&modes);
    let mut plan = CunfftPlan::<f64>::new(TransformType::Type2, &modes, 1, 1e-5, &dev).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, 250, plan.fine_grid_shape(), 3);
    let f = gen_coeffs::<f64>(shape.total(), 4);
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; 250];
    plan.execute(&f, &mut out).unwrap();
    let want = type2_direct(&pts, &f, shape, 1);
    assert!(rel_l2(&out, &want) < 1e-4);
}

#[test]
fn cunfft_needs_wider_kernel_than_cufinufft() {
    let dev = Device::v100();
    let cn = CunfftPlan::<f32>::new(TransformType::Type1, &[64, 64], -1, 1e-5, &dev).unwrap();
    let cf = cufinufft::Plan::<f32>::builder(TransformType::Type1, &[64, 64])
        .eps(1e-5)
        .build(&dev)
        .unwrap();
    assert!(cn.kernel().w > cf.kernel().w);
}

#[test]
fn cunfft_collapses_on_clustered_points() {
    // the paper's Fig. 6: CUNFFT slows ~200x on "cluster" for type 1
    let dev = Device::v100();
    let modes = [256usize, 256];
    let m = 50_000;
    let run = |dist: PointDist| -> f64 {
        let mut plan =
            CunfftPlan::<f32>::new(TransformType::Type1, &modes, -1, 1e-2, &dev).unwrap();
        let pts: Points<f32> = gen_points(dist, 2, m, plan.fine_grid_shape(), 5);
        let cs = gen_strengths::<f32>(m, 6);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f32>::ZERO; modes[0] * modes[1]];
        plan.execute(&cs, &mut out).unwrap();
        plan.timings().exec()
    };
    let t_rand = run(PointDist::Rand);
    let t_cluster = run(PointDist::Cluster);
    assert!(
        t_cluster > 30.0 * t_rand,
        "cluster {t_cluster} should be >30x rand {t_rand}"
    );
}

#[test]
fn gpunufft_type1_accuracy_floor() {
    // LUT kernel + width cap: fine at 1e-2, saturates by ~1e-4
    let dev = Device::v100();
    let modes = [20usize, 20];
    let shape = Shape::from_slice(&modes);
    let mut errs = Vec::new();
    for eps in [1e-2, 1e-8] {
        let mut plan =
            GpunufftPlan::<f64>::new(TransformType::Type1, &modes, -1, eps, &dev).unwrap();
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 300, plan.fine_grid_shape(), 7);
        let cs = gen_strengths::<f64>(300, 8);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        let want = type1_direct(&pts, &cs, shape, -1);
        errs.push(rel_l2(&out, &want));
    }
    assert!(errs[0] < 1e-1, "moderate accuracy works: {}", errs[0]);
    // requesting 1e-8 cannot be honored: floor well above it
    assert!(errs[1] > 1e-7, "LUT/width floor expected: {}", errs[1]);
}

#[test]
fn gpunufft_type2_works() {
    let dev = Device::v100();
    let modes = [16usize, 12];
    let shape = Shape::from_slice(&modes);
    let mut plan = GpunufftPlan::<f64>::new(TransformType::Type2, &modes, 1, 1e-3, &dev).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, 200, plan.fine_grid_shape(), 9);
    let f = gen_coeffs::<f64>(shape.total(), 10);
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; 200];
    plan.execute(&f, &mut out).unwrap();
    let want = type2_direct(&pts, &f, shape, 1);
    assert!(rel_l2(&out, &want) < 1e-2);
}

#[test]
fn gpunufft_3d_gather_matches_direct() {
    let dev = Device::v100();
    let modes = [8usize, 10, 6];
    let shape = Shape::from_slice(&modes);
    let mut plan = GpunufftPlan::<f64>::new(TransformType::Type1, &modes, -1, 1e-3, &dev).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 3, 150, plan.fine_grid_shape(), 11);
    let cs = gen_strengths::<f64>(150, 12);
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; shape.total()];
    plan.execute(&cs, &mut out).unwrap();
    let want = type1_direct(&pts, &cs, shape, -1);
    assert!(rel_l2(&out, &want) < 1e-2, "{}", rel_l2(&out, &want));
}

/// Run one gpuNUFFT type-1 transform with `threads` host workers and
/// return its gridding launch as the bit patterns pinned below —
/// duration, the seven `Breakdown` terms, L2 and DRAM bytes, flops,
/// global atomics, hotspot count and blocks — plus the output.
///
/// The plan does not hand out its launch report, so the test reads it
/// off the device: duration and terms from the timeline, the integer
/// counts from trace counters, and the byte and flop totals recovered
/// from their terms (`l2 = l2_bytes / l2_bw` and so on; the totals are
/// integer-valued, so rounding recovers them exactly).
fn gpunufft_adjoint_case<T: nufft_common::real::Real>(
    dist: PointDist,
    modes: &[usize],
    m: usize,
    threads: usize,
) -> ([u64; 14], Vec<Complex<T>>) {
    let dev = Device::v100();
    dev.set_host_parallelism(threads);
    let mut plan = GpunufftPlan::<T>::new(TransformType::Type1, modes, -1, 1e-3, &dev).unwrap();
    let pts: Points<T> = gen_points(dist, modes.len(), m, plan.fine_grid_shape(), 17);
    let cs = gen_strengths::<T>(m, 18);
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<T>::ZERO; Shape::from_slice(modes).total()];
    let trace = gpu_sim::Trace::new();
    dev.attach_trace(&trace);
    dev.clear_timeline();
    plan.execute(&cs, &mut out).unwrap();
    dev.detach_trace();
    assert_eq!(trace.counter("gpu.kernel_launches").get(), 1);
    let rec = dev
        .timeline()
        .into_iter()
        .find(|r| r.name == "gpunufft_adjoint")
        .expect("gridding launch recorded");
    let (p, b) = (dev.props(), rec.breakdown);
    let prec = if T::IS_DOUBLE {
        gpu_sim::Precision::F64
    } else {
        gpu_sim::Precision::F32
    };
    let bits = [
        rec.duration.to_bits(),
        b.makespan.to_bits(),
        b.l2.to_bits(),
        b.dram.to_bits(),
        b.compute.to_bits(),
        b.atomic_hotspot.to_bits(),
        b.atomic_ops.to_bits(),
        b.overhead.to_bits(),
        (b.l2 * p.l2_bw).round().to_bits(),
        (b.dram * p.dram_bw).round().to_bits(),
        (b.compute * p.flops(prec)).round().to_bits(),
        trace.counter("gpu.global_atomics").get() as u64,
        trace.gauge("gpu.atomic_hotspot_max").get() as u64,
        trace.counter("gpu.blocks").get() as u64,
    ];
    (bits, out)
}

#[test]
fn gpunufft_adjoint_launch_is_pinned_at_any_host_parallelism() {
    let pin_2d_f32_cluster: [u64; 14] = [
        0x3ef90bb19791caae,
        0x3ef5e663296fae24,
        0x3e66ce68205765d1,
        0x3e53da2fe4712579,
        0x3ebf076918d86ea9,
        0x3ed477dc2f9645a8,
        0x3e712e0be826d695,
        0x3ec92a737110e454,
        0x40f4be0000000000,
        0x40d0400000000000,
        0x4161490000000000,
        19200,
        1220,
        18,
    ];
    let pin_3d_f64_rand: [u64; 14] = [
        0x3f20dc213f36eb1b,
        0x3f2077777172a78a,
        0x3e900df9768386bc,
        0x3e8bcff2d9646be1,
        0x3ef3971e8e9a0071,
        0x3e8353cd652bb168,
        0x3e812e0be826d695,
        0x3ec92a737110e454,
        0x411d340000000000,
        0x4106c40000000000,
        0x4185d38000000000,
        38400,
        36,
        12,
    ];
    let mut outs32 = Vec::new();
    let mut outs64 = Vec::new();
    for threads in [1, 4] {
        let (bits, out) = gpunufft_adjoint_case::<f32>(PointDist::Cluster, &[24, 20], 600, threads);
        assert_eq!(bits, pin_2d_f32_cluster, "threads={threads}");
        outs32.push(out);
        let (bits, out) = gpunufft_adjoint_case::<f64>(PointDist::Rand, &[8, 10, 6], 300, threads);
        assert_eq!(bits, pin_3d_f64_rand, "threads={threads}");
        outs64.push(out);
    }
    let bits32 = |v: &[Complex<f32>]| -> Vec<(u32, u32)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    };
    let bits64 = |v: &[Complex<f64>]| -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    };
    assert_eq!(bits32(&outs32[0]), bits32(&outs32[1]));
    assert_eq!(bits64(&outs64[0]), bits64(&outs64[1]));
}

#[test]
fn gpunufft_gather_agrees_with_cufinufft_structurally() {
    // same transform through the output-driven gather and cuFINUFFT must
    // agree up to the kernels' differing accuracy (~LUT floor)
    let dev = Device::v100();
    let modes = [24usize, 24];
    let shape = Shape::from_slice(&modes);
    let mut g = GpunufftPlan::<f64>::new(TransformType::Type1, &modes, -1, 1e-3, &dev).unwrap();
    let mut c = cufinufft::Plan::<f64>::builder(TransformType::Type1, &modes)
        .eps(1e-9)
        .build(&dev)
        .unwrap();
    let pts: Points<f64> = gen_points(PointDist::Cluster, 2, 400, g.fine_grid_shape(), 13);
    let cs = gen_strengths::<f64>(400, 14);
    g.set_pts(&pts).unwrap();
    c.set_pts(&pts).unwrap();
    let mut go = vec![Complex::<f64>::ZERO; shape.total()];
    let mut co = vec![Complex::<f64>::ZERO; shape.total()];
    g.execute(&cs, &mut go).unwrap();
    c.execute(&cs, &mut co).unwrap();
    assert!(rel_l2(&go, &co) < 1e-2);
}

#[test]
fn gpunufft_slower_than_cufinufft_at_matched_settings() {
    let dev = Device::v100();
    let modes = [256usize, 256];
    let m = 100_000;
    let mut g = GpunufftPlan::<f32>::new(TransformType::Type1, &modes, -1, 1e-2, &dev).unwrap();
    let pts: Points<f32> = gen_points(PointDist::Rand, 2, m, g.fine_grid_shape(), 15);
    let cs = gen_strengths::<f32>(m, 16);
    g.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<f32>::ZERO; modes[0] * modes[1]];
    g.execute(&cs, &mut out).unwrap();
    let t_g = g.timings().exec();
    let mut c = cufinufft::Plan::<f32>::builder(TransformType::Type1, &modes)
        .eps(1e-2)
        .build(&dev)
        .unwrap();
    c.set_pts(&pts).unwrap();
    c.execute(&cs, &mut out).unwrap();
    let t_c = c.timings().exec();
    assert!(
        t_g > 5.0 * t_c,
        "gpuNUFFT {t_g} should be much slower than cuFINUFFT {t_c}"
    );
}

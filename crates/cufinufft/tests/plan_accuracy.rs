//! End-to-end correctness of the GPU plan: accuracy against direct sums,
//! agreement across spreading methods and with the CPU library, plan
//! reuse, timing/memory reporting semantics.

use cufinufft::{GpuOpts, Method, Plan, TransformType};
use gpu_sim::Device;
use nufft_common::metrics::rel_l2;
use nufft_common::reference::{type1_direct, type2_direct};
use nufft_common::workload::{gen_coeffs, gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, NufftError, Points, Real, Shape};

fn run_t1<T: Real>(
    modes: &[usize],
    m: usize,
    eps: f64,
    method: Method,
    dist: PointDist,
    seed: u64,
) -> (Vec<Complex<T>>, Points<T>, Vec<Complex<T>>) {
    let dev = Device::v100();
    let mut plan = Plan::<T>::builder(TransformType::Type1, modes)
        .eps(eps)
        .method(method)
        .build(&dev)
        .unwrap();
    let pts: Points<T> = gen_points(dist, modes.len(), m, plan.fine_grid_shape(), seed);
    let cs = gen_strengths::<T>(m, seed + 1);
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<T>::ZERO; modes.iter().product()];
    plan.execute(&cs, &mut out).unwrap();
    (out, pts, cs)
}

#[test]
fn type1_2d_all_methods_meet_tolerance() {
    let modes = [24usize, 20];
    let shape = Shape::from_slice(&modes);
    for method in [Method::Gm, Method::GmSort, Method::Sm] {
        for eps in [1e-3, 1e-7, 1e-11] {
            let (out, pts, cs) = run_t1::<f64>(&modes, 400, eps, method, PointDist::Rand, 10);
            let want = type1_direct(&pts, &cs, shape, -1);
            let err = rel_l2(&out, &want);
            assert!(err < 10.0 * eps, "{method:?} eps={eps}: err={err}");
        }
    }
}

#[test]
fn type1_3d_all_methods_meet_tolerance() {
    let modes = [10usize, 12, 8];
    let shape = Shape::from_slice(&modes);
    // double precision: SM is infeasible in 3D (Remark 2), so test GM
    // and GM-sort there ...
    for method in [Method::Gm, Method::GmSort] {
        let (out, pts, cs) = run_t1::<f64>(&modes, 300, 1e-6, method, PointDist::Rand, 20);
        let want = type1_direct(&pts, &cs, shape, -1);
        let err = rel_l2(&out, &want);
        assert!(err < 1e-5, "{method:?}: err={err}");
    }
    // ... and SM in single precision, where it fits in shared memory.
    let (out, pts, cs) = run_t1::<f32>(&modes, 300, 1e-5, Method::Sm, PointDist::Rand, 21);
    let want = type1_direct(&pts, &cs, shape, -1);
    let err = rel_l2(&out, &want);
    assert!(err < 1e-4, "Sm f32: err={err}");
}

#[test]
fn methods_agree_with_each_other_clustered() {
    let modes = [32usize, 32];
    let mut results = Vec::new();
    for method in [Method::Gm, Method::GmSort, Method::Sm] {
        let (out, _, _) = run_t1::<f64>(&modes, 600, 1e-9, method, PointDist::Cluster, 30);
        results.push(out);
    }
    assert!(rel_l2(&results[0], &results[1]) < 1e-12);
    assert!(rel_l2(&results[0], &results[2]) < 1e-12);
}

#[test]
fn type2_2d_and_3d_meet_tolerance() {
    for (modes, m) in [(vec![22usize, 18], 350), (vec![8usize, 10, 12], 250)] {
        let dev = Device::v100();
        let shape = Shape::from_slice(&modes);
        let mut plan = Plan::<f64>::builder(TransformType::Type2, &modes)
            .eps(1e-9)
            .build(&dev)
            .unwrap();
        let pts: Points<f64> =
            gen_points(PointDist::Rand, modes.len(), m, plan.fine_grid_shape(), 40);
        let f = gen_coeffs::<f64>(shape.total(), 41);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; m];
        plan.execute(&f, &mut out).unwrap();
        let want = type2_direct(&pts, &f, shape, 1);
        let err = rel_l2(&out, &want);
        assert!(err < 1e-8, "dims {:?}: err={err}", modes);
    }
}

#[test]
fn gpu_agrees_with_cpu_library() {
    let modes = [30usize, 26];
    let shape = Shape::from_slice(&modes);
    let dev = Device::v100();
    let mut gplan = Plan::<f64>::builder(TransformType::Type1, &modes)
        .eps(1e-10)
        .build(&dev)
        .unwrap();
    let mut cplan = finufft_cpu::Plan::<f64>::new(
        finufft_cpu::TransformType::Type1,
        &modes,
        -1,
        1e-10,
        finufft_cpu::Opts::default(),
    )
    .unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, 800, gplan.fine_grid_shape(), 50);
    let cs = gen_strengths::<f64>(800, 51);
    gplan.set_pts(&pts).unwrap();
    cplan.set_pts(pts).unwrap();
    let mut gout = vec![Complex::<f64>::ZERO; shape.total()];
    let mut cout = vec![Complex::<f64>::ZERO; shape.total()];
    gplan.execute(&cs, &mut gout).unwrap();
    cplan.execute(&cs, &mut cout).unwrap();
    // identical algorithm and kernel: results agree to near round-off
    assert!(rel_l2(&gout, &cout) < 1e-12);
}

#[test]
fn single_precision_works() {
    let modes = [16usize, 16];
    let shape = Shape::from_slice(&modes);
    let (out, pts, cs) = run_t1::<f32>(&modes, 300, 1e-5, Method::Sm, PointDist::Rand, 60);
    let want = type1_direct(&pts, &cs, shape, -1);
    assert!(rel_l2(&out, &want) < 1e-4);
}

#[test]
fn sm_in_3d_double_high_accuracy_falls_back() {
    // Remark 2: Auto must resolve to GM-sort for 3D f64 at w > 8
    let dev = Device::v100();
    let plan = Plan::<f64>::builder(TransformType::Type1, &[16, 16, 16])
        .eps(1e-9)
        .build(&dev)
        .unwrap();
    assert_eq!(plan.spread_method(), Method::GmSort);
    // and in 3D single precision SM remains available
    let plan32 = Plan::<f32>::builder(TransformType::Type1, &[16, 16, 16])
        .eps(1e-5)
        .build(&dev)
        .unwrap();
    assert_eq!(plan32.spread_method(), Method::Sm);
}

#[test]
fn plan_reuse_accumulates_exec_only() {
    let dev = Device::v100();
    let modes = [64usize, 64];
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &modes)
        .eps(1e-5)
        .build(&dev)
        .unwrap();
    let pts: Points<f32> = gen_points(PointDist::Rand, 2, 5000, plan.fine_grid_shape(), 70);
    plan.set_pts(&pts).unwrap();
    let t_sort_first = plan.timings().sort;
    assert!(t_sort_first > 0.0, "set_pts must charge sorting time");
    let mut out = vec![Complex::<f32>::ZERO; modes.iter().product()];
    for seed in 0..3u64 {
        let cs = gen_strengths::<f32>(5000, seed);
        plan.execute(&cs, &mut out).unwrap();
        let t = plan.timings();
        assert!(t.exec() > 0.0);
        assert!(t.spread_interp > 0.0 && t.fft > 0.0 && t.deconv > 0.0);
        // sort time unchanged by execute
        assert_eq!(t.sort, t_sort_first);
        assert!(t.total_mem() > t.total() && t.total() > t.exec());
    }
}

#[test]
fn device_memory_tracking_reports_plan_footprint() {
    let dev = Device::v100();
    let before = dev.mem_used();
    {
        let modes = [64usize, 64];
        let mut plan = Plan::<f32>::builder(TransformType::Type1, &modes)
            .eps(1e-5)
            .build(&dev)
            .unwrap();
        // fine grid is 128x128 complex f32 = 128 KiB at least
        assert!(dev.mem_used() >= before + 128 * 128 * 8);
        let pts: Points<f32> = gen_points(PointDist::Rand, 2, 10_000, plan.fine_grid_shape(), 80);
        plan.set_pts(&pts).unwrap();
        assert!(dev.mem_used() >= before + 128 * 128 * 8 + 2 * 10_000 * 4);
    }
    // dropping the plan frees everything
    assert_eq!(dev.mem_used(), before);
}

#[test]
fn error_paths() {
    use nufft_common::NufftError;
    let dev = Device::v100();
    // execute before set_pts
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &[8, 8])
        .eps(1e-4)
        .build(&dev)
        .unwrap();
    let mut out = vec![Complex::<f32>::ZERO; 64];
    assert!(matches!(
        plan.execute(&[], &mut out),
        Err(NufftError::PointsNotSet)
    ));
    // eps below single-precision limit
    assert!(matches!(
        Plan::<f32>::builder(TransformType::Type1, &[8, 8])
            .eps(1e-9)
            .build(&dev),
        Err(NufftError::EpsTooSmall { .. })
    ));
    // explicit SM for an infeasible config
    assert!(matches!(
        Plan::<f64>::builder(TransformType::Type1, &[16, 16, 16])
            .eps(1e-9)
            .method(Method::Sm)
            .build(&dev),
        Err(NufftError::MethodUnavailable(_))
    ));
    // wrong point dimensionality
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &[8, 8])
        .eps(1e-4)
        .build(&dev)
        .unwrap();
    let pts1d = Points::<f32> {
        coords: [vec![0.0], vec![], vec![]],
        dim: 1,
    };
    assert!(matches!(plan.set_pts(&pts1d), Err(NufftError::BadDim(1))));
}

#[test]
fn both_iflag_signs() {
    let modes = [14usize, 14];
    let shape = Shape::from_slice(&modes);
    for iflag in [-1i32, 1] {
        let dev = Device::v100();
        let mut plan = Plan::<f64>::builder(TransformType::Type1, &modes)
            .eps(1e-9)
            .iflag(iflag)
            .build(&dev)
            .unwrap();
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 200, plan.fine_grid_shape(), 90);
        let cs = gen_strengths::<f64>(200, 91);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        let want = type1_direct(&pts, &cs, shape, iflag);
        assert!(rel_l2(&out, &want) < 1e-8, "iflag={iflag}");
    }
}

#[test]
fn batched_execute_matches_sequential() {
    let modes = [18usize, 16];
    let shape = Shape::from_slice(&modes);
    let dev = Device::v100();
    let mut plan = Plan::<f64>::builder(TransformType::Type1, &modes)
        .eps(1e-9)
        .build(&dev)
        .unwrap();
    let m = 250;
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, m, plan.fine_grid_shape(), 61);
    plan.set_pts(&pts).unwrap();
    let n_transf = 3;
    let input: Vec<_> = (0..n_transf)
        .flat_map(|t| gen_strengths::<f64>(m, 70 + t as u64))
        .collect();
    let mut batched = vec![Complex::<f64>::ZERO; shape.total() * n_transf];
    plan.execute_many(&input, &mut batched).unwrap();
    // timing accumulates across the batch
    let t_batch = plan.timings();
    assert!(t_batch.exec() > 0.0);
    for t in 0..n_transf {
        let mut single = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&input[t * m..(t + 1) * m], &mut single)
            .unwrap();
        assert!(
            rel_l2(
                &batched[t * shape.total()..(t + 1) * shape.total()],
                &single
            ) < 1e-14,
            "batch member {t}"
        );
    }
    // sort time is paid once, not per member
    assert!(t_batch.sort <= plan.timings().sort * 1.001 + 1e-12);
    // invalid batch sizes rejected: an empty batch, and an input of one
    // vector against an output sized for three
    assert!(plan.execute_many(&[], &mut batched).is_err());
    assert!(plan.execute_many(&input[..m], &mut batched).is_err());
}

#[test]
fn one_dimensional_gpu_transforms() {
    // 1D is listed as cuFINUFFT future work (paper Sec. VI); this
    // reproduction provides it through the same machinery
    let modes = [96usize];
    let shape = Shape::from_slice(&modes);
    let dev = Device::v100();
    let mut p1 = Plan::<f64>::builder(TransformType::Type1, &modes)
        .eps(1e-10)
        .build(&dev)
        .unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 1, 500, p1.fine_grid_shape(), 90);
    let cs = gen_strengths::<f64>(500, 91);
    p1.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; shape.total()];
    p1.execute(&cs, &mut out).unwrap();
    let want = type1_direct(&pts, &cs, shape, -1);
    assert!(rel_l2(&out, &want) < 1e-9, "{}", rel_l2(&out, &want));

    let mut p2 = Plan::<f64>::builder(TransformType::Type2, &modes)
        .eps(1e-10)
        .build(&dev)
        .unwrap();
    p2.set_pts(&pts).unwrap();
    let f = gen_coeffs::<f64>(shape.total(), 92);
    let mut out2 = vec![Complex::<f64>::ZERO; 500];
    p2.execute(&f, &mut out2).unwrap();
    let want2 = type2_direct(&pts, &f, shape, 1);
    assert!(rel_l2(&out2, &want2) < 1e-9);
}

#[test]
fn fft_mode_ordering_is_a_permutation_of_centered() {
    use cufinufft::ModeOrder;
    let modes = [12usize, 10];
    let shape = Shape::from_slice(&modes);
    let dev = Device::v100();
    let run = |ord: ModeOrder| {
        let mut plan = Plan::<f64>::builder(TransformType::Type1, &modes)
            .eps(1e-9)
            .modeord(ord)
            .build(&dev)
            .unwrap();
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 150, plan.fine_grid_shape(), 95);
        let cs = gen_strengths::<f64>(150, 96);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        out
    };
    let centered = run(ModeOrder::Centered);
    let fftord = run(ModeOrder::Fft);
    // mode k sits at index k + N/2 (centered) vs k mod N (fft order)
    for j2 in 0..modes[1] {
        for j1 in 0..modes[0] {
            let f1 = (j1 + modes[0] - modes[0] / 2) % modes[0];
            let f2 = (j2 + modes[1] - modes[1] / 2) % modes[1];
            let a = centered[j1 + modes[0] * j2];
            let b = fftord[f1 + modes[0] * f2];
            assert_eq!(a.re, b.re);
            assert_eq!(a.im, b.im);
        }
    }
    // and type 2 accepts FFT-ordered input consistently: a transform
    // round trip through fft-ordered coefficients matches direct
    let mut p2 = Plan::<f64>::builder(TransformType::Type2, &modes)
        .eps(1e-9)
        .modeord(ModeOrder::Fft)
        .build(&dev)
        .unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, 120, p2.fine_grid_shape(), 97);
    p2.set_pts(&pts).unwrap();
    // build fft-ordered coefficients from a centered reference vector
    let f_centered = gen_coeffs::<f64>(shape.total(), 98);
    let mut f_fft = vec![Complex::<f64>::ZERO; shape.total()];
    for j2 in 0..modes[1] {
        for j1 in 0..modes[0] {
            let f1 = (j1 + modes[0] - modes[0] / 2) % modes[0];
            let f2 = (j2 + modes[1] - modes[1] / 2) % modes[1];
            f_fft[f1 + modes[0] * f2] = f_centered[j1 + modes[0] * j2];
        }
    }
    let mut out = vec![Complex::<f64>::ZERO; 120];
    p2.execute(&f_fft, &mut out).unwrap();
    let want = type2_direct(&pts, &f_centered, shape, 1);
    assert!(rel_l2(&out, &want) < 1e-8);
}

#[test]
fn degenerate_sizes_are_handled() {
    let dev = Device::v100();
    // a single output mode: f_0 = sum of strengths
    let mut p = Plan::<f64>::builder(TransformType::Type1, &[1, 1])
        .build(&dev)
        .unwrap();
    let pts = Points::<f64> {
        coords: [vec![0.5, -1.0], vec![0.3, 0.7], vec![]],
        dim: 2,
    };
    p.set_pts(&pts).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; 1];
    p.execute(&[Complex::new(1.0, 0.0), Complex::new(2.0, 0.0)], &mut out)
        .unwrap();
    assert!((out[0].re - 3.0).abs() < 1e-4 && out[0].im.abs() < 1e-6);

    // zero nonuniform points: type 1 gives zeros, type 2 gives nothing
    let empty = Points::<f64> {
        coords: [vec![], vec![], vec![]],
        dim: 2,
    };
    let mut p = Plan::<f64>::builder(TransformType::Type1, &[8, 8])
        .build(&dev)
        .unwrap();
    p.set_pts(&empty).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; 64];
    p.execute(&[], &mut out).unwrap();
    assert!(out.iter().all(|z| z.re == 0.0 && z.im == 0.0));
    let mut p = Plan::<f64>::builder(TransformType::Type2, &[8, 8])
        .build(&dev)
        .unwrap();
    p.set_pts(&empty).unwrap();
    let f = vec![Complex::new(1.0, 0.0); 64];
    let mut out2: Vec<Complex<f64>> = vec![];
    p.execute(&f, &mut out2).unwrap();
}

#[test]
fn pipelined_batches_overlap_transfers() {
    let modes = [128usize, 128];
    let dev = Device::v100();
    let n_transf = 6;
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &modes)
        .eps(1e-4)
        .ntransf(n_transf)
        .build(&dev)
        .unwrap();
    let m = 40_000;
    let pts: Points<f32> = gen_points(PointDist::Rand, 2, m, plan.fine_grid_shape(), 63);
    plan.set_pts(&pts).unwrap();
    let input: Vec<_> = (0..n_transf)
        .flat_map(|t| gen_strengths::<f32>(m, 80 + t as u64))
        .collect();
    let n: usize = modes.iter().product();
    let mut out = vec![Complex::<f32>::ZERO; n * n_transf];
    plan.execute_many(&input, &mut out).unwrap();
    let lt = plan.timings();
    assert_eq!(lt.batches, n_transf);
    // the pipelined wall beats the serial sum of the same stages...
    let wall = lt.pipe_wall;
    let serial = lt.batch_serial();
    assert!(
        wall > 0.0 && wall < serial,
        "pipelined {wall} vs serial {serial}"
    );
    assert!(lt.overlap_saving() > 0.0);
    assert!((lt.overlap_saving() - (serial - wall)).abs() < 1e-12);
    // ...but is no faster than the compute-bound floor (the SM array
    // serializes across streams)
    assert!(wall >= lt.exec());
    // the chunk schedule is reported and consistent
    let bt = plan.batch_timings();
    assert!(bt.chunks.len() >= 2, "expected multiple chunks");
    assert!((bt.wall - wall).abs() < 1e-12);
    assert!((bt.saving() - lt.overlap_saving()).abs() < 1e-9);
    assert_eq!(bt.chunks.iter().map(|c| c.ntransf).sum::<usize>(), n_transf);
    for w in bt.chunks.windows(2) {
        assert!(w[1].start >= w[0].start, "chunks scheduled in order");
    }
    // numerics identical to sequential single executes
    let mut out2 = vec![Complex::<f32>::ZERO; n * n_transf];
    for (cs, f) in input.chunks_exact(m).zip(out2.chunks_exact_mut(n)) {
        plan.execute(cs, f).unwrap();
    }
    for (a, b) in out.iter().zip(out2.iter()) {
        assert_eq!(a.re, b.re);
        assert_eq!(a.im, b.im);
    }
}

#[test]
fn batched_total_mem_beats_sequential_batches() {
    // the acceptance bar: B=8 on a 128^2 type-1 plan must report a
    // total+mem strictly below 8x the single-transform total+mem
    let modes = [128usize, 128];
    let dev = Device::v100();
    let m = 30_000;
    let n: usize = modes.iter().product();
    let mut single = Plan::<f32>::builder(TransformType::Type1, &modes)
        .eps(1e-5)
        .build(&dev)
        .unwrap();
    let pts: Points<f32> = gen_points(PointDist::Rand, 2, m, single.fine_grid_shape(), 11);
    single.set_pts(&pts).unwrap();
    let cs = gen_strengths::<f32>(m, 12);
    let mut out1 = vec![Complex::<f32>::ZERO; n];
    single.execute(&cs, &mut out1).unwrap();
    let t_single = single.timings().total_mem();

    let b = 8;
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &modes)
        .eps(1e-5)
        .ntransf(b)
        .build(&dev)
        .unwrap();
    plan.set_pts(&pts).unwrap();
    let input: Vec<_> = (0..b)
        .flat_map(|t| gen_strengths::<f32>(m, 20 + t as u64))
        .collect();
    let mut out = vec![Complex::<f32>::ZERO; n * b];
    plan.execute_many(&input, &mut out).unwrap();
    let t_batch = plan.timings().total_mem();
    assert!(
        t_batch < t_single * b as f64,
        "batched total_mem {t_batch} vs {b}x single {}",
        t_single * b as f64
    );
    assert!(plan.timings().overlap_saving() > 0.0);
}

#[test]
fn execute_many_infers_and_validates_batch_shape() {
    use nufft_common::NufftError;
    let modes = [12usize, 12];
    let dev = Device::v100();
    let mut plan = Plan::<f64>::builder(TransformType::Type1, &modes)
        .build(&dev)
        .unwrap();
    let m = 100;
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, m, plan.fine_grid_shape(), 5);
    plan.set_pts(&pts).unwrap();
    let n: usize = modes.iter().product();
    let input = gen_strengths::<f64>(m * 3, 6);
    // output sized for the wrong batch width
    let mut short = vec![Complex::<f64>::ZERO; n * 2];
    assert!(matches!(
        plan.execute_many(&input, &mut short),
        Err(NufftError::LengthMismatch { .. })
    ));
    // input not a multiple of the per-transform size
    let mut out = vec![Complex::<f64>::ZERO; n * 3];
    assert!(matches!(
        plan.execute_many(&input[..m * 2 + 1], &mut out),
        Err(NufftError::LengthMismatch { .. })
    ));
    // empty input cannot infer a batch
    assert!(plan.execute_many(&[], &mut out).is_err());
    // correct shapes work, and B is inferred as 3
    plan.execute_many(&input, &mut out).unwrap();
    assert_eq!(plan.timings().batches, 3);
}

#[test]
fn max_batch_option_controls_chunking() {
    let modes = [32usize, 32];
    let dev = Device::v100();
    let b = 5;
    let mut plan = Plan::<f32>::builder(TransformType::Type1, &modes)
        .eps(1e-4)
        .ntransf(b)
        .max_batch(2)
        .build(&dev)
        .unwrap();
    let m = 2000;
    let pts: Points<f32> = gen_points(PointDist::Rand, 2, m, plan.fine_grid_shape(), 44);
    plan.set_pts(&pts).unwrap();
    let input: Vec<_> = (0..b)
        .flat_map(|t| gen_strengths::<f32>(m, 50 + t as u64))
        .collect();
    let n: usize = modes.iter().product();
    let mut out = vec![Complex::<f32>::ZERO; n * b];
    plan.execute_many(&input, &mut out).unwrap();
    // 5 transforms at max_batch=2 -> chunks of 2, 2, 1
    let widths: Vec<usize> = plan
        .batch_timings()
        .chunks
        .iter()
        .map(|c| c.ntransf)
        .collect();
    assert_eq!(widths, vec![2, 2, 1]);
}

#[test]
fn builder_validates_options() {
    use nufft_common::NufftError;
    let dev = Device::v100();
    assert!(matches!(
        Plan::<f32>::builder(TransformType::Type1, &[8, 8])
            .msub(0)
            .build(&dev),
        Err(NufftError::BadMsub(0))
    ));
    assert!(matches!(
        Plan::<f32>::builder(TransformType::Type1, &[8, 8])
            .upsampfac(0.9)
            .build(&dev),
        Err(NufftError::BadUpsampfac(_))
    ));
    assert!(matches!(
        Plan::<f32>::builder(TransformType::Type1, &[8, 8])
            .bin_size([0, 4, 1])
            .build(&dev),
        Err(NufftError::BadBinSize(_))
    ));
    assert!(matches!(
        Plan::<f32>::builder(TransformType::Type1, &[8, 8])
            .threads_per_block(0)
            .build(&dev),
        Err(NufftError::BadOptions(_))
    ));
}

#[test]
fn spec_constructor_builds_plans() {
    use nufft_common::spec::{Precision, TransformSpec};
    let dev = Device::v100();
    let spec = TransformSpec::type1(&[16, 16])
        .eps(1e-4)
        .precision(Precision::F32);
    let plan = Plan::<f32>::from_spec(&spec, &dev).unwrap();
    assert_eq!(plan.modes().total(), 256);
    // precision mismatch is a typed error, not a silent cast
    assert!(matches!(
        Plan::<f64>::from_spec(&spec, &dev),
        Err(NufftError::BadSpec(_))
    ));
    // invalid specs are rejected before any device work
    assert!(matches!(
        Plan::<f32>::from_spec(&TransformSpec::type1(&[]).precision(Precision::F32), &dev),
        Err(NufftError::BadSpec(_))
    ));
}

#[test]
fn spread_and_interp_only_modes() {
    // spread_only produces the raw fine-grid convolution; interp_only is
    // its adjoint — together they satisfy <S c, g> = <c, I g>
    let modes = [20usize, 16];
    let dev = Device::v100();
    let mut p1 = Plan::<f64>::builder(TransformType::Type1, &modes)
        .eps(1e-8)
        .build(&dev)
        .unwrap();
    let m = 200;
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, m, p1.fine_grid_shape(), 31);
    p1.set_pts(&pts).unwrap();
    let nf = p1.fine_grid_shape().total();
    let cs = gen_strengths::<f64>(m, 32);
    let mut grid = vec![Complex::<f64>::ZERO; nf];
    p1.spread_only(&cs, &mut grid).unwrap();
    // mass sanity: grid total ~ sum of strengths * kernel row sums
    let total: Complex<f64> = grid.iter().copied().sum();
    assert!(total.abs() > 0.0);

    let mut p2 = Plan::<f64>::builder(TransformType::Type2, &modes)
        .eps(1e-8)
        .build(&dev)
        .unwrap();
    p2.set_pts(&pts).unwrap();
    let g = gen_strengths::<f64>(nf, 33);
    let mut vals = vec![Complex::<f64>::ZERO; m];
    p2.interp_only(&g, &mut vals).unwrap();
    let lhs = nufft_common::metrics::inner(&grid, &g);
    let rhs = nufft_common::metrics::inner(&cs, &vals);
    assert!(
        (lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()),
        "{lhs:?} vs {rhs:?}"
    );
    // wrong-type usage errors
    assert!(p1.interp_only(&g, &mut vals).is_err());
    assert!(p2.spread_only(&cs, &mut grid).is_err());
}

#[test]
fn spec_built_plan_matches_builder_exactly() {
    // PlanBuilder::from_spec routes through the same build path as the
    // fluent builder; the two construction paths must produce
    // bitwise-identical transforms for identical inputs.
    use nufft_common::spec::{Precision, TransformSpec};
    let modes = [18usize, 14];
    let opts = GpuOpts {
        method: Method::GmSort,
        ..Default::default()
    };
    let run = |via_spec: bool| -> (Vec<Complex<f64>>, Shape) {
        let dev = Device::v100();
        let mut plan = if via_spec {
            let spec = TransformSpec::type1(&modes)
                .iflag(1)
                .eps(1e-7)
                .precision(Precision::F64)
                .method(Method::GmSort);
            cufinufft::PlanBuilder::<f64>::from_spec(&spec)
                .unwrap()
                .build(&dev)
                .unwrap()
        } else {
            Plan::<f64>::builder(TransformType::Type1, &modes)
                .iflag(1)
                .eps(1e-7)
                .opts(opts.clone())
                .build(&dev)
                .unwrap()
        };
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 350, plan.fine_grid_shape(), 71);
        let cs = gen_strengths::<f64>(350, 72);
        plan.set_pts(&pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; modes.iter().product()];
        plan.execute(&cs, &mut out).unwrap();
        (out, plan.fine_grid_shape())
    };
    let (out_new, fine_new) = run(true);
    let (out_builder, fine_builder) = run(false);
    assert_eq!(fine_new, fine_builder);
    for (x, y) in out_new.iter().zip(&out_builder) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

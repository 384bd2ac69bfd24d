//! End-to-end accuracy of the CPU NUFFT against the naive O(NM) direct
//! sums, across types, dimensions, precisions and tolerances — the same
//! methodology as the paper's error measurements.

use finufft_cpu::{Opts, Plan, TransformType};
use nufft_common::metrics::rel_l2;
use nufft_common::reference::{type1_direct, type2_direct};
use nufft_common::workload::{gen_coeffs, gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, Points, Real, Shape};

/// Run type 1 and compare to the direct sum; returns relative l2 error.
fn t1_error<T: Real>(modes: &[usize], m: usize, eps: f64, iflag: i32, seed: u64) -> f64 {
    let dim = modes.len();
    let shape = Shape::from_slice(modes);
    let mut plan =
        Plan::<T>::new(TransformType::Type1, modes, iflag, eps, Opts::default()).unwrap();
    let pts: Points<T> = gen_points(PointDist::Rand, dim, m, plan.fine_grid_shape(), seed);
    let cs = gen_strengths::<T>(m, seed + 1);
    plan.set_pts(pts.clone()).unwrap();
    let mut out = vec![Complex::<T>::ZERO; shape.total()];
    plan.execute(&cs, &mut out).unwrap();
    let want = type1_direct(&pts, &cs, shape, iflag);
    rel_l2(&out, &want)
}

fn t2_error<T: Real>(modes: &[usize], m: usize, eps: f64, iflag: i32, seed: u64) -> f64 {
    let dim = modes.len();
    let shape = Shape::from_slice(modes);
    let mut plan =
        Plan::<T>::new(TransformType::Type2, modes, iflag, eps, Opts::default()).unwrap();
    let pts: Points<T> = gen_points(PointDist::Rand, dim, m, plan.fine_grid_shape(), seed);
    let f = gen_coeffs::<T>(shape.total(), seed + 2);
    plan.set_pts(pts.clone()).unwrap();
    let mut out = vec![Complex::<T>::ZERO; m];
    plan.execute(&f, &mut out).unwrap();
    let want = type2_direct(&pts, &f, shape, iflag);
    rel_l2(&out, &want)
}

#[test]
fn type1_2d_meets_tolerance_f64() {
    for eps in [1e-2, 1e-5, 1e-9, 1e-12] {
        let err = t1_error::<f64>(&[32, 24], 500, eps, -1, 100);
        assert!(err < 10.0 * eps, "eps={eps}: err={err}");
    }
}

#[test]
fn type2_2d_meets_tolerance_f64() {
    for eps in [1e-2, 1e-5, 1e-9, 1e-12] {
        let err = t2_error::<f64>(&[24, 32], 400, eps, 1, 200);
        assert!(err < 10.0 * eps, "eps={eps}: err={err}");
    }
}

#[test]
fn type1_3d_meets_tolerance_f64() {
    for eps in [1e-2, 1e-6, 1e-10] {
        let err = t1_error::<f64>(&[12, 14, 10], 300, eps, -1, 300);
        assert!(err < 10.0 * eps, "eps={eps}: err={err}");
    }
}

#[test]
fn type2_3d_meets_tolerance_f64() {
    for eps in [1e-2, 1e-6, 1e-10] {
        let err = t2_error::<f64>(&[10, 12, 14], 250, eps, 1, 400);
        assert!(err < 10.0 * eps, "eps={eps}: err={err}");
    }
}

#[test]
fn type1_1d_meets_tolerance_f64() {
    for eps in [1e-3, 1e-7, 1e-11] {
        let err = t1_error::<f64>(&[64], 800, eps, -1, 500);
        assert!(err < 10.0 * eps, "eps={eps}: err={err}");
    }
}

#[test]
fn single_precision_reaches_its_limit() {
    for eps in [1e-2, 1e-4, 1e-6] {
        let err = t1_error::<f32>(&[20, 20], 300, eps, -1, 600);
        // f32 round-off adds a floor around 1e-6
        assert!(err < 10.0 * eps + 5e-5, "eps={eps}: err={err}");
    }
}

#[test]
fn both_iflag_signs_work() {
    for iflag in [-1, 1] {
        let err = t1_error::<f64>(&[16, 16], 200, 1e-8, iflag, 700);
        assert!(err < 1e-7, "iflag={iflag}: err={err}");
        let err = t2_error::<f64>(&[16, 16], 200, 1e-8, iflag, 800);
        assert!(err < 1e-7, "iflag={iflag}: err={err}");
    }
}

#[test]
fn odd_mode_counts_are_correct() {
    // odd N exercises the asymmetric frequency grid -N/2..N/2-1
    let err = t1_error::<f64>(&[15, 9], 150, 1e-9, -1, 900);
    assert!(err < 1e-8, "err={err}");
    let err = t2_error::<f64>(&[7, 11, 5], 100, 1e-9, 1, 950);
    assert!(err < 1e-8, "err={err}");
}

#[test]
fn clustered_points_same_accuracy() {
    let modes = [24usize, 24];
    let shape = Shape::from_slice(&modes);
    let mut plan =
        Plan::<f64>::new(TransformType::Type1, &modes, -1, 1e-9, Opts::default()).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Cluster, 2, 400, plan.fine_grid_shape(), 33);
    let cs = gen_strengths::<f64>(400, 34);
    plan.set_pts(pts.clone()).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; shape.total()];
    plan.execute(&cs, &mut out).unwrap();
    let want = type1_direct(&pts, &cs, shape, -1);
    assert!(rel_l2(&out, &want) < 1e-8);
}

#[test]
fn plan_reuse_with_new_strengths() {
    let modes = [20usize, 20];
    let shape = Shape::from_slice(&modes);
    let mut plan =
        Plan::<f64>::new(TransformType::Type1, &modes, -1, 1e-10, Opts::default()).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, 300, plan.fine_grid_shape(), 44);
    plan.set_pts(pts.clone()).unwrap();
    for seed in [1u64, 2, 3] {
        let cs = gen_strengths::<f64>(300, seed);
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        let want = type1_direct(&pts, &cs, shape, -1);
        assert!(rel_l2(&out, &want) < 1e-9, "reuse seed {seed}");
    }
}

#[test]
fn type1_and_type2_are_adjoint() {
    // <T1 c, f> = <c, T2 f> when T2 uses the conjugate sign
    let modes = [14usize, 18];
    let shape = Shape::from_slice(&modes);
    let m = 120;
    let mut p1 =
        Plan::<f64>::new(TransformType::Type1, &modes, -1, 1e-12, Opts::default()).unwrap();
    let mut p2 = Plan::<f64>::new(TransformType::Type2, &modes, 1, 1e-12, Opts::default()).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, m, p1.fine_grid_shape(), 77);
    p1.set_pts(pts.clone()).unwrap();
    p2.set_pts(pts).unwrap();
    let cs = gen_strengths::<f64>(m, 78);
    let fs = gen_strengths::<f64>(shape.total(), 79);
    let mut t1 = vec![Complex::<f64>::ZERO; shape.total()];
    p1.execute(&cs, &mut t1).unwrap();
    let mut t2 = vec![Complex::<f64>::ZERO; m];
    p2.execute(&fs, &mut t2).unwrap();
    let lhs = nufft_common::metrics::inner(&t1, &fs);
    let rhs = nufft_common::metrics::inner(&cs, &t2);
    assert!(
        (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
        "{lhs:?} vs {rhs:?}"
    );
}

#[test]
fn unsorted_option_gives_same_answer() {
    let modes = [22usize, 26];
    let shape = Shape::from_slice(&modes);
    let mk = |sort: bool| {
        let opts = Opts {
            sort,
            ..Default::default()
        };
        let mut plan = Plan::<f64>::new(TransformType::Type1, &modes, -1, 1e-11, opts).unwrap();
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 500, plan.fine_grid_shape(), 55);
        let cs = gen_strengths::<f64>(500, 56);
        plan.set_pts(pts).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        out
    };
    let a = mk(true);
    let b = mk(false);
    assert!(rel_l2(&a, &b) < 1e-12);
}

/// Type 1 of `m` points on `modes`, as bits, with `nthreads` workers.
fn t1_bits<T: Real>(modes: &[usize], dist: PointDist, m: usize, nthreads: usize) -> Vec<u64> {
    let shape = Shape::from_slice(modes);
    let opts = Opts {
        nthreads,
        ..Default::default()
    };
    let mut plan = Plan::<T>::new(TransformType::Type1, modes, -1, 1e-5, opts).unwrap();
    let pts: Points<T> = gen_points(dist, modes.len(), m, plan.fine_grid_shape(), 71);
    let cs = gen_strengths::<T>(m, 72);
    plan.set_pts(pts).unwrap();
    let mut out = vec![Complex::<T>::ZERO; shape.total()];
    plan.execute(&cs, &mut out).unwrap();
    out.iter()
        .flat_map(|z| [z.re.to_f64().to_bits(), z.im.to_f64().to_bits()])
        .collect()
}

fn check_type1_reproducible<T: Real>(modes: &[usize]) {
    // three spread chunks, so the merge order matters
    let m = 10_000;
    for dist in [PointDist::Rand, PointDist::Cluster] {
        let want = t1_bits::<T>(modes, dist, m, 1);
        for nthreads in [1, 2, 3, 8, 2, 3] {
            assert!(
                t1_bits::<T>(modes, dist, m, nthreads) == want,
                "{modes:?} {dist:?} nthreads={nthreads}: output bits differ"
            );
        }
    }
}

#[test]
fn type1_is_bitwise_reproducible_across_runs_and_thread_counts() {
    check_type1_reproducible::<f64>(&[24, 20]);
    check_type1_reproducible::<f32>(&[24, 20]);
    check_type1_reproducible::<f64>(&[10, 12, 8]);
    check_type1_reproducible::<f32>(&[10, 12, 8]);
}

#[test]
fn error_paths() {
    use nufft_common::NufftError;
    // execute before set_pts
    let mut plan =
        Plan::<f64>::new(TransformType::Type1, &[8, 8], -1, 1e-6, Opts::default()).unwrap();
    let mut out = vec![Complex::<f64>::ZERO; 64];
    assert!(matches!(
        plan.execute(&[], &mut out),
        Err(NufftError::PointsNotSet)
    ));
    // wrong lengths
    let pts = Points::<f64> {
        coords: [vec![0.1, 0.2], vec![0.3, 0.4], vec![]],
        dim: 2,
    };
    plan.set_pts(pts).unwrap();
    assert!(matches!(
        plan.execute(&[Complex::ZERO; 3], &mut out),
        Err(NufftError::LengthMismatch { .. })
    ));
    // non-finite point
    let bad = Points::<f64> {
        coords: [vec![f64::NAN], vec![0.0], vec![]],
        dim: 2,
    };
    assert!(matches!(
        plan.set_pts(bad),
        Err(NufftError::BadPoint { .. })
    ));
    // bad dims
    assert!(Plan::<f64>::new(TransformType::Type1, &[], -1, 1e-6, Opts::default()).is_err());
    assert!(Plan::<f64>::new(TransformType::Type1, &[8, 0], -1, 1e-6, Opts::default()).is_err());
}

#[test]
fn upsampfac_not_above_one_is_a_typed_error() {
    use nufft_common::NufftError;
    use nufft_kernels::{EsKernel, EvalKernel};
    let (t1, modes) = (TransformType::Type1, [8usize, 8]);
    for upsampfac in [0.5, 1.0, f64::NAN] {
        let opts = Opts {
            upsampfac,
            ..Opts::default()
        };
        let errs = [
            Plan::<f64>::new(t1, &modes, -1, 1e-6, opts.clone()).err(),
            Plan::<f64, EvalKernel>::new(t1, &modes, -1, 1e-6, opts.clone()).err(),
            Plan::<f64>::with_kernel(t1, &modes, -1, EsKernel::with_width(6), opts).err(),
        ];
        assert!(
            errs.iter().all(|e| matches!(
                e,
                Some(NufftError::BadUpsampfac(s)) if s.to_bits() == upsampfac.to_bits()
            )),
            "{upsampfac}: {errs:?}"
        );
    }
}

#[test]
fn one_shot_wrappers_agree_with_guru() {
    let n1 = 18;
    let n2 = 14;
    let m = 90;
    let shape = Shape::d2(n1, n2);
    let fine = Shape::d2(2 * n1, 2 * n2);
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, m, fine, 11);
    let cs = gen_strengths::<f64>(m, 12);
    let quick = finufft_cpu::nufft2d1(pts.x(), pts.y(), &cs, -1, 1e-9, n1, n2).unwrap();
    let want = type1_direct(&pts, &cs, shape, -1);
    assert!(rel_l2(&quick, &want) < 1e-8);
    let f = gen_coeffs::<f64>(shape.total(), 13);
    let quick2 = finufft_cpu::nufft2d2(pts.x(), pts.y(), &f, 1, 1e-9, n1, n2).unwrap();
    let want2 = type2_direct(&pts, &f, shape, 1);
    assert!(rel_l2(&quick2, &want2) < 1e-8);
}

#[test]
fn low_upsampling_sigma_meets_tolerance() {
    // sigma = 1.25 (the paper's future-work item 3): wider kernel, much
    // smaller fine grid, same accuracy contract
    let modes = [24usize, 20];
    let shape = Shape::from_slice(&modes);
    for eps in [1e-3, 1e-6, 1e-9] {
        let opts = Opts {
            upsampfac: 1.25,
            ..Default::default()
        };
        let mut plan = Plan::<f64>::new(TransformType::Type1, &modes, -1, eps, opts).unwrap();
        // the fine grid is much smaller than 2N
        assert!(plan.fine_grid_shape().n[0] < 2 * modes[0]);
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 300, plan.fine_grid_shape(), 71);
        let cs = gen_strengths::<f64>(300, 72);
        plan.set_pts(pts.clone()).unwrap();
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        let want = type1_direct(&pts, &cs, shape, -1);
        let err = rel_l2(&out, &want);
        // low upsampling trades ~1 accuracy digit, as FINUFFT documents
        // for its sigma = 1.25 mode
        assert!(err < 100.0 * eps, "sigma=1.25 eps={eps}: err={err}");
    }
}

#[test]
fn horner_kernel_plan_matches_direct_eval_plan() {
    use nufft_kernels::{EsKernel, HornerKernel};
    let modes = [28usize, 24];
    let shape = Shape::from_slice(&modes);
    let es = EsKernel::for_tolerance(1e-8, true).unwrap();
    let mk_out = |horner: bool| {
        let mut plan = if horner {
            Plan::<f64, HornerKernel>::with_kernel(
                TransformType::Type1,
                &modes,
                -1,
                HornerKernel::fit(es),
                Opts::default(),
            )
            .unwrap()
        } else {
            // same kernel, direct exp/sqrt evaluation — wrap via the
            // generic constructor so both paths share the pipeline
            return {
                let mut plan =
                    Plan::<f64>::with_kernel(TransformType::Type1, &modes, -1, es, Opts::default())
                        .unwrap();
                let pts: Points<f64> =
                    gen_points(PointDist::Rand, 2, 400, plan.fine_grid_shape(), 88);
                plan.set_pts(pts).unwrap();
                let cs = gen_strengths::<f64>(400, 89);
                let mut out = vec![Complex::<f64>::ZERO; shape.total()];
                plan.execute(&cs, &mut out).unwrap();
                out
            };
        };
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 400, plan.fine_grid_shape(), 88);
        plan.set_pts(pts).unwrap();
        let cs = gen_strengths::<f64>(400, 89);
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        out
    };
    let direct = mk_out(false);
    let horner = mk_out(true);
    // fits reach the kernel's own accuracy floor (~e^{-beta})
    assert!(
        rel_l2(&horner, &direct) < 1e-8,
        "{}",
        rel_l2(&horner, &direct)
    );
}

#[test]
fn eval_kernel_plan_honors_opts_and_matches_exact_plan() {
    use nufft_kernels::{EvalKernel, KernelEval};
    let modes = [20usize, 18];
    let shape = Shape::from_slice(&modes);
    let eps = 1e-6;
    let run = |choice: KernelEval| {
        let opts = Opts {
            kernel_eval: choice,
            ..Opts::default()
        };
        let mut plan =
            Plan::<f64, EvalKernel>::new(TransformType::Type1, &modes, -1, eps, opts).unwrap();
        let horner = plan.kernel().is_horner();
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 300, plan.fine_grid_shape(), 91);
        plan.set_pts(pts).unwrap();
        let cs = gen_strengths::<f64>(300, 92);
        let mut out = vec![Complex::<f64>::ZERO; shape.total()];
        plan.execute(&cs, &mut out).unwrap();
        (horner, out)
    };
    // At a moderate tolerance Auto resolves to the Horner fast path; the
    // forced variants are honored verbatim.
    let (auto_horner, auto_out) = run(KernelEval::Auto);
    let (exact_horner, exact_out) = run(KernelEval::Exact);
    let (forced_horner, _) = run(KernelEval::Horner);
    assert!(auto_horner, "Auto should pick Horner at eps=1e-6");
    assert!(!exact_horner);
    assert!(forced_horner);
    // Both evaluations compute the same transform well within eps.
    assert!(rel_l2(&auto_out, &exact_out) < eps);
    // The default-kernel plan (always exact) agrees bitwise with the
    // Exact-forced EvalKernel plan: same kernel, same evaluation.
    let mut plan =
        Plan::<f64>::new(TransformType::Type1, &modes, -1, eps, Opts::default()).unwrap();
    let pts: Points<f64> = gen_points(PointDist::Rand, 2, 300, plan.fine_grid_shape(), 91);
    plan.set_pts(pts).unwrap();
    let cs = gen_strengths::<f64>(300, 92);
    let mut out = vec![Complex::<f64>::ZERO; shape.total()];
    plan.execute(&cs, &mut out).unwrap();
    for (a, b) in out.iter().zip(exact_out.iter()) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
}

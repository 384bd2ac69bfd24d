//! Bitwise equivalence of parallel and serial block execution through
//! full GPU plans (DESIGN.md §5l): the simulator's host thread pool
//! must be an implementation detail — same transform results to the
//! bit, same launch reports, at any `host_parallelism`.
//!
//! The default tier runs a fixed serial-vs-parallel matrix; `PAR=full`
//! widens it to a multi-seed, multi-method sweep (wired into
//! `scripts/check.sh`).

use cufinufft::{Method, Plan, TransformType};
use gpu_sim::Device;
use nufft_common::workload::{gen_coeffs, gen_points, gen_strengths, PointDist};
use nufft_common::{Complex, Points, Real};

/// Run two type-1 executes (the second replays the first's spread
/// launch price) and one type-2 execute on a device with the given host
/// parallelism; return the three outputs.
#[allow(clippy::too_many_arguments)]
fn run_pair<T: Real>(
    threads: usize,
    modes: &[usize],
    m: usize,
    eps: f64,
    method: Method,
    dist: PointDist,
    seed: u64,
) -> [Vec<Complex<T>>; 3] {
    let dev = Device::v100();
    dev.set_host_parallelism(threads);
    let total: usize = modes.iter().product();

    let mut p1 = Plan::<T>::builder(TransformType::Type1, modes)
        .eps(eps)
        .method(method)
        .build(&dev)
        .unwrap();
    let pts: Points<T> = gen_points(dist, modes.len(), m, p1.fine_grid_shape(), seed);
    let cs = gen_strengths::<T>(m, seed + 1);
    p1.set_pts(&pts).unwrap();
    let mut out1 = vec![Complex::<T>::ZERO; total];
    p1.execute(&cs, &mut out1).unwrap();
    let cs2 = gen_strengths::<T>(m, seed + 3);
    let mut out1b = vec![Complex::<T>::ZERO; total];
    p1.execute(&cs2, &mut out1b).unwrap();

    let mut p2 = Plan::<T>::builder(TransformType::Type2, modes)
        .eps(eps)
        .method(method)
        .build(&dev)
        .unwrap();
    let f = gen_coeffs::<T>(total, seed + 2);
    p2.set_pts(&pts).unwrap();
    let mut out2 = vec![Complex::<T>::ZERO; m];
    p2.execute(&f, &mut out2).unwrap();

    [out1, out1b, out2]
}

fn assert_bits_eq<T: Real>(a: &[Complex<T>], b: &[Complex<T>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            x.re.to_f64().to_bits() == y.re.to_f64().to_bits()
                && x.im.to_f64().to_bits() == y.im.to_f64().to_bits(),
            "{what}[{i}]: {x:?} (serial) != {y:?} (parallel)"
        );
    }
}

fn check_case<T: Real>(modes: &[usize], m: usize, eps: f64, method: Method, seed: u64) {
    let dist = if seed.is_multiple_of(2) {
        PointDist::Rand
    } else {
        PointDist::Cluster
    };
    let serial = run_pair::<T>(1, modes, m, eps, method, dist, seed);
    for threads in [2usize, 5, 8] {
        let par = run_pair::<T>(threads, modes, m, eps, method, dist, seed);
        let tag = format!("{method:?} modes={modes:?} seed={seed} threads={threads}");
        for (i, what) in ["type1", "type1 repeat", "type2"].iter().enumerate() {
            assert_bits_eq(&serial[i], &par[i], &format!("{what} {tag}"));
        }
    }
}

#[test]
fn parallel_blocks_match_serial_bitwise_2d() {
    check_case::<f64>(&[32, 28], 700, 1e-9, Method::GmSort, 40);
    check_case::<f32>(&[24, 24], 500, 1e-5, Method::Sm, 41);
}

#[test]
fn parallel_blocks_match_serial_bitwise_3d() {
    check_case::<f64>(&[12, 10, 8], 400, 1e-7, Method::GmSort, 42);
    check_case::<f64>(&[10, 10, 10], 300, 1e-6, Method::Gm, 43);
}

/// Widened multi-seed sweep, run when `PAR=full` (see scripts/check.sh).
#[test]
fn parallel_blocks_full_sweep() {
    if std::env::var("PAR").map(|v| v == "full").unwrap_or(false) {
        for seed in 50..56 {
            for method in [Method::Gm, Method::GmSort, Method::Sm] {
                check_case::<f64>(&[20, 18], 450, 1e-8, method, seed);
                check_case::<f32>(&[16, 16], 350, 1e-4, method, seed + 100);
            }
            check_case::<f64>(&[8, 9, 7], 250, 1e-6, Method::GmSort, seed + 200);
        }
    } else {
        eprintln!("PAR!=full: skipping widened sweep (default matrix still ran)");
    }
}

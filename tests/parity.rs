//! Deconvolution parity regression (ISSUE 4 satellite): the even-size
//! Nyquist mode (`k = -N/2`, output index `j = 0`) and odd/even
//! mode-index symmetry in 2D/3D.
//!
//! For even `N` the ascending-frequency mode range `-N/2 .. N/2-1` is
//! asymmetric — the Nyquist mode `-N/2` has no positive partner — while
//! odd `N` is symmetric. An off-by-one in the bin or mode-order offsets
//! of `nufft_kernels::deconv` or a correction factor indexed with the
//! wrong parity shows up exactly at these modes, so each test drives a
//! *single* pure mode through type 2 and back through type 1 and checks
//! both legs against the direct NUDFT oracle.

use cufinufft::opts::{Method, ModeOrder};
use cufinufft::plan::Plan;
use gpu_sim::Device;
use nufft_common::complex::Complex;
use nufft_common::metrics::rel_l2;
use nufft_common::reference::{type1_direct, type2_direct};
use nufft_common::shape::Shape;
use nufft_common::workload::{gen_points, PointDist};
use nufft_common::TransformType;
use nufft_conformance::envelope;

/// Drive mode index `j` (per axis) through type2 then type1 and check
/// both legs against the oracle.
fn single_mode_roundtrip(dim: usize, n: usize, j: usize, modeord: ModeOrder) {
    let eps = 1e-12;
    let dev = Device::v100();
    let modes_v = vec![n; dim];
    let modes = Shape::from_slice(&modes_v);
    let mut f = vec![Complex::<f64>::ZERO; modes.total()];
    // spike at (j, j[, j]) in the *user's* mode order
    let idx = match dim {
        2 => j + n * j,
        _ => j + n * (j + n * j),
    };
    f[idx] = Complex::new(1.0, 0.0);
    let pts = gen_points::<f64>(PointDist::Rand, dim, 150, modes, 5);

    let mut t2 = Plan::<f64>::builder(TransformType::Type2, &modes_v)
        .eps(eps)
        .iflag(1)
        .modeord(modeord)
        .method(Method::GmSort)
        .build(&dev)
        .unwrap();
    t2.set_pts(&pts).unwrap();
    let mut cvals = vec![Complex::<f64>::ZERO; pts.len()];
    t2.execute(&f, &mut cvals).unwrap();

    // oracle speaks ascending-frequency (Centered) order: translate
    let f_centered = match modeord {
        ModeOrder::Centered => f.clone(),
        ModeOrder::Fft => {
            let mut g = vec![Complex::<f64>::ZERO; modes.total()];
            // FFT order stores frequency k at index k mod n per axis;
            // walk every centered index and pull from the FFT position
            let to_fft = |k: i64, n: usize| -> usize { k.rem_euclid(n as i64) as usize };
            let n1 = modes.n[0];
            let n2 = modes.n[1];
            let n3 = modes.n[2];
            let start = |n: usize| -(n as i64 / 2);
            let mut idx = 0usize;
            for j3 in 0..n3 {
                for j2 in 0..n2 {
                    for j1 in 0..n1 {
                        let k1 = start(n1) + j1 as i64;
                        let k2 = start(n2) + j2 as i64;
                        let k3 = start(n3) + j3 as i64;
                        let src = to_fft(k1, n1) + n1 * (to_fft(k2, n2) + n2 * to_fft(k3, n3));
                        g[idx] = f[src];
                        idx += 1;
                    }
                }
            }
            g
        }
    };
    let pts64 = pts.clone();
    let want2 = type2_direct(&pts64, &f_centered, modes, 1);
    let e2 = rel_l2(&cvals, &want2);
    let env = envelope(eps, true);
    assert!(
        e2 <= env,
        "type2 single-mode {dim}D n={n} j={j} {modeord:?}: rel_l2 {e2:.3e} > {env:.3e}"
    );

    let mut t1 = Plan::<f64>::builder(TransformType::Type1, &modes_v)
        .eps(eps)
        .iflag(-1)
        .modeord(modeord)
        .method(Method::GmSort)
        .build(&dev)
        .unwrap();
    t1.set_pts(&pts).unwrap();
    let mut fk = vec![Complex::<f64>::ZERO; modes.total()];
    t1.execute(&cvals, &mut fk).unwrap();
    let want1 = type1_direct(&pts64, &cvals, modes, -1);
    // translate our output to centered order for the oracle comparison
    let fk_centered = match modeord {
        ModeOrder::Centered => fk,
        ModeOrder::Fft => {
            let mut g = vec![Complex::<f64>::ZERO; modes.total()];
            let to_fft = |k: i64, n: usize| -> usize { k.rem_euclid(n as i64) as usize };
            let n1 = modes.n[0];
            let n2 = modes.n[1];
            let n3 = modes.n[2];
            let start = |n: usize| -(n as i64 / 2);
            let mut idx = 0usize;
            for j3 in 0..n3 {
                for j2 in 0..n2 {
                    for j1 in 0..n1 {
                        let k1 = start(n1) + j1 as i64;
                        let k2 = start(n2) + j2 as i64;
                        let k3 = start(n3) + j3 as i64;
                        let src = to_fft(k1, n1) + n1 * (to_fft(k2, n2) + n2 * to_fft(k3, n3));
                        g[idx] = fk[src];
                        idx += 1;
                    }
                }
            }
            g
        }
    };
    let e1 = rel_l2(&fk_centered, &want1);
    assert!(
        e1 <= env,
        "type1-after-type2 {dim}D n={n} j={j} {modeord:?}: rel_l2 {e1:.3e} > {env:.3e}"
    );
}

/// Even size: index 0 is the unpaired Nyquist mode `k = -N/2`.
#[test]
fn even_size_nyquist_and_edges_2d() {
    let n = 16;
    for j in [0usize, 1, n / 2, n - 1] {
        single_mode_roundtrip(2, n, j, ModeOrder::Centered);
    }
}

/// Odd size: symmetric range `-(N-1)/2 .. (N-1)/2`, no Nyquist mode.
#[test]
fn odd_size_edges_2d() {
    let n = 15;
    for j in [0usize, n / 2, n - 1] {
        single_mode_roundtrip(2, n, j, ModeOrder::Centered);
    }
}

#[test]
fn even_and_odd_sizes_3d() {
    for n in [8usize, 9] {
        for j in [0usize, n - 1] {
            single_mode_roundtrip(3, n, j, ModeOrder::Centered);
        }
    }
}

/// The same parity checks in FFT mode order, where the Nyquist mode of
/// an even axis sits at index N/2 instead of 0.
#[test]
fn fft_mode_order_parity() {
    for n in [16usize, 15] {
        for j in [0usize, n / 2, n - 1] {
            single_mode_roundtrip(2, n, j, ModeOrder::Fft);
        }
    }
}

//! Deconvolution (correction) factors and the mode<->fine-grid copy,
//! paper eqs. 10-11.
//!
//! The spread/interp steps convolve with the periodized kernel, which
//! multiplies Fourier coefficients by `psi_hat(k)/h^d`. The correction
//! divides it out: per dimension `p_i(k) = h_i / psi_hat_i(k) =
//! (2/w) / phi_hat(alpha_i k)` with `alpha_i = w pi / n_i`, and the full
//! factor is the tensor product. Factors are real and even in `k`.
//!
//! [`to_modes`] (type 1 step 3: truncate the fine grid to the modes and
//! correct) and [`to_grid`] (type 2 step 1: correct and zero-pad into the
//! fine grid) are the one copy every library in the workspace runs, in
//! either [`ModeOrder`]. Each element is `x.scale(T::from_f64(p1 * (p3 *
//! p2)))`, so every library gets the same bits for the same inputs.
//!
//! # Parity audit (even-size Nyquist, odd/even symmetry)
//!
//! The mode range is `k = freq_start(N) + j` for `j = 0..N`, i.e.
//! `-N/2 .. N/2-1` for even `N` and `-(N-1)/2 .. (N-1)/2` for odd `N`.
//! For even `N` the range is *asymmetric*: the Nyquist mode `k = -N/2`
//! at output index `j = 0` has no positive partner, so the evenness of
//! `phi_hat` only pairs indices `1..N-1` (`row[N/2 - k]` with
//! `row[N/2 + k]`) and `row[0]` stands alone — any symmetry-exploiting
//! rewrite must compute it explicitly, not mirror it. For odd `N` every
//! mode pairs up and index `(N-1)/2` is DC. Both cases are exercised
//! end-to-end by `tests/parity.rs`, which round-trips single pure modes
//! (including the even-size Nyquist) through type 2 then type 1 against
//! the direct NUDFT oracle in 2D and 3D; the unit tests below pin the
//! per-row indexing.

use crate::Kernel1d;
use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::shape::{freq_start, freq_to_bin, freqs, Shape};
use nufft_common::spec::ModeOrder;

/// Per-dimension correction factors `p_i[j]` for output mode index `j`
/// (ascending `k = -N/2 + j`).
pub fn correction_row<K: Kernel1d>(kernel: &K, n_modes: usize, n_fine: usize) -> Vec<f64> {
    let w = kernel.width() as f64;
    let alpha = w * std::f64::consts::PI / n_fine as f64;
    let k0 = freq_start(n_modes);
    (0..n_modes)
        .map(|j| {
            let k = (k0 + j as i64) as f64;
            let ft = kernel.ft(alpha * k);
            assert!(
                ft.abs() > f64::MIN_POSITIVE,
                "kernel FT vanished at k={k}; upsampling too small for this kernel"
            );
            (2.0 / w) / ft
        })
        .collect()
}

/// All per-dimension rows for a mode/fine shape pair. Unused dimensions
/// get a single factor of 1.
pub fn correction_rows<K: Kernel1d>(kernel: &K, modes: Shape, fine: Shape) -> [Vec<f64>; 3] {
    let mut rows = [vec![1.0], vec![1.0], vec![1.0]];
    for (i, row) in rows.iter_mut().enumerate().take(modes.dim) {
        *row = correction_row(kernel, modes.n[i], fine.n[i]);
    }
    rows
}

/// Type 1 step 3 (eq. 10): copy the modes' bins of the transformed fine
/// grid `grid` into `out`, laid out under `modeord`, times their
/// correction factors `corr` (from [`correction_rows`]).
pub fn to_modes<T: Real>(
    corr: &[Vec<f64>; 3],
    modes: Shape,
    fine: Shape,
    modeord: ModeOrder,
    grid: &[Complex<T>],
    out: &mut [Complex<T>],
) {
    for_each_mode(corr, modes, fine, modeord, |g, o, p| {
        out[o] = grid[g].scale(T::from_f64(p));
    });
}

/// Type 2 step 1 (eq. 11): copy the modes `src`, laid out under
/// `modeord`, times their correction factors into their bins of the
/// fine grid `dst`. Bins outside the modes are not written, so `dst`
/// must be zeroed first.
pub fn to_grid<T: Real>(
    corr: &[Vec<f64>; 3],
    modes: Shape,
    fine: Shape,
    modeord: ModeOrder,
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
) {
    for_each_mode(corr, modes, fine, modeord, |g, o, p| {
        dst[g] = src[o].scale(T::from_f64(p));
    });
}

/// Visit every mode as `(fine-grid index, mode-array index, factor)`,
/// x fastest, with the factor `p1 * (p3 * p2)`.
fn for_each_mode(
    corr: &[Vec<f64>; 3],
    modes: Shape,
    fine: Shape,
    modeord: ModeOrder,
    mut f: impl FnMut(usize, usize, f64),
) {
    // per axis and mode index j (ascending k): the fine-grid offset of
    // its bin, its factor, and its offset in the mode array under
    // `modeord`, both offsets scaled by the axis stride
    let [t1, t2, t3] = [0, 1, 2].map(|axis| {
        let n = modes.n[axis];
        let fine_stride: usize = fine.n[..axis].iter().product();
        let mode_stride: usize = modes.n[..axis].iter().product();
        let offset = |j: usize, k: i64| match modeord {
            ModeOrder::Centered => j,
            // FFT order stores k at k mod N
            ModeOrder::Fft => freq_to_bin(k, n),
        };
        freqs(n)
            .zip(&corr[axis])
            .enumerate()
            .map(|(j, (k, &p))| {
                let g = freq_to_bin(k, fine.n[axis]) * fine_stride;
                (g, p, offset(j, k) * mode_stride)
            })
            .collect::<Vec<_>>()
    });
    for &(g3, p3, o3) in &t3 {
        for &(g2, p2, o2) in &t2 {
            let (g23, o23, p23) = (g3 + g2, o3 + o2, p3 * p2);
            for &(g1, p1, o1) in &t1 {
                f(g23 + g1, o23 + o1, p1 * p23);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EsKernel;

    #[test]
    fn factors_are_even_in_k() {
        let k = EsKernel::with_width(6);
        let row = correction_row(&k, 16, 32);
        // k = -8..7; p(-k) = p(k)
        for j in 1..8 {
            let neg = row[8 - j]; // k = -j
            let pos = row[8 + j]; // k = +j
            assert!((neg - pos).abs() < 1e-12 * pos.abs(), "j={j}");
        }
    }

    #[test]
    fn even_size_nyquist_is_unpaired_and_largest() {
        // even N: row[0] is k = -N/2, the one mode with no +k partner.
        // It must match an explicit evaluation at alpha*(-N/2) and exceed
        // every paired factor (phi_hat decays monotonically).
        let k = EsKernel::with_width(6);
        let n = 16usize;
        let row = correction_row(&k, n, 2 * n);
        let alpha = 6.0 * std::f64::consts::PI / (2 * n) as f64;
        let expect = (2.0 / 6.0) / k.ft(alpha * -(n as f64 / 2.0));
        assert!((row[0] - expect).abs() < 1e-13 * expect.abs());
        assert!(row.iter().skip(1).all(|&p| p < row[0]));
    }

    #[test]
    fn odd_size_is_fully_paired() {
        // odd N: k = -(N-1)/2 .. (N-1)/2, DC at index (N-1)/2, and the
        // two extreme modes +-(N-1)/2 are partners with equal factors.
        let k = EsKernel::with_width(5);
        let n = 15usize;
        let row = correction_row(&k, n, 30);
        let dc = n / 2;
        for j in 1..=dc {
            let d = (row[dc - j] - row[dc + j]).abs();
            assert!(d < 1e-12 * row[dc + j].abs(), "j={j}");
        }
        assert!((row[0] - row[n - 1]).abs() < 1e-12 * row[0].abs());
    }

    #[test]
    fn factors_grow_towards_high_frequency() {
        // phi_hat decays, so p = const/phi_hat grows with |k|
        let k = EsKernel::with_width(8);
        let row = correction_row(&k, 32, 64);
        let center = row[16]; // k=0
        let edge = row[0]; // k=-16
        assert!(edge > center);
        // monotone on the positive half
        for j in 17..31 {
            assert!(row[j + 1] >= row[j]);
        }
    }

    #[test]
    fn dc_factor_matches_direct_formula() {
        let k = EsKernel::with_width(5);
        let row = correction_row(&k, 8, 16);
        let expect = (2.0 / 5.0) / k.ft(0.0);
        assert!((row[4] - expect).abs() < 1e-14);
    }

    #[test]
    fn rows_cover_dims() {
        let k = EsKernel::with_width(4);
        let rows = correction_rows(&k, Shape::d2(8, 10), Shape::d2(16, 20));
        assert_eq!(rows[0].len(), 8);
        assert_eq!(rows[1].len(), 10);
        assert_eq!(rows[2], vec![1.0]);
    }

    /// The copy written out with explicit frequencies: mode
    /// `(k1, k2, k3)` sits at bin `k mod n_fine` of each axis and, under
    /// `modeord`, at index `j` (centered) or `k mod n` (FFT order).
    fn reference(
        corr: &[Vec<f64>; 3],
        modes: Shape,
        fine: Shape,
        modeord: ModeOrder,
    ) -> Vec<(usize, usize, f64)> {
        let pos = |k: i64, a: usize, j: usize| match modeord {
            ModeOrder::Centered => j,
            ModeOrder::Fft => k.rem_euclid(modes.n[a] as i64) as usize,
        };
        let mut v = Vec::new();
        for (j3, k3) in freqs(modes.n[2]).enumerate() {
            for (j2, k2) in freqs(modes.n[1]).enumerate() {
                for (j1, k1) in freqs(modes.n[0]).enumerate() {
                    let g = freq_to_bin(k1, fine.n[0])
                        + fine.n[0]
                            * (freq_to_bin(k2, fine.n[1]) + fine.n[1] * freq_to_bin(k3, fine.n[2]));
                    let o = pos(k1, 0, j1)
                        + modes.n[0] * (pos(k2, 1, j2) + modes.n[1] * pos(k3, 2, j3));
                    v.push((g, o, corr[0][j1] * (corr[2][j3] * corr[1][j2])));
                }
            }
        }
        v
    }

    #[test]
    fn copy_pair_matches_the_explicit_frequency_formula() {
        let k = EsKernel::with_width(5);
        for (modes, fine) in [
            (Shape::d1(7), Shape::d1(16)),
            (Shape::d2(6, 5), Shape::d2(12, 16)),
            (Shape::d3(4, 5, 6), Shape::d3(10, 12, 14)),
        ] {
            let corr = correction_rows(&k, modes, fine);
            let grid: Vec<Complex<f64>> = (0..fine.total())
                .map(|i| Complex::new(i as f64 + 0.25, -(i as f64)))
                .collect();
            let src: Vec<Complex<f64>> = (0..modes.total())
                .map(|i| Complex::new(1.0 - i as f64, 0.5 * i as f64))
                .collect();
            for modeord in [ModeOrder::Centered, ModeOrder::Fft] {
                let mut out = vec![Complex::ZERO; modes.total()];
                to_modes(&corr, modes, fine, modeord, &grid, &mut out);
                let mut dst = vec![Complex::ZERO; fine.total()];
                to_grid(&corr, modes, fine, modeord, &src, &mut dst);
                let mut want_dst = vec![Complex::ZERO; fine.total()];
                let refs = reference(&corr, modes, fine, modeord);
                for &(g, o, p) in &refs {
                    let want = grid[g].scale(p);
                    assert_eq!(
                        (out[o].re.to_bits(), out[o].im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits())
                    );
                    want_dst[g] = src[o].scale(p);
                }
                // every mode index is written exactly once
                let mut hit: Vec<usize> = refs.iter().map(|r| r.1).collect();
                hit.sort_unstable();
                assert_eq!(hit, (0..modes.total()).collect::<Vec<_>>());
                assert_eq!(dst, want_dst, "{modes:?} {modeord:?}");
            }
        }
    }
}

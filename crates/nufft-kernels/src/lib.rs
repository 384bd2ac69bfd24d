//! Spreading kernels for the NUFFT libraries in this workspace.
//!
//! The paper's contribution uses the "exponential of semicircle" (ES)
//! kernel ([`es::EsKernel`], eq. 5-6); the baselines use the truncated
//! Gaussian ([`gaussian::GaussianKernel`], CUNFFT) and Kaiser–Bessel
//! ([`kaiser_bessel::KaiserBesselKernel`], gpuNUFFT). All expose the same
//! [`Kernel1d`] interface: evaluation on the rescaled support `[-1, 1]`
//! and the Fourier transform needed for deconvolution.

#![forbid(unsafe_code)]

pub mod deconv;
pub mod es;
pub mod eval;
pub mod footprint;
pub mod gauss_legendre;
pub mod gaussian;
pub mod horner;
pub mod kaiser_bessel;

pub use es::EsKernel;
pub use eval::{EvalKernel, KernelEval};
pub use footprint::{Footprint, MAX_W};
pub use gaussian::GaussianKernel;
pub use horner::HornerKernel;
pub use kaiser_bessel::KaiserBesselKernel;

/// A 1D spreading kernel on the rescaled support `[-1, 1]`, used in
/// tensor-product form in 2D/3D. `eval` must vanish outside `[-1, 1]`.
pub trait Kernel1d: Clone + Send + Sync + 'static {
    /// Support width in fine-grid points.
    fn width(&self) -> usize;
    /// Kernel value at `z` (kernel coordinate; grid spacing is `2/width`).
    fn eval(&self, z: f64) -> f64;
    /// Fourier transform `int_{-1}^{1} eval(z) e^{-i xi z} dz` (real/even).
    fn ft(&self, xi: f64) -> f64;

    /// Fill `out[t] = eval(z0 + t * 2/width)` for `t = 0..width` — one
    /// tensor-product factor for a point whose first covered grid node is
    /// at kernel coordinate `z0`.
    #[inline]
    fn eval_row(&self, z0: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.width());
        let step = 2.0 / self.width() as f64;
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.eval(z0 + t as f64 * step);
        }
    }
}

/// Geometry of one point's kernel footprint along one axis.
///
/// For a point at fine-grid coordinate `g in [0, n)` and kernel width `w`,
/// the kernel covers the `w` consecutive grid nodes starting at
/// `l_start = ceil(g - w/2)` (possibly negative / beyond `n`; callers wrap
/// mod `n`). `z0` is the kernel coordinate of that first node; subsequent
/// nodes step by `2/w`, so `eval_row(z0, ..)` gives the tensor factor.
#[inline(always)]
pub fn spread_footprint(g: f64, w: usize) -> (i64, f64) {
    let l_start = (g - w as f64 / 2.0).ceil() as i64;
    let z0 = (l_start as f64 - g) * 2.0 / w as f64;
    (l_start, z0)
}

/// Fine-grid coordinate of a point `x` (any real; folded into the periodic
/// box): `g = (x mod 2 pi) / h in [0, n)`.
#[inline(always)]
pub fn grid_coord(x: f64, n: usize) -> f64 {
    let g = x.rem_euclid(std::f64::consts::TAU) / (std::f64::consts::TAU / n as f64);
    // guard the pathological x = 2pi - ulp case that folds to exactly n
    if g >= n as f64 {
        0.0
    } else {
        g
    }
}

impl Kernel1d for EsKernel {
    fn width(&self) -> usize {
        self.w
    }
    fn eval(&self, z: f64) -> f64 {
        EsKernel::eval(self, z)
    }
    fn ft(&self, xi: f64) -> f64 {
        EsKernel::ft(self, xi)
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn exercise<K: Kernel1d>(k: K) {
        assert!(k.width() >= 2);
        assert!(k.eval(0.0) > 0.0);
        assert_eq!(k.eval(3.0), 0.0);
        assert!(k.ft(0.0) > 0.0);
        let mut row = vec![0.0; k.width()];
        k.eval_row(-1.0, &mut row);
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn footprint_geometry() {
        // point exactly between nodes, even width
        let (l0, z0) = spread_footprint(5.3, 4);
        assert_eq!(l0, 4);
        assert!((z0 - (4.0 - 5.3) * 0.5).abs() < 1e-15);
        // all w kernel arguments stay inside [-1, 1)
        for g in [0.0, 0.49, 5.3, 127.999] {
            for w in [2usize, 5, 6, 13] {
                let (l0, z0) = spread_footprint(g, w);
                let step = 2.0 / w as f64;
                let zlast = z0 + (w - 1) as f64 * step;
                assert!(z0 >= -1.0 - 1e-12, "g={g} w={w} z0={z0}");
                assert!(zlast <= 1.0 + 1e-12, "g={g} w={w} zlast={zlast}");
                let _ = l0;
            }
        }
    }

    #[test]
    fn grid_coord_folds_periodically() {
        let n = 100;
        let h = std::f64::consts::TAU / n as f64;
        assert!((grid_coord(0.0, n) - 0.0).abs() < 1e-12);
        assert!((grid_coord(h, n) - 1.0).abs() < 1e-9);
        // -pi folds to n/2
        assert!((grid_coord(-std::f64::consts::PI, n) - 50.0).abs() < 1e-9);
        // out-of-box inputs fold too
        let g1 = grid_coord(0.7, n);
        let g2 = grid_coord(0.7 + std::f64::consts::TAU, n);
        assert!((g1 - g2).abs() < 1e-9);
        // never returns n
        let g = grid_coord(-1e-18, n);
        assert!(g < n as f64);
    }

    #[test]
    fn all_kernels_implement_the_interface() {
        exercise(EsKernel::with_width(6));
        exercise(GaussianKernel::with_width(12, 2.0));
        exercise(KaiserBesselKernel::with_width(5, 2.0));
    }
}

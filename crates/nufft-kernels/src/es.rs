//! The "exponential of semicircle" (ES) spreading kernel of
//! FINUFFT/cuFINUFFT (paper eq. 5):
//!
//! ```text
//! phi_beta(z) = exp(beta (sqrt(1 - z^2) - 1)),  |z| <= 1,   else 0,
//! ```
//!
//! with width and shape chosen from the user tolerance by eq. 6:
//! `w = ceil(log10(1/eps)) + 1`, `beta = 2.30 w` (at upsampling sigma=2).

use crate::gauss_legendre::gauss_legendre;
use nufft_common::error::{NufftError, Result};

/// Hard cap on kernel width, as in FINUFFT.
pub const MAX_WIDTH: usize = 16;

/// Smallest meaningful tolerance per precision: just above round-off for
/// the working type (FINUFFT warns below these; we error).
pub fn eps_limit(is_double: bool) -> f64 {
    if is_double {
        1e-14
    } else {
        1e-7
    }
}

/// Kernel parameters chosen from a tolerance (paper eq. 6).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EsKernel {
    /// Width in fine-grid points.
    pub w: usize,
    /// Shape parameter.
    pub beta: f64,
}

impl EsKernel {
    /// Select `w` and `beta` for tolerance `eps` (working precision given
    /// by `is_double`). Errors when `eps` is below the precision limit.
    ///
    /// # Achievable tolerances
    ///
    /// Requests below the working-precision floor return
    /// [`NufftError::EpsTooSmall`] rather than silently clamping — the
    /// kernel could be widened but round-off in the spread/FFT/deconvolve
    /// pipeline would dominate, so the requested accuracy is unreachable:
    ///
    /// | precision | smallest `eps` | widest kernel used          |
    /// |-----------|----------------|-----------------------------|
    /// | f32       | `1e-7`         | `w = 8`  (`beta = 18.4`)    |
    /// | f64       | `1e-14`        | `w = 15` (`beta = 34.5`)    |
    ///
    /// Within range, `w = ceil(log10(1/eps)) + 1` (clamped to
    /// `[2, MAX_WIDTH]`), so each extra requested digit widens the kernel
    /// by one fine-grid point:
    ///
    /// | `eps`   | 1e-2 | 1e-4 | 1e-6 | 1e-8 | 1e-10 | 1e-12 | 1e-14 |
    /// |---------|------|------|------|------|-------|-------|-------|
    /// | `w`     | 3    | 5    | 7    | 9    | 11    | 13    | 15    |
    ///
    /// The observed `rel_l2` against a direct NUDFT lands within a small
    /// multiple of `eps` (see the conformance harness in
    /// `crates/nufft-conformance` for the calibrated envelope).
    pub fn for_tolerance(eps: f64, is_double: bool) -> Result<Self> {
        let limit = eps_limit(is_double);
        if eps < limit || eps.is_nan() {
            return Err(NufftError::EpsTooSmall { eps, limit });
        }
        let digits = (1.0 / eps).log10().ceil();
        let w = ((digits as usize) + 1).clamp(2, MAX_WIDTH);
        Ok(Self::with_width(w))
    }

    /// Build directly from a width (used by parameter sweeps).
    pub fn with_width(w: usize) -> Self {
        assert!(
            (2..=MAX_WIDTH).contains(&w),
            "kernel width {w} out of range"
        );
        EsKernel {
            w,
            beta: 2.30 * w as f64,
        }
    }

    /// Generalized parameter rule for arbitrary upsampling factors
    /// `sigma > 1` (the paper fixes sigma = 2 and lists smaller sigma as
    /// future work; FINUFFT ships sigma = 1.25). Following Barnett et
    /// al. (SISC 2019): `beta = gamma pi w (1 - 1/(2 sigma))` with
    /// `gamma ~ 0.97`, which gives about
    /// `gamma pi (1 - 1/(2 sigma)) / ln 10` accuracy digits per unit
    /// width. At sigma = 2 this reduces to `beta ~ 2.29 w`, matching the
    /// paper's `2.30 w`.
    ///
    /// Like [`EsKernel::for_tolerance`], `eps` below the precision floor
    /// (`1e-7` for f32, `1e-14` for f64 — see [`eps_limit`]) is an
    /// [`NufftError::EpsTooSmall`] error, never a silent clamp. Smaller
    /// `sigma` buys fewer digits per unit width, so the same `eps` needs
    /// a wider kernel (e.g. at `sigma = 1.25`, `eps = 1e-6` takes `w = 9`
    /// versus `w = 7` at `sigma = 2`). A `sigma` that is not above 1
    /// (NaN included) is a [`NufftError::BadUpsampfac`] error.
    pub fn for_tolerance_sigma(eps: f64, sigma: f64, is_double: bool) -> Result<Self> {
        if sigma <= 1.0 || sigma.is_nan() {
            return Err(NufftError::BadUpsampfac(sigma));
        }
        let limit = eps_limit(is_double);
        if eps < limit || eps.is_nan() {
            return Err(NufftError::EpsTooSmall { eps, limit });
        }
        let gamma = 0.97;
        let digits_per_w =
            gamma * std::f64::consts::PI * (1.0 - 1.0 / (2.0 * sigma)) / std::f64::consts::LN_10;
        let digits = (1.0 / eps).log10();
        let w = ((digits / digits_per_w).ceil() as usize + 1).clamp(2, MAX_WIDTH);
        let beta = gamma * std::f64::consts::PI * w as f64 * (1.0 - 1.0 / (2.0 * sigma));
        Ok(EsKernel { w, beta })
    }

    /// The kernel a plan with upsampling factor `sigma` uses: the paper's
    /// rule ([`EsKernel::for_tolerance`]) at sigma = 2, the generalized
    /// one ([`EsKernel::for_tolerance_sigma`]) elsewhere. They are not
    /// merged: at sigma = 2 they give different `beta`.
    pub fn for_upsampfac(eps: f64, sigma: f64, is_double: bool) -> Result<Self> {
        if (sigma - 2.0).abs() < 1e-12 {
            Self::for_tolerance(eps, is_double)
        } else {
            Self::for_tolerance_sigma(eps, sigma, is_double)
        }
    }

    /// Evaluate `phi_beta(z)`; zero outside `[-1, 1]`.
    #[inline]
    pub fn eval(&self, z: f64) -> f64 {
        let t = 1.0 - z * z;
        if t <= 0.0 {
            // include the endpoint |z|=1 where the kernel is e^{-beta}
            if z.abs() <= 1.0 {
                return (-self.beta).exp();
            }
            return 0.0;
        }
        (self.beta * (t.sqrt() - 1.0)).exp()
    }

    /// Evaluate the kernel at the `w` grid offsets covering a point whose
    /// fractional distance from the first covered grid node is `z0 in
    /// [-1, -1 + 2/w]`-ish; concretely fills `out[t] = phi(z0 + t*(2/w))`.
    /// This is the tensor-product 1D factor used by all spread/interp
    /// loops (kernel support is rescaled so the grid offsets step by
    /// `2/w` in the kernel's own coordinate).
    #[inline]
    pub fn eval_row(&self, z0: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.w);
        let step = 2.0 / self.w as f64;
        for (t, o) in out.iter_mut().enumerate() {
            *o = self.eval(z0 + t as f64 * step);
        }
    }

    /// Fourier transform `phi_hat(xi) = int_{-1}^{1} phi(z) e^{-i xi z} dz`
    /// (real and even), by Gauss–Legendre quadrature.
    ///
    /// The substitution `z = sin(t)` removes the square-root endpoint
    /// nonsmoothness of `sqrt(1 - z^2)`, making the integrand analytic so
    /// the quadrature converges exponentially:
    /// `int_{-pi/2}^{pi/2} e^{beta (cos t - 1)} cos(xi sin t) cos t dt`.
    pub fn ft(&self, xi: f64) -> f64 {
        let n = 24 + 2 * self.w + (xi.abs() / 2.0) as usize;
        let (x, wq) = gauss_legendre(n);
        let half_pi = std::f64::consts::FRAC_PI_2;
        let mut acc = 0.0;
        for (&u, &q) in x.iter().zip(wq.iter()) {
            let t = half_pi * u;
            let (st, ct) = t.sin_cos();
            acc += q * (self.beta * (ct - 1.0)).exp() * (xi * st).cos() * ct;
        }
        acc * half_pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_rule_matches_paper() {
        // w = ceil(log10(1/eps)) + 1
        assert_eq!(EsKernel::for_tolerance(1e-2, true).unwrap().w, 3);
        assert_eq!(EsKernel::for_tolerance(1e-5, true).unwrap().w, 6);
        assert_eq!(EsKernel::for_tolerance(1e-12, true).unwrap().w, 13);
        // beta = 2.30 w
        let k = EsKernel::for_tolerance(1e-5, true).unwrap();
        assert!((k.beta - 13.8).abs() < 1e-12);
    }

    #[test]
    fn tolerance_below_precision_errors() {
        assert!(matches!(
            EsKernel::for_tolerance(1e-9, false),
            Err(NufftError::EpsTooSmall { .. })
        ));
        assert!(matches!(
            EsKernel::for_tolerance(1e-15, true),
            Err(NufftError::EpsTooSmall { .. })
        ));
        assert!(EsKernel::for_tolerance(1e-7, false).is_ok());
        assert!(EsKernel::for_tolerance(1e-14, true).is_ok());
    }

    #[test]
    fn sigma_rule_tolerance_below_precision_errors() {
        // both precisions, both just-below and at the floor, for the
        // generalized-sigma selector too
        assert!(matches!(
            EsKernel::for_tolerance_sigma(9e-8, 2.0, false),
            Err(NufftError::EpsTooSmall { .. })
        ));
        assert!(matches!(
            EsKernel::for_tolerance_sigma(9e-15, 1.25, true),
            Err(NufftError::EpsTooSmall { .. })
        ));
        assert!(EsKernel::for_tolerance_sigma(1e-7, 1.25, false).is_ok());
        assert!(EsKernel::for_tolerance_sigma(1e-14, 2.0, true).is_ok());
        // NaN never sneaks through either selector
        assert!(EsKernel::for_tolerance_sigma(f64::NAN, 2.0, true).is_err());
        assert!(EsKernel::for_tolerance(f64::NAN, false).is_err());
    }

    #[test]
    fn documented_width_table_holds() {
        // the rustdoc table on for_tolerance: w = ceil(log10(1/eps)) + 1
        for (eps, w) in [
            (1e-2, 3usize),
            (1e-4, 5),
            (1e-6, 7),
            (1e-8, 9),
            (1e-10, 11),
            (1e-12, 13),
            (1e-14, 15),
        ] {
            assert_eq!(EsKernel::for_tolerance(eps, true).unwrap().w, w, "{eps}");
        }
        // f32 floor row: eps = 1e-7 -> w = 8, beta = 18.4
        let k32 = EsKernel::for_tolerance(1e-7, false).unwrap();
        assert_eq!(k32.w, 8);
        assert!((k32.beta - 18.4).abs() < 1e-12);
    }

    #[test]
    fn kernel_shape() {
        let k = EsKernel::with_width(6);
        assert_eq!(k.eval(0.0), 1.0); // peak value e^0
        assert!(k.eval(0.5) < 1.0);
        assert!((k.eval(1.0) - (-k.beta).exp()).abs() < 1e-300);
        assert_eq!(k.eval(1.0001), 0.0);
        assert_eq!(k.eval(-2.0), 0.0);
        // even function
        assert_eq!(k.eval(0.3), k.eval(-0.3));
        // monotone decreasing on [0,1]
        let mut prev = k.eval(0.0);
        for i in 1..=10 {
            let v = k.eval(i as f64 / 10.0);
            assert!(v < prev);
            prev = v;
        }
    }

    /// High-order reference using the same analyticity-restoring
    /// `z = sin(t)` substitution, at 4x the node count.
    fn ft_reference(k: &EsKernel, xi: f64) -> f64 {
        let half_pi = std::f64::consts::FRAC_PI_2;
        crate::gauss_legendre::integrate(
            |t| (k.beta * (t.cos() - 1.0)).exp() * (xi * t.sin()).cos() * t.cos(),
            -half_pi,
            half_pi,
            400,
        )
    }

    #[test]
    fn ft_at_zero_is_kernel_mass() {
        let k = EsKernel::with_width(7);
        let mass = ft_reference(&k, 0.0);
        assert!((k.ft(0.0) - mass).abs() < 1e-13);
        assert!(mass > 0.0);
    }

    #[test]
    fn ft_decays_with_frequency() {
        let k = EsKernel::with_width(8);
        let f0 = k.ft(0.0);
        let f5 = k.ft(5.0).abs();
        let f12 = k.ft(12.0).abs();
        assert!(f5 < f0);
        assert!(f12 < f5);
    }

    #[test]
    fn ft_is_even() {
        let k = EsKernel::with_width(5);
        for xi in [0.5, 2.0, 7.7] {
            assert!((k.ft(xi) - k.ft(-xi)).abs() < 1e-13);
        }
    }

    #[test]
    fn ft_quadrature_converged() {
        // compare against a 400-node reference with the same substitution
        let k = EsKernel::with_width(13);
        for xi in [0.0, 3.0, 10.0, 20.0] {
            let brute = ft_reference(&k, xi);
            assert!(
                (k.ft(xi) - brute).abs() <= 1e-13 * brute.abs().max(1.0),
                "xi={xi}: {} vs {brute}",
                k.ft(xi)
            );
        }
    }

    #[test]
    fn sigma_general_rule_reduces_to_paper_at_two() {
        let k2 = EsKernel::for_tolerance_sigma(1e-6, 2.0, true).unwrap();
        let kp = EsKernel::for_tolerance(1e-6, true).unwrap();
        // widths agree within one grid point; beta within a few percent
        assert!((k2.w as i64 - kp.w as i64).abs() <= 1);
        assert!((k2.beta / k2.w as f64 - 2.30).abs() < 0.05);
    }

    #[test]
    fn for_upsampfac_keeps_each_rule_at_its_sigma() {
        for eps in [1e-2, 1e-6, 1e-9, 1e-15] {
            let paper = EsKernel::for_tolerance(eps, true);
            assert_eq!(EsKernel::for_upsampfac(eps, 2.0, true), paper);
            let general = EsKernel::for_tolerance_sigma(eps, 1.25, true);
            assert_eq!(EsKernel::for_upsampfac(eps, 1.25, true), general);
        }
    }

    #[test]
    fn smaller_sigma_needs_wider_kernel() {
        let k125 = EsKernel::for_tolerance_sigma(1e-6, 1.25, true).unwrap();
        let k2 = EsKernel::for_tolerance_sigma(1e-6, 2.0, true).unwrap();
        assert!(k125.w > k2.w, "{} vs {}", k125.w, k2.w);
    }

    #[test]
    fn eval_row_spans_support() {
        let k = EsKernel::with_width(4);
        let mut row = [0.0; 4];
        k.eval_row(-0.9, &mut row);
        let step = 2.0 / 4.0;
        for (t, &v) in row.iter().enumerate() {
            assert_eq!(v, k.eval(-0.9 + t as f64 * step));
        }
    }
}

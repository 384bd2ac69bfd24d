//! Piecewise-polynomial kernel evaluation, FINUFFT's fast path.
//!
//! Spreading evaluates the kernel at `w` offsets sharing one fractional
//! position: with `l_start = ceil(g - w/2)` and `xi = l_start - g` in
//! `[-w/2, -w/2 + 1)`, the `w` needed values are `phi((xi + t) 2/w)` for
//! `t = 0..w`. Each is a smooth function of `xi` alone, so FINUFFT fits a
//! polynomial per output node at plan time and replaces `w` exp+sqrt
//! calls with `w` fused polynomial evaluations. We fit in the Chebyshev
//! basis and evaluate with Clenshaw recurrence (numerically stable, same
//! cost as Horner).
//!
//! The table is stored degree-major, so one recurrence advances every
//! node at each degree step (FINUFFT's layout, arXiv 1808.06736 §4):
//! the inner loop runs over independent nodes instead of down one
//! serial chain. Each node still sees exactly the operations of its own
//! Clenshaw chain, in the same order, so rows are bit-identical to
//! evaluating node by node.
//!
//! Near `z = +/-1` the ES kernel has a square-root branch point, but its
//! magnitude there is `~e^{-beta} ~ eps`, so the fit's absolute error
//! stays at the kernel's own design tolerance.

use crate::es::{EsKernel, MAX_WIDTH};
use crate::Kernel1d;

/// Maximum Chebyshev degree used in a fit.
const MAX_DEGREE: usize = 24;

/// A kernel with precomputed per-node Chebyshev fits for `eval_row`.
#[derive(Clone, Debug)]
pub struct HornerKernel {
    inner: EsKernel,
    /// `coeffs[k][t]` is the degree-`k` Chebyshev coefficient of node
    /// `t`'s value as a function of the normalized fractional position
    /// `u in [-1,1]`. Columns `t >= w` are zero, so `eval_row` can step
    /// over node pairs without a remainder loop.
    coeffs: Vec<[f64; MAX_WIDTH]>,
}

impl HornerKernel {
    /// Fit the given ES kernel. `degree` defaults to `w + 6` (capped),
    /// which reaches the kernel's own accuracy floor.
    pub fn fit(inner: EsKernel) -> Self {
        let w = inner.w;
        let degree = (w + 6).min(MAX_DEGREE);
        let n = degree + 1;
        let mut coeffs = vec![[0.0f64; MAX_WIDTH]; n];
        for t in 0..w {
            // Chebyshev nodes and the node-t sample function
            let f = |u: f64| {
                // xi = -w/2 + (u+1)/2 ; z_t = (u + 1 - w + 2 t) / w
                let z = (u + 1.0 - w as f64 + 2.0 * t as f64) / w as f64;
                inner.eval(z)
            };
            for (k, row) in coeffs.iter_mut().enumerate() {
                let mut acc = 0.0;
                for j in 0..n {
                    let theta = std::f64::consts::PI * (j as f64 + 0.5) / n as f64;
                    acc += f(theta.cos()) * (k as f64 * theta).cos();
                }
                row[t] = 2.0 * acc / n as f64;
            }
            coeffs[0][t] *= 0.5;
        }
        HornerKernel { inner, coeffs }
    }

    /// Clenshaw evaluation of one node's fit at `u in [-1, 1]`: the
    /// node-by-node reference `eval_row` must match bit for bit.
    #[cfg(test)]
    fn clenshaw(c: &[f64], u: f64) -> f64 {
        let mut b1 = 0.0f64;
        let mut b2 = 0.0f64;
        let two_u = 2.0 * u;
        for &ck in c.iter().rev() {
            let b0 = ck + two_u * b1 - b2;
            b2 = b1;
            b1 = b0;
        }
        b1 - u * b2
    }

    pub fn inner(&self) -> &EsKernel {
        &self.inner
    }

    /// Measured maximum absolute error of the fitted `eval_row` against
    /// the exact kernel, sampled over the fractional positions spreading
    /// can produce (`z0` spanning one grid cell, including both support
    /// edges). Plan construction uses this to decide whether the fast
    /// path meets the requested tolerance.
    pub fn max_fit_error(&self) -> f64 {
        let w = self.inner.w;
        let mut exact = [0.0f64; MAX_WIDTH];
        let mut fitted = [0.0f64; MAX_WIDTH];
        let mut worst = 0.0f64;
        const SAMPLES: usize = 128;
        for i in 0..=SAMPLES {
            let g = 5.0 + i as f64 / SAMPLES as f64; // one full cell, both edges
            let (_, z0) = crate::spread_footprint(g, w);
            self.inner.eval_row(z0, &mut exact[..w]);
            self.eval_row(z0, &mut fitted[..w]);
            for t in 0..w {
                worst = worst.max((exact[t] - fitted[t]).abs());
            }
        }
        worst
    }
}

impl Kernel1d for HornerKernel {
    fn width(&self) -> usize {
        self.inner.w
    }

    /// Pointwise evaluation falls back to the exact kernel (used by the
    /// Fourier-transform/deconvolution path, which is not hot).
    fn eval(&self, z: f64) -> f64 {
        self.inner.eval(z)
    }

    fn ft(&self, xi: f64) -> f64 {
        self.inner.ft(xi)
    }

    /// The hot path: all `w` node values from one fractional position via
    /// the precomputed fits, two nodes per inner step.
    #[inline]
    fn eval_row(&self, z0: f64, out: &mut [f64]) {
        let w = self.inner.w;
        debug_assert_eq!(out.len(), w);
        // z0 = 2 xi / w with xi in [-w/2, -w/2 + 1) => u = w z0 + w - 1
        let u = (w as f64 * z0 + w as f64 - 1.0).clamp(-1.0, 1.0);
        let two_u = 2.0 * u;
        // w <= MAX_WIDTH always; the `min` lets the compiler drop the
        // bounds checks in the inner loop
        let pairs = w.div_ceil(2).min(MAX_WIDTH / 2);
        let mut b1 = [[0.0f64; 2]; MAX_WIDTH / 2];
        let mut b2 = [[0.0f64; 2]; MAX_WIDTH / 2];
        for ck in self.coeffs.iter().rev() {
            for p in 0..pairs {
                let (x1, x2) = (b1[p], b2[p]);
                b1[p] = [
                    ck[2 * p] + two_u * x1[0] - x2[0],
                    ck[2 * p + 1] + two_u * x1[1] - x2[1],
                ];
                b2[p] = x1;
            }
        }
        for (t, o) in out.iter_mut().enumerate() {
            *o = b1[t / 2][t % 2] - u * b2[t / 2][t % 2];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread_footprint;

    #[test]
    fn fits_match_direct_evaluation_across_widths() {
        for w in [2usize, 3, 6, 9, 13, 16] {
            let es = EsKernel::with_width(w);
            let hk = HornerKernel::fit(es);
            let tol = (-es.beta).exp().max(1e-13) * 10.0;
            // sweep fractional positions exactly as spreading produces them
            for i in 0..200 {
                let g = 5.0 + i as f64 / 200.0; // grid coordinate in [5, 6)
                let (_, z0) = spread_footprint(g, w);
                let mut exact = vec![0.0; w];
                es.eval_row(z0, &mut exact);
                let mut fitted = vec![0.0; w];
                hk.eval_row(z0, &mut fitted);
                for t in 0..w {
                    assert!(
                        (exact[t] - fitted[t]).abs() < tol,
                        "w={w} i={i} t={t}: {} vs {} (tol {tol:.2e})",
                        exact[t],
                        fitted[t]
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Property: for every supported width and any fractional
        /// position (including the +/- support edges, where the ES kernel
        /// has its square-root branch point), the fitted row matches the
        /// exact row within the kernel's design tolerance.
        #[test]
        fn fit_matches_exact_for_any_width_and_fraction(
            w in 2usize..=crate::es::MAX_WIDTH,
            frac in 0.0f64..1.0,
        ) {
            let es = EsKernel::with_width(w);
            let hk = HornerKernel::fit(es);
            let tol = (-es.beta).exp().max(1e-13) * 10.0;
            let (_, z0) = spread_footprint(7.0 + frac, w);
            let mut exact = vec![0.0; w];
            let mut fitted = vec![0.0; w];
            es.eval_row(z0, &mut exact);
            hk.eval_row(z0, &mut fitted);
            for t in 0..w {
                proptest::prop_assert!(
                    (exact[t] - fitted[t]).abs() < tol,
                    "w={} frac={} t={}: {} vs {} (tol {:.2e})",
                    w, frac, t, exact[t], fitted[t], tol
                );
            }
        }
    }

    #[test]
    fn fit_holds_at_exact_support_edges_for_all_widths() {
        // frac = 0 pins the first node to the -1 support edge (even w) and
        // frac -> 1 pins the last node to +1; check both exactly, plus the
        // aggregate fit-error measurement used by plan-time Auto selection.
        for w in 2..=crate::es::MAX_WIDTH {
            let es = EsKernel::with_width(w);
            let hk = HornerKernel::fit(es);
            let tol = (-es.beta).exp().max(1e-13) * 10.0;
            assert!(
                hk.max_fit_error() < tol,
                "w={w}: measured fit error {:.2e} exceeds design tol {tol:.2e}",
                hk.max_fit_error()
            );
            for frac in [0.0, 1.0 - f64::EPSILON, 1.0] {
                let (_, z0) = spread_footprint(7.0 + frac, w);
                let mut exact = vec![0.0; w];
                let mut fitted = vec![0.0; w];
                es.eval_row(z0, &mut exact);
                hk.eval_row(z0, &mut fitted);
                for t in 0..w {
                    assert!(
                        (exact[t] - fitted[t]).abs() < tol,
                        "edge w={w} frac={frac} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_node_rows_equal_per_node_clenshaw_bitwise() {
        for w in 2..=MAX_WIDTH {
            let hk = HornerKernel::fit(EsKernel::with_width(w));
            let columns: Vec<Vec<f64>> = (0..w)
                .map(|t| hk.coeffs.iter().map(|row| row[t]).collect())
                .collect();
            let fracs = (0..200)
                .map(|i| i as f64 / 200.0)
                .chain([1.0 - f64::EPSILON, 1.0]);
            for frac in fracs {
                let (_, z0) = spread_footprint(7.0 + frac, w);
                let mut row = vec![0.0; w];
                hk.eval_row(z0, &mut row);
                let u = (w as f64 * z0 + w as f64 - 1.0).clamp(-1.0, 1.0);
                for (t, c) in columns.iter().enumerate() {
                    let want = HornerKernel::clenshaw(c, u);
                    assert_eq!(
                        row[t].to_bits(),
                        want.to_bits(),
                        "w={w} frac={frac} t={t}: {} vs {want}",
                        row[t]
                    );
                }
            }
        }
    }

    #[test]
    fn pointwise_and_ft_delegate_to_exact_kernel() {
        let es = EsKernel::with_width(7);
        let hk = HornerKernel::fit(es);
        assert_eq!(hk.eval(0.3), es.eval(0.3));
        assert_eq!(hk.ft(2.0), es.ft(2.0));
        assert_eq!(hk.width(), 7);
    }

    #[test]
    fn clenshaw_evaluates_chebyshev_basis() {
        // coefficients [0,0,1] = T_2(u) = 2u^2 - 1
        let c = [0.0, 0.0, 1.0];
        for u in [-1.0, -0.3, 0.0, 0.7, 1.0] {
            let want = 2.0 * u * u - 1.0;
            assert!((HornerKernel::clenshaw(&c, u) - want).abs() < 1e-14);
        }
    }
}

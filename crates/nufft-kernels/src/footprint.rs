//! One nonuniform point's kernel footprint on the periodic fine grid,
//! and the three loops every spreader and interpolator runs over it.
//!
//! A point at fine-grid coordinate `g` touches the `w` consecutive nodes
//! from `l0 = ceil(g - w/2)` along each axis ([`spread_footprint`]); its
//! weights are the tensor product of one kernel row per axis. A
//! [`Footprint`] holds those rows together with the nodes' periodically
//! wrapped indices, so the `w^d` loops do table lookups only. The GPU
//! spreading schemes and the CPU spreader both go through this type, and
//! each loop fixes one floating-point order: a footprint spreads and
//! interpolates to the same bits whichever library calls it.

use crate::{es, gaussian, grid_coord, kaiser_bessel, spread_footprint, Kernel1d};
use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::shape::Shape;

/// Widest kernel any spreader in this crate builds (ES and Gaussian cap
/// at 16, Kaiser–Bessel at 7).
pub const MAX_W: usize = es::MAX_WIDTH;

const _: () = assert!(gaussian::MAX_WIDTH <= MAX_W && kaiser_bessel::MAX_WIDTH <= MAX_W);

/// Kernel footprint of one point. Axes past the point's dimension have
/// width 1, start node 0, index 0 and weight 1, so the loops below treat
/// 1D, 2D and 3D alike.
pub struct Footprint {
    /// First covered node per axis, unwrapped (may be negative or run
    /// past the grid).
    pub l0: [i64; 3],
    /// Covered nodes per axis: the kernel width, or 1 on unused axes.
    pub wd: [usize; 3],
    /// Kernel weights per axis; `ker[i][..wd[i]]` are live.
    pub ker: [[f64; MAX_W]; 3],
    /// Wrapped grid indices `(l0 + t).rem_euclid(n)` per axis.
    pub idx: [[usize; MAX_W]; 3],
}

impl Footprint {
    /// Footprint of the point at `coords` (only the first `dim` are
    /// read) on the periodic grid `fine`. Panics if the kernel is wider
    /// than [`MAX_W`].
    #[inline]
    pub fn new<T: Real, K: Kernel1d>(kernel: &K, fine: Shape, dim: usize, coords: [T; 3]) -> Self {
        let w = kernel.width();
        let mut fp = Footprint {
            l0: [0; 3],
            wd: [1; 3],
            ker: [[1.0; MAX_W]; 3],
            idx: [[0; MAX_W]; 3],
        };
        for (i, &x) in coords.iter().enumerate().take(dim) {
            let n = fine.n[i];
            let (l0, z0) = spread_footprint(grid_coord(x.to_f64(), n), w);
            fp.l0[i] = l0;
            fp.wd[i] = w;
            // one division per axis, then step and wrap
            let mut k = l0.rem_euclid(n as i64) as usize;
            for slot in &mut fp.idx[i][..w] {
                *slot = k;
                k += 1;
                if k == n {
                    k = 0;
                }
            }
            kernel.eval_row(z0, &mut fp.ker[i][..w]);
        }
        fp
    }

    /// Add strength `c` times the footprint's weights into the periodic
    /// grid `grid` of shape `fine`, t3 then t2 then t1 fastest — the
    /// order one GPU thread issues its atomic adds.
    #[inline]
    pub fn spread<T: Real>(&self, fine: Shape, c: Complex<T>, grid: &mut [Complex<T>]) {
        let [n1, n2, _] = fine.n;
        let idx1 = &self.idx[0][..self.wd[0]];
        for t3 in 0..self.wd[2] {
            let off3 = self.idx[2][t3] * n1 * n2;
            for t2 in 0..self.wd[1] {
                let c23 = c.scale(T::from_f64(self.ker[1][t2] * self.ker[2][t3]));
                let base = off3 + self.idx[1][t2] * n1;
                for (&i1, &k1) in idx1.iter().zip(&self.ker[0]) {
                    grid[base + i1] += c23.scale(T::from_f64(k1));
                }
            }
        }
    }

    /// Add strength `c` times the footprint's weights into `data`, an
    /// unwrapped box of `size` cells (x fastest) whose cell `at` is the
    /// footprint's first node. The box must hold the whole footprint;
    /// the caller wraps it onto the grid. Same arithmetic order as
    /// [`Footprint::spread`].
    #[inline]
    pub fn spread_box<T: Real>(
        &self,
        c: Complex<T>,
        data: &mut [Complex<T>],
        size: [usize; 3],
        at: [usize; 3],
    ) {
        let ker1 = &self.ker[0][..self.wd[0]];
        for t3 in 0..self.wd[2] {
            let off3 = (at[2] + t3) * size[0] * size[1];
            for t2 in 0..self.wd[1] {
                let c23 = c.scale(T::from_f64(self.ker[1][t2] * self.ker[2][t3]));
                let base = off3 + (at[1] + t2) * size[0] + at[0];
                for (cell, &k1) in data[base..][..ker1.len()].iter_mut().zip(ker1) {
                    *cell += c23.scale(T::from_f64(k1));
                }
            }
        }
    }

    /// The footprint's weighted sum of `grid` (shape `fine`): each x-row
    /// is summed first, then scaled by its y·z weight. Rows that do not
    /// wrap in x are read as one contiguous slice.
    #[inline]
    pub fn interp<T: Real>(&self, fine: Shape, grid: &[Complex<T>]) -> Complex<T> {
        let [n1, n2, _] = fine.n;
        let ker1 = &self.ker[0][..self.wd[0]];
        let x0 = self.l0[0];
        let contiguous = x0 >= 0 && x0 + ker1.len() as i64 <= n1 as i64;
        let mut acc = Complex::<T>::ZERO;
        for t3 in 0..self.wd[2] {
            let off3 = self.idx[2][t3] * n1 * n2;
            for t2 in 0..self.wd[1] {
                let k23 = self.ker[1][t2] * self.ker[2][t3];
                let base = off3 + self.idx[1][t2] * n1;
                let mut row = Complex::<T>::ZERO;
                if contiguous {
                    let cells = &grid[base + x0 as usize..][..ker1.len()];
                    for (&g, &k1) in cells.iter().zip(ker1) {
                        row += g.scale(T::from_f64(k1));
                    }
                } else {
                    for (&i1, &k1) in self.idx[0].iter().zip(ker1) {
                        row += grid[base + i1].scale(T::from_f64(k1));
                    }
                }
                acc += row.scale(T::from_f64(k23));
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EsKernel;
    use std::f64::consts::TAU;

    #[test]
    fn stepped_indices_equal_rem_euclid_on_every_axis() {
        // n = 5 < w = 7 wraps a footprint more than once
        let fine = Shape::d3(12, 5, 9);
        for w in [2, 7, MAX_W] {
            let kernel = EsKernel::with_width(w);
            for i in 0..3 {
                let n = fine.n[i];
                // start node below 0, inside the grid, and running past n
                for g in [0.2, n as f64 / 2.0, n as f64 - 0.3] {
                    let mut coords = [0.7, -1.1, 2.5];
                    coords[i] = g * TAU / n as f64;
                    let fp = Footprint::new(&kernel, fine, 3, coords);
                    for (a, &na) in fine.n.iter().enumerate() {
                        assert_eq!(fp.wd[a], w);
                        for t in 0..w {
                            let want = (fp.l0[a] + t as i64).rem_euclid(na as i64) as usize;
                            assert_eq!(fp.idx[a][t], want, "w={w} axis {a} g={g} t={t}");
                        }
                    }
                }
            }
        }
    }

    fn bits<T: Real>(v: &[Complex<T>]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
            .collect()
    }

    /// Spread one footprint into a padded box, fold the box onto the grid
    /// with `rem_euclid`, and compare with the periodic scatter.
    fn box_then_wrap_equals_periodic_spread<T: Real>(coords: [f64; 3]) {
        let fine = Shape::d3(10, 9, 8);
        let fp = Footprint::new(&EsKernel::with_width(6), fine, 3, coords.map(T::from_f64));
        let wraps = (0..3).all(|i| fp.l0[i] < 0 || fp.l0[i] + 6 > fine.n[i] as i64);
        assert!(wraps, "footprint at {coords:?} must wrap on every axis");
        let c = Complex::new(T::from_f64(0.8), T::from_f64(-1.3));
        let mut want = vec![Complex::<T>::ZERO; fine.total()];
        fp.spread(fine, c, &mut want);

        let at = [1, 2, 3];
        let size = [fp.wd[0] + 3, fp.wd[1] + 2, fp.wd[2] + 4];
        let mut data = vec![Complex::<T>::ZERO; size.iter().product()];
        fp.spread_box(c, &mut data, size, at);
        let wrap = |a: usize, t: usize| {
            (fp.l0[a] - at[a] as i64 + t as i64).rem_euclid(fine.n[a] as i64) as usize
        };
        let mut got = vec![Complex::<T>::ZERO; fine.total()];
        for i3 in 0..size[2] {
            for i2 in 0..size[1] {
                for i1 in 0..size[0] {
                    let cell = wrap(0, i1) + fine.n[0] * (wrap(1, i2) + fine.n[1] * wrap(2, i3));
                    got[cell] += data[i1 + size[0] * (i2 + size[1] * i3)];
                }
            }
        }
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn box_spread_wrapped_back_equals_periodic_spread() {
        // footprints starting below 0 on every axis, and running past n
        for coords in [[1e-3, 0.05, 0.02], [-1e-9, -0.02, -0.1]] {
            box_then_wrap_equals_periodic_spread::<f64>(coords);
            box_then_wrap_equals_periodic_spread::<f32>(coords);
        }
    }
}

//! Nonuniform-point workload generators from the paper's evaluation
//! (Sec. IV, "Tasks"): the "rand" and "cluster" distributions, plus random
//! strength vectors. All generators are deterministic given a seed.

use crate::complex::Complex;
use crate::real::Real;
use crate::shape::Shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nonuniform point distribution used in the paper's benchmarks.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PointDist {
    /// iid uniform over the whole periodic box `[-pi, pi)^d`.
    Rand,
    /// iid uniform in the tiny box `[0, 8 h_1] x ... x [0, 8 h_d]` where
    /// `h_i = 2 pi / n_i` are the *fine-grid* spacings — the pathological
    /// clustered case that serializes naive atomics.
    Cluster,
}

/// Nonuniform points stored as separate coordinate arrays (structure of
/// arrays), matching the `x[], y[], z[]` interface of cuFINUFFT.
#[derive(Clone, Debug)]
pub struct Points<T> {
    pub coords: [Vec<T>; 3],
    pub dim: usize,
}

impl<T: Real> Points<T> {
    pub fn len(&self) -> usize {
        self.coords[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.coords[0].is_empty()
    }

    /// Coordinate of point `j` in dimension `i` (0 for dims >= self.dim).
    #[inline(always)]
    pub fn coord(&self, i: usize, j: usize) -> T {
        if i < self.dim {
            self.coords[i][j]
        } else {
            T::ZERO
        }
    }

    /// Point `j`'s coordinates, zero past `dim`.
    pub fn point(&self, j: usize) -> [T; 3] {
        [0, 1, 2].map(|i| self.coord(i, j))
    }

    pub fn x(&self) -> &[T] {
        &self.coords[0]
    }
    pub fn y(&self) -> &[T] {
        &self.coords[1]
    }
    pub fn z(&self) -> &[T] {
        &self.coords[2]
    }
}

/// Generate `m` nonuniform points for the given distribution.
///
/// `fine` is the upsampled fine-grid shape; it only matters for
/// [`PointDist::Cluster`], whose box size is `8 h_i` (paper Sec. IV).
pub fn gen_points<T: Real>(
    dist: PointDist,
    dim: usize,
    m: usize,
    fine: Shape,
    seed: u64,
) -> Points<T> {
    assert!((1..=3).contains(&dim));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = [Vec::new(), Vec::new(), Vec::new()];
    for (i, coord) in coords.iter_mut().enumerate().take(dim) {
        coord.reserve_exact(m);
        match dist {
            PointDist::Rand => {
                for _ in 0..m {
                    let u: f64 = rng.random_range(-std::f64::consts::PI..std::f64::consts::PI);
                    coord.push(T::from_f64(u));
                }
            }
            PointDist::Cluster => {
                let h = std::f64::consts::TAU / fine.n[i] as f64;
                let hi = 8.0 * h;
                for _ in 0..m {
                    let u: f64 = rng.random_range(0.0..hi);
                    coord.push(T::from_f64(u));
                }
            }
        }
    }
    Points { coords, dim }
}

/// Random unit-box complex strengths `c_j` (real and imaginary parts iid
/// uniform on `[-1, 1]`).
pub fn gen_strengths<T: Real>(m: usize, seed: u64) -> Vec<Complex<T>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            Complex::new(
                T::from_f64(rng.random_range(-1.0..1.0)),
                T::from_f64(rng.random_range(-1.0..1.0)),
            )
        })
        .collect()
}

/// Random Fourier coefficients for type-2 inputs.
pub fn gen_coeffs<T: Real>(n: usize, seed: u64) -> Vec<Complex<T>> {
    gen_strengths(n, seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// Number of nonuniform points giving density `rho` on the fine grid
/// (eq. 16): `M = rho * prod(n_i)`. The paper benchmarks `rho ~ 1` measured
/// against the *upsampled* grid.
pub fn points_for_density(fine: Shape, rho: f64) -> usize {
    ((fine.total() as f64) * rho).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rand_points_cover_box() {
        let fine = Shape::d2(64, 64);
        let pts: Points<f64> = gen_points(PointDist::Rand, 2, 4096, fine, 1);
        assert_eq!(pts.len(), 4096);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in pts.x() {
            assert!((-std::f64::consts::PI..std::f64::consts::PI).contains(&x));
            lo = lo.min(x);
            hi = hi.max(x);
        }
        // with 4096 uniform samples we must see both halves of the box
        assert!(lo < -1.0 && hi > 1.0);
    }

    #[test]
    fn cluster_points_stay_in_tiny_box() {
        let fine = Shape::d3(128, 128, 128);
        let h = std::f64::consts::TAU / 128.0;
        let pts: Points<f64> = gen_points(PointDist::Cluster, 3, 1000, fine, 7);
        for d in 0..3 {
            for j in 0..pts.len() {
                let v = pts.coord(d, j);
                assert!((0.0..8.0 * h).contains(&v), "dim {d}: {v}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let fine = Shape::d2(32, 32);
        let a: Points<f32> = gen_points(PointDist::Rand, 2, 100, fine, 42);
        let b: Points<f32> = gen_points(PointDist::Rand, 2, 100, fine, 42);
        assert_eq!(a.x(), b.x());
        assert_eq!(a.y(), b.y());
        let c: Points<f32> = gen_points(PointDist::Rand, 2, 100, fine, 43);
        assert_ne!(a.x(), c.x());
    }

    #[test]
    fn strengths_in_unit_box() {
        let cs: Vec<Complex<f64>> = gen_strengths(256, 3);
        assert_eq!(cs.len(), 256);
        for z in &cs {
            assert!(z.re.abs() <= 1.0 && z.im.abs() <= 1.0);
        }
    }

    #[test]
    fn density_formula() {
        let fine = Shape::d2(100, 100);
        assert_eq!(points_for_density(fine, 1.0), 10_000);
        assert_eq!(points_for_density(fine, 0.5), 5_000);
        assert_eq!(points_for_density(fine, 2.0), 20_000);
    }

    #[test]
    fn unused_dims_read_zero() {
        let fine = Shape::d1(32);
        let pts: Points<f64> = gen_points(PointDist::Rand, 1, 10, fine, 5);
        assert_eq!(pts.coord(1, 3), 0.0);
        assert_eq!(pts.coord(2, 9), 0.0);
    }
}

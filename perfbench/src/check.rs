//! The accuracy gate: direct NUDFT sums over a seeded subsample of each
//! checked output, judged against the conformance harness's envelope
//! `6·eps + floor`.

use std::collections::{BTreeMap, BTreeSet};

use nufft_common::metrics::rel_l2;
use nufft_common::{freqs, Complex, Points, Real, Shape};

pub use nufft_conformance::envelope;

/// SplitMix64 step: a well-mixed 64-bit value from `x`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed for input stream `stream` of a run seeded with `seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}

/// `k` distinct indices of `0..n`, sorted, chosen from `seed`.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut picked = BTreeSet::new();
    let mut s = seed;
    while picked.len() < k {
        s = mix(s);
        picked.insert((s % n as u64) as usize);
    }
    picked.into_iter().collect()
}

/// Per-axis phase tables `e^{i sign k x}` of one point, for the ascending
/// frequencies `k` of each mode axis. The exponential separates across
/// axes, so a direct sum needs one complex product per mode instead of
/// one `cis`. Each row is built by recurrence from one `cis`; its error
/// grows like `n` ulps, far below any envelope checked here.
struct Phases {
    rows: [Vec<Complex<f64>>; 3],
}

impl Phases {
    fn new(modes: Shape) -> Self {
        Phases {
            rows: [0, 1, 2].map(|a| vec![Complex::ZERO; modes.n[a]]),
        }
    }

    fn fill<T: Real>(&mut self, pts: &Points<T>, j: usize, sign: i32) {
        for (a, row) in self.rows.iter_mut().enumerate() {
            let x = sign as f64 * pts.coord(a, j).to_f64();
            let step = Complex::cis(x);
            let k0 = freqs(row.len()).next().expect("non-empty axis") as f64;
            let mut z = Complex::cis(k0 * x);
            for r in row.iter_mut() {
                *r = z;
                z *= step;
            }
        }
    }
}

/// `(i1, i2, i3)` axis indices of linear mode index `l` (`k1` fastest).
fn split_mode(l: usize, modes: Shape) -> [usize; 3] {
    [
        l % modes.n[0],
        (l / modes.n[0]) % modes.n[1],
        l / (modes.n[0] * modes.n[1]),
    ]
}

/// Direct type 1 `f_k = sum_j c_j e^{i sign k.x_j}` at the listed modes
/// (linear indices in ascending-frequency order, `k1` fastest, as the
/// plans return them), accumulated in f64.
pub fn type1_at_modes<T: Real>(
    pts: &Points<T>,
    strengths: &[Complex<T>],
    modes: Shape,
    sign: i32,
    idx: &[usize],
) -> Vec<Complex<f64>> {
    let ks: Vec<[usize; 3]> = idx.iter().map(|&l| split_mode(l, modes)).collect();
    let mut ph = Phases::new(modes);
    let mut out = vec![Complex::<f64>::ZERO; idx.len()];
    for (j, cj) in strengths.iter().enumerate() {
        ph.fill(pts, j, sign);
        let cj: Complex<f64> = cj.cast();
        let [r0, r1, r2] = &ph.rows;
        for (o, k) in out.iter_mut().zip(&ks) {
            *o += cj * (r0[k[0]] * r1[k[1]] * r2[k[2]]);
        }
    }
    out
}

/// Direct type 2 `c_j = sum_k f_k e^{i sign k.x_j}` at the listed points,
/// accumulated in f64.
pub fn type2_at_points<T: Real>(
    pts: &Points<T>,
    coeffs: &[Complex<T>],
    modes: Shape,
    sign: i32,
    idx: &[usize],
) -> Vec<Complex<f64>> {
    let [n0, n1, _] = modes.n;
    let mut ph = Phases::new(modes);
    idx.iter()
        .map(|&j| {
            ph.fill(pts, j, sign);
            let [r0, r1, r2] = &ph.rows;
            let mut acc = Complex::<f64>::ZERO;
            for (i3, z3) in r2.iter().enumerate() {
                for (i2, z2) in r1.iter().enumerate() {
                    let row = &coeffs[(i3 * n1 + i2) * n0..][..n0];
                    let mut inner = Complex::<f64>::ZERO;
                    for (f, z1) in row.iter().zip(r0) {
                        inner += f.cast() * *z1;
                    }
                    acc += inner * (*z2 * *z3);
                }
            }
            acc
        })
        .collect()
}

/// Reference values of an op's two checked outputs, by input-pool index.
pub type PairWant = BTreeMap<usize, (Vec<Complex<f64>>, Vec<Complex<f64>>)>;

/// The larger of two errors, NaN winning.
fn worse(a: f64, b: f64) -> f64 {
    if b.is_nan() || b > a {
        b
    } else {
        a
    }
}

/// The accuracy gate's tally: every checked output against its own
/// envelope, and the squared error and squared reference norm of each
/// distinct output, identified by its kind (a transform of the op, a
/// served spec) and the input it was computed from.
#[derive(Clone, Debug, Default)]
pub struct Accuracy {
    pub checked: u64,
    pub misses: u64,
    /// Worst relative l2 error of a single checked output.
    pub worst_output: f64,
    distinct: BTreeMap<(&'static str, usize), (f64, f64)>,
}

impl Accuracy {
    /// Check output `got` of kind `kind`, computed from input `input`, at
    /// the listed indices against `want`; returns whether its relative l2
    /// error met `envelope`. A NaN error is a miss.
    pub fn check<T: Real>(
        &mut self,
        (kind, input): (&'static str, usize),
        got: &[Complex<T>],
        idx: &[usize],
        want: &[Complex<f64>],
        envelope: f64,
    ) -> bool {
        let picked: Vec<Complex<T>> = idx.iter().map(|&i| got[i]).collect();
        let err = rel_l2(&picked, want);
        let norm2 = |z: &Complex<f64>| z.re * z.re + z.im * z.im;
        let den: f64 = want.iter().map(norm2).sum();
        self.distinct.insert((kind, input), (err * err * den, den));
        self.checked += 1;
        let ok = err <= envelope;
        if !ok {
            self.misses += 1;
        }
        self.worst_output = worse(self.worst_output, err);
        ok
    }

    /// The worst, over kinds of output, of the relative l2 error pooled
    /// over the distinct outputs of that kind. The error of one output
    /// moves with its input (by ~20% between clustered point sets), so
    /// pooling makes the figure repeat across seeds where a single worst
    /// output would not; counting each input once makes it independent
    /// of how many ops a run completed.
    pub fn worst(&self) -> f64 {
        let mut pooled: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for ((kind, _), (num, den)) in &self.distinct {
            let p = pooled.entry(kind).or_default();
            p.0 += num;
            p.1 += den;
        }
        pooled
            .values()
            .fold(0.0, |w, (num, den)| worse(w, (num / den).sqrt()))
    }

    pub fn merge(&mut self, other: &Accuracy) {
        self.checked += other.checked;
        self.misses += other.misses;
        self.worst_output = worse(self.worst_output, other.worst_output);
        self.distinct
            .extend(other.distinct.iter().map(|(k, v)| (*k, *v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::reference::{type1_direct, type2_direct};
    use nufft_common::{gen_points, gen_strengths, PointDist};

    #[test]
    fn subsets_match_the_reference_direct_sums() {
        let close = |a: Complex<f64>, b: Complex<f64>| {
            (a.re - b.re).abs() < 1e-12 && (a.im - b.im).abs() < 1e-12
        };
        for modes in [Shape::d2(6, 4), Shape::d3(5, 4, 3)] {
            let fine = modes.map(|_, n| 2 * n);
            let pts = gen_points::<f64>(PointDist::Rand, modes.dim, 50, fine, 3);
            let c = gen_strengths::<f64>(50, 4);
            let full = type1_direct(&pts, &c, modes, -1);
            let idx = sample_indices(modes.total(), 7, 9);
            let part = type1_at_modes(&pts, &c, modes, -1, &idx);
            assert!(part.iter().zip(&idx).all(|(p, &i)| close(*p, full[i])));

            let f = gen_strengths::<f64>(modes.total(), 5);
            let full = type2_direct(&pts, &f, modes, 1);
            let idx = sample_indices(50, 9, 11);
            let part = type2_at_points(&pts, &f, modes, 1, &idx);
            assert!(part.iter().zip(&idx).all(|(p, &j)| close(*p, full[j])));
        }
    }

    #[test]
    fn sample_indices_are_distinct_and_seeded() {
        let a = sample_indices(100, 10, 5);
        assert_eq!(a.len(), 10);
        assert_eq!(a, sample_indices(100, 10, 5));
        assert_ne!(a, sample_indices(100, 10, 6));
        assert_eq!(sample_indices(3, 10, 1), vec![0, 1, 2]);
    }

    #[test]
    fn pooling_per_kind_and_nan_is_a_miss() {
        let want = [Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)];
        let mut acc = Accuracy::default();
        // errors 0.1 and 0.3 on equal norms pool to sqrt(0.05) = 0.2236
        assert!(acc.check(("a", 0), &[Complex::new(1.1, 0.0)], &[0], &want[..1], 0.5));
        assert!(acc.check(("a", 1), &[Complex::new(0.0, 1.3)], &[0], &want[1..], 0.5));
        assert!(!acc.check(("b", 0), &[Complex::new(1.0, 0.0)], &[0], &want[1..], 0.5));
        assert_eq!((acc.checked, acc.misses), (3, 1));
        assert!(
            (acc.worst() - 2.0f64.sqrt()).abs() < 1e-12,
            "kind b dominates"
        );

        let mut other = Accuracy::default();
        assert!(!other.check(
            ("a", 2),
            &[Complex::new(f64::NAN, 0.0)],
            &[0],
            &want[..1],
            0.5
        ));
        acc.merge(&other);
        assert_eq!(acc.misses, 2);
        assert!(acc.worst().is_nan() && acc.worst_output.is_nan());
    }
}

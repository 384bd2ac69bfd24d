//! CPU spreading (type 1 step i) and interpolation (type 2 step iii),
//! generic over the spreading kernel.
//!
//! Both follow FINUFFT's spreader (Barnett et al., arXiv 1808.06736
//! §3–4). Spreading cuts the bin-sorted points into chunks whose
//! boundaries depend only on the number of points. A worker thread
//! spreads each chunk into a local grid covering its (padded) bounding
//! box, evaluating each point's kernel rows as it goes. The coordinating
//! thread adds the local grids into the global fine grid with periodic
//! wrapping, in chunk order, so the output grid needs no locking and
//! type-1 output is bitwise reproducible for any thread count.
//! Interpolation walks the same bin-sorted order, so neighbouring points
//! read neighbouring grid rows, and scatters its values to user order.

use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::workload::Points;
use nufft_kernels::{grid_coord, spread_footprint, Footprint, Kernel1d};
use std::sync::mpsc;

/// Below this many points, spreading goes straight into the global grid
/// and interpolation stays on the calling thread.
const SERIAL_CUTOFF: usize = 8192;

/// Points per spread subproblem: at least 4096, and at most 64 chunks.
/// It depends only on `m`, never on the thread count, so neither does
/// the order in which subgrids are summed.
fn chunk_len(m: usize) -> usize {
    m.div_ceil(64).max(4096)
}

/// First fine-grid node (unwrapped) of point `j`'s footprint along axis
/// `i`, and the kernel coordinate of that node.
#[inline]
fn start_node<T: Real>(fine: Shape, pts: &Points<T>, w: usize, i: usize, j: usize) -> (i64, f64) {
    spread_footprint(grid_coord(pts.coord(i, j).to_f64(), fine.n[i]), w)
}

/// Spread the points listed in `order` onto the fine grid (sequential).
pub fn spread_serial<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &Points<T>,
    strengths: &[Complex<T>],
    order: &[u32],
    out: &mut [Complex<T>],
) {
    assert_eq!(out.len(), fine.total());
    for &j in order {
        let fp = Footprint::new(kernel, fine, pts.dim, pts.point(j as usize));
        fp.spread(fine, strengths[j as usize], out);
    }
}

/// Interpolate grid values at the points `order` lists: `out[s]` gets
/// point `order[s]`'s value (sequential core).
fn interp_points<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &Points<T>,
    grid: &[Complex<T>],
    order: &[u32],
    out: &mut [Complex<T>],
) {
    for (o, &j) in out.iter_mut().zip(order) {
        *o = Footprint::new(kernel, fine, pts.dim, pts.point(j as usize)).interp(fine, grid);
    }
}

/// A spread subproblem's local grid: covers the chunk's padded bounding
/// box in *unwrapped* coordinates (wrapping is applied at merge time).
struct Subgrid<T> {
    lo: [i64; 3],
    size: [usize; 3],
    data: Vec<Complex<T>>,
}

fn spread_subproblem<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &Points<T>,
    strengths: &[Complex<T>],
    chunk: &[u32],
) -> Subgrid<T> {
    // bounding box from the start nodes: every footprint spans w nodes
    let w = kernel.width();
    let mut lo = [0i64; 3];
    let mut hi = [1i64; 3];
    for i in 0..pts.dim {
        lo[i] = i64::MAX;
        hi[i] = i64::MIN;
        for &jr in chunk {
            let (l0, _) = start_node(fine, pts, w, i, jr as usize);
            lo[i] = lo[i].min(l0);
            hi[i] = hi[i].max(l0 + w as i64);
        }
    }
    let size = [
        (hi[0] - lo[0]) as usize,
        (hi[1] - lo[1]) as usize,
        (hi[2] - lo[2]) as usize,
    ];
    let mut data = vec![Complex::<T>::ZERO; size[0] * size[1] * size[2]];
    for &j in chunk {
        let fp = Footprint::new(kernel, fine, pts.dim, pts.point(j as usize));
        let at = [0, 1, 2].map(|i| (fp.l0[i] - lo[i]) as usize);
        fp.spread_box(strengths[j as usize], &mut data, size, at);
    }
    Subgrid { lo, size, data }
}

/// Add a subgrid into the global grid with periodic wrapping.
fn merge_subgrid<T: Real>(fine: Shape, sub: &Subgrid<T>, out: &mut [Complex<T>]) {
    let [n1, n2, n3] = fine.n;
    // precompute wrapped x indices once per row
    let wrap1: Vec<usize> = (0..sub.size[0])
        .map(|i| (sub.lo[0] + i as i64).rem_euclid(n1 as i64) as usize)
        .collect();
    for i3 in 0..sub.size[2] {
        let g3 = (sub.lo[2] + i3 as i64).rem_euclid(n3 as i64) as usize;
        for i2 in 0..sub.size[1] {
            let g2 = (sub.lo[1] + i2 as i64).rem_euclid(n2 as i64) as usize;
            let src = &sub.data[(i3 * sub.size[1] + i2) * sub.size[0]..][..sub.size[0]];
            let dst_base = g3 * n1 * n2 + g2 * n1;
            for (i1, &v) in src.iter().enumerate() {
                out[dst_base + wrap1[i1]] += v;
            }
        }
    }
}

/// Parallel spreading: cut the (bin-sorted) `perm` into chunks, spread
/// each chunk to a local subgrid on a worker thread, and merge the
/// subgrids on the calling thread in chunk order. The result is bitwise
/// the same for every `nthreads`.
pub fn spread<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &Points<T>,
    strengths: &[Complex<T>],
    perm: &[u32],
    out: &mut [Complex<T>],
    nthreads: usize,
) {
    assert_eq!(pts.len(), strengths.len());
    assert_eq!(perm.len(), pts.len());
    let m = pts.len();
    if m < SERIAL_CUTOFF {
        spread_serial(kernel, fine, pts, strengths, perm, out);
        return;
    }
    let chunks: Vec<&[u32]> = perm.chunks(chunk_len(m)).collect();
    let workers = nthreads.clamp(1, chunks.len());
    std::thread::scope(|s| {
        // worker k spreads chunks k, k + workers, ... into its own
        // one-slot channel, so at most two of its subgrids are in flight
        let inboxes: Vec<mpsc::Receiver<Subgrid<T>>> = (0..workers)
            .map(|k| {
                let (tx, rx) = mpsc::sync_channel(1);
                let chunks = &chunks;
                s.spawn(move || {
                    for &chunk in chunks.iter().skip(k).step_by(workers) {
                        let sub = spread_subproblem(kernel, fine, pts, strengths, chunk);
                        if tx.send(sub).is_err() {
                            break;
                        }
                    }
                });
                rx
            })
            .collect();
        // chunk i arrives in inbox i % workers: receiving round-robin
        // merges in chunk order
        for inbox in inboxes.iter().cycle().take(chunks.len()) {
            // a closed inbox means its worker panicked; leaving the scope
            // re-raises that panic
            let Ok(sub) = inbox.recv() else { break };
            merge_subgrid(fine, &sub, out);
        }
    });
}

/// Parallel interpolation over the (bin-sorted) `perm`: contiguous runs
/// of sorted points go to worker threads, which write a sorted-order
/// buffer that is then scattered to user order. Each point's arithmetic
/// does not depend on the order, so neither does the output.
pub fn interp<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &Points<T>,
    grid: &[Complex<T>],
    perm: &[u32],
    out: &mut [Complex<T>],
    nthreads: usize,
) {
    assert_eq!(out.len(), pts.len());
    assert_eq!(perm.len(), pts.len());
    assert_eq!(grid.len(), fine.total());
    let m = pts.len();
    let mut sorted = vec![Complex::<T>::ZERO; m];
    if nthreads <= 1 || m < SERIAL_CUTOFF {
        interp_points(kernel, fine, pts, grid, perm, &mut sorted);
    } else {
        let run = m.div_ceil(nthreads);
        std::thread::scope(|s| {
            for (order, vals) in perm.chunks(run).zip(sorted.chunks_mut(run)) {
                s.spawn(move || interp_points(kernel, fine, pts, grid, order, vals));
            }
        });
    }
    for (&j, v) in perm.iter().zip(sorted) {
        out[j as usize] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::metrics::rel_l2;
    use nufft_common::workload::{gen_points, gen_strengths, PointDist};
    use nufft_kernels::{EsKernel, MAX_W};

    /// Reference interpolation: every point in user order, every row
    /// through the wrapped index table.
    fn interp_range<T: Real, K: Kernel1d>(
        kernel: &K,
        fine: Shape,
        pts: &Points<T>,
        grid: &[Complex<T>],
        j_range: std::ops::Range<usize>,
        out: &mut [Complex<T>],
    ) {
        let [n1, n2, _] = fine.n;
        let mut idx = [[0usize; MAX_W]; 3];
        for (slot, j) in j_range.enumerate() {
            let fp = Footprint::new(kernel, fine, pts.dim, pts.point(j));
            for (i, axis) in idx.iter_mut().enumerate() {
                let n = fine.n[i] as i64;
                for (t, k) in axis[..fp.wd[i]].iter_mut().enumerate() {
                    *k = (fp.l0[i] + t as i64).rem_euclid(n) as usize;
                }
            }
            let mut acc = Complex::<T>::ZERO;
            for t3 in 0..fp.wd[2] {
                let k3 = fp.ker[2][t3];
                let off3 = idx[2][t3] * n1 * n2;
                for t2 in 0..fp.wd[1] {
                    let k23 = fp.ker[1][t2] * k3;
                    let base = off3 + idx[1][t2] * n1;
                    let mut row = Complex::<T>::ZERO;
                    for t1 in 0..fp.wd[0] {
                        row += grid[base + idx[0][t1]].scale(T::from_f64(fp.ker[0][t1]));
                    }
                    acc += row.scale(T::from_f64(k23));
                }
            }
            out[slot] = acc;
        }
    }

    fn bits<T: Real>(v: &[Complex<T>]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|z| (z.re.to_f64().to_bits(), z.im.to_f64().to_bits()))
            .collect()
    }

    /// Direct periodized-kernel sum, eq. 7 of the paper (ground truth).
    fn spread_direct(
        kernel: &EsKernel,
        fine: Shape,
        pts: &Points<f64>,
        strengths: &[Complex<f64>],
    ) -> Vec<Complex<f64>> {
        let w = kernel.w as f64;
        let mut out = vec![Complex::<f64>::ZERO; fine.total()];
        for (li, o) in out.iter_mut().enumerate() {
            let [l1, l2, l3] = fine.coords(li);
            let ls = [l1 as f64, l2 as f64, l3 as f64];
            for (j, c) in strengths.iter().enumerate().take(pts.len()) {
                let mut v = 1.0;
                for (i, l) in ls.iter().enumerate().take(pts.dim) {
                    let n = fine.n[i] as f64;
                    let h = std::f64::consts::TAU / n;
                    // periodized: closest image
                    let mut d = (l * h - pts.coord(i, j)).rem_euclid(std::f64::consts::TAU);
                    if d > std::f64::consts::PI {
                        d -= std::f64::consts::TAU;
                    }
                    // kernel coordinate: alpha = w*h/2
                    v *= kernel.eval(d / (w * h / 2.0));
                }
                *o += c.scale(v);
            }
        }
        out
    }

    #[test]
    fn serial_spread_matches_direct_2d() {
        let fine = Shape::d2(16, 12);
        let kernel = EsKernel::with_width(4);
        let pts = gen_points::<f64>(PointDist::Rand, 2, 20, fine, 21);
        let cs = gen_strengths::<f64>(20, 22);
        let order: Vec<u32> = (0..20).collect();
        let mut out = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &order, &mut out);
        let want = spread_direct(&kernel, fine, &pts, &cs);
        assert!(rel_l2(&out, &want) < 1e-13, "{}", rel_l2(&out, &want));
    }

    #[test]
    fn serial_spread_matches_direct_3d() {
        let fine = Shape::d3(8, 10, 6);
        let kernel = EsKernel::with_width(3);
        let pts = gen_points::<f64>(PointDist::Rand, 3, 15, fine, 31);
        let cs = gen_strengths::<f64>(15, 32);
        let order: Vec<u32> = (0..15).collect();
        let mut out = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &order, &mut out);
        let want = spread_direct(&kernel, fine, &pts, &cs);
        assert!(rel_l2(&out, &want) < 1e-13);
    }

    #[test]
    fn spread_mass_is_conserved() {
        // sum over grid of spread = sum_j c_j * (sum of kernel row)^d
        let fine = Shape::d2(32, 32);
        let kernel = EsKernel::with_width(5);
        let pts = gen_points::<f64>(PointDist::Rand, 2, 50, fine, 5);
        let cs = vec![Complex::new(1.0, 0.0); 50];
        let order: Vec<u32> = (0..50).collect();
        let mut out = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &order, &mut out);
        let total: Complex<f64> = out.iter().copied().sum();
        // each point contributes (sum_t ker1[t])*(sum_t ker2[t]); these
        // sums vary slightly with the fractional position, so just check
        // the total is near 50 * (typical row sum)^2 within 20%
        let typical: f64 = {
            let mut row = [0.0; 5];
            kernel.eval_row(-0.9, &mut row);
            row.iter().sum()
        };
        let expect = 50.0 * typical * typical;
        assert!(
            (total.re / expect - 1.0).abs() < 0.2,
            "{} vs {}",
            total.re,
            expect
        );
        assert!(total.im.abs() < 1e-10);
    }

    #[test]
    fn spread_order_does_not_change_result() {
        let fine = Shape::d2(32, 32);
        let kernel = EsKernel::with_width(6);
        let pts = gen_points::<f64>(PointDist::Rand, 2, 64, fine, 6);
        let cs = gen_strengths::<f64>(64, 7);
        let fwd: Vec<u32> = (0..64).collect();
        let rev: Vec<u32> = (0..64).rev().collect();
        let mut a = vec![Complex::<f64>::ZERO; fine.total()];
        let mut b = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &fwd, &mut a);
        spread_serial(&kernel, fine, &pts, &cs, &rev, &mut b);
        assert!(rel_l2(&a, &b) < 1e-14);
    }

    #[test]
    fn parallel_spread_matches_serial() {
        let fine = Shape::d2(64, 64);
        let kernel = EsKernel::with_width(6);
        let m = 20_000; // above the serial cutoff
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 8);
        let cs = gen_strengths::<f64>(m, 9);
        let sort = crate::sort::bin_sort(&pts, fine, [32, 32, 1]);
        let mut ser = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &sort.perm, &mut ser);
        let mut par = vec![Complex::<f64>::ZERO; fine.total()];
        spread(&kernel, fine, &pts, &cs, &sort.perm, &mut par, 4);
        assert!(rel_l2(&par, &ser) < 1e-12);
    }

    #[test]
    fn parallel_spread_handles_cluster() {
        let fine = Shape::d2(128, 128);
        let kernel = EsKernel::with_width(6);
        let m = 30_000;
        let pts = gen_points::<f64>(PointDist::Cluster, 2, m, fine, 18);
        let cs = gen_strengths::<f64>(m, 19);
        let sort = crate::sort::bin_sort(&pts, fine, [32, 32, 1]);
        let mut ser = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &sort.perm, &mut ser);
        let mut par = vec![Complex::<f64>::ZERO; fine.total()];
        spread(&kernel, fine, &pts, &cs, &sort.perm, &mut par, 3);
        assert!(rel_l2(&par, &ser) < 1e-12);
    }

    #[test]
    fn interp_is_adjoint_of_spread() {
        // <spread(c), g> == <c, interp(g)> exactly (same kernel weights)
        let fine = Shape::d2(24, 20);
        let kernel = EsKernel::with_width(5);
        let m = 37;
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 44);
        let cs = gen_strengths::<f64>(m, 45);
        let g = gen_strengths::<f64>(fine.total(), 46);
        let order: Vec<u32> = (0..m as u32).collect();
        let mut sp = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &order, &mut sp);
        let mut it = vec![Complex::<f64>::ZERO; m];
        interp(&kernel, fine, &pts, &g, &order, &mut it, 1);
        // spread uses conj-free real weights, so <Sc, g> = <c, S^T g>
        let lhs = nufft_common::metrics::inner(&sp, &g);
        let rhs = nufft_common::metrics::inner(&cs, &it);
        assert!(
            (lhs - rhs).abs() < 1e-11 * (1.0 + lhs.abs()),
            "{lhs:?} vs {rhs:?}"
        );
    }

    #[test]
    fn parallel_interp_matches_serial() {
        let fine = Shape::d3(16, 16, 16);
        let kernel = EsKernel::with_width(4);
        let m = 20_000;
        let pts = gen_points::<f64>(PointDist::Rand, 3, m, fine, 55);
        let g = gen_strengths::<f64>(fine.total(), 56);
        let sort = crate::sort::bin_sort(&pts, fine, [8, 8, 4]);
        let mut a = vec![Complex::<f64>::ZERO; m];
        let mut b = vec![Complex::<f64>::ZERO; m];
        interp(&kernel, fine, &pts, &g, &sort.perm, &mut a, 1);
        interp(&kernel, fine, &pts, &g, &sort.perm, &mut b, 5);
        assert_eq!(
            a.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>(),
            b.iter().map(|z| (z.re, z.im)).collect::<Vec<_>>(),
            "interp is read-only so parallel must be bit-exact"
        );
    }

    /// Random points plus points pinned to both ends of each axis, so
    /// that footprints wrap in x, y and z.
    fn points_with_edges<T: Real>(dim: usize, m: usize, fine: Shape, seed: u64) -> Points<T> {
        let mut pts = gen_points::<T>(PointDist::Rand, dim, m, fine, seed);
        let edges = [
            -std::f64::consts::PI,
            -1e-9,
            0.0,
            1e-9,
            std::f64::consts::PI - 1e-9,
        ];
        for i in 0..dim {
            for (k, &e) in edges.iter().enumerate() {
                for (a, coord) in pts.coords[..dim].iter_mut().enumerate() {
                    let v = if a == i { e } else { 0.3 * k as f64 - 1.0 };
                    coord.push(T::from_f64(v));
                }
            }
        }
        pts
    }

    fn check_sorted_interp_matches_reference<T: Real>(fine: Shape, w: usize, m: usize) {
        let kernel = EsKernel::with_width(w);
        let pts = points_with_edges::<T>(fine.dim, m, fine, 61);
        let m = pts.len();
        // every axis has footprints that wrap
        for i in 0..fine.dim {
            let wraps = (0..m).any(|j| {
                let (l0, _) = start_node(fine, &pts, w, i, j);
                l0 < 0 || l0 + w as i64 > fine.n[i] as i64
            });
            assert!(wraps, "axis {i} has no wrapping footprint");
        }
        let g = gen_strengths::<T>(fine.total(), 62);
        let mut want = vec![Complex::<T>::ZERO; m];
        interp_range(&kernel, fine, &pts, &g, 0..m, &mut want);
        let sort = crate::sort::bin_sort(&pts, fine, [8, 8, 4]);
        let identity: Vec<u32> = (0..m as u32).collect();
        for (perm, nthreads) in [(&sort.perm, 1), (&sort.perm, 3), (&identity, 2)] {
            let mut got = vec![Complex::<T>::ZERO; m];
            interp(&kernel, fine, &pts, &g, perm, &mut got, nthreads);
            assert_eq!(bits(&got), bits(&want), "nthreads={nthreads}");
        }
    }

    #[test]
    fn sorted_interp_matches_user_order_reference_bitwise() {
        check_sorted_interp_matches_reference::<f64>(Shape::d3(16, 12, 10), 5, 9000);
        check_sorted_interp_matches_reference::<f32>(Shape::d2(40, 24), 7, 9000);
        check_sorted_interp_matches_reference::<f64>(Shape::d2(20, 18), 4, 300);
    }

    #[test]
    fn wraparound_points_spread_correctly() {
        // a point at the very edge of the box must wrap its kernel tail
        let fine = Shape::d2(16, 16);
        let kernel = EsKernel::with_width(6);
        let pts = Points::<f64> {
            coords: [vec![std::f64::consts::PI - 1e-9], vec![0.0], vec![]],
            dim: 2,
        };
        let cs = [Complex::new(1.0, 0.0)];
        let mut out = vec![Complex::<f64>::ZERO; fine.total()];
        spread_serial(&kernel, fine, &pts, &cs, &[0], &mut out);
        let want = spread_direct(&kernel, fine, &pts, &cs);
        // A point this close to a grid node puts the (w+1)-th neighbour at
        // kernel argument exactly 1, where the truncated tail is e^{-beta}
        // (~ the design tolerance). Compare at that accuracy, not machine
        // precision.
        let tail = (-kernel.beta).exp();
        assert!(rel_l2(&out, &want) < 3.0 * tail, "{}", rel_l2(&out, &want));
        // energy must be present on both sides of the wrap (columns near
        // x index 8 = pi... point g = pi/h = 8): spread symmetric
        let total: f64 = out.iter().map(|z| z.re).sum();
        assert!(total > 0.5);
    }
}

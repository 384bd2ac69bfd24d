//! On-device bin sorting and subproblem construction (paper Sec. III-A).
//!
//! The real library does this with a handful of small CUDA kernels
//! (bin-index, histogram, exclusive scan, scatter). Functionally we
//! compute the same permutation on the host; the device is charged one
//! bulk pass per kernel with the same byte traffic the CUDA version
//! would generate.

use gpu_sim::{Contract, Device, KernelTrace, Precision, Scope};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::workload::Points;
use nufft_kernels::grid_coord;

/// Bin decomposition of the fine grid.
#[derive(Copy, Clone, Debug)]
pub struct BinLayout {
    pub bin_size: [usize; 3],
    pub nbins: [usize; 3],
    pub fine: Shape,
}

impl BinLayout {
    pub fn new(fine: Shape, bin_size: [usize; 3]) -> Self {
        let mut bs = [1usize; 3];
        let mut nb = [1usize; 3];
        for i in 0..fine.dim {
            bs[i] = bin_size[i].max(1).min(fine.n[i]);
            nb[i] = fine.n[i].div_ceil(bs[i]);
        }
        BinLayout {
            bin_size: bs,
            nbins: nb,
            fine,
        }
    }

    pub fn total(&self) -> usize {
        self.nbins[0] * self.nbins[1] * self.nbins[2]
    }

    /// Fine-grid cell origin `(Delta_1, Delta_2, Delta_3)` of a bin.
    pub fn origin(&self, bin: usize) -> [usize; 3] {
        let b0 = bin % self.nbins[0];
        let r = bin / self.nbins[0];
        [
            b0 * self.bin_size[0],
            (r % self.nbins[1]) * self.bin_size[1],
            (r / self.nbins[1]) * self.bin_size[2],
        ]
    }

    #[inline]
    pub fn bin_of_cell(&self, cell: [usize; 3]) -> usize {
        cell[0] / self.bin_size[0]
            + self.nbins[0]
                * (cell[1] / self.bin_size[1] + self.nbins[1] * (cell[2] / self.bin_size[2]))
    }
}

/// Result of the device bin sort.
pub struct GpuBinSort {
    pub layout: BinLayout,
    /// Points in bin order: `perm[r]` is the original index.
    pub perm: Vec<u32>,
    /// CSR-style offsets into `perm`, length `bins + 1`.
    pub starts: Vec<u32>,
}

/// One SM spreading subproblem: a slice of `perm` plus its bin.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Subproblem {
    pub bin: u32,
    pub start: u32,
    pub len: u32,
}

/// Compute a point's fine-grid cell.
#[inline]
pub fn cell_of<T: Real>(pts: &Points<T>, j: usize, fine: Shape) -> [usize; 3] {
    let mut cell = [0usize; 3];
    for (i, c) in cell.iter_mut().enumerate().take(pts.dim) {
        let g = grid_coord(pts.coord(i, j).to_f64(), fine.n[i]);
        // `grid_coord` guarantees g in [0, n); the `min` is belt and
        // braces for the boundary-pinned cases (x = ±π exactly, x just
        // below 0 whose fold rounds to 2π) where g lands on n - ulp and
        // truncation must still produce the last cell, never n.
        debug_assert!(g >= 0.0 && g < fine.n[i] as f64, "fold escaped [0,n): {g}");
        *c = (g as usize).min(fine.n[i] - 1);
    }
    cell
}

/// Bin-sort the points "on the device": host-side counting sort, device
/// charged for the bin-index kernel, histogram, scan and scatter passes.
pub fn gpu_bin_sort<T: Real>(
    dev: &Device,
    pts: &Points<T>,
    fine: Shape,
    bin_size: [usize; 3],
) -> GpuBinSort {
    let layout = BinLayout::new(fine, bin_size);
    let nb = layout.total();
    let m = pts.len();
    let prec = Precision::of::<T>();
    let coord_bytes = m * pts.dim * T::BYTES;

    let mut bin_of = vec![0u32; m];
    for (j, b) in bin_of.iter_mut().enumerate() {
        *b = layout.bin_of_cell(cell_of(pts, j, fine)) as u32;
    }
    // kernel 1: compute bin index per point
    dev.bulk_op("calc_binidx", coord_bytes, m * 4, m as f64 * 12.0, prec);

    let mut counts = vec![0u32; nb + 1];
    for &b in &bin_of {
        counts[b as usize + 1] += 1;
    }
    // kernel 2: histogram (atomic adds into bin counters)
    dev.bulk_op("bin_histogram", m * 4, nb * 4, m as f64 * 2.0, prec);

    for b in 0..nb {
        counts[b + 1] += counts[b];
    }
    // kernel 3: exclusive scan over bins
    dev.bulk_op("bin_scan", nb * 4, nb * 4, nb as f64 * 2.0, prec);

    let starts = counts.clone();
    let mut cursor = counts;
    let mut perm = vec![0u32; m];
    for (j, &b) in bin_of.iter().enumerate() {
        perm[cursor[b as usize] as usize] = j as u32;
        cursor[b as usize] += 1;
    }
    // kernel 4: scatter point indices into bin order
    dev.bulk_op("bin_scatter", m * 8, m * 4, m as f64 * 2.0, prec);

    if let Some(trace) = dev.trace() {
        record_bin_stats(&trace, &starts, nb, m);
    }
    if dev.hazard_checking() {
        trace_bin_sort_passes(dev, &bin_of, &starts, nb, pts.dim);
    }

    GpuBinSort {
        layout,
        perm,
        starts,
    }
}

/// Replay the four bin-sort passes through the access tracer. The passes
/// run as `bulk_op`s (host loops pricing device traffic), so unlike the
/// spread/interp kernels there is no per-block execution to instrument
/// in place; instead we reconstruct the access pattern each CUDA kernel
/// would issue — one thread per point, 256 threads per block — and
/// submit it with an explicit [`Contract`].
fn trace_bin_sort_passes(dev: &Device, bin_of: &[u32], starts: &[u32], nb: usize, dim: usize) {
    let m = bin_of.len();
    let tid = |j: usize| ((j / 256) as u32, (j % 256) as u32);

    // kernel 1: bin_of[j] = bin(points[j]) — pure map, no atomics
    let mut t = KernelTrace::new("calc_binidx");
    let pts_buf = t.buffer("points", Scope::Global, 8);
    let bin_buf = t.buffer("bin_of", Scope::Global, 4);
    for j in 0..m {
        let (b, l) = tid(j);
        for arr in 0..dim {
            t.read(pts_buf, b, l, (j * 4 + arr) as u64);
        }
        t.write(bin_buf, b, l, j as u64);
    }
    dev.submit_access_trace(
        t,
        Contract {
            global_atomics: Some(0),
            ..Contract::default()
        },
    );

    // kernel 2: histogram — one global atomic per point on its bin counter
    let mut t = KernelTrace::new("bin_histogram");
    let bin_buf = t.buffer("bin_of", Scope::Global, 4);
    let cnt_buf = t.buffer("bin_counts", Scope::Global, 4);
    for (j, &bin) in bin_of.iter().enumerate() {
        let (b, l) = tid(j);
        t.read(bin_buf, b, l, j as u64);
        t.atomic(cnt_buf, b, l, bin as u64);
    }
    dev.submit_access_trace(
        t,
        Contract {
            global_atomics: Some(m as u64),
            ..Contract::default()
        },
    );

    // kernel 3: exclusive scan — single-threaded reference shape
    let mut t = KernelTrace::new("bin_scan");
    let cnt_buf = t.buffer("bin_counts", Scope::Global, 4);
    for b in 0..nb {
        t.read(cnt_buf, 0, 0, b as u64);
        t.write(cnt_buf, 0, 0, b as u64 + 1);
    }
    dev.submit_access_trace(
        t,
        Contract {
            global_atomics: Some(0),
            ..Contract::default()
        },
    );

    // kernel 4: scatter — atomic cursor bump per point, unique perm slot
    let mut t = KernelTrace::new("bin_scatter");
    let bin_buf = t.buffer("bin_of", Scope::Global, 4);
    let cur_buf = t.buffer("bin_cursor", Scope::Global, 4);
    let perm_buf = t.buffer("perm", Scope::Global, 4);
    let mut cursor: Vec<u32> = starts[..nb].to_vec();
    for (j, &bin) in bin_of.iter().enumerate() {
        let (b, l) = tid(j);
        t.read(bin_buf, b, l, j as u64);
        t.atomic(cur_buf, b, l, bin as u64);
        let slot = cursor[bin as usize];
        cursor[bin as usize] += 1;
        t.write(perm_buf, b, l, slot as u64);
    }
    dev.submit_access_trace(
        t,
        Contract {
            global_atomics: Some(m as u64),
            ..Contract::default()
        },
    );
}

/// Publish per-bin load-balance counters: the bin occupancy histogram
/// (power-of-two buckets) and the max/mean imbalance ratio. These are
/// the trace-level counterpart of paper Fig. 6's uniform-vs-clustered
/// comparison — a clustered distribution shifts the histogram mass into
/// the high buckets and blows up `bins.imbalance`, while the SM scheme's
/// `M_sub` cap keeps the execution time flat.
fn record_bin_stats(trace: &gpu_sim::Trace, starts: &[u32], nb: usize, m: usize) {
    trace.counter("bins.total").add(nb as i64);
    trace.counter("bins.points").add(m as i64);
    let mut max_count = 0u32;
    for b in 0..nb {
        let c = starts[b + 1] - starts[b];
        max_count = max_count.max(c);
        if c == 0 {
            trace.counter("bins.hist.empty").inc();
        } else {
            trace.counter("bins.nonempty").inc();
            // bucket k counts bins holding (2^(k-1), 2^k] points
            let bucket = u32::BITS - (c - 1).leading_zeros();
            trace.counter(&format!("bins.hist.p2_{bucket:02}")).inc();
        }
    }
    trace.gauge("bins.max_points").max(max_count as f64);
    if nb > 0 && m > 0 {
        let mean = m as f64 / nb as f64;
        trace.gauge("bins.imbalance").max(max_count as f64 / mean);
    }
}

/// Split bins into subproblems of at most `msub` points each (paper
/// Sec. III-A Step 1). Charged as one light device pass over the bins.
pub fn build_subproblems(dev: &Device, sort: &GpuBinSort, msub: usize) -> Vec<Subproblem> {
    assert!(msub > 0);
    let mut subs = Vec::new();
    for bin in 0..sort.layout.total() {
        let s = sort.starts[bin] as usize;
        let e = sort.starts[bin + 1] as usize;
        let mut off = s;
        while off < e {
            let len = (e - off).min(msub);
            subs.push(Subproblem {
                bin: bin as u32,
                start: off as u32,
                len: len as u32,
            });
            off += len;
        }
    }
    let nb = sort.layout.total();
    dev.bulk_op(
        "build_subprob",
        nb * 4,
        subs.len() * 12,
        nb as f64 * 4.0,
        Precision::Single,
    );
    if let Some(trace) = dev.trace() {
        trace.counter("subprob.count").add(subs.len() as i64);
        // idle slots: points of padding a full-width launch would waste
        // (each subproblem is scheduled as if it held `msub` points)
        let idle: i64 = subs.iter().map(|sp| msub as i64 - sp.len as i64).sum();
        trace.counter("subprob.idle_slots").add(idle);
        let max_len = subs.iter().map(|sp| sp.len).max().unwrap_or(0);
        trace.gauge("subprob.max_len").max(max_len as f64);
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::workload::{gen_points, PointDist};

    #[test]
    fn sort_is_permutation_and_binned() {
        let dev = Device::v100();
        let fine = Shape::d2(128, 128);
        let pts = gen_points::<f32>(PointDist::Rand, 2, 2000, fine, 3);
        let s = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut seen = vec![false; 2000];
        for &p in &s.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
        // every point's cell lies in its bin
        for bin in 0..s.layout.total() {
            let o = s.layout.origin(bin);
            for r in s.starts[bin] as usize..s.starts[bin + 1] as usize {
                let cell = cell_of(&pts, s.perm[r] as usize, fine);
                for i in 0..2 {
                    assert!(cell[i] >= o[i] && cell[i] < o[i] + s.layout.bin_size[i]);
                }
            }
        }
    }

    #[test]
    fn sorting_charges_the_device() {
        let dev = Device::v100();
        let fine = Shape::d2(64, 64);
        let pts = gen_points::<f32>(PointDist::Rand, 2, 1000, fine, 5);
        let t0 = dev.clock();
        let _ = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        assert!(dev.clock() > t0);
        let names: Vec<String> = dev.timeline().iter().map(|r| r.name.clone()).collect();
        for k in ["calc_binidx", "bin_histogram", "bin_scan", "bin_scatter"] {
            assert!(names.iter().any(|n| n == k), "missing kernel {k}");
        }
    }

    #[test]
    fn subproblems_respect_msub_and_cover_all_points() {
        let dev = Device::v100();
        let fine = Shape::d2(256, 256);
        // clustered: all points land in bin 0 -> must split
        let pts = gen_points::<f32>(PointDist::Cluster, 2, 5000, fine, 6);
        let s = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let subs = build_subproblems(&dev, &s, 1024);
        assert_eq!(subs.len(), 5); // ceil(5000/1024)
        let total: u32 = subs.iter().map(|s| s.len).sum();
        assert_eq!(total, 5000);
        assert!(subs.iter().all(|sp| sp.len <= 1024));
        assert!(subs.iter().all(|sp| sp.bin == 0));
    }

    #[test]
    fn rand_distribution_many_small_subproblems() {
        let dev = Device::v100();
        let fine = Shape::d2(256, 256);
        let pts = gen_points::<f32>(PointDist::Rand, 2, 8192, fine, 7);
        let s = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let subs = build_subproblems(&dev, &s, 1024);
        // 8x8 = 64 bins, 8192 points -> ~128/bin, all under the cap
        assert_eq!(subs.len(), 64);
        // contiguous, ordered coverage of perm
        let mut cursor = 0u32;
        for sp in &subs {
            assert_eq!(sp.start, cursor);
            cursor += sp.len;
        }
        assert_eq!(cursor, 8192);
    }

    #[test]
    fn bin_origin_roundtrip() {
        let layout = BinLayout::new(Shape::d3(64, 64, 16), [16, 16, 2]);
        for bin in 0..layout.total() {
            let o = layout.origin(bin);
            assert_eq!(layout.bin_of_cell(o), bin);
        }
    }
}

//! The three GPU spreading schemes of the paper (Sec. III-A): **GM**,
//! **GM-sort** and **SM**, executed functionally with warp/block-level
//! cost accounting on the simulated device.
//!
//! All three produce identical sums up to floating-point reassociation;
//! what differs is the *memory behaviour* the device prices:
//!
//! * GM: threads in user order — scattered sectors, global atomics whose
//!   contention explodes for clustered points;
//! * GM-sort: threads in bin order — neighbouring lanes hit neighbouring
//!   sectors (coalesced), same atomic contention;
//! * SM: per-subproblem accumulation in shared memory, one global atomic
//!   per padded-bin cell at the end, subproblems capped at `M_sub` for
//!   load balance.

use crate::bins::{BinLayout, Subproblem};
use crate::opts::{sm_tile, Method};
use gpu_sim::{Device, DeviceFault, LaunchConfig, LaunchReport, Precision, Scope};
use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_kernels::{Footprint, Kernel1d};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Borrowed structure-of-arrays view of the device-resident points.
#[derive(Copy, Clone)]
pub struct PtsRef<'a, T> {
    pub coords: [&'a [T]; 3],
    pub dim: usize,
}

impl<'a, T: Real> PtsRef<'a, T> {
    pub fn len(&self) -> usize {
        self.coords[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.coords[0].is_empty()
    }

    #[inline(always)]
    pub fn coord(&self, i: usize, j: usize) -> T {
        if i < self.dim {
            self.coords[i][j]
        } else {
            T::ZERO
        }
    }

    /// Point `j`'s coordinates, zero past `dim`.
    #[inline(always)]
    pub fn point(&self, j: usize) -> [T; 3] {
        [0, 1, 2].map(|i| self.coord(i, j))
    }
}

/// Split a `w`-cell row that starts at the wrapped x-index `start` into
/// its contiguous `(first cell, length)` segments: one, or two when the
/// row wraps past `n1`.
#[inline]
fn row_segments(start: usize, w: usize, n1: usize) -> impl Iterator<Item = (usize, usize)> {
    let first = w.min(n1 - start);
    std::iter::once((start, first)).chain((first < w).then_some((0, w - first)))
}

/// Report one kernel-footprint row (contiguous in x, wrapped mod n1) to
/// the block's DRAM line model. `start` is the row's already-wrapped
/// first x-index; `write` for atomic read-modify-write.
#[inline]
pub(crate) fn account_row(
    b: &mut gpu_sim::BlockAcc<'_>,
    row_base_cell: usize, // cell index of (0, c2, c3) in the grid
    start: usize,
    w: usize,
    n1: usize,
    cb: usize,
    write: bool,
) {
    for (s, len) in row_segments(start, w, n1) {
        b.dram_span((row_base_cell + s) * cb, len * cb, write);
    }
}

/// Launch reports of a point set's GM / GM-sort spread kernels, keyed by
/// launch name. A GM spread launch's price depends only on the points,
/// their order and the plan's geometry — never on the strengths — so a
/// plan prices it on the first execute after `set_pts` and replays the
/// stored report on later executes. Owned by the plan's points state and
/// dropped with it when `set_pts` binds new points.
#[derive(Debug, Default)]
pub struct PricedLaunches(Mutex<Vec<LaunchReport>>);

impl PricedLaunches {
    /// The stored reports. A lock poisoned by a panicking holder is still
    /// consistent — every update pushes one whole report — so it is reused.
    fn reports(&self) -> MutexGuard<'_, Vec<LaunchReport>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, name: &str) -> Option<LaunchReport> {
        self.reports().iter().find(|r| r.name == name).cloned()
    }

    fn insert(&self, report: LaunchReport) {
        self.reports().push(report);
    }
}

/// FLOPs charged per kernel evaluation (exp + sqrt + mults on a GPU SFU).
const FLOPS_PER_EVAL: u64 = 30;
/// FLOPs per grid-cell update (complex scale + add).
const FLOPS_PER_CELL: u64 = 8;

/// GM / GM-sort spreading: one thread per nonuniform point, processed in
/// `order` (user order for GM, bin-sorted for GM-sort). The distinction
/// is entirely in the coalescing the order produces.
#[allow(clippy::too_many_arguments)]
pub fn spread_gm<T: Real, K: Kernel1d>(
    dev: &Device,
    name: &str,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    strengths: &[Complex<T>],
    order: &[u32],
    grid: &mut [Complex<T>],
    threads_per_block: usize,
    cas_atomic_penalty: f64,
) -> Result<LaunchReport, DeviceFault> {
    spread_gm_impl(
        dev,
        name,
        kernel,
        fine,
        pts,
        strengths,
        order,
        grid,
        threads_per_block,
        cas_atomic_penalty,
        false,
        None,
    )
}

/// Deliberately broken GM spread that updates the fine grid with plain
/// (non-atomic) writes — the "fast because it races" bug the hazard
/// checker exists to catch. The serial simulation still produces correct
/// sums, which is exactly why the race would go unnoticed without the
/// checker. Test-only: used as the negative control proving the detector
/// is not vacuously green.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn spread_gm_racy<T: Real, K: Kernel1d>(
    dev: &Device,
    name: &str,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    strengths: &[Complex<T>],
    order: &[u32],
    grid: &mut [Complex<T>],
    threads_per_block: usize,
) -> Result<LaunchReport, DeviceFault> {
    spread_gm_impl(
        dev,
        name,
        kernel,
        fine,
        pts,
        strengths,
        order,
        grid,
        threads_per_block,
        1.0,
        true,
        None,
    )
}

/// Given `priced` — the report of an earlier launch on the same points
/// and order — and no access trace on the launch, only the functional
/// pass runs and that report is replayed.
#[allow(clippy::too_many_arguments)]
fn spread_gm_impl<T: Real, K: Kernel1d>(
    dev: &Device,
    name: &str,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    strengths: &[Complex<T>],
    order: &[u32],
    grid: &mut [Complex<T>],
    threads_per_block: usize,
    cas_atomic_penalty: f64,
    racy: bool,
    priced: Option<&LaunchReport>,
) -> Result<LaunchReport, DeviceFault> {
    assert_eq!(grid.len(), fine.total());
    let m = order.len();
    let cb = std::mem::size_of::<Complex<T>>();
    let prec = Precision::of::<T>();
    let mut k = dev.kernel(
        name,
        LaunchConfig::new(prec, threads_per_block).with_cas_penalty(cas_atomic_penalty),
    )?;
    if let Some(report) = priced.filter(|_| !k.access_traced()) {
        for &j in order {
            let fp = Footprint::new(kernel, fine, pts.dim, pts.point(j as usize));
            fp.spread(fine, strengths[j as usize], grid);
        }
        return Ok(dev.launch_priced(k, report));
    }
    k.atomic_region(fine.total(), cb);
    // named buffers for the shadow-memory access trace (no-ops when the
    // device is not in hazard mode); the grid is traced per real word so
    // counts line up with the two-atomics-per-complex-add accounting
    let traced = k.access_traced();
    let tb_pts = k.trace_buffer("points", Scope::Global, T::BYTES);
    let tb_str = k.trace_buffer("strengths", Scope::Global, cb);
    let tb_grid = k.trace_buffer("fine_grid", Scope::Global, cb / 2);
    let w = kernel.width();
    let dim = pts.dim;
    let [n1, n2, _] = fine.n;
    let n_blocks = m.div_ceil(threads_per_block);
    let block_of =
        |bid: usize| &order[bid * threads_per_block..m.min((bid + 1) * threads_per_block)];
    // One task per thread block, run on the host pool (bit-identical to
    // serial; see `Kernel::run_blocks`). The block body reports costs to
    // its private accumulator and returns its points' footprints; `apply`
    // spreads them in block-id order so the floating-point accumulation
    // order matches a serial sweep exactly.
    let pts = *pts;
    let body = |bid: usize, b: &mut gpu_sim::BlockAcc<'_>| {
        let block = block_of(bid);
        let mut addrs = [0usize; 32];
        let mut block_fps: Vec<Footprint> = Vec::with_capacity(block.len());
        for (wi, warp) in block.chunks(32).enumerate() {
            let lane0 = (wi * 32) as u32; // thread id of this warp's lane 0
                                          // point-data loads: one access per array (x, y, z, c)
            for arr in 0..dim {
                for (l, &j) in warp.iter().enumerate() {
                    addrs[l] = j as usize * T::BYTES + arr;
                    b.trace_read(tb_pts, lane0 + l as u32, (j as u64) * 4 + arr as u64);
                }
                b.warp_access(&addrs[..warp.len()]);
            }
            for (l, &j) in warp.iter().enumerate() {
                addrs[l] = j as usize * cb;
                b.trace_read(tb_str, lane0 + l as u32, j as u64);
            }
            b.warp_access(&addrs[..warp.len()]);
            b.flops(warp.len() as u64 * (dim * w) as u64 * FLOPS_PER_EVAL);

            // footprints for the warp (wrapped indices precomputed)
            let warp_start = block_fps.len();
            block_fps.extend(
                warp.iter()
                    .map(|&j| Footprint::new(kernel, fine, dim, pts.point(j as usize))),
            );
            let fps = &block_fps[warp_start..];
            let [wd1, wd2, wd3] = fps[0].wd;
            // lockstep loop over the w^d cells (x fastest, matching the
            // serial step order): lanes touch their own cell; L2
            // coalescing per step, DRAM reuse per footprint row
            let mut rowb = [0usize; 32];
            for t3 in 0..wd3 {
                for t2 in 0..wd2 {
                    for (l, fp) in fps.iter().enumerate() {
                        rowb[l] = n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                    }
                    for t1 in 0..wd1 {
                        for (l, fp) in fps.iter().enumerate() {
                            let cell = fp.idx[0][t1] + rowb[l];
                            addrs[l] = cell * cb;
                            if traced {
                                let lane = lane0 + l as u32;
                                if racy {
                                    // the bug under test: plain
                                    // read-modify-write of a grid word
                                    // other threads also update
                                    b.trace_write(tb_grid, lane, 2 * cell as u64);
                                    b.trace_write(tb_grid, lane, 2 * cell as u64 + 1);
                                } else {
                                    b.trace_atomic(tb_grid, lane, 2 * cell as u64);
                                    b.trace_atomic(tb_grid, lane, 2 * cell as u64 + 1);
                                }
                            }
                        }
                        b.l2_access(&addrs[..fps.len()]);
                    }
                }
            }
            // per-cell update flops, summed once (u64→f64 sums of this
            // size are exact, so the total matches per-step reporting)
            b.flops((wd1 * wd2 * wd3) as u64 * fps.len() as u64 * FLOPS_PER_CELL);
            // DRAM-side traffic: each footprint row filtered through the
            // L2 line model (this is where sorting pays off); atomic op
            // cost + contention ride along, batched per contiguous row
            // segment — two atomic words per complex add, totals
            // identical to per-cell `global_atomic_n`
            for fp in fps {
                for t3 in 0..fp.wd[2] {
                    for t2 in 0..fp.wd[1] {
                        let row = n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                        for (s, len) in row_segments(fp.idx[0][0], fp.wd[0], n1) {
                            b.dram_span((row + s) * cb, len * cb, true);
                            if !racy {
                                b.global_atomic_run(row + s, len, 2);
                            }
                        }
                    }
                }
            }
        }
        block_fps
    };
    k.run_blocks(n_blocks, body, |bid, fps| {
        for (&j, fp) in block_of(bid).iter().zip(&fps) {
            fp.spread(fine, strengths[j as usize], grid);
        }
    });
    Ok(dev.launch_end(k))
}

/// SM spreading (paper Fig. 1): one thread block per subproblem, local
/// accumulation in a shared-memory padded bin, then one global atomic add
/// per padded-bin cell. A padded bin larger than the device's shared
/// memory per block is refused by the launch (a persistent
/// `KernelLaunch` fault); plans run SM only after the Remark-2 check.
#[allow(clippy::too_many_arguments)]
pub fn spread_sm<T: Real, K: Kernel1d>(
    dev: &Device,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    strengths: &[Complex<T>],
    perm: &[u32],
    layout: &BinLayout,
    subproblems: &[Subproblem],
    grid: &mut [Complex<T>],
) -> Result<LaunchReport, DeviceFault> {
    assert_eq!(grid.len(), fine.total());
    let cb = std::mem::size_of::<Complex<T>>();
    let prec = Precision::of::<T>();
    let w = kernel.width();
    let dim = pts.dim;
    let p = sm_tile(layout.bin_size, dim, w);
    let padded_cells: usize = p.iter().product();
    let mut k = dev.kernel(
        "spread_SM",
        LaunchConfig::new(prec, 256).with_shared(padded_cells * cb),
    )?;
    k.atomic_region(fine.total(), cb);
    // traced buffers (no-ops unless the device is in hazard mode); the
    // shared bin and the fine grid are traced per real word
    let traced = k.access_traced();
    let tb_pts = k.trace_buffer("points", Scope::Global, T::BYTES);
    let tb_str = k.trace_buffer("strengths", Scope::Global, cb);
    let tb_bin = k.trace_buffer("sm_bin", Scope::Shared, cb / 2);
    let tb_grid = k.trace_buffer("fine_grid", Scope::Global, cb / 2);
    let tpb = 256u32; // threads per block, for trace thread ids
    let [n1, n2, n3] = fine.n;
    let half = w.div_ceil(2) as i64;
    let pts = *pts;
    // One subproblem per thread block, run on the host pool; grid updates
    // come back as an ordered delta list per block (see `spread_gm_impl`).
    let body = |bid: usize, b: &mut gpu_sim::BlockAcc<'_>| {
        let sp = &subproblems[bid];
        let mut local = vec![Complex::<T>::ZERO; padded_cells];
        let mut addrs = [0usize; 32];
        let mut deltas: Vec<(usize, Complex<T>)> = Vec::with_capacity(padded_cells);
        let o = layout.origin(sp.bin as usize);
        // shared-memory zero fill (grid-stride over the padded bin), then
        // a __syncthreads before any thread accumulates into the bin
        b.shared_ops(padded_cells as u64);
        if traced {
            for word in 0..2 * padded_cells as u64 {
                b.trace_write(tb_bin, (word % tpb as u64) as u32, word);
            }
            b.barrier();
        }
        // offset of the padded bin within the fine grid (can be negative)
        let delta = [
            o[0] as i64 - half * (dim >= 1) as i64,
            o[1] as i64 - half * (dim >= 2) as i64,
            o[2] as i64 - half * (dim >= 3) as i64,
        ];
        let members = &perm[sp.start as usize..(sp.start + sp.len) as usize];
        for (wi, warp) in members.chunks(32).enumerate() {
            let lane0 = (wi as u32 * 32) % tpb; // thread id of lane 0
                                                // gather point data (scattered: members are original indices)
            for arr in 0..dim {
                for (l, &j) in warp.iter().enumerate() {
                    addrs[l] = j as usize * T::BYTES + arr;
                    b.trace_read(
                        tb_pts,
                        (lane0 + l as u32) % tpb,
                        (j as u64) * 4 + arr as u64,
                    );
                }
                b.warp_access(&addrs[..warp.len()]);
            }
            for (l, &j) in warp.iter().enumerate() {
                addrs[l] = j as usize * cb;
                b.trace_read(tb_str, (lane0 + l as u32) % tpb, j as u64);
            }
            b.warp_access(&addrs[..warp.len()]);
            b.flops(warp.len() as u64 * (dim * w) as u64 * FLOPS_PER_EVAL);
            for (l, &j) in warp.iter().enumerate() {
                let thread = (lane0 + l as u32) % tpb;
                let fp = Footprint::new(kernel, fine, dim, pts.point(j as usize));
                // unused axes: start node 0, bin origin 0, no pad
                let [b1, b2, b3] = [0, 1, 2].map(|i| (fp.l0[i] - delta[i]) as usize);
                // In-range invariant for boundary-pinned points: the
                // point's cell lies inside this subproblem's bin, so its
                // w-wide footprint fits the padded extent. This is what
                // the fold guard in `grid_coord` protects — a point
                // folded to g = n would land one cell past the pad.
                debug_assert!(
                    b1 + fp.wd[0] <= p[0]
                        && (dim < 2 || b2 + fp.wd[1] <= p[1])
                        && (dim < 3 || b3 + fp.wd[2] <= p[2]),
                    "SM footprint escapes padded bin: point {j} local \
                     ({b1},{b2},{b3}) + w{w} > padded {p:?}"
                );
                for t3 in 0..fp.wd[2] {
                    for t2 in 0..fp.wd[1] {
                        let base = ((b3 + t3) * p[1] + b2 + t2) * p[0] + b1;
                        for cell in base..base + fp.wd[0] {
                            // two shared atomics per cell (re, im words)
                            b.shared_atomic(cell);
                            b.shared_atomic(cell);
                            b.trace_atomic(tb_bin, thread, 2 * cell as u64);
                            b.trace_atomic(tb_bin, thread, 2 * cell as u64 + 1);
                        }
                    }
                }
                fp.spread_box(strengths[j as usize], &mut local, p, [b1, b2, b3]);
                b.flops((fp.wd[0] * fp.wd[1] * fp.wd[2]) as u64 * FLOPS_PER_CELL);
            }
        }
        // Step 3: __syncthreads, then atomic add the padded bin back to
        // global memory (each thread reads its own shared words)
        if traced {
            b.barrier();
        }
        b.shared_ops(padded_cells as u64); // shared reads
        let start1 = delta[0].rem_euclid(n1 as i64) as usize;
        for i3 in 0..p[2] {
            let g3 = ((delta[2] + i3 as i64).rem_euclid(n3 as i64)) as usize;
            for i2 in 0..p[1] {
                let g2 = ((delta[1] + i2 as i64).rem_euclid(n2 as i64)) as usize;
                let row_base = g3 * n1 * n2 + g2 * n1;
                let lrow = (i3 * p[1] + i2) * p[0];
                let mut l = 0usize;
                while l < p[0] {
                    let lanes = (p[0] - l).min(32);
                    for (s, slot) in addrs.iter_mut().enumerate().take(lanes) {
                        let g1 = ((delta[0] + (l + s) as i64).rem_euclid(n1 as i64)) as usize;
                        *slot = (row_base + g1) * cb;
                    }
                    b.l2_access(&addrs[..lanes]);
                    for s in 0..lanes {
                        let g1 = ((delta[0] + (l + s) as i64).rem_euclid(n1 as i64)) as usize;
                        let cell = row_base + g1;
                        b.global_atomic(cell);
                        b.global_atomic(cell);
                        if traced {
                            let lcell = lrow + l + s;
                            let thread = (lcell % tpb as usize) as u32;
                            b.trace_read(tb_bin, thread, 2 * lcell as u64);
                            b.trace_read(tb_bin, thread, 2 * lcell as u64 + 1);
                            b.trace_atomic(tb_grid, thread, 2 * cell as u64);
                            b.trace_atomic(tb_grid, thread, 2 * cell as u64 + 1);
                        }
                        deltas.push((cell, local[lrow + l + s]));
                    }
                    l += lanes;
                }
                account_row(b, row_base, start1, p[0], n1, cb, true);
            }
        }
        b.flops(padded_cells as u64 * 2);
        deltas
    };
    k.run_blocks(subproblems.len(), body, |_bid, deltas| {
        for (cell, v) in deltas {
            grid[cell] += v;
        }
    });
    Ok(dev.launch_end(k))
}

/// Borrowed view of a plan's registered points plus the sort artifacts
/// the spreading methods consume. The plan keeps ownership of the
/// device buffers; batched execution builds one view per chunk and
/// slices the stacked strength/grid buffers per vector.
#[derive(Copy, Clone)]
pub struct SpreadInputs<'a, T> {
    pub pts: PtsRef<'a, T>,
    /// Bin-sorted point order (present for GM-sort and SM).
    pub sort_perm: Option<&'a [u32]>,
    /// Bin layout backing `sort_perm` (needed by SM).
    pub layout: Option<&'a BinLayout>,
    /// SM subproblem list (empty unless the SM method is active).
    pub subproblems: &'a [Subproblem],
    /// GM / GM-sort launch reports already priced on these points.
    pub priced: &'a PricedLaunches,
}

/// Spread `bc` stacked strength vectors into `bc` stacked fine grids
/// with the given method. Vector `v` occupies `strengths[v*M..]` and
/// `grids[v*nf..]` (the `ntransf` layout). The point order is resolved
/// once per call and every vector launches the same kernel as the
/// single-transform path, so results are bitwise identical to `bc`
/// separate dispatches.
#[allow(clippy::too_many_arguments)]
pub fn spread_batch<T: Real, K: Kernel1d>(
    dev: &Device,
    kernel: &K,
    fine: Shape,
    method: Method,
    threads_per_block: usize,
    inputs: &SpreadInputs<'_, T>,
    bc: usize,
    strengths: &[Complex<T>],
    grids: &mut [Complex<T>],
) -> Result<(), DeviceFault> {
    let m = inputs.pts.len();
    let nf = fine.total();
    assert!(strengths.len() >= bc * m && grids.len() >= bc * nf);
    let _span = nufft_trace::span!(
        "spread",
        dim = inputs.pts.dim,
        method = format!("{method:?}"),
        m = m,
        bc = bc,
        subproblems = inputs.subproblems.len(),
    );
    match method {
        Method::Gm | Method::GmSort => {
            let natural: Vec<u32>;
            let (name, order) = if method == Method::Gm {
                natural = (0..m as u32).collect();
                ("spread_GM", natural.as_slice())
            } else {
                let perm = inputs.sort_perm.expect("GM-sort requires sorting");
                ("spread_GM-sort", perm)
            };
            // the first launch on these points is priced; the rest of the
            // batch (and later executes) replay its report
            let mut priced = inputs.priced.get(name);
            for v in 0..bc {
                let report = spread_gm_impl(
                    dev,
                    name,
                    kernel,
                    fine,
                    &inputs.pts,
                    &strengths[v * m..(v + 1) * m],
                    order,
                    &mut grids[v * nf..(v + 1) * nf],
                    threads_per_block,
                    1.0,
                    false,
                    priced.as_ref(),
                )?;
                if priced.is_none() {
                    inputs.priced.insert(report.clone());
                    priced = Some(report);
                }
            }
        }
        Method::Sm => {
            let perm = inputs.sort_perm.expect("SM requires sorting");
            let layout = inputs.layout.expect("SM requires a bin layout");
            for v in 0..bc {
                spread_sm(
                    dev,
                    kernel,
                    fine,
                    &inputs.pts,
                    &strengths[v * m..(v + 1) * m],
                    perm,
                    layout,
                    inputs.subproblems,
                    &mut grids[v * nf..(v + 1) * nf],
                )?;
            }
        }
        Method::Auto => unreachable!("method resolved at plan time"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::{build_subproblems, gpu_bin_sort};
    use nufft_common::metrics::rel_l2;
    use nufft_common::workload::{gen_points, gen_strengths, PointDist, Points};
    use nufft_kernels::{EsKernel, MAX_W};

    fn pts_ref<T: Real>(p: &Points<T>) -> PtsRef<'_, T> {
        PtsRef {
            coords: [&p.coords[0], &p.coords[1], &p.coords[2]],
            dim: p.dim,
        }
    }

    /// CPU reference: serial spread in natural order.
    fn reference(
        kernel: &EsKernel,
        fine: Shape,
        pts: &Points<f64>,
        cs: &[Complex<f64>],
    ) -> Vec<Complex<f64>> {
        let mut out = vec![Complex::<f64>::ZERO; fine.total()];
        let order: Vec<u32> = (0..pts.len() as u32).collect();
        let pr = pts_ref(pts);
        for &j in &order {
            let fp = Footprint::new(kernel, fine, pr.dim, pr.point(j as usize));
            let [n1, n2, n3] = fine.n;
            let mut idx = [[0usize; MAX_W]; 3];
            for i in 0..3 {
                let n = [n1, n2, n3][i] as i64;
                for (t, slot) in idx[i][..fp.wd[i]].iter_mut().enumerate() {
                    *slot = (fp.l0[i] + t as i64).rem_euclid(n) as usize;
                }
            }
            let c = cs[j as usize];
            for t3 in 0..fp.wd[2] {
                for t2 in 0..fp.wd[1] {
                    let c23 = c.scale(fp.ker[1][t2] * fp.ker[2][t3]);
                    let base = idx[2][t3] * n1 * n2 + idx[1][t2] * n1;
                    for t1 in 0..fp.wd[0] {
                        out[base + idx[0][t1]] += c23.scale(fp.ker[0][t1]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn gm_matches_reference_2d() {
        let dev = Device::v100();
        let fine = Shape::d2(64, 64);
        let kernel = EsKernel::with_width(6);
        let pts = gen_points::<f64>(PointDist::Rand, 2, 500, fine, 1);
        let cs = gen_strengths::<f64>(500, 2);
        let order: Vec<u32> = (0..500).collect();
        let mut grid = vec![Complex::<f64>::ZERO; fine.total()];
        spread_gm(
            &dev,
            "spread_GM",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &order,
            &mut grid,
            128,
            1.0,
        )
        .unwrap();
        let want = reference(&kernel, fine, &pts, &cs);
        assert!(rel_l2(&grid, &want) < 1e-13);
    }

    #[test]
    fn gm_sort_same_sums_different_order() {
        let dev = Device::v100();
        let fine = Shape::d2(64, 64);
        let kernel = EsKernel::with_width(4);
        let pts = gen_points::<f64>(PointDist::Rand, 2, 800, fine, 3);
        let cs = gen_strengths::<f64>(800, 4);
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut grid = vec![Complex::<f64>::ZERO; fine.total()];
        spread_gm(
            &dev,
            "spread_GM-sort",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &sort.perm,
            &mut grid,
            128,
            1.0,
        )
        .unwrap();
        let want = reference(&kernel, fine, &pts, &cs);
        assert!(rel_l2(&grid, &want) < 1e-13);
    }

    #[test]
    fn sm_matches_reference_2d() {
        let dev = Device::v100();
        let fine = Shape::d2(128, 128);
        let kernel = EsKernel::with_width(6);
        let pts = gen_points::<f64>(PointDist::Rand, 2, 3000, fine, 5);
        let cs = gen_strengths::<f64>(3000, 6);
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let subs = build_subproblems(&dev, &sort, 1024);
        let mut grid = vec![Complex::<f64>::ZERO; fine.total()];
        spread_sm(
            &dev,
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &sort.perm,
            &sort.layout,
            &subs,
            &mut grid,
        )
        .unwrap();
        let want = reference(&kernel, fine, &pts, &cs);
        assert!(rel_l2(&grid, &want) < 1e-13);
    }

    #[test]
    fn sm_matches_reference_3d_and_cluster() {
        let dev = Device::v100();
        let fine = Shape::d3(32, 32, 32);
        let kernel = EsKernel::with_width(5);
        for dist in [PointDist::Rand, PointDist::Cluster] {
            let pts = gen_points::<f64>(dist, 3, 2000, fine, 7);
            let cs = gen_strengths::<f64>(2000, 8);
            // f64 tiles over 16x16x2 bins need 22*22*8*16 = 61,952 B of
            // shared memory, past the device limit: refused. 8x8x2 fits.
            for (bins, fits) in [([16, 16, 2], false), ([8, 8, 2], true)] {
                let sort = gpu_bin_sort(&dev, &pts, fine, bins);
                let subs = build_subproblems(&dev, &sort, 256);
                let mut grid = vec![Complex::<f64>::ZERO; fine.total()];
                let r = spread_sm(
                    &dev,
                    &kernel,
                    fine,
                    &pts_ref(&pts),
                    &cs,
                    &sort.perm,
                    &sort.layout,
                    &subs,
                    &mut grid,
                );
                assert_eq!(r.is_ok(), fits, "{bins:?}");
                if fits {
                    let want = reference(&kernel, fine, &pts, &cs);
                    assert!(rel_l2(&grid, &want) < 1e-13, "{dist:?}");
                }
            }
        }
    }

    #[test]
    fn gm_sort_prices_faster_than_gm_on_large_rand_grids() {
        // grid must exceed L2 (the paper's large-grid regime, Fig. 2) and
        // the density must be high enough that sorted neighbours share
        // cache lines
        let dev = Device::v100();
        let fine = Shape::d2(2048, 2048);
        let kernel = EsKernel::with_width(6);
        let m = 500_000;
        let pts = gen_points::<f32>(PointDist::Rand, 2, m, fine, 9);
        let cs = gen_strengths::<f32>(m, 10);
        let natural: Vec<u32> = (0..m as u32).collect();
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut g1 = vec![Complex::<f32>::ZERO; fine.total()];
        let r_gm = spread_gm(
            &dev,
            "gm",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &natural,
            &mut g1,
            128,
            1.0,
        )
        .unwrap();
        let mut g2 = vec![Complex::<f32>::ZERO; fine.total()];
        let r_gs = spread_gm(
            &dev,
            "gms",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &sort.perm,
            &mut g2,
            128,
            1.0,
        )
        .unwrap();
        assert!(
            r_gs.duration < r_gm.duration / 2.0,
            "GM-sort {} should beat GM {}",
            r_gs.duration,
            r_gm.duration
        );
        // and the results agree
        assert!(rel_l2(&g1, &g2) < 1e-4);
    }

    #[test]
    fn sm_crushes_gm_on_clustered_points() {
        let dev = Device::v100();
        let fine = Shape::d2(512, 512);
        let kernel = EsKernel::with_width(6);
        let m = 50_000;
        let pts = gen_points::<f32>(PointDist::Cluster, 2, m, fine, 11);
        let cs = gen_strengths::<f32>(m, 12);
        let natural: Vec<u32> = (0..m as u32).collect();
        let mut g1 = vec![Complex::<f32>::ZERO; fine.total()];
        let r_gm = spread_gm(
            &dev,
            "gm",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &natural,
            &mut g1,
            128,
            1.0,
        )
        .unwrap();
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let subs = build_subproblems(&dev, &sort, 1024);
        let mut g2 = vec![Complex::<f32>::ZERO; fine.total()];
        let r_sm = spread_sm(
            &dev,
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &sort.perm,
            &sort.layout,
            &subs,
            &mut g2,
        )
        .unwrap();
        assert!(
            r_sm.duration < r_gm.duration / 3.0,
            "SM {} should crush GM {} on clusters",
            r_sm.duration,
            r_gm.duration
        );
        assert!(rel_l2(&g1, &g2) < 1e-5);
        // the GM run must show a hot atomic sector
        assert!(r_gm.atomic_hotspot_count > 10_000);
        assert!(r_sm.atomic_hotspot_count < r_gm.atomic_hotspot_count / 10);
    }
}

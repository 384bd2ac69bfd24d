//! GPU interpolation (type 2 step iii) — paper Sec. III-B.
//!
//! One thread per target point, in either user order (**GM**) or
//! bin-sorted order (**GM-sort**). Reads carry no write conflicts, so the
//! only effect of sorting is read coalescing. Plans ship no SM variant
//! (the paper argues its benefit would be limited); [`interp_sm`] exists
//! only as the ablation that measures that claim.

use crate::opts::sm_tile;
use crate::spread::{PtsRef, SpreadInputs};
use gpu_sim::{Device, DeviceFault, LaunchConfig, LaunchReport, Precision, Scope};
use nufft_common::complex::Complex;
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_kernels::{Footprint, Kernel1d};

const FLOPS_PER_EVAL: u64 = 30;
const FLOPS_PER_CELL: u64 = 8;

/// Interpolate the fine grid at the points listed in `order`, writing
/// `out[j] = value at point j` (original indexing).
#[allow(clippy::too_many_arguments)]
pub fn interp_gm<T: Real, K: Kernel1d>(
    dev: &Device,
    name: &str,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    grid: &[Complex<T>],
    order: &[u32],
    out: &mut [Complex<T>],
    threads_per_block: usize,
) -> Result<LaunchReport, DeviceFault> {
    assert_eq!(grid.len(), fine.total());
    assert_eq!(out.len(), order.len());
    let cb = std::mem::size_of::<Complex<T>>();
    let prec = Precision::of::<T>();
    let mut k = dev.kernel(name, LaunchConfig::new(prec, threads_per_block))?;
    // traced buffers (no-ops unless the device is in hazard mode): the
    // grid is only read, each out[j] is written by exactly one thread
    let traced = k.access_traced();
    let tb_pts = k.trace_buffer("points", Scope::Global, T::BYTES);
    let tb_grid = k.trace_buffer("fine_grid", Scope::Global, cb / 2);
    let tb_out = k.trace_buffer("out", Scope::Global, cb / 2);
    let w = kernel.width();
    let dim = pts.dim;
    let [n1, n2, _] = fine.n;
    let sector_bytes = dev.props().sector_bytes;
    let m = order.len();
    let n_blocks = m.div_ceil(threads_per_block);
    let pts = *pts;
    // One task per thread block on the host pool (bit-identical to
    // serial; see `Kernel::run_blocks`). Each point's value is written by
    // exactly one thread, so the per-block result is a disjoint list of
    // (j, value) writes applied in block-id order.
    let body = |bid: usize, b: &mut gpu_sim::BlockAcc<'_>| {
        let block = &order[bid * threads_per_block..m.min((bid + 1) * threads_per_block)];
        let mut addrs = [0usize; 32];
        let mut fps: Vec<Footprint> = Vec::with_capacity(32);
        let mut warp_sectors: Vec<usize> = Vec::new();
        let mut writes: Vec<(usize, Complex<T>)> = Vec::with_capacity(block.len());
        for (wi, warp) in block.chunks(32).enumerate() {
            let lane0 = (wi * 32) as u32;
            // point coordinate loads
            for arr in 0..dim {
                for (l, &j) in warp.iter().enumerate() {
                    addrs[l] = j as usize * T::BYTES + arr;
                    b.trace_read(tb_pts, lane0 + l as u32, (j as u64) * 4 + arr as u64);
                }
                b.warp_access(&addrs[..warp.len()]);
            }
            b.flops(warp.len() as u64 * (dim * w) as u64 * FLOPS_PER_EVAL);
            fps.clear();
            fps.extend(
                warp.iter()
                    .map(|&j| Footprint::new(kernel, fine, dim, pts.point(j as usize))),
            );
            let [wd1, wd2, wd3] = fps[0].wd;
            let steps = (wd1 * wd2 * wd3) as u64;
            // loads are L1-cached within the warp's footprint (unlike
            // atomics, which bypass L1): count each sector once per warp
            warp_sectors.clear();
            for t3 in 0..wd3 {
                for t2 in 0..wd2 {
                    for t1 in 0..wd1 {
                        for fp in fps.iter() {
                            let cell = fp.idx[0][t1] + n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                            warp_sectors.push(cell * cb / sector_bytes);
                        }
                    }
                }
            }
            b.flops(steps * fps.len() as u64 * FLOPS_PER_CELL);
            warp_sectors.sort_unstable();
            warp_sectors.dedup();
            b.l2_sector_count(warp_sectors.len() as u64);
            // DRAM-side grid reads, row-wise through the line model
            for fp in fps.iter() {
                for t3 in 0..fp.wd[2] {
                    for t2 in 0..fp.wd[1] {
                        let row = n1 * (fp.idx[1][t2] + n2 * fp.idx[2][t3]);
                        crate::spread::account_row(b, row, fp.idx[0][0], fp.wd[0], n1, cb, false);
                    }
                }
            }
            // output writes c[t(j)] — scattered when sorted
            for (l, &j) in warp.iter().enumerate() {
                addrs[l] = j as usize * cb;
            }
            b.warp_access(&addrs[..warp.len()]);
            // functional interpolation
            for (l, (&j, fp)) in warp.iter().zip(fps.iter()).enumerate() {
                let lane = lane0 + l as u32;
                if traced {
                    for &i3 in &fp.idx[2][..fp.wd[2]] {
                        for &i2 in &fp.idx[1][..fp.wd[1]] {
                            let base = i3 * n1 * n2 + i2 * n1;
                            for &i1 in &fp.idx[0][..fp.wd[0]] {
                                let cell = (base + i1) as u64;
                                b.trace_read(tb_grid, lane, 2 * cell);
                                b.trace_read(tb_grid, lane, 2 * cell + 1);
                            }
                        }
                    }
                }
                writes.push((j as usize, fp.interp(fine, grid)));
                b.trace_write(tb_out, lane, 2 * j as u64);
                b.trace_write(tb_out, lane, 2 * j as u64 + 1);
            }
        }
        writes
    };
    k.run_blocks(n_blocks, body, |_bid, writes| {
        for (j, v) in writes {
            out[j] = v;
        }
    });
    Ok(dev.launch_end(k))
}

/// Shared-memory interpolation (the variant the paper chose NOT to ship;
/// Sec. III-B argues its benefit would be limited because reads carry no
/// write conflicts). Implemented here as an ablation: each subproblem
/// block stages its padded bin into shared memory with coalesced global
/// reads, then its points gather from shared. Compare against
/// [`interp_gm`] with a bin-sorted order to reproduce the paper's
/// design-decision evidence. Like [`crate::spread::spread_sm`], a padded
/// bin larger than the device's shared memory is refused at launch.
#[allow(clippy::too_many_arguments)]
pub fn interp_sm<T: Real, K: Kernel1d>(
    dev: &Device,
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    grid: &[Complex<T>],
    perm: &[u32],
    layout: &crate::bins::BinLayout,
    subproblems: &[crate::bins::Subproblem],
    out: &mut [Complex<T>],
) -> Result<LaunchReport, DeviceFault> {
    assert_eq!(grid.len(), fine.total());
    assert_eq!(out.len(), perm.len());
    let cb = std::mem::size_of::<Complex<T>>();
    let prec = Precision::of::<T>();
    let w = kernel.width();
    let dim = pts.dim;
    let p = sm_tile(layout.bin_size, dim, w);
    let padded_cells: usize = p.iter().product();
    let mut k = dev.kernel(
        "interp_SM",
        LaunchConfig::new(prec, 256).with_shared(padded_cells * cb),
    )?;
    let [n1, n2, n3] = fine.n;
    let half = w.div_ceil(2) as i64;
    // One thread block per subproblem; each point's value is written by
    // exactly one thread, so blocks return their (j, value) writes and
    // the ordered apply stores them (see `Kernel::run_blocks`).
    let body = |bid: usize, b: &mut gpu_sim::BlockAcc<'_>| {
        let sp = &subproblems[bid];
        let mut addrs = [0usize; 32];
        let mut writes: Vec<(usize, Complex<T>)> = Vec::with_capacity(sp.len as usize);
        let o = layout.origin(sp.bin as usize);
        let delta = [
            o[0] as i64 - half * (dim >= 1) as i64,
            o[1] as i64 - half * (dim >= 2) as i64,
            o[2] as i64 - half * (dim >= 3) as i64,
        ];
        // stage the padded bin: coalesced global reads + shared writes
        for i3 in 0..p[2] {
            let g3 = (delta[2] + i3 as i64).rem_euclid(n3 as i64) as usize;
            for i2 in 0..p[1] {
                let g2 = (delta[1] + i2 as i64).rem_euclid(n2 as i64) as usize;
                let row_base = (g3 * n1 * n2 + g2 * n1) * cb;
                b.stream_span(row_base, p[0] * cb, false);
            }
        }
        b.shared_ops(padded_cells as u64);
        let members = &perm[sp.start as usize..(sp.start + sp.len) as usize];
        for warp in members.chunks(32) {
            for arr in 0..dim {
                for (l, &j) in warp.iter().enumerate() {
                    addrs[l] = j as usize * T::BYTES + arr;
                }
                b.warp_access(&addrs[..warp.len()]);
            }
            b.flops(warp.len() as u64 * (dim * w) as u64 * 30);
            for &j in warp {
                let fp = Footprint::new(kernel, fine, dim, pts.point(j as usize));
                // shared-memory gathers for every cell of the footprint
                b.shared_reads((fp.wd[0] * fp.wd[1] * fp.wd[2]) as u64);
                b.flops((fp.wd[0] * fp.wd[1] * fp.wd[2]) as u64 * 8);
                // functional evaluation straight from the global grid
                writes.push((j as usize, fp.interp(fine, grid)));
            }
            // output writes
            for (l, &j) in warp.iter().enumerate() {
                addrs[l] = j as usize * cb;
            }
            b.warp_access(&addrs[..warp.len()]);
        }
        writes
    };
    k.run_blocks(subproblems.len(), body, |_bid, writes| {
        for (j, v) in writes {
            out[j] = v;
        }
    });
    Ok(dev.launch_end(k))
}

/// Interpolate `bc` stacked fine grids at the registered points into
/// `bc` stacked output vectors (the `ntransf` layout; see
/// [`spread_batch`](crate::spread::spread_batch)). Plans ship no SM
/// interpolation, so the method only decides the point order: bin-sorted
/// when a sort is available and the method wants it, user order
/// otherwise.
#[allow(clippy::too_many_arguments)]
pub fn interp_batch<T: Real, K: Kernel1d>(
    dev: &Device,
    kernel: &K,
    fine: Shape,
    method: crate::opts::Method,
    threads_per_block: usize,
    inputs: &SpreadInputs<'_, T>,
    bc: usize,
    grids: &[Complex<T>],
    out: &mut [Complex<T>],
) -> Result<(), DeviceFault> {
    let m = inputs.pts.len();
    let nf = fine.total();
    assert!(grids.len() >= bc * nf && out.len() >= bc * m);
    let _span = nufft_trace::span!(
        "interp",
        dim = inputs.pts.dim,
        method = format!("{method:?}"),
        m = m,
        bc = bc,
    );
    let (name, order): (&str, std::borrow::Cow<'_, [u32]>) = match (inputs.sort_perm, method) {
        (_, crate::opts::Method::Gm) | (None, _) => {
            ("interp_GM", (0..m as u32).collect::<Vec<u32>>().into())
        }
        (Some(perm), _) => ("interp_GM-sort", perm.into()),
    };
    for v in 0..bc {
        interp_gm(
            dev,
            name,
            kernel,
            fine,
            &inputs.pts,
            &grids[v * nf..(v + 1) * nf],
            &order,
            &mut out[v * m..(v + 1) * m],
            threads_per_block,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::gpu_bin_sort;
    use nufft_common::workload::{gen_points, gen_strengths, PointDist, Points};
    use nufft_kernels::EsKernel;

    fn pts_ref<T: Real>(p: &Points<T>) -> PtsRef<'_, T> {
        PtsRef {
            coords: [&p.coords[0], &p.coords[1], &p.coords[2]],
            dim: p.dim,
        }
    }

    #[test]
    fn sorted_and_natural_order_agree_exactly() {
        let dev = Device::v100();
        let fine = Shape::d2(64, 64);
        let kernel = EsKernel::with_width(5);
        let m = 700;
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 21);
        let grid = gen_strengths::<f64>(fine.total(), 22);
        let natural: Vec<u32> = (0..m as u32).collect();
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut a = vec![Complex::<f64>::ZERO; m];
        let mut b = vec![Complex::<f64>::ZERO; m];
        interp_gm(
            &dev,
            "interp_GM",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &natural,
            &mut a,
            128,
        )
        .unwrap();
        interp_gm(
            &dev,
            "interp_GMs",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &mut b,
            128,
        )
        .unwrap();
        // interpolation is read-only per point: results are bit-identical
        for j in 0..m {
            assert_eq!(a[j].re, b[j].re);
            assert_eq!(a[j].im, b[j].im);
        }
    }

    #[test]
    fn interp_is_adjoint_of_spread() {
        use crate::spread::spread_gm;
        let dev = Device::v100();
        let fine = Shape::d2(32, 48);
        let kernel = EsKernel::with_width(6);
        let m = 150;
        let pts = gen_points::<f64>(PointDist::Rand, 2, m, fine, 31);
        let cs = gen_strengths::<f64>(m, 32);
        let g = gen_strengths::<f64>(fine.total(), 33);
        let order: Vec<u32> = (0..m as u32).collect();
        let mut sp = vec![Complex::<f64>::ZERO; fine.total()];
        spread_gm(
            &dev,
            "s",
            &kernel,
            fine,
            &pts_ref(&pts),
            &cs,
            &order,
            &mut sp,
            128,
            1.0,
        )
        .unwrap();
        let mut it = vec![Complex::<f64>::ZERO; m];
        interp_gm(
            &dev,
            "i",
            &kernel,
            fine,
            &pts_ref(&pts),
            &g,
            &order,
            &mut it,
            128,
        )
        .unwrap();
        let lhs = nufft_common::metrics::inner(&sp, &g);
        let rhs = nufft_common::metrics::inner(&cs, &it);
        assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()));
    }

    #[test]
    fn sorting_speeds_up_large_grid_interp() {
        // same regime as Fig. 3's right-hand side: grid well beyond L2,
        // density high enough for line reuse among sorted neighbours
        let dev = Device::v100();
        let fine = Shape::d2(2048, 2048);
        let kernel = EsKernel::with_width(6);
        let m = 500_000;
        let pts = gen_points::<f32>(PointDist::Rand, 2, m, fine, 41);
        let grid = vec![Complex::<f32>::ZERO; fine.total()];
        let natural: Vec<u32> = (0..m as u32).collect();
        let sort = gpu_bin_sort(&dev, &pts, fine, [32, 32, 1]);
        let mut a = vec![Complex::<f32>::ZERO; m];
        let r_gm = interp_gm(
            &dev,
            "gm",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &natural,
            &mut a,
            128,
        )
        .unwrap();
        let r_gs = interp_gm(
            &dev,
            "gms",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &mut a,
            128,
        )
        .unwrap();
        assert!(
            r_gs.duration < r_gm.duration / 1.5,
            "sorted {} vs natural {}",
            r_gs.duration,
            r_gm.duration
        );
    }

    /// A launch report as the bit patterns the pins below hold: duration,
    /// the seven `Breakdown` terms, L2 and DRAM bytes, flops, global
    /// atomics, hotspot count and blocks.
    fn report_bits(r: &LaunchReport) -> [u64; 14] {
        let b = &r.breakdown;
        [
            r.duration.to_bits(),
            b.makespan.to_bits(),
            b.l2.to_bits(),
            b.dram.to_bits(),
            b.compute.to_bits(),
            b.atomic_hotspot.to_bits(),
            b.atomic_ops.to_bits(),
            b.overhead.to_bits(),
            r.l2_bytes.to_bits(),
            r.dram_bytes.to_bits(),
            r.flops.to_bits(),
            r.global_atomics,
            r.atomic_hotspot_count,
            r.blocks as u64,
        ]
    }

    /// Interpolate one random grid at `m` points through GM-sort and SM
    /// with `threads` host workers; asserts the two agree exactly and
    /// returns the SM launch report and output, or the SM launch's
    /// refusal.
    fn sm_interp_case<T: Real>(
        dist: PointDist,
        fine: Shape,
        bins: [usize; 3],
        m: usize,
        threads: usize,
    ) -> Result<(LaunchReport, Vec<Complex<T>>), DeviceFault> {
        use crate::bins::{build_subproblems, gpu_bin_sort};
        let dev = Device::v100();
        dev.set_host_parallelism(threads);
        let kernel = EsKernel::with_width(6);
        let dim = fine.dim;
        let pts = gen_points::<T>(dist, dim, m, fine, 61);
        let grid = gen_strengths::<T>(fine.total(), 62);
        let sort = gpu_bin_sort(&dev, &pts, fine, bins);
        let subs = build_subproblems(&dev, &sort, 1024);
        let mut a = vec![Complex::<T>::ZERO; m];
        let mut b = vec![Complex::<T>::ZERO; m];
        interp_gm(
            &dev,
            "g",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &mut a,
            128,
        )
        .unwrap();
        let r = interp_sm(
            &dev,
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &sort.perm,
            &sort.layout,
            &subs,
            &mut b,
        )?;
        for j in 0..m {
            assert_eq!(a[j].re, b[j].re);
            assert_eq!(a[j].im, b[j].im);
        }
        Ok((r, b))
    }

    #[test]
    fn sm_interp_matches_gm_interp_exactly() {
        sm_interp_case::<f64>(PointDist::Rand, Shape::d2(128, 128), [32, 32, 1], 2000, 1).unwrap();
        // A 3D f64 w = 6 tile over 16x16x2 bins needs 22*22*8*16 =
        // 61,952 B of shared memory, more than the device's 49,152 B:
        // the launch is refused, not priced as if the tile fit.
        let over =
            sm_interp_case::<f64>(PointDist::Rand, Shape::d3(32, 24, 20), [16, 16, 2], 800, 1);
        let fault = over.expect_err("over-limit SM tile refused");
        assert_eq!(fault.kind, gpu_sim::FaultKind::KernelLaunch);
        assert!(!fault.transient);
        // Launch prices pinned bit for bit; host workers must change
        // neither the price nor the output.
        let pin_2d_f32_cluster: [u64; 14] = [
            0x3eed02ce0b187fb2,
            0x3ee6b8312ed4469d,
            0x3e59f572c25d8023,
            0x3e54ebd7e2f54507,
            0x3e8a9fd9a2e0c2c0,
            0,
            0,
            0x3ec92a737110e454,
            0x40e79c0000000000,
            0x40d1200000000000,
            0x412da9c000000000,
            0,
            0,
            2,
        ];
        // 8x8x2 bins: 14*14*8*16 = 25,088 B fits
        let pin_3d_f64_rand: [u64; 14] = [
            0x3ed78f16a94bed09,
            0x3ec5f3b9e186f5be,
            0x3eba19f035c4725f,
            0x3e834795e53ca6da,
            0x3ea8d975cb382d3c,
            0,
            0,
            0x3ec92a737110e454,
            0x4147bd3000000000,
            0x40ff900000000000,
            0x413baf8000000000,
            0,
            0,
            120,
        ];
        let mut outs32 = Vec::new();
        let mut outs64 = Vec::new();
        for threads in [1, 4] {
            let (r, out) = sm_interp_case::<f32>(
                PointDist::Cluster,
                Shape::d2(64, 64),
                [32, 32, 1],
                1500,
                threads,
            )
            .unwrap();
            assert_eq!(report_bits(&r), pin_2d_f32_cluster, "threads={threads}");
            outs32.push(out);
            let (r, out) = sm_interp_case::<f64>(
                PointDist::Rand,
                Shape::d3(32, 24, 20),
                [8, 8, 2],
                800,
                threads,
            )
            .unwrap();
            assert_eq!(report_bits(&r), pin_3d_f64_rand, "threads={threads}");
            outs64.push(out);
        }
        let bits32 = |v: &[Complex<f32>]| -> Vec<(u32, u32)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let bits64 = |v: &[Complex<f64>]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        assert_eq!(bits32(&outs32[0]), bits32(&outs32[1]));
        assert_eq!(bits64(&outs64[0]), bits64(&outs64[1]));
    }

    #[test]
    fn no_atomics_in_interp() {
        let dev = Device::v100();
        let fine = Shape::d2(32, 32);
        let kernel = EsKernel::with_width(4);
        let pts = gen_points::<f32>(PointDist::Rand, 2, 100, fine, 51);
        let grid = vec![Complex::<f32>::ZERO; fine.total()];
        let order: Vec<u32> = (0..100).collect();
        let mut out = vec![Complex::<f32>::ZERO; 100];
        let r = interp_gm(
            &dev,
            "i",
            &kernel,
            fine,
            &pts_ref(&pts),
            &grid,
            &order,
            &mut out,
            128,
        )
        .unwrap();
        assert_eq!(r.global_atomics, 0);
        assert_eq!(r.atomic_hotspot_count, 0);
    }
}

//! gpuNUFFT-style GPU gridding (Knoll et al. 2014), reimplemented on the
//! simulated device as the paper's output-driven (gather) baseline.
//!
//! Characteristics modeled from the real library:
//!
//! * **Kaiser–Bessel** kernel evaluated through a lookup table — the LUT
//!   quantization puts a floor on achievable accuracy (the paper observed
//!   gpuNUFFT's error "appears always to exceed 1e-3");
//! * kernel width capped by the **sector width 8** design;
//! * **CPU pre-sorting** of points into sectors when the operator is
//!   built (the paper excludes this from "total+mem"; so do we);
//! * type 1 gridding is **output-driven**: thread blocks own sectors and
//!   gather from candidate points of the 3^d sector neighbourhood,
//!   paying a distance check for every (cell, candidate) pair — the
//!   brute-force factor that makes gpuNUFFT an order of magnitude slower
//!   than input-driven spreading at matched accuracy;
//! * host (CPU) arrays in, host arrays out, so every call pays transfers.

use cufinufft::interp::interp_gm;
use cufinufft::plan::GpuStageTimings;
use cufinufft::spread::PtsRef;
use gpu_sim::{Device, GpuBuffer, LaunchConfig, Precision};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::smooth::fine_grid_size;
use nufft_common::spec::ModeOrder;
use nufft_common::workload::Points;
use nufft_common::TransformType;
use nufft_fft::Direction;
use nufft_kernels::deconv::{correction_rows, to_grid, to_modes};
use nufft_kernels::{grid_coord, spread_footprint, KaiserBesselKernel, Kernel1d};

/// gpuNUFFT's fixed sector width in fine-grid cells.
pub const SECTOR_WIDTH: usize = 8;
/// Entries in the kernel lookup table (sets the accuracy floor).
pub const LUT_SIZE: usize = 1024;
/// Candidate-chunk size per thread block (sector processing in passes).
const CHUNK: usize = 512;

/// Kaiser–Bessel kernel evaluated through a nearest-entry lookup table,
/// as gpuNUFFT's texture fetch does.
#[derive(Copy, Clone)]
pub struct LutKernel {
    pub inner: KaiserBesselKernel,
    table: [f64; LUT_SIZE],
}

impl LutKernel {
    pub fn new(inner: KaiserBesselKernel) -> Self {
        let mut table = [0.0; LUT_SIZE];
        for (i, t) in table.iter_mut().enumerate() {
            let z = i as f64 / (LUT_SIZE - 1) as f64;
            *t = inner.eval(z);
        }
        LutKernel { inner, table }
    }
}

impl Kernel1d for LutKernel {
    fn width(&self) -> usize {
        self.inner.width()
    }

    fn eval(&self, z: f64) -> f64 {
        let a = z.abs();
        if a > 1.0 {
            return 0.0;
        }
        let i = (a * (LUT_SIZE - 1) as f64).round() as usize;
        self.table[i.min(LUT_SIZE - 1)]
    }

    fn ft(&self, xi: f64) -> f64 {
        self.inner.ft(xi)
    }
}

/// Host-side sector sort (gpuNUFFT builds this on the CPU when the
/// operator is created; no device time charged).
struct SectorSort {
    nsec: [usize; 3],
    /// point indices grouped by sector (CSR layout)
    perm: Vec<u32>,
    starts: Vec<u32>,
}

fn sector_sort<T: Real>(pts: &Points<T>, fine: Shape) -> SectorSort {
    let mut nsec = [1usize; 3];
    for (ns, &n) in nsec.iter_mut().zip(&fine.n).take(fine.dim) {
        *ns = n.div_ceil(SECTOR_WIDTH);
    }
    let total = nsec[0] * nsec[1] * nsec[2];
    let m = pts.len();
    let sector_of = |j: usize| -> usize {
        let mut s = [0usize; 3];
        for (i, si) in s.iter_mut().enumerate().take(pts.dim) {
            let g = grid_coord(pts.coord(i, j).to_f64(), fine.n[i]);
            *si = ((g as usize).min(fine.n[i] - 1)) / SECTOR_WIDTH;
        }
        s[0] + nsec[0] * (s[1] + nsec[1] * s[2])
    };
    let mut counts = vec![0u32; total + 1];
    let secs: Vec<u32> = (0..m)
        .map(|j| {
            let s = sector_of(j);
            counts[s + 1] += 1;
            s as u32
        })
        .collect();
    for s in 0..total {
        counts[s + 1] += counts[s];
    }
    let starts = counts.clone();
    let mut cursor = counts;
    let mut perm = vec![0u32; m];
    for (j, &s) in secs.iter().enumerate() {
        perm[cursor[s as usize] as usize] = j as u32;
        cursor[s as usize] += 1;
    }
    SectorSort { nsec, perm, starts }
}

/// A gpuNUFFT-style plan.
pub struct GpunufftPlan<T: Real> {
    ttype: TransformType,
    modes: Shape,
    fine: Shape,
    iflag: i32,
    kernel: LutKernel,
    dev: Device,
    fft: gpu_fft::GpuFftPlan<T>,
    corr: [Vec<f64>; 3],
    d_grid: GpuBuffer<Complex<T>>,
    d_in: GpuBuffer<Complex<T>>,
    d_out: GpuBuffer<Complex<T>>,
    pts_host: Option<Points<T>>,
    sort: Option<SectorSort>,
    d_pts: Option<[GpuBuffer<T>; 3]>,
    timings: GpuStageTimings,
}

use crate::cunfft::dev_err;

impl<T: Real> GpunufftPlan<T> {
    pub fn new(
        ttype: TransformType,
        modes: &[usize],
        iflag: i32,
        eps: f64,
        dev: &Device,
    ) -> Result<Self> {
        if modes.is_empty() || modes.len() > 3 {
            return Err(NufftError::BadDim(modes.len()));
        }
        let sigma = 2.0;
        let kb = KaiserBesselKernel::for_tolerance(eps, sigma);
        let kernel = LutKernel::new(kb);
        let modes = Shape::from_slice(modes);
        let fine = modes.map(|_, n| {
            // sector tiling requires fine sizes to be sector multiples
            let base = fine_grid_size(n, sigma, kernel.width());
            base.div_ceil(SECTOR_WIDTH) * SECTOR_WIDTH
        });
        let corr = correction_rows(&kernel, modes, fine);
        let fft = gpu_fft::GpuFftPlan::new(fine);
        let t0 = dev.clock();
        let d_grid = dev.alloc("gpunufft_grid", fine.total()).map_err(dev_err)?;
        let d_in = dev.alloc("gpunufft_in", 0).map_err(dev_err)?;
        let d_out = dev.alloc("gpunufft_out", 0).map_err(dev_err)?;
        let timings = GpuStageTimings {
            alloc: dev.clock() - t0,
            ..Default::default()
        };
        Ok(GpunufftPlan {
            ttype,
            modes,
            fine,
            iflag: if iflag >= 0 { 1 } else { -1 },
            kernel,
            dev: dev.clone(),
            fft,
            corr,
            d_grid,
            d_in,
            d_out,
            pts_host: None,
            sort: None,
            d_pts: None,
            timings,
        })
    }

    pub fn kernel_width(&self) -> usize {
        self.kernel.width()
    }

    pub fn timings(&self) -> GpuStageTimings {
        self.timings
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.fine
    }

    pub fn modes(&self) -> Shape {
        self.modes
    }

    pub fn transform_type(&self) -> TransformType {
        self.ttype
    }

    pub fn num_points(&self) -> usize {
        self.pts_host.as_ref().map_or(0, |p| p.len())
    }

    /// Build the operator: CPU sector sort (uncharged, per the paper's
    /// timing methodology) + transfer of the sorted point arrays.
    pub fn set_pts(&mut self, pts: &Points<T>) -> Result<()> {
        if pts.dim != self.modes.dim {
            return Err(NufftError::BadDim(pts.dim));
        }
        let m = pts.len();
        let sort = sector_sort(pts, self.fine);
        let t0 = self.dev.clock();
        let mut bufs = [
            self.dev.alloc("gpunufft_x", m).map_err(dev_err)?,
            self.dev
                .alloc("gpunufft_y", if pts.dim >= 2 { m } else { 0 })
                .map_err(dev_err)?,
            self.dev
                .alloc("gpunufft_z", if pts.dim >= 3 { m } else { 0 })
                .map_err(dev_err)?,
        ];
        for (buf, coords) in bufs.iter_mut().zip(&pts.coords).take(pts.dim) {
            self.dev.memcpy_htod(buf, coords).map_err(dev_err)?;
        }
        // the paper excludes operator construction from total+mem; track
        // the transfer under h2d but zero the sort stage
        self.timings.h2d_pts = self.dev.clock() - t0;
        self.timings.sort = 0.0;
        self.sort = Some(sort);
        self.d_pts = Some(bufs);
        self.pts_host = Some(pts.clone());
        Ok(())
    }

    pub fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let m = self
            .pts_host
            .as_ref()
            .map(|p| p.len())
            .ok_or(NufftError::PointsNotSet)?;
        let n = self.modes.total();
        let (want_in, want_out) = match self.ttype {
            TransformType::Type1 => (m, n),
            TransformType::Type2 => (n, m),
        };
        if input.len() != want_in || output.len() != want_out {
            return Err(NufftError::LengthMismatch {
                expected: want_in,
                got: input.len(),
            });
        }
        let prec = Precision::of::<T>();
        let cb = std::mem::size_of::<Complex<T>>();
        let t0 = self.dev.clock();
        if self.d_in.len() != want_in {
            self.d_in = self.dev.alloc("gpunufft_in", want_in).map_err(dev_err)?;
        }
        if self.d_out.len() != want_out {
            self.d_out = self.dev.alloc("gpunufft_out", want_out).map_err(dev_err)?;
        }
        self.timings.alloc += self.dev.clock() - t0;
        let t1 = self.dev.clock();
        self.dev
            .memcpy_htod(&mut self.d_in, input)
            .map_err(dev_err)?;
        self.timings.h2d_data = self.dev.clock() - t1;
        let dir = Direction::from_sign(self.iflag);
        match self.ttype {
            TransformType::Type1 => {
                let t = self.dev.clock();
                self.d_grid
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|z| *z = Complex::ZERO);
                self.dev
                    .bulk_op("gpunufft_memset", 0, self.fine.total() * cb, 0.0, prec);
                self.gather_gridding().map_err(dev_err)?;
                self.timings.spread_interp = self.dev.clock() - t;
                let t = self.dev.clock();
                self.fft.execute(&self.dev, &mut self.d_grid, dir);
                self.timings.fft = self.dev.clock() - t;
                let t = self.dev.clock();
                to_modes(
                    &self.corr,
                    self.modes,
                    self.fine,
                    ModeOrder::Centered,
                    self.d_grid.as_slice(),
                    self.d_out.as_mut_slice(),
                );
                self.dev
                    .bulk_op("gpunufft_deconv", n * cb, n * cb, n as f64 * 8.0, prec);
                self.timings.deconv = self.dev.clock() - t;
            }
            TransformType::Type2 => {
                let t = self.dev.clock();
                self.d_grid
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|z| *z = Complex::ZERO);
                self.dev
                    .bulk_op("gpunufft_memset", 0, self.fine.total() * cb, 0.0, prec);
                to_grid(
                    &self.corr,
                    self.modes,
                    self.fine,
                    ModeOrder::Centered,
                    self.d_in.as_slice(),
                    self.d_grid.as_mut_slice(),
                );
                self.dev
                    .bulk_op("gpunufft_precorrect", n * cb, n * cb, n as f64 * 8.0, prec);
                self.timings.deconv = self.dev.clock() - t;
                let t = self.dev.clock();
                self.fft.execute(&self.dev, &mut self.d_grid, dir);
                self.timings.fft = self.dev.clock() - t;
                let t = self.dev.clock();
                let sort = self.sort.as_ref().expect("points set");
                let bufs = self.d_pts.as_ref().expect("points set");
                let pr = PtsRef {
                    coords: [bufs[0].as_slice(), bufs[1].as_slice(), bufs[2].as_slice()],
                    dim: self.modes.dim,
                };
                interp_gm(
                    &self.dev,
                    "gpunufft_forward",
                    &self.kernel,
                    self.fine,
                    &pr,
                    self.d_grid.as_slice(),
                    &sort.perm,
                    self.d_out.as_mut_slice(),
                    SECTOR_WIDTH * SECTOR_WIDTH,
                )
                .map_err(dev_err)?;
                // per-pair distance computation + LUT fetches without
                // tensor-product factorization (same inefficiency as the
                // adjoint path), on top of the generic gather cost
                let w = self.kernel.width();
                let pairs = m as f64 * (w as f64).powi(self.modes.dim as i32);
                self.dev
                    .bulk_op("gpunufft_forward_pairs", 0, 0, pairs * 90.0, prec);
                self.timings.spread_interp = self.dev.clock() - t;
            }
        }
        let t2 = self.dev.clock();
        self.dev.memcpy_dtoh(output, &self.d_out).map_err(dev_err)?;
        self.timings.d2h = self.dev.clock() - t2;
        Ok(())
    }

    /// Output-driven adjoint gridding: one block per (sector, candidate
    /// chunk); each of the sector's cells checks every candidate point.
    fn gather_gridding(&mut self) -> std::result::Result<(), gpu_sim::DeviceFault> {
        let pts = self.pts_host.as_ref().expect("points set");
        let sort = self.sort.as_ref().expect("points set");
        let fine = self.fine;
        let dim = self.modes.dim;
        let [n1, n2, _] = fine.n;
        let cb = std::mem::size_of::<Complex<T>>();
        let prec = Precision::of::<T>();
        let strengths = self.d_in.as_slice();
        let grid = self.d_grid.as_mut_slice();
        let cells_per_sector = SECTOR_WIDTH.pow(dim as u32);
        let mut k = self.dev.kernel(
            "gpunufft_adjoint",
            LaunchConfig::new(prec, cells_per_sector.min(512)),
        )?;
        k.atomic_region(fine.total(), cb);
        let nsec = sort.nsec;
        let total_sectors = nsec[0] * nsec[1] * nsec[2];
        let neighbors = |s: usize| -> Vec<usize> {
            let s1 = s % nsec[0];
            let r = s / nsec[0];
            let (s2, s3) = (r % nsec[1], r / nsec[1]);
            let mut out = Vec::new();
            let span = |c: usize, n: usize| -> Vec<usize> {
                if n == 1 {
                    vec![0]
                } else {
                    // periodic 3-neighbourhood
                    let mut v = vec![c];
                    v.push((c + 1) % n);
                    v.push((c + n - 1) % n);
                    v.sort_unstable();
                    v.dedup();
                    v
                }
            };
            for a3 in span(s3, nsec[2]) {
                for a2 in span(s2, nsec[1]) {
                    for a1 in span(s1, nsec[0]) {
                        out.push(a1 + nsec[0] * (a2 + nsec[1] * a3));
                    }
                }
            }
            out
        };
        let run_of = |nb: usize| &sort.perm[sort.starts[nb] as usize..sort.starts[nb + 1] as usize];
        // One thread block per (sector, candidate chunk): the candidates
        // are the points of the sector's 3^d neighbourhood, CHUNK at a time.
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        for sec in 0..total_sectors {
            let n_cand: usize = neighbors(sec).into_iter().map(|nb| run_of(nb).len()).sum();
            blocks.extend((0..n_cand).step_by(CHUNK).map(|lo| (sec, lo)));
        }
        let prf = PtsRef {
            coords: [&pts.coords[0], &pts.coords[1], &pts.coords[2]],
            dim,
        };
        // Blocks return their (cell, delta) grid updates; the ordered
        // apply adds them in block-id order, the serial add sequence.
        let body = |bid: usize, b: &mut gpu_sim::BlockAcc<'_>| {
            let (sec, lo) = blocks[bid];
            let mut chunk: Vec<u32> = Vec::with_capacity(CHUNK);
            let mut skip = lo;
            for nb in neighbors(sec) {
                let run = run_of(nb);
                let from = skip.min(run.len());
                skip -= from;
                let take = (CHUNK - chunk.len()).min(run.len() - from);
                chunk.extend_from_slice(&run[from..from + take]);
            }
            // sector cell origin
            let s1 = sec % nsec[0];
            let r = sec / nsec[0];
            let (s2, s3) = (r % nsec[1], r / nsec[1]);
            let o = [s1 * SECTOR_WIDTH, s2 * SECTOR_WIDTH, s3 * SECTOR_WIDTH];
            // candidate point loads (scattered gathers)
            let mut addrs = [0usize; 32];
            for warp in chunk.chunks(32) {
                for arr in 0..dim + 1 {
                    for (l, &j) in warp.iter().enumerate() {
                        addrs[l] = j as usize * T::BYTES + arr * 7919; // distinct arrays
                    }
                    b.warp_access(&addrs[..warp.len()]);
                }
            }
            // every (cell, candidate) pair pays distance computation
            // in all axes plus the in-range test (gpuNUFFT computes
            // these per pair; no tensor-product factorization)
            let checked = cells_per_sector as u64 * chunk.len() as u64;
            b.flops(checked * 24);
            // functional + accepted-pair accounting via footprints
            let mut accepted = 0u64;
            let mut deltas: Vec<(usize, Complex<T>)> = Vec::new();
            for &jr in &chunk {
                let j = jr as usize;
                let fp = sector_clipped_footprint(&self.kernel, fine, &prf, j, o, dim);
                if let Some((cells, weights)) = fp {
                    accepted += cells.len() as u64;
                    let c = strengths[j];
                    for (cell, wgt) in cells.iter().zip(weights.iter()) {
                        deltas.push((*cell, c.scale(T::from_f64(*wgt))));
                        b.global_atomic(*cell);
                        b.global_atomic(*cell);
                    }
                }
            }
            // accepted pairs additionally pay per-axis LUT fetches
            // and the complex multiply-accumulate
            b.flops(accepted * 80);
            // sector-region writes: contiguous rows of the sector
            for c3 in 0..if dim >= 3 { SECTOR_WIDTH } else { 1 } {
                for c2 in 0..if dim >= 2 { SECTOR_WIDTH } else { 1 } {
                    let base = (o[2] + c3) * n1 * n2 + (o[1] + c2) * n1 + o[0];
                    b.stream_span(base * cb, SECTOR_WIDTH * cb, true);
                }
            }
            deltas
        };
        k.run_blocks(blocks.len(), body, |_bid, deltas| {
            for (cell, d) in deltas {
                grid[cell] += d;
            }
        });
        self.dev.launch_end(k);
        Ok(())
    }
}

/// gpuNUFFT has no native batching; the trait's default `execute_many`
/// loop applies.
impl<T: Real> nufft_common::NufftPlan<T> for GpunufftPlan<T> {
    fn transform_type(&self) -> TransformType {
        self.ttype
    }

    fn modes(&self) -> Shape {
        self.modes
    }

    fn num_points(&self) -> usize {
        GpunufftPlan::num_points(self)
    }

    fn set_points(&mut self, pts: &Points<T>) -> Result<()> {
        self.set_pts(pts)
    }

    fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        GpunufftPlan::execute(self, input, output)
    }

    fn exec_time(&self) -> f64 {
        self.timings.exec()
    }

    fn total_time(&self) -> f64 {
        self.timings.total_mem()
    }

    fn backend_name(&self) -> &'static str {
        "gpunufft"
    }
}

/// Compute the (cell, weight) pairs of point `j`'s footprint clipped to
/// the sector starting at `o` (size SECTOR_WIDTH^dim), with periodic
/// wrapping. Returns `None` when the footprint misses the sector.
fn sector_clipped_footprint<T: Real, K: Kernel1d>(
    kernel: &K,
    fine: Shape,
    pts: &PtsRef<'_, T>,
    j: usize,
    o: [usize; 3],
    dim: usize,
) -> Option<(Vec<usize>, Vec<f64>)> {
    let w = kernel.width();
    let [n1, n2, _n3] = fine.n;
    let mut idx: [Vec<(usize, f64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for i in 0..3 {
        if i >= dim {
            idx[i].push((0, 1.0));
            continue;
        }
        let n = fine.n[i];
        let g = grid_coord(pts.coord(i, j).to_f64(), n);
        let (l0, z0) = spread_footprint(g, w);
        let step = 2.0 / w as f64;
        for t in 0..w {
            let cell = (l0 + t as i64).rem_euclid(n as i64) as usize;
            if cell >= o[i] && cell < o[i] + SECTOR_WIDTH {
                idx[i].push((cell, kernel.eval(z0 + t as f64 * step)));
            }
        }
        if idx[i].is_empty() {
            return None;
        }
    }
    let mut cells = Vec::new();
    let mut weights = Vec::new();
    for &(c3, w3) in &idx[2] {
        for &(c2, w2) in &idx[1] {
            for &(c1, w1) in &idx[0] {
                cells.push(c1 + n1 * (c2 + n2 * c3));
                weights.push(w1 * w2 * w3);
            }
        }
    }
    Some((cells, weights))
}

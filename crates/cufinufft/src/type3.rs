//! GPU type 3 NUFFT: nonuniform to nonuniform — the paper's future-work
//! item implemented on the simulated device.
//!
//! Same Lee–Greengard structure as `finufft_cpu::type3` (see that module
//! for the derivation): rescale sources into the periodic box, spread
//! with the SM/GM-sort machinery, reorder to the centered layout, run an
//! inner GPU **type 2** at the rescaled target frequencies, divide out
//! the source kernel's transform. Every stage is priced by the device
//! model, so type-3 timings compose from the same primitives the paper
//! benchmarks.

use crate::bins::{build_subproblems, gpu_bin_sort};
use crate::opts::{default_bin_size, GpuOpts, Method};
use crate::plan::{GpuStageTimings, Plan};
use crate::recovery::{resolve_method_with_fallback, with_retry, RecoveryReport};
use crate::spread::{spread_gm, spread_sm, PtsRef};
use gpu_sim::{Device, GpuBuffer, Precision};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::smooth::next_smooth;
use nufft_common::workload::Points;
use nufft_common::TransformType;
use nufft_kernels::EsKernel;

/// A GPU type 3 plan.
pub struct GpuType3Plan<T: Real> {
    dim: usize,
    iflag: i32,
    eps: f64,
    kernel: EsKernel,
    opts: GpuOpts,
    dev: Device,
    nf: Shape,
    /// Bin size for sorting and SM subproblems.
    bin_size: [usize; 3],
    spread_method: Method,
    /// Rescaled sources on the device.
    d_x: Option<[GpuBuffer<T>; 3]>,
    xp_host: Option<Points<T>>,
    inner: Option<Plan<T>>,
    corr: Vec<f64>,
    m_sources: usize,
    n_targets: usize,
    d_grid: Option<GpuBuffer<Complex<T>>>,
    timings: GpuStageTimings,
    recovery: RecoveryReport,
}

impl<T: Real> GpuType3Plan<T> {
    pub fn new(dim: usize, iflag: i32, eps: f64, opts: GpuOpts, dev: &Device) -> Result<Self> {
        if !(1..=3).contains(&dim) {
            return Err(NufftError::BadDim(dim));
        }
        let kernel = EsKernel::for_tolerance(eps, T::IS_DOUBLE)?;
        let bin_size = opts.tuning.bin_size.unwrap_or(default_bin_size(dim));
        Ok(GpuType3Plan {
            dim,
            iflag: if iflag >= 0 { 1 } else { -1 },
            eps,
            kernel,
            opts,
            dev: dev.clone(),
            nf: Shape::from_slice(&vec![1; dim]),
            bin_size,
            spread_method: Method::Auto,
            d_x: None,
            xp_host: None,
            inner: None,
            corr: Vec::new(),
            m_sources: 0,
            n_targets: 0,
            d_grid: None,
            timings: GpuStageTimings::default(),
            recovery: RecoveryReport::default(),
        })
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.nf
    }

    pub fn spread_method(&self) -> Method {
        self.spread_method
    }

    pub fn timings(&self) -> GpuStageTimings {
        self.timings
    }

    /// Recovery actions taken by this plan's own stages (the inner
    /// type-2 plan keeps its own report).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Register sources `x` and target frequencies `s`.
    pub fn set_pts(&mut self, x: &Points<T>, s: &Points<T>) -> Result<()> {
        if x.dim != self.dim || s.dim != self.dim {
            return Err(NufftError::BadDim(x.dim.max(s.dim)));
        }
        // a non-finite source or target frequency would silently poison
        // the box rescaling below
        for i in 0..self.dim {
            for (j, &v) in x.coords[i].iter().enumerate() {
                if !v.is_finite() {
                    return Err(NufftError::BadPoint {
                        index: j,
                        value: v.to_f64(),
                    });
                }
            }
            for (k, &v) in s.coords[i].iter().enumerate() {
                if !v.is_finite() {
                    return Err(NufftError::BadPoint {
                        index: k,
                        value: v.to_f64(),
                    });
                }
            }
        }
        let w = self.kernel.w;
        let sigma = 2.0f64;
        let mut nfs = vec![0usize; self.dim];
        let mut gamma = [1.0f64; 3];
        for i in 0..self.dim {
            let xw = x.coords[i]
                .iter()
                .map(|v| v.to_f64().abs())
                .fold(0.0f64, f64::max)
                .max(1e-3);
            let sw = s.coords[i]
                .iter()
                .map(|v| v.to_f64().abs())
                .fold(0.0f64, f64::max)
                .max(1e-3);
            let target = (sigma * 2.0 * xw * sw / std::f64::consts::PI).ceil() as usize + 2 * w;
            nfs[i] = next_smooth(target.max(2 * w + 2));
            gamma[i] = nfs[i] as f64 / (2.0 * sigma * sw);
        }
        let nf = Shape::from_slice(&nfs);
        let cb = std::mem::size_of::<Complex<T>>();
        let spread_method = resolve_method_with_fallback(
            &self.opts,
            self.opts
                .tuning
                .shared_mem_budget
                .min(self.dev.props().shared_mem_per_block),
            self.bin_size,
            self.dim,
            w,
            cb,
            &mut self.recovery,
        )?;
        // rescaled sources, transferred to the device
        let m = x.len();
        let mut xp = Points {
            coords: [Vec::new(), Vec::new(), Vec::new()],
            dim: self.dim,
        };
        for (i, xc) in xp.coords.iter_mut().enumerate().take(self.dim) {
            *xc = x.coords[i]
                .iter()
                .map(|&v| T::from_f64(v.to_f64() / gamma[i]))
                .collect();
        }
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let trace = self.opts.trace.clone();
        let rec = &mut self.recovery;
        let t0 = dev.clock();
        let my = if self.dim >= 2 { m } else { 0 };
        let mz = if self.dim >= 3 { m } else { 0 };
        let mut bufs = [
            with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:t3_x", || {
                dev.alloc("t3_x", m)
            })?,
            with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:t3_y", || {
                dev.alloc("t3_y", my)
            })?,
            with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:t3_z", || {
                dev.alloc("t3_z", mz)
            })?,
        ];
        for (buf, coords) in bufs.iter_mut().zip(&xp.coords).take(self.dim) {
            with_retry(&dev, &policy, trace.as_ref(), rec, "h2d:t3_pts", || {
                dev.memcpy_htod(buf, coords)
            })?;
        }
        let d_grid = with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:t3_grid", || {
            dev.alloc("t3_grid", nf.total())
        })?;
        self.timings.alloc = dev.clock() - t0;
        // inner type 2 at tau = gamma h s
        let mut tau = Points {
            coords: [Vec::new(), Vec::new(), Vec::new()],
            dim: self.dim,
        };
        for (i, tc) in tau.coords.iter_mut().enumerate().take(self.dim) {
            let h = std::f64::consts::TAU / nf.n[i] as f64;
            *tc = s.coords[i]
                .iter()
                .map(|&v| T::from_f64(gamma[i] * h * v.to_f64()))
                .collect();
        }
        let mut inner = Plan::<T>::builder(TransformType::Type2, &nfs)
            .iflag(self.iflag)
            .eps(self.eps)
            .opts(self.opts.clone())
            .build(&self.dev)?;
        inner.set_pts(&tau)?;
        // per-target corrections
        let n_targets = s.len();
        let mut corr = vec![1.0f64; n_targets];
        for (i, &g) in gamma.iter().enumerate().take(self.dim) {
            let h = std::f64::consts::TAU / nf.n[i] as f64;
            let alpha = w as f64 * h / 2.0;
            for (k, c) in corr.iter_mut().enumerate() {
                let ft = self.kernel.ft(alpha * g * s.coords[i][k].to_f64());
                if ft.abs() < f64::MIN_POSITIVE {
                    return Err(NufftError::BadOptions(format!(
                        "type-3 target {k} outside the resolvable band"
                    )));
                }
                *c *= (2.0 / w as f64) / ft;
            }
        }
        self.timings.sort = inner.timings().sort;
        self.timings.h2d_pts = inner.timings().h2d_pts;
        self.nf = nf;
        self.spread_method = spread_method;
        self.m_sources = m;
        self.n_targets = n_targets;
        self.corr = corr;
        self.d_x = Some(bufs);
        self.xp_host = Some(xp);
        self.inner = Some(inner);
        self.d_grid = Some(d_grid);
        Ok(())
    }

    pub fn execute(&mut self, strengths: &[Complex<T>], out: &mut [Complex<T>]) -> Result<()> {
        let bufs = self.d_x.as_ref().ok_or(NufftError::PointsNotSet)?;
        let xp = self.xp_host.as_ref().expect("points set");
        if strengths.len() != self.m_sources {
            return Err(NufftError::LengthMismatch {
                expected: self.m_sources,
                got: strengths.len(),
            });
        }
        if out.len() != self.n_targets {
            return Err(NufftError::LengthMismatch {
                expected: self.n_targets,
                got: out.len(),
            });
        }
        let prec = Precision::of::<T>();
        let nf = self.nf;
        let cb = std::mem::size_of::<Complex<T>>();
        // transfer strengths
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let trace = self.opts.trace.clone();
        let msrc = self.m_sources;
        let t0 = self.dev.clock();
        let mut d_c = with_retry(
            &dev,
            &policy,
            trace.as_ref(),
            &mut self.recovery,
            "alloc:t3_c",
            || dev.alloc("t3_c", msrc),
        )?;
        with_retry(
            &dev,
            &policy,
            trace.as_ref(),
            &mut self.recovery,
            "h2d:t3_c",
            || dev.memcpy_htod(&mut d_c, strengths),
        )?;
        self.timings.h2d_data = self.dev.clock() - t0;
        // spread on the device
        let t1 = self.dev.clock();
        let d_grid = self.d_grid.as_mut().expect("points set");
        d_grid
            .as_mut_slice()
            .iter_mut()
            .for_each(|z| *z = Complex::ZERO);
        self.dev.bulk_op("t3_memset", 0, nf.total() * cb, 0.0, prec);
        let pr = PtsRef {
            coords: [bufs[0].as_slice(), bufs[1].as_slice(), bufs[2].as_slice()],
            dim: self.dim,
        };
        match self.spread_method {
            Method::Sm => {
                let sort = gpu_bin_sort(&self.dev, xp, nf, self.bin_size);
                let subs = build_subproblems(&self.dev, &sort, self.opts.tuning.msub);
                with_retry(
                    &dev,
                    &policy,
                    trace.as_ref(),
                    &mut self.recovery,
                    "t3:spread_SM",
                    || {
                        spread_sm(
                            &dev,
                            &self.kernel,
                            nf,
                            &pr,
                            d_c.as_slice(),
                            &sort.perm,
                            &sort.layout,
                            &subs,
                            d_grid.as_mut_slice(),
                        )
                    },
                )?;
            }
            Method::GmSort => {
                let sort = gpu_bin_sort(&self.dev, xp, nf, self.bin_size);
                with_retry(
                    &dev,
                    &policy,
                    trace.as_ref(),
                    &mut self.recovery,
                    "t3:spread_GMs",
                    || {
                        spread_gm(
                            &dev,
                            "t3_spread_GMs",
                            &self.kernel,
                            nf,
                            &pr,
                            d_c.as_slice(),
                            &sort.perm,
                            d_grid.as_mut_slice(),
                            self.opts.tuning.threads_per_block,
                            1.0,
                        )
                    },
                )?;
            }
            _ => {
                let natural: Vec<u32> = (0..self.m_sources as u32).collect();
                with_retry(
                    &dev,
                    &policy,
                    trace.as_ref(),
                    &mut self.recovery,
                    "t3:spread_GM",
                    || {
                        spread_gm(
                            &dev,
                            "t3_spread_GM",
                            &self.kernel,
                            nf,
                            &pr,
                            d_c.as_slice(),
                            &natural,
                            d_grid.as_mut_slice(),
                            self.opts.tuning.threads_per_block,
                            1.0,
                        )
                    },
                )?;
            }
        }
        // centered reorder (one device pass over the grid)
        let grid = d_grid.as_slice();
        let mut centered = vec![Complex::<T>::ZERO; nf.total()];
        for l3 in 0..nf.n[2] {
            let c3 = (l3 + nf.n[2] / 2) % nf.n[2];
            for l2 in 0..nf.n[1] {
                let c2 = (l2 + nf.n[1] / 2) % nf.n[1];
                for l1 in 0..nf.n[0] {
                    let c1 = (l1 + nf.n[0] / 2) % nf.n[0];
                    centered[nf.idx(c1, c2, c3)] = grid[nf.idx(l1, l2, l3)];
                }
            }
        }
        self.dev
            .bulk_op("t3_fftshift", nf.total() * cb, nf.total() * cb, 0.0, prec);
        self.timings.spread_interp = self.dev.clock() - t1;
        // inner type 2 + correction
        let inner = self.inner.as_mut().expect("points set");
        inner.execute(&centered, out)?;
        let it = inner.timings();
        self.timings.fft = it.fft;
        self.timings.deconv = it.deconv;
        let t2 = self.dev.clock();
        for (z, &c) in out.iter_mut().zip(self.corr.iter()) {
            *z = z.scale(T::from_f64(c));
        }
        self.dev.bulk_op(
            "t3_correct",
            self.n_targets * cb,
            self.n_targets * cb,
            self.n_targets as f64 * 2.0,
            prec,
        );
        self.timings.d2h = it.d2h;
        let _ = t2;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nufft_common::c;
    use nufft_common::metrics::rel_l2;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn direct(
        x: &Points<f64>,
        cs: &[Complex<f64>],
        s: &Points<f64>,
        iflag: i32,
    ) -> Vec<Complex<f64>> {
        (0..s.len())
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &c) in cs.iter().enumerate().take(x.len()) {
                    let mut phase = 0.0;
                    for i in 0..x.dim {
                        phase += s.coord(i, k) * x.coord(i, j);
                    }
                    acc += c * Complex::cis(iflag as f64 * phase);
                }
                acc
            })
            .collect()
    }

    fn random_pts(dim: usize, n: usize, hw: f64, seed: u64) -> Points<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = [Vec::new(), Vec::new(), Vec::new()];
        for coord in coords.iter_mut().take(dim) {
            *coord = (0..n).map(|_| rng.random_range(-hw..hw)).collect();
        }
        Points { coords, dim }
    }

    #[test]
    fn gpu_type3_2d_matches_direct() {
        let eps = 1e-8;
        let x = random_pts(2, 180, 2.0, 1);
        let s = random_pts(2, 140, 10.0, 2);
        let cs: Vec<Complex<f64>> = (0..180).map(|j| c((j as f64).sin(), 0.5)).collect();
        let dev = Device::v100();
        let mut plan = GpuType3Plan::<f64>::new(2, 1, eps, GpuOpts::default(), &dev).unwrap();
        plan.set_pts(&x, &s).unwrap();
        let mut out = vec![Complex::ZERO; 140];
        plan.execute(&cs, &mut out).unwrap();
        let want = direct(&x, &cs, &s, 1);
        let err = rel_l2(&out, &want);
        assert!(err < 50.0 * eps, "err={err}");
        // timings recorded and device clock advanced
        assert!(plan.timings().spread_interp > 0.0);
        assert!(plan.timings().fft > 0.0);
    }

    #[test]
    fn gpu_type3_agrees_with_cpu_type3() {
        let eps = 1e-9;
        let x = random_pts(2, 120, 1.5, 3);
        let s = random_pts(2, 110, 8.0, 4);
        let cs: Vec<Complex<f64>> = (0..120).map(|j| c(1.0 / (j + 1) as f64, -0.25)).collect();
        let dev = Device::v100();
        let mut gp = GpuType3Plan::<f64>::new(2, -1, eps, GpuOpts::default(), &dev).unwrap();
        gp.set_pts(&x, &s).unwrap();
        let mut go = vec![Complex::ZERO; 110];
        gp.execute(&cs, &mut go).unwrap();
        let mut cp = finufft_cpu::Type3Plan::<f64>::new(2, -1, eps).unwrap();
        cp.set_pts(&x, &s, eps).unwrap();
        let mut co = vec![Complex::ZERO; 110];
        cp.execute(&cs, &mut co).unwrap();
        assert!(rel_l2(&go, &co) < 1e-10);
    }

    #[test]
    fn gpu_type3_3d_and_reuse() {
        let eps = 1e-5;
        let x = random_pts(3, 90, 1.0, 5);
        let s = random_pts(3, 80, 5.0, 6);
        let dev = Device::v100();
        let mut plan = GpuType3Plan::<f32>::new(3, 1, eps, GpuOpts::default(), &dev).unwrap();
        let x32 = Points::<f32> {
            coords: [
                x.coords[0].iter().map(|&v| v as f32).collect(),
                x.coords[1].iter().map(|&v| v as f32).collect(),
                x.coords[2].iter().map(|&v| v as f32).collect(),
            ],
            dim: 3,
        };
        let s32 = Points::<f32> {
            coords: [
                s.coords[0].iter().map(|&v| v as f32).collect(),
                s.coords[1].iter().map(|&v| v as f32).collect(),
                s.coords[2].iter().map(|&v| v as f32).collect(),
            ],
            dim: 3,
        };
        plan.set_pts(&x32, &s32).unwrap();
        for seed in [7u64, 8] {
            let mut rng = StdRng::seed_from_u64(seed);
            let cs64: Vec<Complex<f64>> = (0..90)
                .map(|_| c(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
                .collect();
            let cs: Vec<Complex<f32>> = cs64.iter().map(|z| z.cast()).collect();
            let mut out = vec![Complex::<f32>::ZERO; 80];
            plan.execute(&cs, &mut out).unwrap();
            let want = direct(&x, &cs64, &s, 1);
            assert!(rel_l2(&out, &want) < 1e-3, "seed {seed}");
        }
    }
}

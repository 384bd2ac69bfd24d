//! CUNFFT-style GPU NUFFT (Kunis & Kunis 2012), reimplemented on the
//! simulated device as the paper's input-driven baseline.
//!
//! Characteristics modeled from the real library and the paper's
//! measurements:
//!
//! * truncated **Gaussian** kernel ("fast Gaussian gridding",
//!   `-DCOM_FG_PSI=ON`) — needs roughly twice the ES kernel's width for
//!   the same accuracy, which is why CUNFFT falls behind as the
//!   tolerance tightens;
//! * **unsorted input-driven spreading** (one thread per point, user
//!   order, global atomics) — the paper's GM scheme; on clustered points
//!   its atomic traffic "essentially serializes the method" (Sec. III-A),
//!   observed as a ~200x slowdown in Fig. 6. We model the extra
//!   serialization of its atomic emulation with a CAS replay penalty
//!   calibrated to that figure;
//! * device memory is allocated at init (`cunfft_init`), so the paper
//!   could not separate "total" from "total+mem" — we therefore report
//!   only exec/total+mem-style aggregates.

use cufinufft::interp::interp_gm;
use cufinufft::plan::GpuStageTimings;
use cufinufft::spread::{spread_gm, PtsRef};
use gpu_sim::{Device, GpuBuffer, Precision};
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
use nufft_kernels::GaussianKernel;

/// Replay penalty of CUNFFT's atomic accumulation under same-sector
/// contention, calibrated to the ~200x clustered-vs-random slowdown of
/// paper Fig. 6.
pub const CUNFFT_CAS_PENALTY: f64 = 64.0;

/// A CUNFFT-style plan.
pub struct CunfftPlan<T: Real> {
    ttype: TransformType,
    modes: Shape,
    fine: Shape,
    iflag: i32,
    kernel: GaussianKernel,
    dev: Device,
    fft: gpu_fft::GpuFftPlan<T>,
    corr: [Vec<f64>; 3],
    d_grid: GpuBuffer<Complex<T>>,
    d_in: GpuBuffer<Complex<T>>,
    d_out: GpuBuffer<Complex<T>>,
    pts: Option<([GpuBuffer<T>; 3], usize, usize)>,
    timings: GpuStageTimings,
}

/// Map a device fault to the library error space. The baselines carry
/// no retry machinery: any fault surfaces immediately as a typed error.
pub(crate) fn dev_err(f: gpu_sim::DeviceFault) -> NufftError {
    match f.kind {
        gpu_sim::FaultKind::Oom {
            requested,
            available,
        } => NufftError::DeviceOom {
            requested,
            available,
        },
        _ => NufftError::DeviceFault {
            op: f.op,
            attempts: 1,
            persistent: !f.transient,
        },
    }
}

impl<T: Real> CunfftPlan<T> {
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
        let kernel = GaussianKernel::for_tolerance(eps, sigma);
        let modes = Shape::from_slice(modes);
        let fine = modes.map(|_, n| fine_grid_size(n, sigma, kernel.w));
        let corr = correction_rows(&kernel, modes, fine);
        let fft = gpu_fft::GpuFftPlan::new(fine);
        let t0 = dev.clock();
        let d_grid = dev.alloc("cunfft_grid", fine.total()).map_err(dev_err)?;
        let d_in = dev.alloc("cunfft_in", 0).map_err(dev_err)?;
        let d_out = dev.alloc("cunfft_out", 0).map_err(dev_err)?;
        let timings = GpuStageTimings {
            alloc: dev.clock() - t0,
            ..Default::default()
        };
        Ok(CunfftPlan {
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
            pts: None,
            timings,
        })
    }

    pub fn kernel(&self) -> &GaussianKernel {
        &self.kernel
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
        self.pts.as_ref().map_or(0, |p| p.1)
    }

    /// Transfer points to the device. CUNFFT does no sorting.
    pub fn set_pts(&mut self, pts: &Points<T>) -> Result<()> {
        if pts.dim != self.modes.dim {
            return Err(NufftError::BadDim(pts.dim));
        }
        let m = pts.len();
        let t0 = self.dev.clock();
        let mut bufs = [
            self.dev.alloc("cunfft_x", m).map_err(dev_err)?,
            self.dev
                .alloc("cunfft_y", if pts.dim >= 2 { m } else { 0 })
                .map_err(dev_err)?,
            self.dev
                .alloc("cunfft_z", if pts.dim >= 3 { m } else { 0 })
                .map_err(dev_err)?,
        ];
        let t_alloc = self.dev.clock() - t0;
        let t1 = self.dev.clock();
        for (buf, coords) in bufs.iter_mut().zip(&pts.coords).take(pts.dim) {
            self.dev.memcpy_htod(buf, coords).map_err(dev_err)?;
        }
        self.timings.h2d_pts = self.dev.clock() - t1;
        self.timings.alloc += t_alloc;
        self.timings.sort = 0.0; // no preprocessing
        self.pts = Some((bufs, m, pts.dim));
        Ok(())
    }

    pub fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let (bufs, m, dim) = match &self.pts {
            Some(s) => (&s.0, s.1, s.2),
            None => return Err(NufftError::PointsNotSet),
        };
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
            self.d_in = self.dev.alloc("cunfft_in", want_in).map_err(dev_err)?;
        }
        if self.d_out.len() != want_out {
            self.d_out = self.dev.alloc("cunfft_out", want_out).map_err(dev_err)?;
        }
        self.timings.alloc += self.dev.clock() - t0;
        let t1 = self.dev.clock();
        self.dev
            .memcpy_htod(&mut self.d_in, input)
            .map_err(dev_err)?;
        self.timings.h2d_data = self.dev.clock() - t1;
        let pr = PtsRef {
            coords: [bufs[0].as_slice(), bufs[1].as_slice(), bufs[2].as_slice()],
            dim,
        };
        let natural: Vec<u32> = (0..m as u32).collect();
        let dir = Direction::from_sign(self.iflag);
        match self.ttype {
            TransformType::Type1 => {
                let t = self.dev.clock();
                self.d_grid
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|z| *z = Complex::ZERO);
                self.dev
                    .bulk_op("cunfft_memset", 0, self.fine.total() * cb, 0.0, prec);
                spread_gm(
                    &self.dev,
                    "cunfft_spread",
                    &self.kernel,
                    self.fine,
                    &pr,
                    self.d_in.as_slice(),
                    &natural,
                    self.d_grid.as_mut_slice(),
                    256, // THREAD_DIM_X * THREAD_DIM_Y = 16 * 16
                    CUNFFT_CAS_PENALTY,
                )
                .map_err(dev_err)?;
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
                    .bulk_op("cunfft_deconv", n * cb, n * cb, n as f64 * 8.0, prec);
                self.timings.deconv = self.dev.clock() - t;
            }
            TransformType::Type2 => {
                let t = self.dev.clock();
                self.d_grid
                    .as_mut_slice()
                    .iter_mut()
                    .for_each(|z| *z = Complex::ZERO);
                self.dev
                    .bulk_op("cunfft_memset", 0, self.fine.total() * cb, 0.0, prec);
                to_grid(
                    &self.corr,
                    self.modes,
                    self.fine,
                    ModeOrder::Centered,
                    self.d_in.as_slice(),
                    self.d_grid.as_mut_slice(),
                );
                self.dev
                    .bulk_op("cunfft_precorrect", n * cb, n * cb, n as f64 * 8.0, prec);
                self.timings.deconv = self.dev.clock() - t;
                let t = self.dev.clock();
                self.fft.execute(&self.dev, &mut self.d_grid, dir);
                self.timings.fft = self.dev.clock() - t;
                let t = self.dev.clock();
                interp_gm(
                    &self.dev,
                    "cunfft_interp",
                    &self.kernel,
                    self.fine,
                    &pr,
                    self.d_grid.as_slice(),
                    &natural,
                    self.d_out.as_mut_slice(),
                    256,
                )
                .map_err(dev_err)?;
                self.timings.spread_interp = self.dev.clock() - t;
            }
        }
        let t2 = self.dev.clock();
        self.dev.memcpy_dtoh(output, &self.d_out).map_err(dev_err)?;
        self.timings.d2h = self.dev.clock() - t2;
        Ok(())
    }
}

/// CUNFFT has no native batching; the trait's default `execute_many`
/// loop applies.
impl<T: Real> nufft_common::NufftPlan<T> for CunfftPlan<T> {
    fn transform_type(&self) -> TransformType {
        self.ttype
    }

    fn modes(&self) -> Shape {
        self.modes
    }

    fn num_points(&self) -> usize {
        CunfftPlan::num_points(self)
    }

    fn set_points(&mut self, pts: &Points<T>) -> Result<()> {
        self.set_pts(pts)
    }

    fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        CunfftPlan::execute(self, input, output)
    }

    fn exec_time(&self) -> f64 {
        self.timings.exec()
    }

    fn total_time(&self) -> f64 {
        self.timings.total_mem()
    }

    fn backend_name(&self) -> &'static str {
        "cunfft"
    }
}

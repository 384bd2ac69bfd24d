//! The FINUFFT-style guru plan interface: plan, set points, execute
//! (repeatedly), drop. Mirrors `finufft_makeplan` / `finufft_setpts` /
//! `finufft_execute`.

use crate::deconv::correction_rows;
use crate::sort::{bin_sort, BinSort};
use crate::spread::{interp, spread};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::smooth::{fine_grid_size_with, FineSizing};
use nufft_common::spec::ModeOrder;
use nufft_common::workload::Points;
use nufft_fft::{Direction, FftNd};
use nufft_kernels::deconv::{to_grid, to_modes};
use nufft_kernels::{EsKernel, EvalKernel, Kernel1d, KernelEval};
use std::time::Instant;

pub use nufft_common::TransformType;

/// Plan options.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Upsampling factor sigma (the paper fixes 2.0).
    pub upsampfac: f64,
    /// Worker threads; 0 = autodetect.
    pub nthreads: usize,
    /// Bin size for the point sort.
    pub bin_size: [usize; 3],
    /// Disable sorting (points processed in user order).
    pub sort: bool,
    /// Fine-grid sizing policy: 5-smooth rounding (default) or exact
    /// `max(ceil(sigma*n), 2w)`, which lets prime sizes reach the
    /// Bluestein FFT path (used by the conformance harness).
    pub fine_sizing: FineSizing,
    /// Kernel-evaluation choice honored by [`Plan::new`] on the
    /// `EvalKernel`-backed plan type: exact exponential, the fitted
    /// Horner fast path, or a plan-time Auto pick gated on the measured
    /// fit error. `Plan::<T>::new` (the `EsKernel` default) always
    /// evaluates exactly and ignores this knob.
    pub kernel_eval: KernelEval,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            upsampfac: 2.0,
            nthreads: 0,
            bin_size: [16, 16, 4],
            sort: true,
            fine_sizing: FineSizing::default(),
            kernel_eval: KernelEval::Auto,
        }
    }
}

/// Wall-clock stage timings of the last `execute` / `set_pts` calls.
#[derive(Copy, Clone, Debug, Default)]
pub struct StageTimings {
    pub sort: f64,
    pub spread_interp: f64,
    pub fft: f64,
    pub deconv: f64,
}

/// A reusable CPU NUFFT plan, generic over precision and kernel.
pub struct Plan<T: Real, K: Kernel1d = EsKernel> {
    ttype: TransformType,
    modes: Shape,
    fine: Shape,
    iflag: i32,
    kernel: K,
    opts: Opts,
    nthreads: usize,
    fft: FftNd<T>,
    corr: [Vec<f64>; 3],
    pts: Option<Points<T>>,
    sort: Option<BinSort>,
    fine_grid: Vec<Complex<T>>,
    timings: StageTimings,
}

impl<T: Real> Plan<T, EsKernel> {
    /// Create a plan with the ES kernel selected from tolerance `eps`
    /// (paper eq. 6). `iflag` gives the exponential sign (+1 or -1).
    pub fn new(
        ttype: TransformType,
        modes: &[usize],
        iflag: i32,
        eps: f64,
        opts: Opts,
    ) -> Result<Self> {
        let kernel = EsKernel::for_upsampfac(eps, opts.upsampfac, T::IS_DOUBLE)?;
        Self::with_kernel(ttype, modes, iflag, kernel, opts)
    }
}

impl<T: Real> Plan<T, EvalKernel> {
    /// Create a plan that honors `opts.kernel_eval`: the ES kernel is
    /// selected from `eps` exactly as [`Plan::new`] does, then the
    /// evaluation strategy (exact exponential vs fitted Horner fast
    /// path) is resolved at plan time via [`EvalKernel::select`].
    pub fn new(
        ttype: TransformType,
        modes: &[usize],
        iflag: i32,
        eps: f64,
        opts: Opts,
    ) -> Result<Self> {
        let es = EsKernel::for_upsampfac(eps, opts.upsampfac, T::IS_DOUBLE)?;
        let kernel = EvalKernel::select(es, eps, opts.kernel_eval);
        Self::with_kernel(ttype, modes, iflag, kernel, opts)
    }
}

impl<T: Real, K: Kernel1d> Plan<T, K> {
    /// Create a plan with an explicit kernel (used by the baseline
    /// libraries and by parameter sweeps).
    pub fn with_kernel(
        ttype: TransformType,
        modes: &[usize],
        iflag: i32,
        kernel: K,
        opts: Opts,
    ) -> Result<Self> {
        if modes.is_empty() || modes.len() > 3 {
            return Err(NufftError::BadDim(modes.len()));
        }
        if modes.contains(&0) {
            return Err(NufftError::BadModes("zero-size mode dimension".into()));
        }
        if opts.upsampfac <= 1.0 || opts.upsampfac.is_nan() {
            return Err(NufftError::BadUpsampfac(opts.upsampfac));
        }
        let modes = Shape::from_slice(modes);
        let fine = modes
            .map(|_, n| fine_grid_size_with(n, opts.upsampfac, kernel.width(), opts.fine_sizing));
        let corr = correction_rows(&kernel, modes, fine);
        let fft = FftNd::new(fine);
        let nthreads = if opts.nthreads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            opts.nthreads
        };
        Ok(Plan {
            ttype,
            modes,
            fine,
            iflag: if iflag >= 0 { 1 } else { -1 },
            kernel,
            opts,
            nthreads,
            fft,
            corr,
            pts: None,
            sort: None,
            fine_grid: vec![Complex::ZERO; fine.total()],
            timings: StageTimings::default(),
        })
    }

    pub fn modes(&self) -> Shape {
        self.modes
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.fine
    }

    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    pub fn num_points(&self) -> usize {
        self.pts.as_ref().map_or(0, |p| p.len())
    }

    /// Register nonuniform points (sorts them once; subsequent `execute`
    /// calls reuse the ordering — the paper's plan-reuse use case).
    pub fn set_pts(&mut self, pts: Points<T>) -> Result<()> {
        if pts.dim != self.modes.dim {
            return Err(NufftError::BadDim(pts.dim));
        }
        for i in 0..pts.dim {
            for (j, &v) in pts.coords[i].iter().enumerate() {
                if !v.is_finite() {
                    return Err(NufftError::BadPoint {
                        index: j,
                        value: v.to_f64(),
                    });
                }
            }
            if pts.coords[i].len() != pts.len() {
                return Err(NufftError::LengthMismatch {
                    expected: pts.len(),
                    got: pts.coords[i].len(),
                });
            }
        }
        let t0 = Instant::now();
        self.sort = if self.opts.sort {
            Some(bin_sort(&pts, self.fine, self.opts.bin_size))
        } else {
            None
        };
        self.timings.sort = t0.elapsed().as_secs_f64();
        self.pts = Some(pts);
        Ok(())
    }

    /// Run the transform. For type 1, `input` holds M strengths and
    /// `output` N1*...*Nd coefficients (k1 fastest, ascending frequency);
    /// for type 2 the roles are swapped.
    pub fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let pts = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        let m = pts.len();
        let n = self.modes.total();
        let (want_in, want_out) = match self.ttype {
            TransformType::Type1 => (m, n),
            TransformType::Type2 => (n, m),
        };
        if input.len() != want_in {
            return Err(NufftError::LengthMismatch {
                expected: want_in,
                got: input.len(),
            });
        }
        if output.len() != want_out {
            return Err(NufftError::LengthMismatch {
                expected: want_out,
                got: output.len(),
            });
        }
        let dir = Direction::from_sign(self.iflag);
        let identity: Vec<u32>;
        let order: &[u32] = match &self.sort {
            Some(s) => &s.perm,
            None => {
                identity = (0..m as u32).collect();
                &identity
            }
        };
        // move the workhorse grid out so the borrow checker can see that
        // the plan's metadata stays immutable while it is mutated
        let mut grid = std::mem::take(&mut self.fine_grid);
        let mut timings = self.timings;
        match self.ttype {
            TransformType::Type1 => {
                let t0 = Instant::now();
                grid.iter_mut().for_each(|z| *z = Complex::ZERO);
                spread(
                    &self.kernel,
                    self.fine,
                    pts,
                    input,
                    order,
                    &mut grid,
                    self.nthreads,
                );
                timings.spread_interp = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                self.fft.process(&mut grid, dir);
                timings.fft = t1.elapsed().as_secs_f64();
                let t2 = Instant::now();
                to_modes(
                    &self.corr,
                    self.modes,
                    self.fine,
                    ModeOrder::Centered,
                    &grid,
                    output,
                );
                timings.deconv = t2.elapsed().as_secs_f64();
            }
            TransformType::Type2 => {
                let t0 = Instant::now();
                grid.iter_mut().for_each(|z| *z = Complex::ZERO);
                to_grid(
                    &self.corr,
                    self.modes,
                    self.fine,
                    ModeOrder::Centered,
                    input,
                    &mut grid,
                );
                timings.deconv = t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                self.fft.process(&mut grid, dir);
                timings.fft = t1.elapsed().as_secs_f64();
                let t2 = Instant::now();
                interp(
                    &self.kernel,
                    self.fine,
                    pts,
                    &grid,
                    order,
                    output,
                    self.nthreads,
                );
                timings.spread_interp = t2.elapsed().as_secs_f64();
            }
        }
        self.fine_grid = grid;
        self.timings = timings;
        Ok(())
    }

    /// Execute `B` stacked transforms sharing the registered points,
    /// with `B` inferred from `input.len()` (vectors concatenated): the
    /// CPU analogue of cuFINUFFT's `ntransf` batching. The sort and the
    /// workhorse grid are reused across the batch; stage timings
    /// accumulate over all vectors.
    pub fn execute_many(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let m = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?.len();
        let n = self.modes.total();
        let (in_per, out_per) = match self.ttype {
            TransformType::Type1 => (m, n),
            TransformType::Type2 => (n, m),
        };
        if in_per == 0 {
            return Err(NufftError::BadOptions(
                "execute_many cannot infer the batch size from empty transforms".into(),
            ));
        }
        if input.is_empty() || !input.len().is_multiple_of(in_per) {
            return Err(NufftError::LengthMismatch {
                expected: in_per,
                got: input.len(),
            });
        }
        let b = input.len() / in_per;
        if output.len() != out_per * b {
            return Err(NufftError::LengthMismatch {
                expected: out_per * b,
                got: output.len(),
            });
        }
        let mut acc = StageTimings {
            sort: self.timings.sort,
            ..Default::default()
        };
        for t in 0..b {
            self.execute(
                &input[t * in_per..(t + 1) * in_per],
                &mut output[t * out_per..(t + 1) * out_per],
            )?;
            acc.spread_interp += self.timings.spread_interp;
            acc.fft += self.timings.fft;
            acc.deconv += self.timings.deconv;
        }
        self.timings = acc;
        Ok(())
    }
}

impl<T: Real, K: Kernel1d> nufft_common::NufftPlan<T> for Plan<T, K> {
    fn transform_type(&self) -> TransformType {
        self.ttype
    }

    fn modes(&self) -> Shape {
        self.modes
    }

    fn num_points(&self) -> usize {
        Plan::num_points(self)
    }

    fn set_points(&mut self, pts: &Points<T>) -> Result<()> {
        // the CPU plan takes ownership of the coordinate arrays
        self.set_pts(pts.clone())
    }

    fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        Plan::execute(self, input, output)
    }

    fn execute_many(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        Plan::execute_many(self, input, output)
    }

    fn exec_time(&self) -> f64 {
        self.timings.spread_interp + self.timings.fft + self.timings.deconv
    }

    fn total_time(&self) -> f64 {
        self.timings.sort + self.exec_time()
    }

    fn backend_name(&self) -> &'static str {
        "finufft-cpu"
    }
}

/// One-shot 2D type 1 transform (convenience wrapper).
pub fn nufft2d1<T: Real>(
    x: &[T],
    y: &[T],
    strengths: &[Complex<T>],
    iflag: i32,
    eps: f64,
    n1: usize,
    n2: usize,
) -> Result<Vec<Complex<T>>> {
    let mut plan = Plan::<T>::new(TransformType::Type1, &[n1, n2], iflag, eps, Opts::default())?;
    plan.set_pts(Points {
        coords: [x.to_vec(), y.to_vec(), Vec::new()],
        dim: 2,
    })?;
    let mut out = vec![Complex::ZERO; n1 * n2];
    plan.execute(strengths, &mut out)?;
    Ok(out)
}

/// One-shot 2D type 2 transform.
pub fn nufft2d2<T: Real>(
    x: &[T],
    y: &[T],
    coeffs: &[Complex<T>],
    iflag: i32,
    eps: f64,
    n1: usize,
    n2: usize,
) -> Result<Vec<Complex<T>>> {
    let mut plan = Plan::<T>::new(TransformType::Type2, &[n1, n2], iflag, eps, Opts::default())?;
    plan.set_pts(Points {
        coords: [x.to_vec(), y.to_vec(), Vec::new()],
        dim: 2,
    })?;
    let mut out = vec![Complex::ZERO; x.len()];
    plan.execute(coeffs, &mut out)?;
    Ok(out)
}

/// One-shot 3D type 1 transform.
#[allow(clippy::too_many_arguments)]
pub fn nufft3d1<T: Real>(
    x: &[T],
    y: &[T],
    z: &[T],
    strengths: &[Complex<T>],
    iflag: i32,
    eps: f64,
    n1: usize,
    n2: usize,
    n3: usize,
) -> Result<Vec<Complex<T>>> {
    let mut plan = Plan::<T>::new(
        TransformType::Type1,
        &[n1, n2, n3],
        iflag,
        eps,
        Opts::default(),
    )?;
    plan.set_pts(Points {
        coords: [x.to_vec(), y.to_vec(), z.to_vec()],
        dim: 3,
    })?;
    let mut out = vec![Complex::ZERO; n1 * n2 * n3];
    plan.execute(strengths, &mut out)?;
    Ok(out)
}

/// One-shot 3D type 2 transform.
#[allow(clippy::too_many_arguments)]
pub fn nufft3d2<T: Real>(
    x: &[T],
    y: &[T],
    z: &[T],
    coeffs: &[Complex<T>],
    iflag: i32,
    eps: f64,
    n1: usize,
    n2: usize,
    n3: usize,
) -> Result<Vec<Complex<T>>> {
    let mut plan = Plan::<T>::new(
        TransformType::Type2,
        &[n1, n2, n3],
        iflag,
        eps,
        Opts::default(),
    )?;
    plan.set_pts(Points {
        coords: [x.to_vec(), y.to_vec(), z.to_vec()],
        dim: 3,
    })?;
    let mut out = vec![Complex::ZERO; x.len()];
    plan.execute(coeffs, &mut out)?;
    Ok(out)
}

/// One-shot 1D type 1 (a FINUFFT feature the paper lists as cuFINUFFT
/// future work; provided here for completeness).
pub fn nufft1d1<T: Real>(
    x: &[T],
    strengths: &[Complex<T>],
    iflag: i32,
    eps: f64,
    n1: usize,
) -> Result<Vec<Complex<T>>> {
    let mut plan = Plan::<T>::new(TransformType::Type1, &[n1], iflag, eps, Opts::default())?;
    plan.set_pts(Points {
        coords: [x.to_vec(), Vec::new(), Vec::new()],
        dim: 1,
    })?;
    let mut out = vec![Complex::ZERO; n1];
    plan.execute(strengths, &mut out)?;
    Ok(out)
}

/// One-shot 1D type 2.
pub fn nufft1d2<T: Real>(
    x: &[T],
    coeffs: &[Complex<T>],
    iflag: i32,
    eps: f64,
    n1: usize,
) -> Result<Vec<Complex<T>>> {
    let mut plan = Plan::<T>::new(TransformType::Type2, &[n1], iflag, eps, Opts::default())?;
    plan.set_pts(Points {
        coords: [x.to_vec(), Vec::new(), Vec::new()],
        dim: 1,
    })?;
    let mut out = vec![Complex::ZERO; x.len()];
    plan.execute(coeffs, &mut out)?;
    Ok(out)
}

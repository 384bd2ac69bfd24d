//! The cuFINUFFT plan: "plan, setpts, execute, destroy" on the simulated
//! GPU, mirroring `cufinufft_makeplan` / `cufinufft_setpts` /
//! `cufinufft_execute` / `cufinufft_destroy` (destroy = `Drop`).

use crate::access_plan::PlanGeometry;
use crate::bins::{build_subproblems, gpu_bin_sort, GpuBinSort, Subproblem};
use crate::interp::interp_batch;
use crate::opts::{GpuOpts, Method, ModeOrder, Tuning};
use crate::recovery::{with_retry, RecoveryReport};
use crate::spread::{spread_batch, PricedLaunches, PtsRef, SpreadInputs};
use gpu_sim::{
    Device, DeviceFault, GpuBuffer, HazardMode, HazardReport, Lane, Precision, Trace, TraceReport,
};
use nufft_common::complex::Complex;
use nufft_common::error::{NufftError, Result};
use nufft_common::real::Real;
use nufft_common::shape::Shape;
use nufft_common::smooth::FineSizing;
use nufft_common::spec::{Precision as SpecPrecision, TransformSpec};
use nufft_common::workload::Points;
use nufft_common::TransformType;
use nufft_fft::Direction;
use nufft_kernels::deconv::{correction_rows, to_grid, to_modes};
use nufft_kernels::{EsKernel, EvalKernel};

/// Lowercase metric tag for a (resolved) spread method, used to key the
/// per-stage duration histograms (`stage.<stage>.<method>`).
fn method_tag(m: Method) -> &'static str {
    match m {
        Method::Auto => "auto",
        Method::Gm => "gm",
        Method::GmSort => "gm_sort",
        Method::Sm => "sm",
    }
}

/// Simulated-device time spent in each stage (seconds). The aggregates
/// match the paper's reporting:
/// * "exec" = spread/interp + FFT + deconvolution (re-usable transform);
/// * "total" = exec + point preprocessing (sort, subproblem setup);
/// * "total+mem" = total + allocation + all host-device transfers.
///
/// Batched executions ([`Plan::execute_many`]) accumulate the per-vector
/// stages over all transforms and additionally report the pipelined wall
/// time of the data-movement + compute region (`pipe_wall`), which is
/// shorter than the serial sum whenever transfers hid under compute.
#[derive(Copy, Clone, Debug, Default)]
pub struct GpuStageTimings {
    pub alloc: f64,
    pub h2d_pts: f64,
    pub sort: f64,
    pub h2d_data: f64,
    pub spread_interp: f64,
    pub fft: f64,
    pub deconv: f64,
    pub d2h: f64,
    /// Number of transforms covered by the most recent execution (1 for
    /// a plain `execute`; B for `execute_many`).
    pub batches: usize,
    /// Stream-scheduled wall time of the per-vector H2D -> spread/FFT/
    /// deconv -> D2H region. Zero when the execution was serial.
    pub pipe_wall: f64,
}

impl GpuStageTimings {
    pub fn exec(&self) -> f64 {
        self.spread_interp + self.fft + self.deconv
    }

    pub fn total(&self) -> f64 {
        self.exec() + self.sort
    }

    /// Serial cost of the per-vector region: what the same work costs on
    /// one stream with no overlap.
    pub fn batch_serial(&self) -> f64 {
        self.h2d_data + self.exec() + self.d2h
    }

    /// End-to-end cost including setup, allocation, and host-device
    /// transfers. For pipelined batches the transfer/compute region is
    /// priced at its overlapped wall time rather than the serial sum.
    pub fn total_mem(&self) -> f64 {
        let region = if self.pipe_wall > 0.0 {
            self.pipe_wall
        } else {
            self.batch_serial()
        };
        self.sort + self.alloc + self.h2d_pts + region
    }

    /// Time hidden by transfer/compute overlap in the last execution
    /// (zero for serial executions).
    pub fn overlap_saving(&self) -> f64 {
        if self.pipe_wall > 0.0 {
            (self.batch_serial() - self.pipe_wall).max(0.0)
        } else {
            0.0
        }
    }

    /// Average exec-stage time per transform in the batch.
    pub fn per_transform_exec(&self) -> f64 {
        self.exec() / self.batches.max(1) as f64
    }
}

/// Per-chunk detail of one [`Plan::execute_many`] call. Times are
/// relative to the start of the pipelined region.
#[derive(Copy, Clone, Debug, Default)]
pub struct ChunkTiming {
    /// Transforms in this chunk.
    pub ntransf: usize,
    /// Serial durations of the chunk's three pipeline stages.
    pub h2d: f64,
    pub exec: f64,
    pub d2h: f64,
    /// Scheduled start of the chunk's H2D (relative seconds).
    pub start: f64,
    /// Scheduled completion of the chunk's D2H (relative seconds).
    pub done: f64,
}

/// Batch-level report of the most recent [`Plan::execute_many`]:
/// per-chunk schedules plus the serial-vs-pipelined totals.
#[derive(Clone, Debug, Default)]
pub struct BatchTimings {
    pub chunks: Vec<ChunkTiming>,
    /// Sum of all stage durations (one-stream cost).
    pub serial: f64,
    /// Overlapped wall time of the whole region.
    pub wall: f64,
}

impl BatchTimings {
    /// Time hidden by the two-stream pipeline.
    pub fn saving(&self) -> f64 {
        (self.serial - self.wall).max(0.0)
    }
}

struct PtsState<T: Real> {
    bufs: [GpuBuffer<T>; 3],
    m: usize,
    dim: usize,
    /// Bin sort (present for GM-sort and SM; absent for plain GM).
    sort: Option<GpuBinSort>,
    /// SM subproblem list (empty unless the SM method is active).
    subproblems: Vec<Subproblem>,
    /// Spread launch reports priced on these points (filled by the first
    /// execute after `set_pts`, replayed by later ones).
    priced: PricedLaunches,
}

impl<T: Real> PtsState<T> {
    /// Borrowed view handed to the spread/interp dispatchers
    /// ([`spread_batch`] / [`interp_batch`]), so those can live next to
    /// the kernels while the plan keeps ownership of the buffers.
    fn inputs(&self) -> SpreadInputs<'_, T> {
        SpreadInputs {
            pts: PtsRef {
                coords: [
                    self.bufs[0].as_slice(),
                    self.bufs[1].as_slice(),
                    self.bufs[2].as_slice(),
                ],
                dim: self.dim,
            },
            sort_perm: self.sort.as_ref().map(|s| s.perm.as_slice()),
            layout: self.sort.as_ref().map(|s| &s.layout),
            subproblems: &self.subproblems,
            priced: &self.priced,
        }
    }
}

/// The single-transform device buffers. A call that runs a stage body
/// moves them out of the plan for its duration ([`Plan::with_io`]), the
/// way `execute_many` moves the batch set out, so the body can borrow
/// the plan immutably while it writes them.
struct IoBufs<T: Real> {
    d_in: GpuBuffer<Complex<T>>,
    d_grid: GpuBuffer<Complex<T>>,
    d_out: GpuBuffer<Complex<T>>,
}

/// A cuFINUFFT plan bound to a device.
pub struct Plan<T: Real> {
    ttype: TransformType,
    modes: Shape,
    /// Launch geometry derived at build time: kernel, fine grid, bin
    /// size, Remark-2 budget and resolved spreading method.
    geom: PlanGeometry,
    iflag: i32,
    /// Kernel evaluator the spread/interp hot paths run with: the exact
    /// ES kernel or its Horner/Chebyshev fast path, resolved once at
    /// plan time from `Tuning::kernel_eval` (see DESIGN.md §5l).
    eval_kernel: EvalKernel,
    opts: GpuOpts,
    /// Declared batch width (builder hint); `execute_many` accepts any
    /// width, but declaring it up front pre-sizes the batch grid.
    ntransf: usize,
    dev: Device,
    fft: gpu_fft::GpuFftPlan<T>,
    corr: [Vec<f64>; 3],
    /// Present except while a call has lent it out.
    io: Option<IoBufs<T>>,
    /// Chunk-sized staging buffers for `execute_many`, allocated lazily
    /// (or up front when the builder declares `ntransf > 1`).
    d_in_batch: Option<GpuBuffer<Complex<T>>>,
    d_grid_batch: Option<GpuBuffer<Complex<T>>>,
    d_out_batch: Option<GpuBuffer<Complex<T>>>,
    pts: Option<PtsState<T>>,
    timings: GpuStageTimings,
    batch: BatchTimings,
    recovery: RecoveryReport,
    /// Sticky chunk-size override installed by OOM-driven shrinking, so
    /// later batches skip the doomed allocation sizes.
    shrunk_chunk: Option<usize>,
}

/// Fluent constructor for [`Plan`]: transform type and mode dimensions
/// are mandatory, everything else has a sensible default.
///
/// ```ignore
/// let plan = Plan::<f32>::builder(TransformType::Type1, &[64, 64])
///     .eps(1e-5)
///     .iflag(-1)
///     .method(Method::Sm)
///     .ntransf(8)
///     .build(&dev)?;
/// ```
pub struct PlanBuilder<T: Real> {
    ttype: TransformType,
    modes: Vec<usize>,
    eps: f64,
    iflag: i32,
    opts: GpuOpts,
    ntransf: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Real> PlanBuilder<T> {
    /// Build a plan from a canonical [`TransformSpec`] — the same value
    /// the serving layer uses as its request API and plan-cache key, so
    /// "what was requested" and "what the plan computes" cannot drift
    /// apart. The spec is validated here and its precision must match
    /// `T`; tuning and operational knobs (tracing, recovery, ...) stay
    /// at their defaults and can still be set fluently afterwards.
    ///
    /// ```ignore
    /// let spec = TransformSpec::type1(&[64, 64]).eps(1e-5).precision(Precision::F32);
    /// let plan = PlanBuilder::<f32>::from_spec(&spec)?.tuning(tuning).build(&dev)?;
    /// ```
    pub fn from_spec(spec: &TransformSpec) -> Result<Self> {
        spec.validate()?;
        if !spec.matches_precision::<T>() {
            return Err(NufftError::BadSpec(format!(
                "spec requests {} but the plan is being built for {}",
                spec.precision,
                SpecPrecision::of::<T>(),
            )));
        }
        Ok(Self::new(spec.ttype, &spec.modes)
            .eps(spec.eps)
            .iflag(spec.iflag)
            .method(spec.method)
            .modeord(spec.modeord)
            .fine_sizing(spec.fine_sizing))
    }

    fn new(ttype: TransformType, modes: &[usize]) -> Self {
        PlanBuilder {
            ttype,
            modes: modes.to_vec(),
            eps: 1e-6,
            // the conventional sign: type 1 accumulates with e^{-ikx},
            // type 2 evaluates with e^{+ikx}
            iflag: match ttype {
                TransformType::Type1 => -1,
                TransformType::Type2 => 1,
            },
            opts: GpuOpts::default(),
            ntransf: 1,
            _marker: std::marker::PhantomData,
        }
    }

    /// Requested tolerance (default `1e-6`).
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sign of the imaginary unit in the exponential (normalized to ±1).
    pub fn iflag(mut self, iflag: i32) -> Self {
        self.iflag = iflag;
        self
    }

    /// Replace the whole option block at once.
    pub fn opts(mut self, opts: GpuOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Spreading method (default [`Method::Auto`]).
    pub fn method(mut self, method: Method) -> Self {
        self.opts.method = method;
        self
    }

    /// Output mode ordering (default [`ModeOrder::Centered`]).
    pub fn modeord(mut self, modeord: ModeOrder) -> Self {
        self.opts.modeord = modeord;
        self
    }

    /// Replace the whole tuning block at once (see [`Tuning`]); the
    /// per-knob setters below are thin shims over its fields.
    pub fn tuning(mut self, tuning: Tuning) -> Self {
        self.opts.tuning = tuning;
        self
    }

    /// Override the bin size used for sorting and SM subproblems.
    pub fn bin_size(mut self, bin_size: [usize; 3]) -> Self {
        self.opts.tuning.bin_size = Some(bin_size);
        self
    }

    /// Maximum points per SM subproblem.
    pub fn msub(mut self, msub: usize) -> Self {
        self.opts.tuning.msub = msub;
        self
    }

    /// Kernel-evaluation choice for the spread/interp hot paths (exact
    /// exponential vs the fitted Horner fast path; default Auto).
    pub fn kernel_eval(mut self, ke: crate::opts::KernelEval) -> Self {
        self.opts.tuning.kernel_eval = ke;
        self
    }

    /// Upsampling factor sigma (default 2.0).
    pub fn upsampfac(mut self, upsampfac: f64) -> Self {
        self.opts.tuning.upsampfac = upsampfac;
        self
    }

    /// Fine-grid sizing policy (default [`FineSizing::Smooth`], the
    /// paper's 5-smooth rounding). [`FineSizing::Exact`] keeps
    /// `max(ceil(sigma*n), 2w)` exactly, routing prime sizes through the
    /// Bluestein FFT; the conformance harness uses this.
    pub fn fine_sizing(mut self, sizing: FineSizing) -> Self {
        self.opts.fine_sizing = sizing;
        self
    }

    /// Threads per block for GM kernels.
    pub fn threads_per_block(mut self, threads: usize) -> Self {
        self.opts.tuning.threads_per_block = threads;
        self
    }

    /// Shared-memory budget per block (bytes).
    pub fn shared_mem_budget(mut self, bytes: usize) -> Self {
        self.opts.tuning.shared_mem_budget = bytes;
        self
    }

    /// Expected number of stacked transforms per `execute_many` call
    /// (default 1). Declaring it pre-sizes the batch fine grid.
    pub fn ntransf(mut self, ntransf: usize) -> Self {
        self.ntransf = ntransf.max(1);
        self
    }

    /// Cap on transforms per pipelined chunk (0 = choose automatically).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.opts.max_batch = max_batch;
        self
    }

    /// Record plan lifecycle spans, device events, and load-balance
    /// counters into `trace` (see [`Plan::trace_report`]).
    pub fn tracing(mut self, trace: &Trace) -> Self {
        self.opts.trace = Some(trace.clone());
        self
    }

    /// Fault-recovery policy: bounded retry of transient device faults,
    /// OOM-driven chunk shrinking, and opt-in SM method fallback (see
    /// [`crate::RecoveryPolicy`]; `RecoveryPolicy::none()` restores
    /// fail-fast behavior).
    pub fn recovery(mut self, policy: crate::RecoveryPolicy) -> Self {
        self.opts.recovery = policy;
        self
    }

    /// Race / access-contract checking mode (default
    /// [`HazardMode::Off`]). Under [`HazardMode::Check`] every
    /// instrumented kernel launched by this plan records a shadow
    /// access trace and the device's happens-before checker runs over
    /// it; collect the findings with [`Plan::hazard_findings`].
    pub fn hazard(mut self, mode: HazardMode) -> Self {
        self.opts.hazard = mode;
        self
    }

    /// Validate the options and build the plan.
    pub fn build(self, dev: &Device) -> Result<Plan<T>> {
        self.opts.validate()?;
        let mut plan = Plan::build_impl(
            self.ttype,
            &self.modes,
            self.iflag,
            self.eps,
            self.opts,
            dev,
        )?;
        plan.ntransf = self.ntransf;
        if self.ntransf > 1 {
            // pre-size the batched fine grid so the first execute_many
            // pays no allocation inside the pipelined region
            let chunk = plan.chunk_size(self.ntransf);
            let policy = plan.opts.recovery;
            let trace = plan.opts.trace.clone();
            let nf = plan.geom.fine.total();
            let t0 = dev.clock();
            let mut rec = std::mem::take(&mut plan.recovery);
            let res = with_retry(
                dev,
                &policy,
                trace.as_ref(),
                &mut rec,
                "alloc:fine_grid_batch",
                || dev.alloc("fine_grid_batch", nf * chunk),
            );
            plan.recovery = rec;
            match res {
                Ok(buf) => plan.d_grid_batch = Some(buf),
                // leave the batch grid unallocated: execute_many's
                // shrink loop will find a chunk size that fits
                Err(NufftError::DeviceOom { .. }) if policy.min_chunk > 0 => {
                    plan.recovery
                        .events
                        .push("pre-size OOM: deferring batch grid to execute_many".into());
                }
                Err(e) => return Err(e),
            }
            plan.timings.alloc += dev.clock() - t0;
        }
        Ok(plan)
    }
}

impl<T: Real> Plan<T> {
    /// Start building a plan; see [`PlanBuilder`].
    pub fn builder(ttype: TransformType, modes: &[usize]) -> PlanBuilder<T> {
        PlanBuilder::new(ttype, modes)
    }

    /// Build a plan directly from a canonical [`TransformSpec`] with
    /// default tuning; shorthand for
    /// [`PlanBuilder::from_spec`]`(spec)?.build(dev)`.
    pub fn from_spec(spec: &TransformSpec, dev: &Device) -> Result<Self> {
        PlanBuilder::from_spec(spec)?.build(dev)
    }

    /// Create a plan (cufinufft_makeplan). Fine-grid sizing, kernel
    /// selection and correction factors follow Sec. II; the spreading
    /// method is resolved per Sec. III / Remark 2.
    fn build_impl(
        ttype: TransformType,
        modes: &[usize],
        iflag: i32,
        eps: f64,
        opts: GpuOpts,
        dev: &Device,
    ) -> Result<Self> {
        let trace = opts.trace.clone();
        if let Some(t) = &trace {
            dev.attach_trace(t);
        }
        dev.set_hazard_mode(opts.hazard);
        let _on = trace.as_ref().map(|t| t.activate());
        let _span = trace.as_ref().map(|t| {
            t.span_with(
                "plan.build",
                &[
                    ("ttype", format!("{ttype:?}")),
                    ("dim", modes.len().to_string()),
                    ("eps", format!("{eps:e}")),
                ],
            )
        });
        if modes.is_empty() || modes.len() > 3 {
            return Err(NufftError::BadDim(modes.len()));
        }
        if modes.contains(&0) {
            return Err(NufftError::BadModes("zero-size mode dimension".into()));
        }
        let modes = Shape::from_slice(modes);
        let mut recovery = RecoveryReport::default();
        let geom = PlanGeometry::derive(
            modes,
            eps,
            SpecPrecision::of::<T>(),
            &opts,
            dev.props().shared_mem_per_block,
            &mut recovery,
        )?;
        // Resolve the kernel evaluator once: under Auto, fit the Horner
        // table and keep it iff the measured fit error spends at most 10%
        // of the plan's error budget (exact-exp fallback otherwise).
        let eval_kernel = EvalKernel::select(geom.kernel, eps, opts.tuning.kernel_eval);
        let corr = correction_rows(&geom.kernel, modes, geom.fine);
        let fft = gpu_fft::GpuFftPlan::new(geom.fine);
        let policy = opts.recovery;
        let t0 = dev.clock();
        let d_grid = with_retry(
            dev,
            &policy,
            trace.as_ref(),
            &mut recovery,
            "alloc:fine_grid",
            || dev.alloc("fine_grid", geom.fine.total()),
        )?;
        let d_in = with_retry(
            dev,
            &policy,
            trace.as_ref(),
            &mut recovery,
            "alloc:in",
            || dev.alloc("in", 0),
        )?;
        let d_out = with_retry(
            dev,
            &policy,
            trace.as_ref(),
            &mut recovery,
            "alloc:out",
            || dev.alloc("out", 0),
        )?;
        let timings = GpuStageTimings {
            alloc: dev.clock() - t0,
            ..Default::default()
        };
        Ok(Plan {
            ttype,
            modes,
            geom,
            iflag: if iflag >= 0 { 1 } else { -1 },
            eval_kernel,
            opts,
            ntransf: 1,
            dev: dev.clone(),
            fft,
            corr,
            io: Some(IoBufs {
                d_in,
                d_grid,
                d_out,
            }),
            d_in_batch: None,
            d_grid_batch: None,
            d_out_batch: None,
            pts: None,
            timings,
            batch: BatchTimings::default(),
            recovery,
            shrunk_chunk: None,
        })
    }

    /// Transforms per pipelined chunk for a batch of `b`: the explicit
    /// `max_batch` option if set, else roughly a quarter of the batch so
    /// the two-stream pipeline has several chunks to overlap.
    fn chunk_size(&self, b: usize) -> usize {
        if self.opts.max_batch > 0 {
            self.opts.max_batch.min(b).max(1)
        } else {
            b.div_ceil(4).max(1)
        }
    }

    pub fn modes(&self) -> Shape {
        self.modes
    }

    /// Which transform this plan computes.
    pub fn transform_type(&self) -> TransformType {
        self.ttype
    }

    /// The launch geometry derived at build time; equal to what
    /// [`PlanGeometry::from_spec`] derives for the same spec, tuning and
    /// device.
    pub fn geometry(&self) -> &PlanGeometry {
        &self.geom
    }

    pub fn fine_grid_shape(&self) -> Shape {
        self.geom.fine
    }

    pub fn kernel(&self) -> &EsKernel {
        &self.geom.kernel
    }

    /// The kernel evaluator the hot paths run with (exact vs the fitted
    /// Horner fast path; resolved at plan time from `Tuning::kernel_eval`).
    pub fn eval_kernel(&self) -> &EvalKernel {
        &self.eval_kernel
    }

    /// The spreading method actually in use for type-1 transforms.
    pub fn spread_method(&self) -> Method {
        self.geom.method
    }

    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// Per-stage simulated timings accumulated by the most recent
    /// `set_pts` + `execute` pair.
    pub fn timings(&self) -> GpuStageTimings {
        self.timings
    }

    /// Per-chunk schedule of the most recent [`Plan::execute_many`]
    /// (empty before the first batched execution).
    pub fn batch_timings(&self) -> &BatchTimings {
        &self.batch
    }

    /// Batch width declared at build time (1 unless the builder's
    /// `ntransf` was used).
    pub fn ntransf(&self) -> usize {
        self.ntransf
    }

    /// Snapshot of the plan's tracing session: lifecycle spans, device
    /// timeline events, and load-balance counters. `None` when the plan
    /// was built without [`PlanBuilder::tracing`] /
    /// [`GpuOpts::with_tracing`].
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.opts.trace.as_ref().map(|t| t.report())
    }

    /// What the recovery layer did over this plan's lifetime so far:
    /// method fallbacks, retries, OOM-driven chunk shrinks, and a
    /// human-readable event log (see [`RecoveryReport`]).
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Everything the race / contract checker has found on this plan's
    /// device so far: one [`gpu_sim::KernelHazardReport`] per checked
    /// launch. Empty (and vacuously clean) unless the plan was built
    /// with [`PlanBuilder::hazard`]`(HazardMode::Check)` /
    /// [`GpuOpts::with_hazard_checking`].
    pub fn hazard_findings(&self) -> HazardReport {
        self.dev.hazard_findings()
    }

    /// Record a stage-level span (simulated clock, plan lane) covering
    /// `start`..now, and feed the stage's duration into a per-method
    /// histogram (`stage.spread.sm`, `stage.fft.gm_sort`, …) so the
    /// trace report exposes per-stage quantiles split by spread method.
    fn stage_span(&self, name: &str, start: f64) {
        if let Some(t) = &self.opts.trace {
            let method = method_tag(self.geom.method);
            let dur = self.dev.clock() - start;
            t.device_span(
                Lane::Plan,
                name,
                "stage",
                start,
                dur,
                &[("method", method.to_string())],
            );
            t.histogram(&format!("{name}.{method}")).observe(dur);
        }
    }

    pub fn num_points(&self) -> usize {
        self.pts.as_ref().map_or(0, |p| p.m)
    }

    /// Register nonuniform points (cufinufft_setpts): transfer to the
    /// device, bin-sort, and build SM subproblems if applicable.
    pub fn set_pts(&mut self, pts: &Points<T>) -> Result<()> {
        let mut rec = std::mem::take(&mut self.recovery);
        let r = self.set_pts_impl(pts, &mut rec);
        self.recovery = rec;
        r
    }

    fn set_pts_impl(&mut self, pts: &Points<T>, rec: &mut RecoveryReport) -> Result<()> {
        if pts.dim != self.modes.dim {
            return Err(NufftError::BadDim(pts.dim));
        }
        let m = pts.len();
        for i in 0..pts.dim {
            if pts.coords[i].len() != m {
                return Err(NufftError::LengthMismatch {
                    expected: m,
                    got: pts.coords[i].len(),
                });
            }
            for (j, &v) in pts.coords[i].iter().enumerate() {
                if !v.is_finite() {
                    return Err(NufftError::BadPoint {
                        index: j,
                        value: v.to_f64(),
                    });
                }
            }
        }
        let trace = self.opts.trace.clone();
        let _on = trace.as_ref().map(|t| t.activate());
        let _span = trace.as_ref().map(|t| {
            t.span_with(
                "plan.setpts",
                &[("m", m.to_string()), ("dim", pts.dim.to_string())],
            )
        });
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let t0 = self.dev.clock();
        let my = if pts.dim >= 2 { m } else { 0 };
        let mz = if pts.dim >= 3 { m } else { 0 };
        let mut bufs = [
            with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:pts_x", || {
                dev.alloc("pts_x", m)
            })?,
            with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:pts_y", || {
                dev.alloc("pts_y", my)
            })?,
            with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:pts_z", || {
                dev.alloc("pts_z", mz)
            })?,
        ];
        let t_alloc = self.dev.clock() - t0;
        let t1 = self.dev.clock();
        for (buf, coords) in bufs.iter_mut().zip(&pts.coords).take(pts.dim) {
            with_retry(&dev, &policy, trace.as_ref(), rec, "h2d:pts", || {
                dev.memcpy_htod(buf, coords)
            })?;
        }
        let t_h2d = self.dev.clock() - t1;
        let t2 = self.dev.clock();
        // GM works in user point order for both transform types; every
        // other method wants the bin sort
        let needs_sort = self.geom.method != Method::Gm;
        let sort =
            needs_sort.then(|| gpu_bin_sort(&self.dev, pts, self.geom.fine, self.geom.bin_size));
        let subproblems = if self.ttype == TransformType::Type1 && self.geom.method == Method::Sm {
            build_subproblems(
                &self.dev,
                sort.as_ref().expect("SM requires sorting"),
                self.opts.tuning.msub,
            )
        } else {
            Vec::new()
        };
        let t_sort = self.dev.clock() - t2;
        if t_sort > 0.0 {
            self.stage_span("stage.sort", t2);
        }
        self.timings.alloc += t_alloc;
        self.timings.h2d_pts = t_h2d;
        self.timings.sort = t_sort;
        self.pts = Some(PtsState {
            bufs,
            m,
            dim: pts.dim,
            sort,
            subproblems,
            priced: PricedLaunches::default(),
        });
        Ok(())
    }

    /// Run `f` with the recovery report and the single-transform buffers
    /// moved out of the plan; both are put back afterwards.
    fn with_io<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut IoBufs<T>, &mut RecoveryReport) -> Result<R>,
    ) -> Result<R> {
        let mut rec = std::mem::take(&mut self.recovery);
        let mut io = self
            .io
            .take()
            .expect("the single-transform buffers are lent to one call at a time");
        let r = f(self, &mut io, &mut rec);
        self.io = Some(io);
        self.recovery = rec;
        r
    }

    /// Execute the transform (cufinufft_execute). Type 1: `input` = M
    /// strengths, `output` = N modes; type 2 swaps the roles. Host-device
    /// transfers of input/output are included and reported separately in
    /// [`GpuStageTimings`]. Between the two copies this runs the same
    /// stage body as each chunk of [`Plan::execute_many`], on one vector.
    pub fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        self.with_io(|plan, io, rec| plan.execute_impl(io, input, output, rec))
    }

    fn execute_impl(
        &mut self,
        io: &mut IoBufs<T>,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        rec: &mut RecoveryReport,
    ) -> Result<()> {
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        let m = state.m;
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
        let trace = self.opts.trace.clone();
        let _on = trace.as_ref().map(|t| t.activate());
        let _span = trace.as_ref().map(|t| {
            t.span_with(
                "plan.execute",
                &[
                    ("ttype", format!("{:?}", self.ttype)),
                    ("method", format!("{:?}", self.geom.method)),
                ],
            )
        });
        // (re)allocate IO buffers on first use or size change
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let t0 = self.dev.clock();
        if io.d_in.len() != want_in {
            io.d_in = with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:in", || {
                dev.alloc("in", want_in)
            })?;
        }
        if io.d_out.len() != want_out {
            io.d_out = with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:out", || {
                dev.alloc("out", want_out)
            })?;
        }
        let alloc_extra = self.dev.clock() - t0;
        self.timings.alloc += alloc_extra;
        let t1 = self.dev.clock();
        with_retry(&dev, &policy, trace.as_ref(), rec, "h2d:in", || {
            self.dev.memcpy_htod(&mut io.d_in, input)
        })?;
        self.timings.h2d_data = self.dev.clock() - t1;

        // the stage body zeroes the fine grid before touching it, so a
        // launch fault mid-transform can be retried wholesale
        let what = match self.ttype {
            TransformType::Type1 => "exec:type1",
            TransformType::Type2 => "exec:type2",
        };
        let stage = with_retry(&dev, &policy, trace.as_ref(), rec, what, || {
            let mut stage = GpuStageTimings::default();
            self.exec(
                state,
                1,
                &io.d_in,
                &mut io.d_grid,
                &mut io.d_out,
                &mut stage,
            )
            .map(|()| stage)
        })?;
        self.timings.spread_interp = stage.spread_interp;
        self.timings.fft = stage.fft;
        self.timings.deconv = stage.deconv;

        let t2 = self.dev.clock();
        with_retry(&dev, &policy, trace.as_ref(), rec, "d2h:out", || {
            self.dev.memcpy_dtoh(output, &io.d_out)
        })?;
        self.timings.d2h = self.dev.clock() - t2;
        self.timings.batches = 1;
        self.timings.pipe_wall = 0.0;
        Ok(())
    }

    /// Spread-only entry point (FINUFFT's `spreadinterponly` use case,
    /// used by particle codes \[13\]\[14\]): spread the strengths onto the
    /// plan's fine grid and return the grid contents, skipping the FFT
    /// and deconvolution. The plan must be type 1.
    pub fn spread_only(
        &mut self,
        strengths: &[Complex<T>],
        grid_out: &mut [Complex<T>],
    ) -> Result<()> {
        self.with_io(|plan, io, rec| plan.spread_only_impl(io, strengths, grid_out, rec))
    }

    fn spread_only_impl(
        &mut self,
        io: &mut IoBufs<T>,
        strengths: &[Complex<T>],
        grid_out: &mut [Complex<T>],
        rec: &mut RecoveryReport,
    ) -> Result<()> {
        if self.ttype != TransformType::Type1 {
            return Err(NufftError::BadOptions(
                "spread_only requires a type 1 plan".into(),
            ));
        }
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        if strengths.len() != state.m {
            return Err(NufftError::LengthMismatch {
                expected: state.m,
                got: strengths.len(),
            });
        }
        if grid_out.len() != self.geom.fine.total() {
            return Err(NufftError::LengthMismatch {
                expected: self.geom.fine.total(),
                got: grid_out.len(),
            });
        }
        let m = state.m;
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let trace = self.opts.trace.clone();
        if io.d_in.len() != m {
            io.d_in = with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:in", || {
                dev.alloc("in", m)
            })?;
        }
        with_retry(&dev, &policy, trace.as_ref(), rec, "h2d:in", || {
            self.dev.memcpy_htod(&mut io.d_in, strengths)
        })?;
        let t0 = self.dev.clock();
        let cb = std::mem::size_of::<Complex<T>>();
        let nf = self.geom.fine.total();
        with_retry(&dev, &policy, trace.as_ref(), rec, "spread", || {
            // re-zero inside the retry body so a launch fault can be
            // retried without double-accumulating
            io.d_grid
                .as_mut_slice()
                .iter_mut()
                .for_each(|z| *z = Complex::ZERO);
            self.dev
                .bulk_op("memset_grid", 0, nf * cb, 0.0, Precision::of::<T>());
            spread_batch(
                &self.dev,
                &self.eval_kernel,
                self.geom.fine,
                self.geom.method,
                self.opts.tuning.threads_per_block,
                &state.inputs(),
                1,
                io.d_in.as_slice(),
                io.d_grid.as_mut_slice(),
            )
        })?;
        self.timings.spread_interp = self.dev.clock() - t0;
        with_retry(&dev, &policy, trace.as_ref(), rec, "d2h:grid", || {
            self.dev.memcpy_dtoh(grid_out, &io.d_grid)
        })?;
        Ok(())
    }

    /// Interpolation-only entry point: evaluate the given fine-grid data
    /// at the plan's points, skipping pre-correction and the FFT. The
    /// plan must be type 2.
    pub fn interp_only(&mut self, grid_in: &[Complex<T>], out: &mut [Complex<T>]) -> Result<()> {
        self.with_io(|plan, io, rec| plan.interp_only_impl(io, grid_in, out, rec))
    }

    fn interp_only_impl(
        &mut self,
        io: &mut IoBufs<T>,
        grid_in: &[Complex<T>],
        out: &mut [Complex<T>],
        rec: &mut RecoveryReport,
    ) -> Result<()> {
        if self.ttype != TransformType::Type2 {
            return Err(NufftError::BadOptions(
                "interp_only requires a type 2 plan".into(),
            ));
        }
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        if grid_in.len() != self.geom.fine.total() {
            return Err(NufftError::LengthMismatch {
                expected: self.geom.fine.total(),
                got: grid_in.len(),
            });
        }
        if out.len() != state.m {
            return Err(NufftError::LengthMismatch {
                expected: state.m,
                got: out.len(),
            });
        }
        let m = state.m;
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let trace = self.opts.trace.clone();
        with_retry(&dev, &policy, trace.as_ref(), rec, "h2d:grid", || {
            self.dev.memcpy_htod(&mut io.d_grid, grid_in)
        })?;
        if io.d_out.len() != m {
            io.d_out = with_retry(&dev, &policy, trace.as_ref(), rec, "alloc:out", || {
                dev.alloc("out", m)
            })?;
        }
        let t0 = self.dev.clock();
        with_retry(&dev, &policy, trace.as_ref(), rec, "interp", || {
            interp_batch(
                &self.dev,
                &self.eval_kernel,
                self.geom.fine,
                self.geom.method,
                self.opts.tuning.threads_per_block,
                &state.inputs(),
                1,
                io.d_grid.as_slice(),
                io.d_out.as_mut_slice(),
            )
        })?;
        self.timings.spread_interp = self.dev.clock() - t0;
        with_retry(&dev, &policy, trace.as_ref(), rec, "d2h:out", || {
            self.dev.memcpy_dtoh(out, &io.d_out)
        })?;
        Ok(())
    }

    /// Execute `B` stacked transforms sharing the plan's points, with
    /// `B` inferred from `input.len()` (the vectors are concatenated:
    /// `input = [c_0, .., c_{B-1}]`, `output = [f_0, .., f_{B-1}]`).
    ///
    /// This is the library's batching strategy (the C API's `ntransf`):
    /// the point sort and subproblem setup from `set_pts` are reused for
    /// every vector, spreading/interpolation run per vector into a
    /// chunk-sized batch grid, the FFT runs batched (`cufftPlanMany`
    /// style), and each chunk's H2D -> compute -> D2H chain is scheduled
    /// on one of two streams so the transfers of chunk `i+1` hide under
    /// the kernels of chunk `i`. Each chunk runs the stage body that
    /// [`Plan::execute`] runs on one vector, so results are bitwise
    /// identical to `B` sequential `execute` calls; [`Plan::timings`]
    /// reports the accumulated stages plus the pipelined wall
    /// (`pipe_wall`), and [`Plan::batch_timings`] the per-chunk schedule.
    pub fn execute_many(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        let mut rec = std::mem::take(&mut self.recovery);
        let r = self.execute_many_impl(input, output, &mut rec);
        self.recovery = rec;
        r
    }

    fn execute_many_impl(
        &mut self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        rec: &mut RecoveryReport,
    ) -> Result<()> {
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        let m = state.m;
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
        let trace = self.opts.trace.clone();
        let _on = trace.as_ref().map(|t| t.activate());
        let _span = trace.as_ref().map(|t| {
            t.span_with(
                "plan.execute_many",
                &[("b", b.to_string()), ("ttype", format!("{:?}", self.ttype))],
            )
        });

        // stage buffers sized for one chunk, (re)allocated outside the
        // pipelined region so the schedule holds only transfers + compute.
        // A device OOM here halves the chunk (dropping the failed
        // buffers first) until it fits or `min_chunk` is reached; the
        // shrunk size sticks for later batches.
        let policy = self.opts.recovery;
        let mut chunk = self.chunk_size(b);
        if let Some(c) = self.shrunk_chunk {
            chunk = chunk.min(c).max(1);
        }
        let nf = self.geom.fine.total();
        let t0 = self.dev.clock();
        loop {
            match self.alloc_staging(chunk, in_per, out_per, nf, rec) {
                Ok(()) => break,
                Err(NufftError::DeviceOom { .. })
                    if policy.min_chunk > 0 && chunk > policy.min_chunk =>
                {
                    self.d_in_batch = None;
                    self.d_grid_batch = None;
                    self.d_out_batch = None;
                    chunk = (chunk / 2).max(policy.min_chunk);
                    self.shrunk_chunk = Some(chunk);
                    rec.chunk_shrinks += 1;
                    rec.final_chunk = Some(chunk);
                    rec.events
                        .push(format!("device OOM: batch chunk shrunk to {chunk}"));
                    if let Some(t) = &trace {
                        t.counter("recovery.chunk_shrinks").inc();
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let alloc_extra = self.dev.clock() - t0;
        let mut bin = self.d_in_batch.take().expect("allocated above");
        let mut bgrid = self.d_grid_batch.take().expect("allocated above");
        let mut bout = self.d_out_batch.take().expect("allocated above");

        let region = self.run_pipeline(
            input, output, b, chunk, in_per, out_per, &mut bin, &mut bgrid, &mut bout, rec,
        );
        self.d_in_batch = Some(bin);
        self.d_grid_batch = Some(bgrid);
        self.d_out_batch = Some(bout);
        let (wall, chunks, stage) = region?;

        let serial: f64 = chunks.iter().map(|c| c.h2d + c.exec + c.d2h).sum();
        self.batch = BatchTimings {
            chunks,
            serial,
            wall,
        };
        let prev = self.timings;
        self.timings = GpuStageTimings {
            alloc: prev.alloc + alloc_extra,
            h2d_pts: prev.h2d_pts,
            sort: prev.sort,
            h2d_data: stage.h2d_data,
            spread_interp: stage.spread_interp,
            fft: stage.fft,
            deconv: stage.deconv,
            d2h: stage.d2h,
            batches: b,
            pipe_wall: wall,
        };
        Ok(())
    }

    /// (Re)allocate the chunk-sized staging buffers, retrying transient
    /// alloc faults; a persistent OOM propagates as `DeviceOom` for the
    /// caller's shrink loop.
    fn alloc_staging(
        &mut self,
        chunk: usize,
        in_per: usize,
        out_per: usize,
        nf: usize,
        rec: &mut RecoveryReport,
    ) -> Result<()> {
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let trace = self.opts.trace.clone();
        let undersized = |buf: &Option<GpuBuffer<Complex<T>>>, len: usize| {
            buf.as_ref().is_none_or(|g| g.len() < len)
        };
        if undersized(&self.d_in_batch, in_per * chunk) {
            self.d_in_batch = Some(with_retry(
                &dev,
                &policy,
                trace.as_ref(),
                rec,
                "alloc:in_batch",
                || dev.alloc("in_batch", in_per * chunk),
            )?);
        }
        if undersized(&self.d_grid_batch, nf * chunk) {
            self.d_grid_batch = Some(with_retry(
                &dev,
                &policy,
                trace.as_ref(),
                rec,
                "alloc:fine_grid_batch",
                || dev.alloc("fine_grid_batch", nf * chunk),
            )?);
        }
        if undersized(&self.d_out_batch, out_per * chunk) {
            self.d_out_batch = Some(with_retry(
                &dev,
                &policy,
                trace.as_ref(),
                rec,
                "alloc:out_batch",
                || dev.alloc("out_batch", out_per * chunk),
            )?);
        }
        Ok(())
    }

    /// The pipelined transfer/compute region of `execute_many`. Compute
    /// is priced on the serial device clock (the SM array serializes
    /// across streams anyway) and its measured duration is queued on the
    /// chunk's stream; async copies are queued with their analytic
    /// duration without touching the clock. The final sync advances the
    /// clock to the schedule's end, so the region's clock delta IS the
    /// pipelined wall. Chunk bodies re-zero their grid slice first, so a
    /// launch fault retries the whole chunk without double-accumulation.
    #[allow(clippy::too_many_arguments)]
    fn run_pipeline(
        &self,
        input: &[Complex<T>],
        output: &mut [Complex<T>],
        b: usize,
        chunk: usize,
        in_per: usize,
        out_per: usize,
        bin: &mut GpuBuffer<Complex<T>>,
        bgrid: &mut GpuBuffer<Complex<T>>,
        bout: &mut GpuBuffer<Complex<T>>,
        rec: &mut RecoveryReport,
    ) -> Result<(f64, Vec<ChunkTiming>, GpuStageTimings)> {
        use gpu_sim::{sync_streams, EngineState, Stream};
        let state = self.pts.as_ref().ok_or(NufftError::PointsNotSet)?;
        let dev = self.dev.clone();
        let policy = self.opts.recovery;
        let trace = self.opts.trace.clone();
        let base = self.dev.clock();
        let mut engines = EngineState::default();
        let mut streams = [Stream::new(&self.dev), Stream::new(&self.dev)];
        let mut chunks: Vec<ChunkTiming> = Vec::new();
        let mut stage = GpuStageTimings::default();
        let mut off = 0;
        while off < b {
            let bc = chunk.min(b - off);
            let src = &input[off * in_per..(off + bc) * in_per];
            let h2d_dur = self.dev.transfer_time(std::mem::size_of_val(src));
            let si = chunks.len() % 2;
            let h2d_done = with_retry(&dev, &policy, trace.as_ref(), rec, "h2d:chunk", || {
                streams[si].memcpy_htod(&self.dev, &mut engines, bin, src)
            })?;
            let c0 = self.dev.clock();
            with_retry(&dev, &policy, trace.as_ref(), rec, "exec:chunk", || {
                self.exec(state, bc, bin, bgrid, bout, &mut stage)
            })?;
            let t_exec = self.dev.clock() - c0;
            streams[si].compute(&mut engines, t_exec);
            let dst = &mut output[off * out_per..(off + bc) * out_per];
            let d2h_dur = self.dev.transfer_time(std::mem::size_of_val(dst));
            let d2h_done = with_retry(&dev, &policy, trace.as_ref(), rec, "d2h:chunk", || {
                streams[si].memcpy_dtoh(&self.dev, &mut engines, dst, bout)
            })?;
            chunks.push(ChunkTiming {
                ntransf: bc,
                h2d: h2d_dur,
                exec: t_exec,
                d2h: d2h_dur,
                start: (h2d_done - h2d_dur) - base,
                done: d2h_done - base,
            });
            stage.h2d_data += h2d_dur;
            stage.d2h += d2h_dur;
            off += bc;
        }
        let wall = sync_streams(&self.dev, &[&streams[0], &streams[1]]) - base;
        Ok((wall, chunks, stage))
    }

    /// The stage body for the plan's transform type, shared by
    /// [`Plan::execute`] (`bc = 1`) and each chunk of
    /// [`Plan::execute_many`]: `d_in` holds `bc` input vectors, the first
    /// `bc` grids of `d_grid` are the fine grids, and `d_out` receives
    /// `bc` output vectors. Stage times add to `stage`. The body zeroes
    /// the grids before touching them, so a launch fault can retry it
    /// whole.
    fn exec(
        &self,
        state: &PtsState<T>,
        bc: usize,
        d_in: &GpuBuffer<Complex<T>>,
        d_grid: &mut GpuBuffer<Complex<T>>,
        d_out: &mut GpuBuffer<Complex<T>>,
        stage: &mut GpuStageTimings,
    ) -> std::result::Result<(), DeviceFault> {
        match self.ttype {
            TransformType::Type1 => self.exec_type1(state, bc, d_in, d_grid, d_out, stage),
            TransformType::Type2 => self.exec_type2(state, bc, d_in, d_grid, d_out, stage),
        }
    }

    /// Type 1 (paper Sec. II steps 1-3): spread each vector into its own
    /// fine grid, run one FFT over the `bc` grids, and deconvolve each
    /// grid into its modes (eq. 10).
    fn exec_type1(
        &self,
        state: &PtsState<T>,
        bc: usize,
        d_in: &GpuBuffer<Complex<T>>,
        d_grid: &mut GpuBuffer<Complex<T>>,
        d_out: &mut GpuBuffer<Complex<T>>,
        stage: &mut GpuStageTimings,
    ) -> std::result::Result<(), DeviceFault> {
        let cb = std::mem::size_of::<Complex<T>>();
        let nf = self.geom.fine.total();
        let m = state.m;
        let n = self.modes.total();
        let t0 = self.dev.clock();
        d_grid.as_mut_slice()[..bc * nf]
            .iter_mut()
            .for_each(|z| *z = Complex::ZERO);
        self.dev
            .bulk_op("memset_grid", 0, bc * nf * cb, 0.0, Precision::of::<T>());
        spread_batch(
            &self.dev,
            &self.eval_kernel,
            self.geom.fine,
            self.geom.method,
            self.opts.tuning.threads_per_block,
            &state.inputs(),
            bc,
            &d_in.as_slice()[..bc * m],
            &mut d_grid.as_mut_slice()[..bc * nf],
        )?;
        stage.spread_interp += self.dev.clock() - t0;
        self.stage_span("stage.spread", t0);
        let t1 = self.dev.clock();
        self.fft
            .execute_many(&self.dev, d_grid, bc, Direction::from_sign(self.iflag));
        stage.fft += self.dev.clock() - t1;
        self.stage_span("stage.fft", t1);
        let t2 = self.dev.clock();
        for v in 0..bc {
            to_modes(
                &self.corr,
                self.modes,
                self.geom.fine,
                self.opts.modeord,
                &d_grid.as_slice()[v * nf..(v + 1) * nf],
                &mut d_out.as_mut_slice()[v * n..(v + 1) * n],
            );
        }
        self.dev.bulk_op(
            "deconvolve",
            bc * n * cb,
            bc * n * cb,
            (bc * n) as f64 * 8.0,
            Precision::of::<T>(),
        );
        stage.deconv += self.dev.clock() - t2;
        self.stage_span("stage.deconv", t2);
        Ok(())
    }

    /// Type 2 (the steps in reverse): pre-correct each vector's modes
    /// into its zero-padded fine grid (eq. 11), run one FFT over the `bc`
    /// grids, and interpolate each grid at the points.
    fn exec_type2(
        &self,
        state: &PtsState<T>,
        bc: usize,
        d_in: &GpuBuffer<Complex<T>>,
        d_grid: &mut GpuBuffer<Complex<T>>,
        d_out: &mut GpuBuffer<Complex<T>>,
        stage: &mut GpuStageTimings,
    ) -> std::result::Result<(), DeviceFault> {
        let cb = std::mem::size_of::<Complex<T>>();
        let nf = self.geom.fine.total();
        let m = state.m;
        let n = self.modes.total();
        let t0 = self.dev.clock();
        d_grid.as_mut_slice()[..bc * nf]
            .iter_mut()
            .for_each(|z| *z = Complex::ZERO);
        self.dev
            .bulk_op("memset_grid", 0, bc * nf * cb, 0.0, Precision::of::<T>());
        for v in 0..bc {
            to_grid(
                &self.corr,
                self.modes,
                self.geom.fine,
                self.opts.modeord,
                &d_in.as_slice()[v * n..(v + 1) * n],
                &mut d_grid.as_mut_slice()[v * nf..(v + 1) * nf],
            );
        }
        self.dev.bulk_op(
            "precorrect",
            bc * n * cb,
            bc * n * cb,
            (bc * n) as f64 * 8.0,
            Precision::of::<T>(),
        );
        stage.deconv += self.dev.clock() - t0;
        self.stage_span("stage.deconv", t0);
        let t1 = self.dev.clock();
        self.fft
            .execute_many(&self.dev, d_grid, bc, Direction::from_sign(self.iflag));
        stage.fft += self.dev.clock() - t1;
        self.stage_span("stage.fft", t1);
        let t2 = self.dev.clock();
        interp_batch(
            &self.dev,
            &self.eval_kernel,
            self.geom.fine,
            self.geom.method,
            self.opts.tuning.threads_per_block,
            &state.inputs(),
            bc,
            &d_grid.as_slice()[..bc * nf],
            &mut d_out.as_mut_slice()[..bc * m],
        )?;
        stage.spread_interp += self.dev.clock() - t2;
        self.stage_span("stage.interp", t2);
        Ok(())
    }
}

impl<T: Real> nufft_common::NufftPlan<T> for Plan<T> {
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
        self.set_pts(pts)
    }

    fn execute(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        Plan::execute(self, input, output)
    }

    fn execute_many(&mut self, input: &[Complex<T>], output: &mut [Complex<T>]) -> Result<()> {
        Plan::execute_many(self, input, output)
    }

    fn exec_time(&self) -> f64 {
        self.timings.exec()
    }

    fn total_time(&self) -> f64 {
        self.timings.total_mem()
    }

    fn backend_name(&self) -> &'static str {
        "cufinufft"
    }
}

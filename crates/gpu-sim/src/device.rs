//! The simulated device: memory, clock, timeline.
//!
//! A [`Device`] owns a simulated clock (seconds) that advances when
//! launches, bulk operations, allocations, or host-device transfers are
//! priced. Buffers track allocation against the device's memory capacity
//! so the reproduction can report GPU RAM usage as in Table I.

use crate::access::{Contract, HazardMode, KernelTrace};
use crate::faults::{DeviceFault, FaultKind, FaultPlan, FaultSite, FaultState, Injection};
use crate::hazard;
use crate::kernel::{Breakdown, Kernel, LaunchConfig, LaunchReport};
use crate::props::{DeviceProps, Precision};
use nufft_common::hazard::{HazardReport, KernelHazardReport};
use nufft_trace::{Lane, Trace};
use parking_lot::Mutex;
use std::sync::Arc;

/// Category of a timeline record.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Kernel,
    Memcpy,
    Alloc,
    Bulk,
}

/// One priced operation on the device timeline.
#[derive(Clone, Debug)]
pub struct TimelineRecord {
    pub name: String,
    pub kind: OpKind,
    /// Simulated start time (seconds since device creation).
    pub start: f64,
    pub duration: f64,
    pub breakdown: Breakdown,
}

#[derive(Default)]
struct State {
    clock: f64,
    mem_used: usize,
    mem_peak: usize,
    timeline: Vec<TimelineRecord>,
    record_timeline: bool,
    trace: Option<Trace>,
    faults: Option<FaultState>,
    hazard_mode: HazardMode,
    hazard: Vec<KernelHazardReport>,
    /// When set, checked launches also archive their raw trace +
    /// contract for static/dynamic cross-validation (see
    /// [`Device::retain_access_traces`]).
    retain_traces: bool,
    retained_traces: Vec<(KernelTrace, Contract)>,
    /// Host worker threads available to `Kernel::run_blocks`. Results are
    /// bit-identical at any value; this only changes host wall-clock.
    host_parallelism: usize,
}

/// Default host thread-pool width for parallel block execution: the
/// `GPU_SIM_HOST_THREADS` env var when set, else the host's available
/// parallelism capped at 8 (block bodies are short; wider pools mostly
/// add merge latency).
fn default_host_parallelism() -> usize {
    if let Ok(v) = std::env::var("GPU_SIM_HOST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Which trace lane a priced operation lands on. Transfers are split by
/// direction (matching the two copy engines) by inspecting the name.
fn lane_for(kind: OpKind, name: &str) -> Lane {
    match kind {
        OpKind::Kernel | OpKind::Bulk => Lane::Compute,
        OpKind::Alloc => Lane::Alloc,
        OpKind::Memcpy => {
            if name.contains("dtoh") {
                Lane::D2h
            } else {
                Lane::H2d
            }
        }
    }
}

fn cat_for(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Kernel => "kernel",
        OpKind::Bulk => "bulk",
        OpKind::Memcpy => "memcpy",
        OpKind::Alloc => "alloc",
    }
}

pub(crate) struct DeviceInner {
    props: DeviceProps,
    state: Mutex<State>,
}

/// Handle to a simulated GPU. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    pub fn new(props: DeviceProps) -> Self {
        Device {
            inner: Arc::new(DeviceInner {
                props,
                state: Mutex::new(State {
                    record_timeline: true,
                    host_parallelism: default_host_parallelism(),
                    ..State::default()
                }),
            }),
        }
    }

    /// The paper's benchmark GPU.
    pub fn v100() -> Self {
        Self::new(DeviceProps::v100())
    }

    pub fn props(&self) -> &DeviceProps {
        &self.inner.props
    }

    /// Current simulated time in seconds.
    pub fn clock(&self) -> f64 {
        self.inner.state.lock().clock
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> usize {
        self.inner.state.lock().mem_used
    }

    /// High-water mark of allocated bytes (Table I's "RAM" column).
    pub fn mem_peak(&self) -> usize {
        self.inner.state.lock().mem_peak
    }

    /// Reset the peak tracker to the current usage.
    pub fn reset_mem_peak(&self) {
        let mut s = self.inner.state.lock();
        s.mem_peak = s.mem_used;
    }

    /// Toggle timeline recording (benchmarks disable it to avoid growth).
    pub fn set_record_timeline(&self, on: bool) {
        self.inner.state.lock().record_timeline = on;
    }

    /// Host worker threads `Kernel::run_blocks` may use for this device's
    /// launches (default: `GPU_SIM_HOST_THREADS` or the host's available
    /// parallelism, capped at 8). Simulated results are bit-identical at
    /// any setting; hazard checking and fault injection force 1.
    pub fn set_host_parallelism(&self, n: usize) {
        self.inner.state.lock().host_parallelism = n.max(1);
    }

    /// Current host-parallelism setting (see
    /// [`Device::set_host_parallelism`]).
    pub fn host_parallelism(&self) -> usize {
        self.inner.state.lock().host_parallelism
    }

    /// Snapshot of all recorded operations.
    pub fn timeline(&self) -> Vec<TimelineRecord> {
        self.inner.state.lock().timeline.clone()
    }

    pub fn clear_timeline(&self) {
        self.inner.state.lock().timeline.clear();
    }

    /// The trace session events are mirrored into, if any.
    pub fn trace(&self) -> Option<Trace> {
        self.inner.state.lock().trace.clone()
    }

    /// Mirror every priced operation into `trace` as a device-lane span
    /// (kernels/bulk ops on the compute lane, transfers split H2D/D2H,
    /// allocations on their own lane). Works independently of
    /// [`Device::set_record_timeline`], so benchmarks can trace with the
    /// timeline off.
    pub fn attach_trace(&self, trace: &Trace) {
        self.inner.state.lock().trace = Some(trace.clone());
    }

    pub fn detach_trace(&self) {
        self.inner.state.lock().trace = None;
    }

    /// Select whether instrumented launches are access-traced and
    /// race/contract-checked. Under [`HazardMode::Check`] every kernel
    /// created by [`Device::kernel`] carries a shadow-memory trace and
    /// its findings accumulate on the device (see
    /// [`Device::hazard_findings`]).
    pub fn set_hazard_mode(&self, mode: HazardMode) {
        self.inner.state.lock().hazard_mode = mode;
    }

    pub fn hazard_mode(&self) -> HazardMode {
        self.inner.state.lock().hazard_mode
    }

    /// Convenience: is the device currently checking for hazards?
    pub fn hazard_checking(&self) -> bool {
        self.hazard_mode() == HazardMode::Check
    }

    /// All hazard/contract findings accumulated since creation (or the
    /// last [`Device::clear_hazard_findings`]), one entry per checked
    /// launch in launch order.
    pub fn hazard_findings(&self) -> HazardReport {
        HazardReport {
            kernels: self.inner.state.lock().hazard.clone(),
        }
    }

    pub fn clear_hazard_findings(&self) {
        self.inner.state.lock().hazard.clear();
    }

    /// Also archive the raw [`KernelTrace`] + [`Contract`] of every
    /// checked launch, so a static analyzer can replay them against the
    /// kernels' symbolic [`AccessPlan`](crate::access_plan::AccessPlan)s
    /// ("static refines dynamic" cross-validation). Costs memory
    /// proportional to the access count — debugging/CI mode only.
    pub fn retain_access_traces(&self, on: bool) {
        let mut s = self.inner.state.lock();
        s.retain_traces = on;
        if !on {
            s.retained_traces.clear();
        }
    }

    /// Drain the archived traces (launch order). Empty unless
    /// [`Device::retain_access_traces`] was enabled.
    pub fn take_access_traces(&self) -> Vec<(KernelTrace, Contract)> {
        std::mem::take(&mut self.inner.state.lock().retained_traces)
    }

    /// Run the checker on a completed trace and accumulate the findings,
    /// mirroring hazard counters into an attached trace session. Used by
    /// `launch_end` for instrumented kernels and directly by bulk-pass
    /// instrumentation (which has no [`Kernel`] object).
    pub fn submit_access_trace(&self, trace: KernelTrace, contract: Contract) {
        let report = hazard::check(&trace, &contract);
        if let Some(t) = self.trace() {
            t.counter("hazard.kernels_checked").inc();
            t.counter("hazard.accesses").add(report.accesses as i64);
            t.counter("hazard.races").add(report.hazards_total as i64);
            t.counter("hazard.contract_violations")
                .add(report.violations.len() as i64);
        }
        let mut s = self.inner.state.lock();
        if s.retain_traces {
            s.retained_traces.push((trace, contract));
        }
        s.hazard.push(report);
    }

    /// Attach a [`FaultPlan`]: subsequent allocations, transfers, and
    /// kernel launches consult it and may fail or stall. Replaces any
    /// previously attached plan (the old rule state is discarded).
    pub fn inject_faults(&self, plan: FaultPlan) {
        self.inner.state.lock().faults = Some(FaultState::new(plan));
    }

    /// Detach the fault plan; the device behaves nominally again.
    pub fn clear_faults(&self) {
        self.inner.state.lock().faults = None;
    }

    /// Number of faults (failures and stalls) injected so far by the
    /// attached plan.
    pub fn faults_injected(&self) -> u64 {
        self.inner
            .state
            .lock()
            .faults
            .as_ref()
            .map_or(0, |f| f.injected)
    }

    /// Consult the attached fault plan for one operation and mirror any
    /// injection into the trace session (counter + zero-width event on
    /// the lane the faulting op would have used).
    fn consult_faults(&self, site: FaultSite, name: &str) -> Injection {
        let (inj, trace, start) = {
            let mut s = self.inner.state.lock();
            let inj = match s.faults.as_mut() {
                Some(f) => f.check(site, name),
                None => Injection::None,
            };
            (inj, s.trace.clone(), s.clock)
        };
        if !matches!(inj, Injection::None) {
            self.note_fault(
                trace.as_ref(),
                site,
                name,
                matches!(inj, Injection::Stall(_)),
                start,
            );
        }
        inj
    }

    /// Record one injected fault into the trace session, if attached.
    fn note_fault(
        &self,
        trace: Option<&Trace>,
        site: FaultSite,
        name: &str,
        stall: bool,
        start: f64,
    ) {
        let Some(trace) = trace else { return };
        trace.counter("gpu.faults.injected").inc();
        if stall {
            trace.counter("gpu.faults.stalls").inc();
        }
        let lane = match site {
            FaultSite::Alloc => Lane::Alloc,
            FaultSite::Kernel => Lane::Compute,
            FaultSite::Memcpy => {
                if name.contains("dtoh") {
                    Lane::D2h
                } else {
                    Lane::H2d
                }
            }
        };
        trace.device_span(lane, &format!("fault:{name}"), "fault", start, 0.0, &[]);
    }

    fn push_record(&self, name: String, kind: OpKind, duration: f64, breakdown: Breakdown) -> f64 {
        let trace = {
            let mut s = self.inner.state.lock();
            let start = s.clock;
            s.clock += duration;
            let trace = s.trace.clone().map(|t| (t, start));
            if s.record_timeline {
                s.timeline.push(TimelineRecord {
                    name: name.clone(),
                    kind,
                    start,
                    duration,
                    breakdown,
                });
            }
            trace
        };
        if let Some((trace, start)) = trace {
            trace.device_span(
                lane_for(kind, &name),
                &name,
                cat_for(kind),
                start,
                duration,
                &[],
            );
        }
        duration
    }

    /// Usable capacity in bytes: the physical card, further capped by an
    /// attached fault plan's `mem_cap` (modelling other tenants on the
    /// device).
    pub fn mem_capacity(&self) -> usize {
        let s = self.inner.state.lock();
        let cap = self.inner.props.global_mem_bytes;
        match s.faults.as_ref().and_then(|f| f.mem_cap()) {
            Some(injected) => cap.min(injected),
            None => cap,
        }
    }

    /// Allocate a zero-initialized device buffer of `len` elements.
    /// Fails with a typed [`DeviceFault`] when capacity (physical or
    /// fault-injected) is exhausted, or when a `fail_alloc_nth` rule
    /// fires.
    pub fn alloc<T: Clone + Default>(
        &self,
        name: &str,
        len: usize,
    ) -> Result<GpuBuffer<T>, DeviceFault> {
        let bytes = len * std::mem::size_of::<T>();
        let opname = format!("alloc:{name}");
        let oom = |available: usize, transient: bool| DeviceFault {
            op: opname.clone(),
            kind: FaultKind::Oom {
                requested: bytes,
                available,
            },
            transient,
        };
        match self.consult_faults(FaultSite::Alloc, &opname) {
            Injection::Fail { transient } => {
                let available = self.mem_capacity().saturating_sub(self.mem_used());
                return Err(oom(available, transient));
            }
            Injection::Stall(s) => self.advance("fault.stall", s),
            Injection::None => {}
        }
        {
            let mut s = self.inner.state.lock();
            let cap = self.inner.props.global_mem_bytes;
            let cap = match s.faults.as_ref().and_then(|f| f.mem_cap()) {
                Some(injected) => cap.min(injected),
                None => cap,
            };
            if s.mem_used + bytes > cap {
                let available = cap.saturating_sub(s.mem_used);
                drop(s);
                // a capacity OOM while a plan is attached is still an
                // injected condition worth seeing in the trace
                let trace = self.trace();
                let attached = self.inner.state.lock().faults.is_some();
                if attached {
                    self.note_fault(
                        trace.as_ref(),
                        FaultSite::Alloc,
                        &opname,
                        false,
                        self.clock(),
                    );
                }
                return Err(oom(available, false));
            }
            s.mem_used += bytes;
            s.mem_peak = s.mem_peak.max(s.mem_used);
        }
        // cudaMalloc cost: fixed overhead; zero-fill charged as a memset.
        let t = self.inner.props.t_alloc + bytes as f64 / self.inner.props.dram_bw;
        self.push_record(opname, OpKind::Alloc, t, Breakdown::default());
        Ok(GpuBuffer {
            data: vec![T::default(); len],
            bytes,
            dev: Arc::clone(&self.inner),
        })
    }

    /// Analytic cost of moving `bytes` across PCIe in either direction,
    /// without performing or recording anything. Stream-scheduled
    /// (asynchronous) transfers use this to price copies whose start
    /// time is decided by the stream scheduler rather than the serial
    /// clock.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.inner.props.pcie_latency + bytes as f64 / self.inner.props.pcie_bw
    }

    /// Record an operation that was scheduled externally (e.g. on a
    /// [`crate::stream::Stream`]) at an explicit start time, WITHOUT
    /// advancing the serial clock — the caller accounts for elapsed time
    /// via [`crate::stream::sync_streams`].
    pub fn record_async(&self, name: &str, kind: OpKind, start: f64, duration: f64) {
        let trace = {
            let mut s = self.inner.state.lock();
            if s.record_timeline {
                s.timeline.push(TimelineRecord {
                    name: name.into(),
                    kind,
                    start,
                    duration,
                    breakdown: Breakdown::default(),
                });
            }
            s.trace.clone()
        };
        if let Some(trace) = trace {
            trace.device_span(
                lane_for(kind, name),
                name,
                cat_for(kind),
                start,
                duration,
                &[],
            );
        }
    }

    /// Check the fault plan for a memcpy op named `name`; returns the
    /// extra stall seconds to charge, or the fault. A failed copy leaves
    /// the destination untouched.
    pub(crate) fn memcpy_fault(&self, name: &str, transient_op: &str) -> Result<f64, DeviceFault> {
        match self.consult_faults(FaultSite::Memcpy, name) {
            Injection::Fail { transient } => Err(DeviceFault {
                op: transient_op.to_string(),
                kind: FaultKind::Memcpy,
                transient,
            }),
            Injection::Stall(s) => Ok(s),
            Injection::None => Ok(0.0),
        }
    }

    /// Copy host data into a device buffer (cudaMemcpyHostToDevice).
    /// An injected fault fails the copy before any data moves.
    pub fn memcpy_htod<T: Copy>(
        &self,
        dst: &mut GpuBuffer<T>,
        src: &[T],
    ) -> Result<(), DeviceFault> {
        assert!(src.len() <= dst.data.len(), "htod copy larger than buffer");
        let stall = self.memcpy_fault("memcpy_htod", "memcpy_htod")?;
        dst.data[..src.len()].copy_from_slice(src);
        let bytes = std::mem::size_of_val(src);
        let t = self.inner.props.pcie_latency + bytes as f64 / self.inner.props.pcie_bw;
        self.push_record(
            "memcpy_htod".into(),
            OpKind::Memcpy,
            t + stall,
            Breakdown::default(),
        );
        Ok(())
    }

    /// Copy device data back to the host (cudaMemcpyDeviceToHost).
    /// An injected fault fails the copy before any data moves.
    pub fn memcpy_dtoh<T: Copy>(
        &self,
        dst: &mut [T],
        src: &GpuBuffer<T>,
    ) -> Result<(), DeviceFault> {
        assert!(dst.len() <= src.data.len(), "dtoh copy larger than buffer");
        let stall = self.memcpy_fault("memcpy_dtoh", "memcpy_dtoh")?;
        dst.copy_from_slice(&src.data[..dst.len()]);
        let bytes = std::mem::size_of_val(dst);
        let t = self.inner.props.pcie_latency + bytes as f64 / self.inner.props.pcie_bw;
        self.push_record(
            "memcpy_dtoh".into(),
            OpKind::Memcpy,
            t + stall,
            Breakdown::default(),
        );
        Ok(())
    }

    /// Begin a detailed kernel launch (warp-level accounting). An
    /// injected launch fault fires here — before any functional work —
    /// mirroring `cudaLaunchKernel` failure semantics, so a retry after
    /// an error observes unmodified device memory. A launch asking for
    /// more shared memory per block than the device has is refused the
    /// same way, as a persistent `KernelLaunch` fault that is not an
    /// injected one (it never consults the fault plan).
    pub fn kernel(&self, name: &str, cfg: LaunchConfig) -> Result<Kernel, DeviceFault> {
        if cfg.shared_bytes_per_block > self.inner.props.shared_mem_per_block {
            return Err(DeviceFault {
                op: name.to_string(),
                kind: FaultKind::KernelLaunch,
                transient: false,
            });
        }
        let mk = || {
            let mut k = Kernel::new(name, cfg, self.inner.props.clone());
            if self.hazard_checking() {
                k.enable_access_trace();
            }
            // Hazard checking and fault injection stay strictly serial;
            // otherwise hand the launch the device's host-pool width.
            let s = self.inner.state.lock();
            k.host_threads = if s.faults.is_some() || k.access_traced() {
                1
            } else {
                s.host_parallelism
            };
            k
        };
        match self.consult_faults(FaultSite::Kernel, name) {
            Injection::Fail { transient } => Err(DeviceFault {
                op: name.to_string(),
                kind: FaultKind::KernelLaunch,
                transient,
            }),
            Injection::Stall(s) => {
                self.advance("fault.stall", s);
                Ok(mk())
            }
            Injection::None => Ok(mk()),
        }
    }

    /// Price and record a finished kernel; advances the clock. When the
    /// launch carries an access trace (hazard mode), the happens-before
    /// and contract checker runs here and its findings accumulate on the
    /// device.
    pub fn launch_end(&self, kernel: Kernel) -> LaunchReport {
        let (report, traced) = kernel.price();
        if let Some((access, contract)) = traced {
            self.submit_access_trace(access, contract);
        }
        self.record_launch(&report);
        report
    }

    /// Record a launch whose price is already known — a report an earlier
    /// [`Device::launch_end`] returned for the same kernel on the same
    /// inputs — in place of pricing `kernel` again. `kernel` must come
    /// from [`Device::kernel`], so the launch's fault consultation and
    /// stalls have already happened; the trace counters, clock advance
    /// and timeline record are then exactly those of the priced launch.
    /// A kernel that carries an access trace is priced anyway, so the
    /// hazard checker sees every traced launch.
    pub fn launch_priced(&self, kernel: Kernel, priced: &LaunchReport) -> LaunchReport {
        if kernel.access_traced() {
            return self.launch_end(kernel);
        }
        debug_assert_eq!(
            kernel.name, priced.name,
            "replayed report of another kernel"
        );
        self.record_launch(priced);
        priced.clone()
    }

    /// Mirror a priced launch into the trace counters and append it to
    /// the timeline, advancing the clock by its duration.
    fn record_launch(&self, report: &LaunchReport) {
        if let Some(trace) = self.trace() {
            trace.counter("gpu.kernel_launches").inc();
            trace.counter("gpu.blocks").add(report.blocks as i64);
            trace
                .counter("gpu.global_atomics")
                .add(report.global_atomics as i64);
            trace
                .gauge("gpu.atomic_hotspot_max")
                .max(report.atomic_hotspot_count as f64);
            let occupancy = (report.blocks as f64 / self.inner.props.sm_count as f64).min(1.0);
            trace.gauge("gpu.occupancy_peak").max(occupancy);
        }
        self.push_record(
            report.name.clone(),
            OpKind::Kernel,
            report.duration,
            report.breakdown,
        );
    }

    /// Price a data-parallel operation without per-warp detail: `t = max(
    /// bytes/bw, flops/rate ) + launch overhead`. Used for memsets,
    /// bin-index computation, scans, permutations, deconvolution, and the
    /// cuFFT-substitute, whose access patterns are regular.
    pub fn bulk_op(
        &self,
        name: &str,
        bytes_read: usize,
        bytes_written: usize,
        flops: f64,
        prec: Precision,
    ) -> f64 {
        let p = &self.inner.props;
        let mem = (bytes_read + bytes_written) as f64 / p.dram_bw;
        let compute = flops / p.flops(prec);
        let t = mem.max(compute) + p.t_launch;
        self.push_record(
            name.into(),
            OpKind::Bulk,
            t,
            Breakdown {
                dram: mem,
                compute,
                overhead: p.t_launch,
                ..Breakdown::default()
            },
        )
    }

    /// Advance the clock by an externally computed duration (used by the
    /// multi-rank harness to model queueing).
    pub fn advance(&self, name: &str, duration: f64) {
        self.push_record(name.into(), OpKind::Bulk, duration, Breakdown::default());
    }
}

/// Device memory: functionally a host `Vec`, accounted against the
/// simulated device's capacity. Dropping it frees the simulated memory.
pub struct GpuBuffer<T> {
    data: Vec<T>,
    bytes: usize,
    dev: Arc<DeviceInner>,
}

impl<T> GpuBuffer<T> {
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> std::fmt::Debug for GpuBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuBuffer")
            .field("len", &self.data.len())
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

impl<T> Drop for GpuBuffer<T> {
    fn drop(&mut self) {
        let mut s = self.dev.state.lock();
        s.mem_used = s.mem_used.saturating_sub(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultMode;

    #[test]
    fn clock_advances_with_operations() {
        let dev = Device::v100();
        assert_eq!(dev.clock(), 0.0);
        let t = dev.bulk_op("memset", 0, 1 << 20, 0.0, Precision::F32);
        assert!(t > 0.0);
        assert!((dev.clock() - t).abs() < 1e-18);
    }

    #[test]
    fn alloc_tracks_memory_and_drop_frees() {
        let dev = Device::v100();
        let before = dev.mem_used();
        {
            let _buf: GpuBuffer<f32> = dev.alloc("grid", 1 << 20).unwrap();
            assert_eq!(dev.mem_used(), before + (1 << 22));
            assert!(dev.mem_peak() >= before + (1 << 22));
        }
        assert_eq!(dev.mem_used(), before);
        // peak survives the free
        assert!(dev.mem_peak() >= before + (1 << 22));
    }

    #[test]
    fn oom_is_reported() {
        let dev = Device::v100();
        let cap = dev.props().global_mem_bytes;
        let err = match dev.alloc::<u8>("huge", cap + 1) {
            Err(e) => e,
            Ok(_) => panic!("allocation beyond capacity must fail"),
        };
        assert!(!err.transient, "capacity OOM is not retryable");
        match err.kind {
            FaultKind::Oom { requested, .. } => assert_eq!(requested, cap + 1),
            other => panic!("expected OOM kind, got {other:?}"),
        }
    }

    #[test]
    fn memcpy_roundtrip_preserves_data() {
        let dev = Device::v100();
        let host: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let mut buf = dev.alloc::<f32>("x", 100).unwrap();
        dev.memcpy_htod(&mut buf, &host).unwrap();
        let mut back = vec![0.0f32; 100];
        dev.memcpy_dtoh(&mut back, &buf).unwrap();
        assert_eq!(host, back);
        let tl = dev.timeline();
        assert_eq!(tl.iter().filter(|r| r.kind == OpKind::Memcpy).count(), 2);
    }

    #[test]
    fn kernel_launch_records_timeline() {
        let dev = Device::v100();
        let mut k = dev
            .kernel("spread", LaunchConfig::new(Precision::F32, 128))
            .unwrap();
        k.run_blocks(
            1,
            |_, b| {
                b.flops(1000);
                b.stream_bytes(4096);
            },
            |_, ()| {},
        );
        let report = dev.launch_end(k);
        assert!(report.duration > 0.0);
        let tl = dev.timeline();
        let rec = tl.iter().find(|r| r.name == "spread").unwrap();
        assert_eq!(rec.kind, OpKind::Kernel);
        assert!((rec.duration - report.duration).abs() < 1e-18);
    }

    #[test]
    fn launch_priced_records_like_the_priced_launch() {
        let run = |replay: Option<&LaunchReport>| {
            let dev = Device::v100();
            let trace = Trace::new();
            dev.attach_trace(&trace);
            let mut k = dev
                .kernel("spread", LaunchConfig::new(Precision::F32, 128))
                .unwrap();
            let report = match replay {
                Some(priced) => dev.launch_priced(k, priced),
                None => {
                    k.run_blocks(
                        1,
                        |_, b| {
                            b.flops(1000);
                            b.stream_bytes(4096);
                            b.global_atomic_n(0, 3);
                        },
                        |_, ()| {},
                    );
                    dev.launch_end(k)
                }
            };
            (report, dev.timeline(), dev.clock(), trace.report().counters)
        };
        let (priced, tl, clock, counters) = run(None);
        let (replayed, tl2, clock2, counters2) = run(Some(&priced));
        assert_eq!(replayed.duration.to_bits(), priced.duration.to_bits());
        assert_eq!(clock2.to_bits(), clock.to_bits());
        assert_eq!(counters2, counters);
        let (a, b) = (&tl[0], &tl2[0]);
        assert_eq!((&a.name, a.kind), (&b.name, b.kind));
        assert_eq!(a.duration.to_bits(), b.duration.to_bits());
        assert_eq!(
            a.breakdown.atomic_ops.to_bits(),
            b.breakdown.atomic_ops.to_bits()
        );
        // a traced launch is priced from its own blocks, not replayed
        let dev = Device::v100();
        dev.set_hazard_mode(HazardMode::Check);
        let k = dev
            .kernel("spread", LaunchConfig::new(Precision::F32, 128))
            .unwrap();
        let r = dev.launch_priced(k, &priced);
        assert_eq!(r.global_atomics, 0);
        assert_eq!(dev.hazard_findings().kernels.len(), 1);
    }

    #[test]
    fn shared_memory_request_validated() {
        let dev = Device::v100();
        dev.inject_faults(crate::faults::FaultPlan::new(0).fail_kernel("k", FaultMode::Once));
        let limit = dev.props().shared_mem_per_block;
        let cfg = |bytes| LaunchConfig::new(Precision::F32, 128).with_shared(bytes);
        let Err(err) = dev.kernel("k", cfg(limit + 1)) else {
            panic!("over-limit launch accepted");
        };
        assert_eq!(
            err,
            DeviceFault {
                op: "k".into(),
                kind: FaultKind::KernelLaunch,
                transient: false,
            }
        );
        // a refusal, not an injected fault: the one-shot injection is
        // still armed and fires on the next launch that fits
        assert_eq!(dev.faults_injected(), 0);
        let Err(injected) = dev.kernel("k", cfg(limit)) else {
            panic!("injected fault did not fire");
        };
        assert!(injected.transient);
        assert_eq!(dev.faults_injected(), 1);
        assert!(dev.kernel("k", cfg(limit)).is_ok());
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let dev = Device::v100();
        let t1 = {
            let mut b = dev.alloc::<f32>("a", 1024).unwrap();
            let host = vec![0.0f32; 1024];
            let c0 = dev.clock();
            dev.memcpy_htod(&mut b, &host).unwrap();
            dev.clock() - c0
        };
        let t2 = {
            let mut b = dev.alloc::<f32>("b", 1 << 22).unwrap();
            let host = vec![0.0f32; 1 << 22];
            let c0 = dev.clock();
            dev.memcpy_htod(&mut b, &host).unwrap();
            dev.clock() - c0
        };
        assert!(t2 > t1 * 10.0);
    }

    #[test]
    fn mem_cap_injects_persistent_oom() {
        let dev = Device::v100();
        dev.inject_faults(crate::faults::FaultPlan::new(0).mem_cap(1 << 20));
        assert_eq!(dev.mem_capacity(), 1 << 20);
        let err = dev.alloc::<u8>("big", (1 << 20) + 1).unwrap_err();
        assert!(err.is_oom() && !err.transient);
        // under the cap still works, and clearing restores full capacity
        assert!(dev.alloc::<u8>("small", 1 << 10).is_ok());
        dev.clear_faults();
        assert_eq!(dev.mem_capacity(), dev.props().global_mem_bytes);
        assert!(dev.alloc::<u8>("big", (1 << 20) + 1).is_ok());
    }

    #[test]
    fn nth_alloc_fault_fires_once_then_allows_retry() {
        let dev = Device::v100();
        dev.inject_faults(crate::faults::FaultPlan::new(0).fail_alloc_nth(2, FaultMode::Once));
        assert!(dev.alloc::<f32>("a", 16).is_ok());
        let err = dev.alloc::<f32>("b", 16).unwrap_err();
        assert!(err.is_oom() && err.transient);
        assert!(err.op.contains("alloc:b"), "op names the site: {}", err.op);
        assert!(dev.alloc::<f32>("b", 16).is_ok(), "retry succeeds");
        assert_eq!(dev.faults_injected(), 1);
    }

    #[test]
    fn transient_memcpy_fault_leaves_destination_untouched() {
        let dev = Device::v100();
        let mut buf = dev.alloc::<f32>("x", 4).unwrap();
        dev.inject_faults(crate::faults::FaultPlan::new(0).fail_memcpy("htod", FaultMode::Once));
        let host = [1.0f32, 2.0, 3.0, 4.0];
        let err = dev.memcpy_htod(&mut buf, &host).unwrap_err();
        assert_eq!(err.kind, FaultKind::Memcpy);
        assert!(err.transient);
        assert_eq!(buf.as_slice(), &[0.0; 4], "failed copy moved no data");
        dev.memcpy_htod(&mut buf, &host).unwrap();
        assert_eq!(buf.as_slice(), &host);
    }

    #[test]
    fn kernel_launch_fault_fires_before_work() {
        let dev = Device::v100();
        dev.inject_faults(
            crate::faults::FaultPlan::new(0).fail_kernel("spread", FaultMode::Always),
        );
        let cfg = LaunchConfig::new(Precision::F32, 128);
        let err = dev.kernel("spread_SM", cfg).unwrap_err();
        assert_eq!(err.kind, FaultKind::KernelLaunch);
        assert!(!err.transient);
        // non-matching kernels still launch
        let cfg = LaunchConfig::new(Precision::F32, 128);
        assert!(dev.kernel("interp_GM", cfg).is_ok());
    }

    #[test]
    fn stalled_memcpy_succeeds_but_takes_longer() {
        let dev = Device::v100();
        let host = vec![0.0f32; 1024];
        let mut a = dev.alloc::<f32>("a", 1024).unwrap();
        let c0 = dev.clock();
        dev.memcpy_htod(&mut a, &host).unwrap();
        let nominal = dev.clock() - c0;
        dev.inject_faults(crate::faults::FaultPlan::new(0).stall_memcpy("htod", 0.5));
        let c1 = dev.clock();
        dev.memcpy_htod(&mut a, &host).unwrap();
        let stalled = dev.clock() - c1;
        assert!(
            (stalled - nominal - 0.5).abs() < 1e-9,
            "stall adds exactly the injected duration: {stalled} vs {nominal}"
        );
    }

    #[test]
    fn fault_events_mirrored_into_trace() {
        let dev = Device::v100();
        let trace = Trace::new();
        dev.attach_trace(&trace);
        dev.inject_faults(crate::faults::FaultPlan::new(0).fail_alloc_nth(1, FaultMode::Once));
        assert!(dev.alloc::<f32>("a", 16).is_err());
        let report = trace.report();
        assert_eq!(report.counters.get("gpu.faults.injected"), Some(&1));
        let json = report.chrome_json();
        assert!(json.contains("fault:alloc:a"), "fault event in export");
    }

    #[test]
    fn timeline_recording_can_be_disabled() {
        let dev = Device::v100();
        dev.set_record_timeline(false);
        dev.bulk_op("quiet", 1024, 0, 0.0, Precision::F32);
        assert!(dev.timeline().is_empty());
        // clock still advances
        assert!(dev.clock() > 0.0);
    }

    #[test]
    fn device_is_cloneable_and_shares_state() {
        let dev = Device::v100();
        let dev2 = dev.clone();
        dev.bulk_op("x", 1 << 20, 0, 0.0, Precision::F32);
        assert_eq!(dev.clock(), dev2.clock());
    }
}

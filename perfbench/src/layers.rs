//! Per-layer measurement for the traced run: the catalogue of per-layer
//! metrics, and probes that time single calls into each crate's public
//! functions and read the counters those crates export.

use std::collections::BTreeMap;
use std::time::Instant;

use cufinufft::bins::{build_subproblems, gpu_bin_sort};
use cufinufft::{default_bin_size, Plan, Tuning};
use gpu_fft::GpuFftPlan;
use gpu_sim::{Device, OpKind, TimelineRecord, Trace};
use nufft_common::{Complex, NufftError, Points, Real, Shape};
use nufft_fft::{Direction, FftNd};
use nufft_kernels::Kernel1d;

use crate::metrics::{median, MetricSet};
use crate::spans::Spans;

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them; a layer that does no work on a workload reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cufinufft.build.host_s", "s"),
    ("cufinufft.setpts.host_s", "s"),
    ("cufinufft.setpts.sim_s", "s"),
    ("cufinufft.execute.host_s", "s"),
    ("cufinufft.execute.sim_s", "s"),
    ("bins.sort.host_s", "s"),
    ("bins.sort.sim_s", "s"),
    ("bins.subprob.host_s", "s"),
    ("bins.subprob.sim_s", "s"),
    ("bins.imbalance", "ratio"),
    ("subprob.count", "count"),
    ("subprob.fill_ratio", "ratio"),
    ("spread.host_s", "s"),
    ("spread.sim_s", "s"),
    ("interp.host_s", "s"),
    ("interp.sim_s", "s"),
    ("spread.host_ns_per_cell", "ns"),
    ("interp.host_ns_per_cell", "ns"),
    ("gpu.spread.l2_s", "s"),
    ("gpu.spread.dram_s", "s"),
    ("gpu.spread.compute_s", "s"),
    ("gpu.spread.atomic_hotspot_s", "s"),
    ("gpu.spread.atomic_ops_s", "s"),
    ("gpu.spread.overhead_s", "s"),
    ("gpu.interp.l2_s", "s"),
    ("gpu.interp.dram_s", "s"),
    ("gpu.interp.compute_s", "s"),
    ("gpu.interp.atomic_hotspot_s", "s"),
    ("gpu.interp.atomic_ops_s", "s"),
    ("gpu.interp.overhead_s", "s"),
    ("gpu.alloc.sim_s", "s"),
    ("gpu.memcpy.sim_s", "s"),
    ("gpu.mem_peak_bytes", "bytes"),
    ("gpu.kernel_launches", "count"),
    ("gpu.blocks", "count"),
    ("gpu.global_atomics", "count"),
    ("gpu.atomic_hotspot_max", "count"),
    ("gpu.host_per_sim", "ratio"),
    ("fft.host_s", "s"),
    ("fft.sim_s", "s"),
    ("nufft-fft.host_s", "s"),
    ("kernels.eval.host_ns", "ns"),
    ("cpu.sort.host_s", "s"),
    ("cpu.spread.host_s", "s"),
    ("cpu.interp.host_s", "s"),
    ("cpu.fft.host_s", "s"),
    ("cpu.deconv.host_s", "s"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.queue_wait_s.p90", "s"),
    ("serve.batch_size.mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.setpts_reuse_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Most repetitions of each layer probe; the host figure is their
/// median.
pub const PROBE_REPS: usize = 5;
/// A probe stops repeating once its calls have taken this long.
pub const PROBE_BUDGET_S: f64 = 0.5;

/// Per-layer values gathered by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not in the per-layer catalogue"
        );
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0
        self.values.insert(name, value + 0.0);
    }

    /// Every catalogue metric, 0 for the ones this workload left unset.
    pub fn into_metrics(self) -> MetricSet {
        let mut m = MetricSet::default();
        for &(name, unit) in PER_LAYER {
            m.push(name, unit, self.values.get(name).copied().unwrap_or(0.0));
        }
        m
    }
}

/// How a set-up is observed: the untraced run attaches nothing and keeps
/// the device timeline off; the traced run attaches one trace session
/// through the public hooks and turns the timeline on.
pub struct Observe {
    pub trace: Option<Trace>,
}

impl Observe {
    pub fn off() -> Self {
        Observe { trace: None }
    }

    pub fn on() -> Self {
        Observe {
            trace: Some(Trace::new()),
        }
    }

    /// A fresh simulated V100, observed as configured.
    pub fn device(&self) -> Device {
        let dev = Device::v100();
        dev.set_record_timeline(self.trace.is_some());
        if let Some(t) = &self.trace {
            dev.attach_trace(t);
        }
        dev
    }

    pub fn builder<T: Real>(&self, b: cufinufft::PlanBuilder<T>) -> cufinufft::PlanBuilder<T> {
        match &self.trace {
            Some(t) => b.tracing(t),
            None => b,
        }
    }

    pub fn counter(&self, name: &str) -> i64 {
        self.trace.as_ref().map_or(0, |t| t.counter(name).get())
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.trace.as_ref().map_or(0.0, |t| t.gauge(name).get())
    }
}

/// Median host seconds over up to [`PROBE_REPS`] calls of `f` (each
/// inside a span called `name`; fewer once they pass
/// [`PROBE_BUDGET_S`]) and the simulated seconds `dev` charged for the
/// last call (0 without a device).
pub fn probe<R>(
    dev: Option<&Device>,
    spans: &mut Spans,
    name: &'static str,
    mut f: impl FnMut() -> R,
) -> (f64, f64, R) {
    let clock = || dev.map_or(0.0, Device::clock);
    let mut host = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    let mut sim = 0.0;
    while host.len() < PROBE_REPS && host.iter().sum::<f64>() < PROBE_BUDGET_S {
        let c0 = clock();
        let t = Instant::now();
        let r = spans.span(name, |_| f());
        host.push(t.elapsed().as_secs_f64());
        sim = clock() - c0;
        last = Some(r);
    }
    (
        median(&host).expect("PROBE_REPS > 0"),
        sim,
        last.expect("PROBE_REPS > 0"),
    )
}

/// The bin sort and (for SM plans) the subproblem split on `pts`, on a
/// fresh device of their own with a fresh trace attached, so the
/// load-balance counters describe exactly one sort.
pub fn probe_bins<T: Real>(
    layers: &mut Layers,
    spans: &mut Spans,
    pts: &Points<T>,
    fine: Shape,
    sm: bool,
) {
    let dev = Device::v100();
    let trace = Trace::new();
    let bin = default_bin_size(pts.dim);
    let (host, sim, _) = probe(Some(&dev), spans, "bins.sort", || {
        gpu_bin_sort(&dev, pts, fine, bin)
    });
    layers.set("bins.sort.host_s", host);
    layers.set("bins.sort.sim_s", sim);
    dev.attach_trace(&trace);
    let sort = gpu_bin_sort(&dev, pts, fine, bin);
    layers.set("bins.imbalance", trace.gauge("bins.imbalance").get());
    dev.detach_trace();
    if !sm {
        return;
    }
    let msub = Tuning::default().msub;
    let (host, sim, _) = probe(Some(&dev), spans, "bins.subprob", || {
        build_subproblems(&dev, &sort, msub)
    });
    layers.set("bins.subprob.host_s", host);
    layers.set("bins.subprob.sim_s", sim);
    dev.attach_trace(&trace);
    build_subproblems(&dev, &sort, msub);
    let count = trace.counter("subprob.count").get() as f64;
    let idle = trace.counter("subprob.idle_slots").get() as f64;
    layers.set("subprob.count", count);
    layers.set("subprob.fill_ratio", 1.0 - idle / (count * msub as f64));
}

/// Host cells touched by spreading or interpolating `m` points with a
/// width-`w` kernel in `dim` dimensions.
fn cells(m: usize, w: usize, dim: usize) -> f64 {
    m as f64 * (w as f64).powi(dim as i32)
}

/// `Plan::spread_only` on a bound type-1 plan with strengths `c`;
/// returns the fine grid it produced.
pub fn probe_spread<T: Real>(
    layers: &mut Layers,
    spans: &mut Spans,
    plan: &mut Plan<T>,
    c: &[Complex<T>],
) -> Result<Vec<Complex<T>>, NufftError> {
    let mut grid = vec![Complex::<T>::ZERO; plan.fine_grid_shape().total()];
    // the simulated figure is the plan's own spread stage, without the
    // transfers `spread_only` adds around it
    let (host, _, r) = probe(None, spans, "cufinufft.spread_only", || {
        plan.spread_only(c, &mut grid)
    });
    r?;
    let w = plan.kernel().width();
    layers.set("spread.host_s", host);
    layers.set("spread.sim_s", plan.timings().spread_interp);
    layers.set(
        "spread.host_ns_per_cell",
        host * 1e9 / cells(c.len(), w, plan.modes().dim),
    );
    Ok(grid)
}

/// `Plan::interp_only` on a bound type-2 plan from the fine grid `grid`.
pub fn probe_interp<T: Real>(
    layers: &mut Layers,
    spans: &mut Spans,
    plan: &mut Plan<T>,
    grid: &[Complex<T>],
) -> Result<(), NufftError> {
    let mut out = vec![Complex::<T>::ZERO; plan.num_points()];
    let (host, _, r) = probe(None, spans, "cufinufft.interp_only", || {
        plan.interp_only(grid, &mut out)
    });
    r?;
    let w = plan.kernel().width();
    layers.set("interp.host_s", host);
    layers.set("interp.sim_s", plan.timings().spread_interp);
    layers.set(
        "interp.host_ns_per_cell",
        host * 1e9 / cells(out.len(), w, plan.modes().dim),
    );
    Ok(())
}

/// The device FFT (`GpuFftPlan::execute`) and the host FFT it wraps
/// (`FftNd::process`) on one fine grid.
pub fn probe_fft<T: Real>(
    layers: &mut Layers,
    spans: &mut Spans,
    fine: Shape,
) -> Result<(), NufftError> {
    let dev = Device::v100();
    let gpu = GpuFftPlan::<T>::new(fine);
    let mut buf = dev
        .alloc::<Complex<T>>("fft_probe", fine.total())
        .map_err(|e| NufftError::BadOptions(format!("fft probe buffer: {e}")))?;
    let (host, sim, _) = probe(Some(&dev), spans, "gpu-fft.execute", || {
        gpu.execute(&dev, &mut buf, Direction::Forward)
    });
    layers.set("fft.host_s", host);
    layers.set("fft.sim_s", sim);
    let fft = FftNd::<T>::new(fine);
    let mut data = vec![Complex::<T>::ZERO; fine.total()];
    let (host, _, _) = probe(None, spans, "nufft-fft.process", || {
        fft.process(&mut data, Direction::Forward)
    });
    layers.set("nufft-fft.host_s", host);
    Ok(())
}

/// Host nanoseconds per 1D kernel evaluation (`eval_row`: the `w`
/// factors one point contributes along one axis).
pub fn probe_kernel_eval<K: Kernel1d>(layers: &mut Layers, spans: &mut Spans, kernel: &K) {
    const CALLS: usize = 200_000;
    let w = kernel.width();
    let step = 2.0 / w as f64;
    let mut row = vec![0.0f64; w];
    let (host, _, _) = probe(None, spans, "kernels.eval_row", || {
        let mut acc = 0.0;
        for i in 0..CALLS {
            // first covered node in [-1, -1 + step), as spreading sees it
            let z0 = -1.0 + step * (i as f64 / CALLS as f64);
            kernel.eval_row(std::hint::black_box(z0), &mut row);
            acc += row[w / 2];
        }
        std::hint::black_box(acc)
    });
    layers.set("kernels.eval.host_ns", host * 1e9 / CALLS as f64);
}

/// Simulated-time terms of the device timeline, per op: the cost-model
/// breakdown of the spread and interp kernels, and the allocation and
/// transfer totals.
pub fn timeline_terms(layers: &mut Layers, timeline: &[TimelineRecord], ops: usize) {
    let per = 1.0 / ops.max(1) as f64;
    for (prefix, names) in [
        (
            "spread",
            [
                "gpu.spread.l2_s",
                "gpu.spread.dram_s",
                "gpu.spread.compute_s",
                "gpu.spread.atomic_hotspot_s",
                "gpu.spread.atomic_ops_s",
                "gpu.spread.overhead_s",
            ],
        ),
        (
            "interp",
            [
                "gpu.interp.l2_s",
                "gpu.interp.dram_s",
                "gpu.interp.compute_s",
                "gpu.interp.atomic_hotspot_s",
                "gpu.interp.atomic_ops_s",
                "gpu.interp.overhead_s",
            ],
        ),
    ] {
        let mut sum = [0.0f64; 6];
        for r in timeline
            .iter()
            .filter(|r| r.kind == OpKind::Kernel && r.name.starts_with(prefix))
        {
            let b = &r.breakdown;
            for (s, v) in sum.iter_mut().zip([
                b.l2,
                b.dram,
                b.compute,
                b.atomic_hotspot,
                b.atomic_ops,
                b.overhead,
            ]) {
                *s += v;
            }
        }
        for (name, s) in names.into_iter().zip(sum) {
            layers.set(name, s * per);
        }
    }
    let total = |kind: OpKind| -> f64 {
        timeline
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.duration)
            .sum::<f64>()
            * per
    };
    layers.set("gpu.alloc.sim_s", total(OpKind::Alloc));
    layers.set("gpu.memcpy.sim_s", total(OpKind::Memcpy));
}

/// gpu-sim's exact launch counters, read from the attached trace.
#[derive(Copy, Clone, Debug, Default)]
pub struct DeviceCounts {
    pub launches: i64,
    pub blocks: i64,
    pub global_atomics: i64,
}

impl DeviceCounts {
    pub fn read(obs: &Observe) -> Self {
        DeviceCounts {
            launches: obs.counter("gpu.kernel_launches"),
            blocks: obs.counter("gpu.blocks"),
            global_atomics: obs.counter("gpu.global_atomics"),
        }
    }

    /// Per-op counts between two readings `ops` ops apart, plus the
    /// hottest-sector gauge as it stands.
    pub fn set_per_op(layers: &mut Layers, obs: &Observe, before: Self, after: Self, ops: usize) {
        let per = 1.0 / ops.max(1) as f64;
        layers.set(
            "gpu.kernel_launches",
            (after.launches - before.launches) as f64 * per,
        );
        layers.set("gpu.blocks", (after.blocks - before.blocks) as f64 * per);
        layers.set(
            "gpu.global_atomics",
            (after.global_atomics - before.global_atomics) as f64 * per,
        );
        layers.set(
            "gpu.atomic_hotspot_max",
            obs.gauge("gpu.atomic_hotspot_max"),
        );
    }
}

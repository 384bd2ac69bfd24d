//! The op loop shared by the plan-based workloads, the end-to-end metric
//! catalogue, and the untraced and traced run sequences.

use std::sync::Arc;
use std::time::Instant;

use gpu_sim::Device;
use nufft_common::NufftError;

use crate::check::Accuracy;
use crate::host::RssWindows;
use crate::layers::{DeviceCounts, Layers, Observe};
use crate::metrics::{median, tail_percentile, MetricSet};
use crate::spans::Spans;

/// Every end-to-end metric with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_pts_per_s", "pts/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("sim_exec_pts_per_s", "pts/s"),
    ("sim_op_s", "s"),
    ("rel_l2_err", "ratio"),
    ("ok_ratio", "ratio"),
    ("host_peak_rss_bytes", "bytes"),
];

/// Fresh set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 8;
/// Fewest ops a timed loop runs, so that `op_s.p90` has ten samples
/// beyond it.
pub const MIN_OPS: usize = 100;
/// A timed loop stops here even if it has not reached [`MIN_OPS`].
pub const MAX_LOOP_S: f64 = 120.0;
/// Distinct inputs (strength vectors or point sets) the ops of a plan
/// workload cycle through: op `i` uses input `i % INPUT_POOL`.
pub const INPUT_POOL: usize = 8;
/// Ops whose device counters the traced run averages: one whole input
/// pool, so the counts repeat exactly.
pub const COUNT_OPS: u64 = INPUT_POOL as u64;

/// One op's cost on both clocks.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct OpSample {
    /// Host wall seconds.
    pub host_s: f64,
    /// `Device::clock()` delta around the whole op.
    pub sim_s: f64,
    /// Sum of `GpuStageTimings::exec()` over the op's executes.
    pub sim_exec_s: f64,
    /// `Device::clock()` delta summed over the op's execute calls.
    pub sim_execute_s: f64,
    /// `Device::clock()` delta summed over the op's `set_pts` calls.
    pub sim_setpts_s: f64,
}

/// A workload whose op is a fixed sequence of plan calls.
pub trait PlanWorkload: Sized {
    type Inputs;
    const NAME: &'static str;

    /// Every input of a run, generated from its seed.
    fn inputs(seed: u64) -> Self::Inputs;

    /// Device, plans, initial `set_pts` and the first op, which pays the
    /// one-off IO-buffer allocation. Set-up calls run outside any op.
    fn setup(
        inputs: &Arc<Self::Inputs>,
        obs: &Observe,
        spans: &mut Spans,
    ) -> Result<Self, NufftError>;

    /// Nonuniform points times transforms in one op.
    fn pts_per_op(&self) -> usize;

    /// Run op `i`. The host time is taken by the caller; `keep` asks the
    /// workload to keep the outputs for [`PlanWorkload::verify`].
    fn op(&mut self, i: u64, keep: bool, spans: &mut Spans) -> Result<OpSample, NufftError>;

    /// Check every kept output against the direct sum, then drop them.
    fn verify(&mut self) -> Accuracy;

    /// The simulated device the ops run on, if any.
    fn device(&self) -> Option<&Device>;

    /// Simulated op samples when the ops themselves do not run on the
    /// simulated device (`None`: use the loop's own samples).
    fn sim_samples(
        &mut self,
        _spans: &mut Spans,
    ) -> Result<Option<(Vec<OpSample>, Accuracy)>, NufftError> {
        Ok(None)
    }

    /// Traced run only: layer probes and per-layer values beyond what the
    /// loop's spans and counters give.
    fn layers(
        &mut self,
        layers: &mut Layers,
        spans: &mut Spans,
        obs: &Observe,
    ) -> Result<(), NufftError>;
}

/// Every op of a timed loop.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    pub samples: Vec<OpSample>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rss: RssWindows,
}

/// Keep outputs of one op in this many for the accuracy gate; coprime
/// with the input-pool length, so every pool entry gets checked.
pub const CHECK_EVERY: u64 = 9;

/// Run ops for `seconds` (and at least `min_ops` of them), calling
/// `after_op(n)` with the number of ops done after each one.
pub fn timed_loop<W: PlanWorkload>(
    w: &mut W,
    seconds: f64,
    min_ops: u64,
    spans: &mut Spans,
    mut after_op: impl FnMut(u64),
) -> LoopStats {
    let mut st = LoopStats {
        rss: RssWindows::new(),
        ..LoopStats::default()
    };
    let t0 = Instant::now();
    loop {
        let el = t0.elapsed().as_secs_f64();
        if (el >= seconds && st.attempted >= min_ops) || el >= MAX_LOOP_S {
            break;
        }
        let i = st.attempted;
        spans.set_op(Some(i));
        st.rss.start();
        let t = Instant::now();
        let r = spans.span("op", |s| w.op(i, i.is_multiple_of(CHECK_EVERY), s));
        let host_s = t.elapsed().as_secs_f64();
        st.rss.end();
        spans.set_op(None);
        st.attempted += 1;
        match r {
            Ok(s) => st.samples.push(OpSample { host_s, ..s }),
            Err(e) => {
                st.failed += 1;
                if st.errors.len() < 5 {
                    st.errors.push(format!("op {i}: {e}"));
                }
            }
        }
        after_op(st.attempted);
    }
    st.wall_s = t0.elapsed().as_secs_f64();
    st
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: MetricSet,
    pub attempted: u64,
    pub failed: u64,
    pub accuracy: Accuracy,
    pub errors: Vec<String>,
    pub spans: Option<Spans>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.accuracy.misses == 0 && self.accuracy.checked > 0
    }
}

/// Inputs to the end-to-end metrics of one workload run.
pub struct EndToEnd<'a> {
    pub setups: &'a [f64],
    pub host: &'a LoopStats,
    /// Samples carrying the simulated figures (the loop's own, or a
    /// simulated twin's).
    pub sim: &'a [OpSample],
    pub pts_per_op: usize,
    pub accuracy: &'a Accuracy,
    /// Ops attempted outside the timed loop (their accuracy misses are
    /// in `accuracy`).
    pub extra_attempted: u64,
}

impl EndToEnd<'_> {
    pub fn into_result(self) -> Result<RunResult, String> {
        let host: Vec<f64> = self.host.samples.iter().map(|s| s.host_s).collect();
        let p90 = tail_percentile(&host, 0.9).ok_or_else(|| {
            format!(
                "only {} ops completed: op_s.p90 needs {MIN_OPS}",
                host.len()
            )
        })?;
        let p50 = median(&host).expect("p90 implies samples");
        // simulated figures over whole input-pool cycles: each input's op
        // has its own simulated cost, so this keeps a seed's median
        // independent of how many ops the run completed
        let whole = self.sim.len() / INPUT_POOL * INPUT_POOL;
        let sim = if whole > 0 {
            &self.sim[..whole]
        } else {
            self.sim
        };
        let sim_op: Vec<f64> = sim.iter().map(|s| s.sim_s).collect();
        let sim_exec: Vec<f64> = sim
            .iter()
            .map(|s| self.pts_per_op as f64 / s.sim_exec_s)
            .collect();
        let attempted = self.host.attempted + self.extra_attempted;
        let failed = self.host.failed + self.accuracy.misses;
        let completed = self.host.samples.len() as f64;
        let mut m = MetricSet::default();
        m.push(
            "setup_s",
            "s",
            median(self.setups).ok_or("no set-up was timed")?,
        );
        m.push(
            "host_pts_per_s",
            "pts/s",
            completed * self.pts_per_op as f64 / self.host.wall_s,
        );
        m.push("op_s.p50", "s", p50);
        m.push("op_s.p90", "s", p90);
        m.push(
            "sim_exec_pts_per_s",
            "pts/s",
            median(&sim_exec).ok_or("no simulated op")?,
        );
        m.push("sim_op_s", "s", median(&sim_op).ok_or("no simulated op")?);
        m.push("rel_l2_err", "ratio", self.accuracy.worst());
        m.push(
            "ok_ratio",
            "ratio",
            1.0 - failed.min(attempted) as f64 / attempted.max(1) as f64,
        );
        m.push(
            "host_peak_rss_bytes",
            "bytes",
            self.host
                .rss
                .median()
                .ok_or("VmHWM not readable from /proc/self/status")?,
        );
        debug_assert!(m
            .iter()
            .map(|x| x.name.as_str())
            .eq(END_TO_END.iter().map(|x| x.0)));
        Ok(RunResult {
            metrics: m,
            attempted,
            failed,
            accuracy: self.accuracy.clone(),
            errors: self.host.errors.clone(),
            spans: None,
        })
    }
}

/// Time `reps` fresh set-ups made by `setup`, appending the seconds to
/// `times`; returns the last one.
pub fn timed_setups<S, E: std::fmt::Display>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<S, E>,
) -> Result<S, String> {
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let fresh = setup().map_err(|e| format!("set-up: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(fresh);
    }
    last.ok_or_else(|| "no set-up was run".to_string())
}

/// The untraced run: half of [`SETUP_REPS`] timed fresh set-ups, the
/// timed loop on the last one, the other half (so that a burst of host
/// load at either end moves the median less), then the accuracy gate.
pub fn run_untraced<W: PlanWorkload>(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Arc::new(W::inputs(seed));
    let obs = Observe::off();
    let mut spans = Spans::off();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let before = SETUP_REPS / 2;
    let mut w = timed_setups(before, &mut setups, || W::setup(&inputs, &obs, &mut spans))?;
    let lp = timed_loop(&mut w, seconds, MIN_OPS as u64, &mut spans, |_| {});
    timed_setups(SETUP_REPS - before, &mut setups, || {
        W::setup(&inputs, &obs, &mut Spans::off())
    })?;
    let mut accuracy = w.verify();
    let (sim, extra) = match w
        .sim_samples(&mut spans)
        .map_err(|e| format!("simulated twin: {e}"))?
    {
        Some((s, acc)) => {
            accuracy.merge(&acc);
            let n = s.len() as u64;
            (s, n)
        }
        None => (lp.samples.clone(), 0),
    };
    EndToEnd {
        setups: &setups,
        host: &lp,
        sim: &sim,
        pts_per_op: w.pts_per_op(),
        accuracy: &accuracy,
        extra_attempted: extra,
    }
    .into_result()
}

/// The traced run: an untraced loop for half the time (the baseline of
/// `trace.overhead_ratio`), then a traced set-up and loop for the other
/// half, then the layer probes.
pub fn run_traced<W: PlanWorkload>(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Arc::new(W::inputs(seed));
    let mut accuracy = Accuracy::default();
    let untraced_p50 = {
        let mut off = Spans::off();
        let mut w =
            W::setup(&inputs, &Observe::off(), &mut off).map_err(|e| format!("set-up: {e}"))?;
        let lp = timed_loop(&mut w, seconds / 2.0, COUNT_OPS, &mut off, |_| {});
        accuracy.merge(&w.verify());
        let host: Vec<f64> = lp.samples.iter().map(|s| s.host_s).collect();
        median(&host).ok_or("untraced loop completed no op")?
    };

    let obs = Observe::on();
    let mut spans = Spans::on();
    let mut w = spans
        .span("setup", |s| W::setup(&inputs, &obs, s))
        .map_err(|e| format!("traced set-up: {e}"))?;
    if let Some(dev) = w.device() {
        dev.clear_timeline();
    }
    let before = DeviceCounts::read(&obs);
    let mut layers = Layers::default();
    let lp = timed_loop(&mut w, seconds / 2.0, COUNT_OPS, &mut spans, |n| {
        if n == COUNT_OPS {
            DeviceCounts::set_per_op(
                &mut layers,
                &obs,
                before,
                DeviceCounts::read(&obs),
                COUNT_OPS as usize,
            );
        }
    });
    let ops = lp.samples.len();
    if let Some(dev) = w.device() {
        crate::layers::timeline_terms(&mut layers, &dev.timeline(), ops);
        layers.set("gpu.mem_peak_bytes", dev.mem_peak() as f64);
    }
    let exec_host = spans.per_op_total("cufinufft.execute");
    let sim_median = |f: fn(&OpSample) -> f64| {
        median(&lp.samples.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    layers.set(
        "cufinufft.setpts.host_s",
        spans.per_op_total("cufinufft.setpts"),
    );
    layers.set("cufinufft.setpts.sim_s", sim_median(|s| s.sim_setpts_s));
    let exec_sim = sim_median(|s| s.sim_execute_s);
    layers.set("cufinufft.execute.host_s", exec_host);
    layers.set("cufinufft.execute.sim_s", exec_sim);
    if exec_sim > 0.0 {
        layers.set("gpu.host_per_sim", exec_host / exec_sim);
    }
    accuracy.merge(&w.verify());
    w.layers(&mut layers, &mut spans, &obs)
        .map_err(|e| format!("layer probes: {e}"))?;
    // one set-up's plan builds: the traced set-up's, or on the CPU
    // workload its simulated twin's
    let build = spans
        .records()
        .iter()
        .filter(|s| s.name == "cufinufft.build")
        .map(|s| s.duration())
        .sum::<f64>();
    layers.set("cufinufft.build.host_s", build);
    let traced_p50 = median(&lp.samples.iter().map(|s| s.host_s).collect::<Vec<_>>())
        .ok_or("traced loop completed no op")?;
    layers.set("trace.overhead_ratio", traced_p50 / untraced_p50);
    Ok(RunResult {
        metrics: layers.into_metrics(),
        attempted: lp.attempted,
        failed: lp.failed + accuracy.misses,
        accuracy,
        errors: lp.errors,
        spans: Some(spans),
    })
}

//! `serve_2d_f32_mixed`: one client thread keeps 8 requests in flight
//! on a default-configured `NufftServer` (closed loop: submit, wait for
//! the oldest, submit the next). Requests rotate over three f32 specs on
//! one shared 4096-point set, so the plan cache, `set_pts` reuse and
//! coalescing into `execute_many` all run. Per-request overhead, not
//! spreading, dominates.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use cufinufft::{Method, Plan};
use gpu_sim::Device;
use nufft_common::{
    gen_coeffs, gen_points, gen_strengths, Complex, NufftError, PointDist, Points, Precision,
    Shape, TransformSpec, TransformType,
};
use nufft_serve::{NufftServer, Response, ServeConfig, ServeStats};

use crate::check::{envelope, sample_indices, sub_seed, type1_at_modes, type2_at_points, Accuracy};
use crate::host::RssWindows;
use crate::layers::{
    probe_bins, probe_fft, probe_interp, probe_kernel_eval, probe_spread, timeline_terms,
    DeviceCounts, Layers, Observe,
};
use crate::metrics::median;
use crate::ops::{
    timed_setups, EndToEnd, LoopStats, OpSample, RunResult, MAX_LOOP_S, MIN_OPS, SETUP_REPS,
};
use crate::spans::Spans;

pub const NAME: &str = "serve_2d_f32_mixed";
const M: usize = 4096;
const IN_FLIGHT: usize = 8;
const POOL: usize = 8;
/// Keep one response in this many; coprime with the 3 specs × 8 inputs,
/// so every (spec, input) pair gets checked.
const CHECK_EVERY: u64 = 7;
/// Kind of each spec's outputs in the accuracy tally.
const KINDS: [&str; 3] = ["type1_64", "type2_64", "type1_48"];
const CHECK_MODES: usize = 1024;
const CHECK_POINTS: usize = 1024;

fn specs() -> [TransformSpec; 3] {
    [
        TransformSpec::type1(&[64, 64])
            .eps(1e-4)
            .precision(Precision::F32),
        TransformSpec::type2(&[64, 64])
            .eps(1e-4)
            .precision(Precision::F32),
        TransformSpec::type1(&[48, 48])
            .eps(1e-6)
            .precision(Precision::F32),
    ]
}

fn spec_modes(spec: &TransformSpec) -> Shape {
    Shape::from_slice(&spec.modes)
}

struct Inputs {
    seed: u64,
    specs: [TransformSpec; 3],
    pts: Arc<Points<f32>>,
    /// `pool[s][k]`: input `k` of spec `s`.
    pool: Vec<Vec<Vec<Complex<f32>>>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let specs = specs();
        let pool = specs
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                (0..POOL)
                    .map(|k| {
                        let sd = sub_seed(seed, 100 * (s as u64 + 1) + k as u64);
                        match spec.ttype {
                            TransformType::Type1 => gen_strengths(spec.input_len(M), sd),
                            TransformType::Type2 => gen_coeffs(spec.input_len(M), sd),
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            seed,
            specs,
            pts: Arc::new(gen_points(
                PointDist::Rand,
                2,
                M,
                Shape::d2(128, 128),
                sub_seed(seed, 1),
            )),
            pool,
        }
    }

    /// Spec and input index of request `r`.
    fn request(&self, r: u64) -> (usize, usize) {
        ((r % 3) as usize, (r / 3) as usize % POOL)
    }
}

struct Server {
    dev: Device,
    server: NufftServer,
}

/// Server start plus one warm-up request per spec.
fn setup(inputs: &Inputs, obs: &Observe, spans: &mut Spans) -> Result<Server, NufftError> {
    let dev = obs.device();
    let config = match &obs.trace {
        Some(t) => ServeConfig::default().with_trace(t),
        None => ServeConfig::default(),
    };
    let server = spans.span("serve.start", |_| NufftServer::start(&dev, config))?;
    for (s, spec) in inputs.specs.iter().enumerate() {
        spans.span("serve.warmup", |_| {
            server
                .submit_wait(spec, &inputs.pts, inputs.pool[s][0].clone())?
                .wait()
        })?;
    }
    Ok(Server { dev, server })
}

/// Outputs of one kept response: spec, input index and the result.
type Kept = (usize, usize, Vec<Complex<f32>>);

struct Loop {
    stats: LoopStats,
    kept: Vec<Kept>,
    sim_s: f64,
}

/// The closed loop: [`IN_FLIGHT`] requests outstanding until `seconds`
/// have passed and [`MIN_OPS`] were sent, then drain.
fn closed_loop(inputs: &Inputs, srv: &Server, seconds: f64, spans: &mut Spans) -> Loop {
    let mut st = LoopStats {
        rss: RssWindows::new(),
        ..LoopStats::default()
    };
    let mut kept = Vec::new();
    let mut inflight: VecDeque<(u64, Response<f32>, Instant)> = VecDeque::new();
    let t0 = Instant::now();
    let c0 = srv.dev.clock();
    let submit = |r: u64, st: &mut LoopStats, inflight: &mut VecDeque<_>, spans: &mut Spans| {
        let (s, k) = inputs.request(r);
        st.attempted += 1;
        spans.set_op(Some(r));
        let t = Instant::now();
        let resp = spans.span("serve.submit", |_| {
            srv.server
                .submit_wait(&inputs.specs[s], &inputs.pts, inputs.pool[s][k].clone())
        });
        spans.set_op(None);
        match resp {
            Ok(resp) => inflight.push_back((r, resp, t)),
            Err(e) => {
                st.failed += 1;
                st.errors.push(format!("request {r} refused: {e}"));
            }
        }
    };
    let mut next = 0u64;
    st.rss.start();
    while (next as usize) < IN_FLIGHT {
        submit(next, &mut st, &mut inflight, spans);
        next += 1;
    }
    while let Some((r, resp, t)) = inflight.pop_front() {
        // one memory window per generation of in-flight requests
        if r > 0 && r.is_multiple_of(IN_FLIGHT as u64) {
            st.rss.end();
            st.rss.start();
        }
        spans.set_op(Some(r));
        let out = spans.span("serve.wait", |_| resp.wait());
        spans.set_op(None);
        let latency = t.elapsed().as_secs_f64();
        match out {
            Ok(v) => {
                st.samples.push(OpSample {
                    host_s: latency,
                    ..OpSample::default()
                });
                if r.is_multiple_of(CHECK_EVERY) {
                    let (s, k) = inputs.request(r);
                    kept.push((s, k, v));
                }
            }
            Err(e) => {
                st.failed += 1;
                if st.errors.len() < 5 {
                    st.errors.push(format!("request {r}: {e}"));
                }
            }
        }
        let el = t0.elapsed().as_secs_f64();
        if (el < seconds || st.attempted < MIN_OPS as u64) && el < MAX_LOOP_S {
            submit(next, &mut st, &mut inflight, spans);
            next += 1;
        }
    }
    st.wall_s = t0.elapsed().as_secs_f64();
    Loop {
        stats: st,
        kept,
        sim_s: srv.dev.clock() - c0,
    }
}

fn verify(inputs: &Inputs, kept: &[Kept]) -> Accuracy {
    let mut cache: BTreeMap<(usize, usize), Vec<Complex<f64>>> = BTreeMap::new();
    let mut acc = Accuracy::default();
    for (s, k, got) in kept {
        let spec = &inputs.specs[*s];
        let modes = spec_modes(spec);
        let input = &inputs.pool[*s][*k];
        let idx = match spec.ttype {
            TransformType::Type1 => sample_indices(
                modes.total(),
                CHECK_MODES,
                sub_seed(inputs.seed, 2 + *s as u64),
            ),
            TransformType::Type2 => {
                sample_indices(M, CHECK_POINTS, sub_seed(inputs.seed, 2 + *s as u64))
            }
        };
        let want = cache.entry((*s, *k)).or_insert_with(|| match spec.ttype {
            TransformType::Type1 => type1_at_modes(&inputs.pts, input, modes, spec.iflag, &idx),
            TransformType::Type2 => type2_at_points(&inputs.pts, input, modes, spec.iflag, &idx),
        });
        acc.check((KINDS[*s], *k), got, &idx, want, envelope(spec.eps, false));
    }
    acc
}

/// Simulated seconds per completed request, as the single sample the
/// end-to-end metrics read: the serve layer hides stage timings, so on
/// this workload "exec" is all simulated time.
fn sim_sample(lp: &Loop) -> OpSample {
    let per = lp.sim_s / lp.stats.samples.len().max(1) as f64;
    OpSample {
        sim_s: per,
        sim_exec_s: per,
        ..OpSample::default()
    }
}

pub fn run_untraced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Inputs::new(seed);
    let mut spans = Spans::off();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let before = SETUP_REPS / 2;
    // a dropped server shuts down and joins its worker
    let srv = timed_setups(before, &mut setups, || {
        setup(&inputs, &Observe::off(), &mut spans)
    })?;
    let lp = closed_loop(&inputs, &srv, seconds, &mut spans);
    srv.server.shutdown();
    timed_setups(SETUP_REPS - before, &mut setups, || {
        setup(&inputs, &Observe::off(), &mut Spans::off())
    })?;
    let accuracy = verify(&inputs, &lp.kept);
    EndToEnd {
        setups: &setups,
        host: &lp.stats,
        sim: &[sim_sample(&lp)],
        pts_per_op: M,
        accuracy: &accuracy,
        extra_attempted: 0,
    }
    .into_result()
}

fn serve_layers(layers: &mut Layers, obs: &Observe, stats: &ServeStats) {
    let trace = obs.trace.as_ref().expect("traced run");
    let wait = trace.histogram("serve.queue_wait").snapshot();
    layers.set("serve.queue_wait_s.p50", wait.p50().unwrap_or(0.0));
    layers.set("serve.queue_wait_s.p90", wait.p90().unwrap_or(0.0));
    let batch = trace.histogram("serve.batch_size").snapshot();
    layers.set("serve.batch_size.mean", batch.mean().unwrap_or(0.0));
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    layers.set(
        "serve.cache_hit_ratio",
        ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
    );
    layers.set(
        "serve.coalesce_ratio",
        ratio(stats.coalesced, stats.completed),
    );
    layers.set(
        "serve.setpts_reuse_ratio",
        ratio(stats.setpts_reuses, stats.batches),
    );
    layers.set("serve.rejected", stats.rejected as f64);
}

/// The cuFINUFFT layers the server drives, probed from outside on plans
/// built from the same specs: build, `set_pts` and one execute per spec,
/// then the bin, spread, interp, FFT and kernel probes.
fn plan_layers(inputs: &Inputs, layers: &mut Layers, spans: &mut Spans) -> Result<(), NufftError> {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let mut plans = Vec::new();
    let t = Instant::now();
    for spec in &inputs.specs {
        plans.push(spans.span("cufinufft.build", |_| Plan::<f32>::from_spec(spec, &dev))?);
    }
    layers.set("cufinufft.build.host_s", t.elapsed().as_secs_f64());
    let (mut setpts_sim, mut exec_sim) = (Vec::new(), Vec::new());
    for (s, plan) in plans.iter_mut().enumerate() {
        let spec = &inputs.specs[s];
        let mut out = vec![Complex::<f32>::ZERO; spec.output_len(M)];
        let input = &inputs.pool[s][0];
        let op = u64::MAX - s as u64;
        spans.set_op(Some(op));
        let c0 = dev.clock();
        spans.span("cufinufft.setpts", |_| plan.set_pts(&inputs.pts))?;
        setpts_sim.push(dev.clock() - c0);
        spans.set_op(None);
        // the first execute allocates the IO buffers
        plan.execute(input, &mut out)?;
        spans.set_op(Some(op));
        let c0 = dev.clock();
        spans.span("cufinufft.execute", |_| plan.execute(input, &mut out))?;
        exec_sim.push(dev.clock() - c0);
        spans.set_op(None);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let exec_host = spans.per_op_total("cufinufft.execute");
    layers.set(
        "cufinufft.setpts.host_s",
        spans.per_op_total("cufinufft.setpts"),
    );
    layers.set("cufinufft.setpts.sim_s", mean(&setpts_sim));
    layers.set("cufinufft.execute.host_s", exec_host);
    layers.set("cufinufft.execute.sim_s", mean(&exec_sim));
    layers.set("gpu.host_per_sim", exec_host / mean(&exec_sim));

    let fine = plans[0].fine_grid_shape();
    probe_bins(
        layers,
        spans,
        &inputs.pts,
        fine,
        plans[0].spread_method() == Method::Sm,
    );
    let grid = probe_spread(layers, spans, &mut plans[0], &inputs.pool[0][0])?;
    assert_eq!(
        plans[1].fine_grid_shape(),
        fine,
        "the two 64² eps 1e-4 specs share one fine grid"
    );
    probe_interp(layers, spans, &mut plans[1], &grid)?;
    probe_fft::<f32>(layers, spans, fine)?;
    probe_kernel_eval(layers, spans, plans[0].eval_kernel());
    Ok(())
}

pub fn run_traced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let inputs = Inputs::new(seed);
    let mut accuracy = Accuracy::default();
    let untraced_p50 = {
        let mut off = Spans::off();
        let srv = setup(&inputs, &Observe::off(), &mut off).map_err(|e| format!("set-up: {e}"))?;
        let lp = closed_loop(&inputs, &srv, seconds / 2.0, &mut off);
        srv.server.shutdown();
        accuracy.merge(&verify(&inputs, &lp.kept));
        median(
            &lp.stats
                .samples
                .iter()
                .map(|s| s.host_s)
                .collect::<Vec<_>>(),
        )
        .ok_or("untraced loop completed no request")?
    };

    let obs = Observe::on();
    let mut spans = Spans::on();
    let srv = spans
        .span("setup", |s| setup(&inputs, &obs, s))
        .map_err(|e| format!("traced set-up: {e}"))?;
    srv.dev.clear_timeline();
    let before = DeviceCounts::read(&obs);
    let lp = closed_loop(&inputs, &srv, seconds / 2.0, &mut spans);
    let served = lp.stats.samples.len();
    let mut layers = Layers::default();
    DeviceCounts::set_per_op(&mut layers, &obs, before, DeviceCounts::read(&obs), served);
    timeline_terms(&mut layers, &srv.dev.timeline(), served);
    layers.set("gpu.mem_peak_bytes", srv.dev.mem_peak() as f64);
    let stats = srv.server.stats();
    srv.server.shutdown();
    serve_layers(&mut layers, &obs, &stats);
    accuracy.merge(&verify(&inputs, &lp.kept));
    plan_layers(&inputs, &mut layers, &mut spans).map_err(|e| format!("layer probes: {e}"))?;
    let traced_p50 = median(
        &lp.stats
            .samples
            .iter()
            .map(|s| s.host_s)
            .collect::<Vec<_>>(),
    )
    .ok_or("traced loop completed no request")?;
    layers.set("trace.overhead_ratio", traced_p50 / untraced_p50);
    Ok(RunResult {
        metrics: layers.into_metrics(),
        attempted: lp.stats.attempted,
        failed: lp.stats.failed + accuracy.misses,
        accuracy,
        errors: lp.stats.errors,
        spans: Some(spans),
    })
}

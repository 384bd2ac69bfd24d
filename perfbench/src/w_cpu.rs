//! `cpu_3d_f64_rand`: finufft-cpu on `t1_3d_f64_rand`'s problem (16³
//! modes, eps 1e-9, f64) with 32768 uniform points bound once and two
//! worker threads; each op is a type 1 and then a type 2 of its output.
//! The paper's CPU comparator. The simulated figures come from a
//! cuFINUFFT twin of the same op, run once after the timed loop.

use std::sync::Arc;

use cufinufft::{Method, Plan};
use finufft_cpu::plan::{Opts, Plan as CpuPlan, StageTimings};
use gpu_sim::Device;
use nufft_common::{
    gen_points, gen_strengths, Complex, NufftError, NufftPlan, PointDist, Points, Shape,
    TransformType,
};
use nufft_kernels::EvalKernel;

use crate::check::{
    envelope, sample_indices, sub_seed, type1_at_modes, type2_at_points, Accuracy, PairWant,
};
use crate::host::CPU_NTHREADS;
use crate::layers::{
    probe_bins, probe_fft, probe_interp, probe_kernel_eval, probe_spread, timeline_terms,
    DeviceCounts, Layers, Observe,
};
use crate::metrics::median;
use crate::ops::{OpSample, PlanWorkload, INPUT_POOL as POOL};
use crate::spans::Spans;

const MODES: [usize; 3] = [16, 16, 16];
const M: usize = 32768;
const EPS: f64 = 1e-9;
const CHECK_MODES: usize = 512;
const CHECK_POINTS: usize = 2048;
/// Span op id of the simulated twin's measured op, apart from the loop's.
const TWIN_OP: u64 = u64::MAX;

pub struct Inputs {
    seed: u64,
    pts: Points<f64>,
    strengths: Vec<Vec<Complex<f64>>>,
}

type Kept = (usize, Vec<Complex<f64>>, Vec<Complex<f64>>);

pub struct Cpu {
    inputs: Arc<Inputs>,
    t1: CpuPlan<f64, EvalKernel>,
    t2: CpuPlan<f64, EvalKernel>,
    f: Vec<Complex<f64>>,
    c: Vec<Complex<f64>>,
    kept: Vec<Kept>,
    /// Stage timings of both plans after each op.
    stages: Vec<(StageTimings, StageTimings)>,
}

fn modes() -> Shape {
    Shape::from_slice(&MODES)
}

/// The op on either backend: type 1 of strengths `c_in` into `f`, then
/// type 2 of `f` into `c`, each call in a span called `layer`.
fn pair<P: NufftPlan<f64>>(
    spans: &mut Spans,
    layer: &'static str,
    (t1, t2): (&mut P, &mut P),
    c_in: &[Complex<f64>],
    f: &mut [Complex<f64>],
    c: &mut [Complex<f64>],
) -> Result<(), NufftError> {
    spans.span(layer, |_| t1.execute(c_in, f))?;
    spans.span(layer, |_| t2.execute(f, c))
}

/// Check one kept op: type 1 at a mode subsample against the strengths,
/// type 2 at a point subsample against the type-1 output.
fn check_pair(
    inputs: &Inputs,
    cache: &mut PairWant,
    (k, f, c): &Kept,
    key: usize,
    acc: &mut Accuracy,
) {
    let kidx = sample_indices(modes().total(), CHECK_MODES, sub_seed(inputs.seed, 2));
    let pidx = sample_indices(M, CHECK_POINTS, sub_seed(inputs.seed, 3));
    let (w1, w2) = cache.entry(*k).or_insert_with(|| {
        (
            type1_at_modes(&inputs.pts, &inputs.strengths[*k], modes(), -1, &kidx),
            type2_at_points(&inputs.pts, f, modes(), 1, &pidx),
        )
    });
    acc.check(("type1", key), f, &kidx, w1, envelope(EPS, true));
    acc.check(("type2", key), c, &pidx, w2, envelope(EPS, true));
}

/// The cuFINUFFT twin: GM-sort plans for the same op on a simulated V100.
struct Twin {
    dev: Device,
    t1: Plan<f64>,
    t2: Plan<f64>,
    f: Vec<Complex<f64>>,
    c: Vec<Complex<f64>>,
}

impl Twin {
    fn setup(inputs: &Inputs, obs: &Observe, spans: &mut Spans) -> Result<Self, NufftError> {
        let dev = obs.device();
        let build = |ttype, iflag| {
            obs.builder(
                Plan::<f64>::builder(ttype, &MODES)
                    .eps(EPS)
                    .iflag(iflag)
                    .method(Method::GmSort),
            )
            .build(&dev)
        };
        let mut t1 = spans.span("cufinufft.build", |_| build(TransformType::Type1, -1))?;
        let mut t2 = spans.span("cufinufft.build", |_| build(TransformType::Type2, 1))?;
        spans.span("cufinufft.setpts", |_| t1.set_pts(&inputs.pts))?;
        spans.span("cufinufft.setpts", |_| t2.set_pts(&inputs.pts))?;
        let mut twin = Twin {
            dev,
            t1,
            t2,
            f: vec![Complex::ZERO; modes().total()],
            c: vec![Complex::ZERO; M],
        };
        // the first op allocates the IO buffers: set-up, not measured
        twin.op(inputs, 0, spans)?;
        Ok(twin)
    }

    fn op(&mut self, inputs: &Inputs, k: usize, spans: &mut Spans) -> Result<OpSample, NufftError> {
        let c0 = self.dev.clock();
        pair(
            spans,
            "cufinufft.execute",
            (&mut self.t1, &mut self.t2),
            &inputs.strengths[k],
            &mut self.f,
            &mut self.c,
        )?;
        let sim = self.dev.clock() - c0;
        Ok(OpSample {
            sim_s: sim,
            sim_exec_s: self.t1.timings().exec() + self.t2.timings().exec(),
            sim_execute_s: sim,
            ..OpSample::default()
        })
    }
}

impl PlanWorkload for Cpu {
    type Inputs = Inputs;
    const NAME: &'static str = "cpu_3d_f64_rand";

    fn inputs(seed: u64) -> Inputs {
        Inputs {
            seed,
            pts: gen_points(
                PointDist::Rand,
                3,
                M,
                Shape::d3(32, 32, 32),
                sub_seed(seed, 1),
            ),
            strengths: (0..POOL)
                .map(|k| gen_strengths(M, sub_seed(seed, 100 + k as u64)))
                .collect(),
        }
    }

    fn setup(inputs: &Arc<Inputs>, _obs: &Observe, spans: &mut Spans) -> Result<Self, NufftError> {
        let opts = Opts {
            nthreads: CPU_NTHREADS,
            ..Opts::default()
        };
        let mut t1 = spans.span("finufft.build", |_| {
            CpuPlan::<f64, EvalKernel>::new(TransformType::Type1, &MODES, -1, EPS, opts.clone())
        })?;
        let mut t2 = spans.span("finufft.build", |_| {
            CpuPlan::<f64, EvalKernel>::new(TransformType::Type2, &MODES, 1, EPS, opts)
        })?;
        spans.span("finufft.setpts", |_| t1.set_pts(inputs.pts.clone()))?;
        spans.span("finufft.setpts", |_| t2.set_pts(inputs.pts.clone()))?;
        let mut w = Cpu {
            inputs: Arc::clone(inputs),
            t1,
            t2,
            f: vec![Complex::ZERO; modes().total()],
            c: vec![Complex::ZERO; M],
            kept: Vec::new(),
            stages: Vec::new(),
        };
        pair(
            spans,
            "finufft.execute",
            (&mut w.t1, &mut w.t2),
            &inputs.strengths[0],
            &mut w.f,
            &mut w.c,
        )?;
        Ok(w)
    }

    fn pts_per_op(&self) -> usize {
        2 * M
    }

    fn op(&mut self, i: u64, keep: bool, spans: &mut Spans) -> Result<OpSample, NufftError> {
        let k = i as usize % POOL;
        pair(
            spans,
            "finufft.execute",
            (&mut self.t1, &mut self.t2),
            &self.inputs.strengths[k],
            &mut self.f,
            &mut self.c,
        )?;
        if keep {
            self.kept.push((k, self.f.clone(), self.c.clone()));
        }
        if spans.is_on() {
            self.stages.push((self.t1.timings(), self.t2.timings()));
        }
        Ok(OpSample::default())
    }

    fn verify(&mut self) -> Accuracy {
        let mut cache = PairWant::new();
        let mut acc = Accuracy::default();
        for kept in self.kept.drain(..) {
            check_pair(&self.inputs, &mut cache, &kept, kept.0, &mut acc);
        }
        acc
    }

    fn device(&self) -> Option<&Device> {
        None
    }

    fn sim_samples(
        &mut self,
        spans: &mut Spans,
    ) -> Result<Option<(Vec<OpSample>, Accuracy)>, NufftError> {
        let mut twin = Twin::setup(&self.inputs, &Observe::off(), spans)?;
        let k = 1;
        let sample = twin.op(&self.inputs, k, spans)?;
        let mut acc = Accuracy::default();
        let kept = (k, twin.f.clone(), twin.c.clone());
        // the twin's outputs are distinct from the CPU plans' of the same
        // input, so they pool under their own key
        check_pair(
            &self.inputs,
            &mut PairWant::new(),
            &kept,
            POOL + k,
            &mut acc,
        );
        Ok(Some((vec![sample], acc)))
    }

    fn layers(
        &mut self,
        layers: &mut Layers,
        spans: &mut Spans,
        _obs: &Observe,
    ) -> Result<(), NufftError> {
        let med = |f: &dyn Fn(&(StageTimings, StageTimings)) -> f64| {
            median(&self.stages.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        layers.set(
            "cpu.sort.host_s",
            self.t1.timings().sort + self.t2.timings().sort,
        );
        layers.set("cpu.spread.host_s", med(&|(a, _)| a.spread_interp));
        layers.set("cpu.interp.host_s", med(&|(_, b)| b.spread_interp));
        layers.set("cpu.fft.host_s", med(&|(a, b)| a.fft + b.fft));
        layers.set("cpu.deconv.host_s", med(&|(a, b)| a.deconv + b.deconv));
        probe_kernel_eval(layers, spans, self.t1.kernel());
        probe_fft::<f64>(layers, spans, self.t1.fine_grid_shape())?;

        // the GPU layers run only in the twin: one traced set-up, one op
        let obs = Observe::on();
        let mut twin = spans.span("twin.setup", |s| Twin::setup(&self.inputs, &obs, s))?;
        twin.dev.clear_timeline();
        let before = DeviceCounts::read(&obs);
        spans.set_op(Some(TWIN_OP));
        let sample = spans.span("op", |s| twin.op(&self.inputs, 1, s))?;
        spans.set_op(None);
        DeviceCounts::set_per_op(layers, &obs, before, DeviceCounts::read(&obs), 1);
        timeline_terms(layers, &twin.dev.timeline(), 1);
        layers.set("gpu.mem_peak_bytes", twin.dev.mem_peak() as f64);
        let exec_host = spans.per_op_total("cufinufft.execute");
        layers.set("cufinufft.execute.host_s", exec_host);
        layers.set("cufinufft.execute.sim_s", sample.sim_execute_s);
        layers.set("gpu.host_per_sim", exec_host / sample.sim_execute_s);
        probe_bins(
            layers,
            spans,
            &self.inputs.pts,
            twin.t1.fine_grid_shape(),
            false,
        );
        let grid = probe_spread(layers, spans, &mut twin.t1, &self.inputs.strengths[0])?;
        probe_interp(layers, spans, &mut twin.t2, &grid)?;
        Ok(())
    }
}

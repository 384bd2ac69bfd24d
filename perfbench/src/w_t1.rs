//! `t1_3d_f64_rand`: type 1 in 3D, f64, eps 1e-9 (w = 10), GM-sort,
//! 16³ modes, 8192 uniform points bound once; each op executes with
//! fresh strengths. The paper's high-accuracy case; host time is almost
//! all gpu-sim's global-atomic and L2 accounting in the spread kernel.

use std::collections::BTreeMap;
use std::sync::Arc;

use cufinufft::{Method, Plan};
use gpu_sim::Device;
use nufft_common::{
    gen_points, gen_strengths, Complex, NufftError, PointDist, Points, Shape, TransformType,
};

use crate::check::{envelope, sample_indices, sub_seed, type1_at_modes, Accuracy};
use crate::layers::{probe_bins, probe_fft, probe_kernel_eval, probe_spread, Layers, Observe};
use crate::ops::{OpSample, PlanWorkload, INPUT_POOL as POOL};
use crate::spans::Spans;

const MODES: [usize; 3] = [16, 16, 16];
const M: usize = 8192;
const EPS: f64 = 1e-9;
/// Modes per checked output.
const CHECK_MODES: usize = 1024;

pub struct Inputs {
    seed: u64,
    pts: Points<f64>,
    strengths: Vec<Vec<Complex<f64>>>,
}

pub struct T1 {
    inputs: Arc<Inputs>,
    dev: Device,
    plan: Plan<f64>,
    out: Vec<Complex<f64>>,
    kept: Vec<(usize, Vec<Complex<f64>>)>,
}

fn modes() -> Shape {
    Shape::from_slice(&MODES)
}

impl PlanWorkload for T1 {
    type Inputs = Inputs;
    const NAME: &'static str = "t1_3d_f64_rand";

    fn inputs(seed: u64) -> Inputs {
        Inputs {
            seed,
            // the fine grid only shapes clustered draws; uniform points
            // cover the whole periodic box
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

    fn setup(inputs: &Arc<Inputs>, obs: &Observe, spans: &mut Spans) -> Result<Self, NufftError> {
        let dev = obs.device();
        let mut plan = spans.span("cufinufft.build", |_| {
            obs.builder(
                Plan::<f64>::builder(TransformType::Type1, &MODES)
                    .eps(EPS)
                    .iflag(-1)
                    .method(Method::GmSort),
            )
            .build(&dev)
        })?;
        spans.span("cufinufft.setpts", |_| plan.set_pts(&inputs.pts))?;
        let mut out = vec![Complex::ZERO; modes().total()];
        spans.span("cufinufft.execute", |_| {
            plan.execute(&inputs.strengths[0], &mut out)
        })?;
        Ok(T1 {
            inputs: Arc::clone(inputs),
            dev,
            plan,
            out,
            kept: Vec::new(),
        })
    }

    fn pts_per_op(&self) -> usize {
        M
    }

    fn op(&mut self, i: u64, keep: bool, spans: &mut Spans) -> Result<OpSample, NufftError> {
        let k = i as usize % POOL;
        let c0 = self.dev.clock();
        let (plan, out) = (&mut self.plan, &mut self.out);
        spans.span("cufinufft.execute", |_| {
            plan.execute(&self.inputs.strengths[k], out)
        })?;
        let sim = self.dev.clock() - c0;
        if keep {
            self.kept.push((k, self.out.clone()));
        }
        Ok(OpSample {
            sim_s: sim,
            sim_exec_s: self.plan.timings().exec(),
            sim_execute_s: sim,
            ..OpSample::default()
        })
    }

    fn verify(&mut self) -> Accuracy {
        let idx = sample_indices(modes().total(), CHECK_MODES, sub_seed(self.inputs.seed, 2));
        let mut want: BTreeMap<usize, Vec<Complex<f64>>> = BTreeMap::new();
        let mut acc = Accuracy::default();
        for (k, got) in self.kept.drain(..) {
            let want = want.entry(k).or_insert_with(|| {
                type1_at_modes(
                    &self.inputs.pts,
                    &self.inputs.strengths[k],
                    modes(),
                    -1,
                    &idx,
                )
            });
            acc.check(("type1", k), &got, &idx, want, envelope(EPS, true));
        }
        acc
    }

    fn device(&self) -> Option<&Device> {
        Some(&self.dev)
    }

    fn layers(
        &mut self,
        layers: &mut Layers,
        spans: &mut Spans,
        _obs: &Observe,
    ) -> Result<(), NufftError> {
        let fine = self.plan.fine_grid_shape();
        probe_bins(layers, spans, &self.inputs.pts, fine, false);
        probe_spread(layers, spans, &mut self.plan, &self.inputs.strengths[0])?;
        probe_fft::<f64>(layers, spans, fine)?;
        probe_kernel_eval(layers, spans, self.plan.eval_kernel());
        Ok(())
    }
}

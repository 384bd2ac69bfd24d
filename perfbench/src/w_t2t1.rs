//! `t2t1_2d_f32_cluster`: 2D, f32, eps 1e-5 (w = 6), 128² modes, 65536
//! clustered points. Each op rebinds a fresh point set on two plans,
//! runs type 2 (GM-sort interpolation) and then type 1 (SM spreading)
//! on its output: M-TIP's slice-then-merge pattern, and the clustered
//! load-balancing case of the paper's Fig. 6.

use std::sync::Arc;

use cufinufft::{Method, Plan};
use gpu_sim::Device;
use nufft_common::{
    gen_coeffs, gen_points, Complex, NufftError, PointDist, Points, Shape, TransformType,
};

use crate::check::{
    envelope, sample_indices, sub_seed, type1_at_modes, type2_at_points, Accuracy, PairWant,
};
use crate::layers::{
    probe_bins, probe_fft, probe_interp, probe_kernel_eval, probe_spread, Layers, Observe,
};
use crate::ops::{OpSample, PlanWorkload, INPUT_POOL as POOL};
use crate::spans::Spans;

const MODES: [usize; 2] = [128, 128];
const M: usize = 65536;
const EPS: f64 = 1e-5;
const CHECK_POINTS: usize = 1024;
const CHECK_MODES: usize = 256;

pub struct Inputs {
    seed: u64,
    pts: Vec<Points<f32>>,
    coeffs: Vec<Vec<Complex<f32>>>,
}

/// Outputs of one kept op: its pool index, the type-2 output and the
/// type-1 output computed from it.
type Kept = (usize, Vec<Complex<f32>>, Vec<Complex<f32>>);

pub struct T2T1 {
    inputs: Arc<Inputs>,
    dev: Device,
    interp: Plan<f32>,
    spread: Plan<f32>,
    c: Vec<Complex<f32>>,
    f: Vec<Complex<f32>>,
    kept: Vec<Kept>,
}

fn modes() -> Shape {
    Shape::from_slice(&MODES)
}

/// One op's plan calls on point set `k`; returns the simulated seconds
/// of the `set_pts` calls and of the execute calls.
fn run_op(w: &mut T2T1, k: usize, spans: &mut Spans) -> Result<(f64, f64), NufftError> {
    let pts = &w.inputs.pts[k];
    let c0 = w.dev.clock();
    spans.span("cufinufft.setpts", |_| w.interp.set_pts(pts))?;
    spans.span("cufinufft.setpts", |_| w.spread.set_pts(pts))?;
    let c1 = w.dev.clock();
    let (interp, spread, c, f) = (&mut w.interp, &mut w.spread, &mut w.c, &mut w.f);
    spans.span("cufinufft.execute", |_| {
        interp.execute(&w.inputs.coeffs[k], c)
    })?;
    spans.span("cufinufft.execute", |_| spread.execute(c, f))?;
    Ok((c1 - c0, w.dev.clock() - c1))
}

impl PlanWorkload for T2T1 {
    type Inputs = Inputs;
    const NAME: &'static str = "t2t1_2d_f32_cluster";

    fn inputs(seed: u64) -> Inputs {
        // the cluster box is 8 fine-grid cells wide: 256² is the fine
        // grid both plans use at this size and tolerance
        let fine = Shape::d2(256, 256);
        Inputs {
            seed,
            pts: (0..POOL)
                .map(|k| {
                    gen_points(
                        PointDist::Cluster,
                        2,
                        M,
                        fine,
                        sub_seed(seed, 10 + k as u64),
                    )
                })
                .collect(),
            coeffs: (0..POOL)
                .map(|k| gen_coeffs(modes().total(), sub_seed(seed, 100 + k as u64)))
                .collect(),
        }
    }

    fn setup(inputs: &Arc<Inputs>, obs: &Observe, spans: &mut Spans) -> Result<Self, NufftError> {
        let dev = obs.device();
        let build = |ttype, iflag, method| {
            obs.builder(
                Plan::<f32>::builder(ttype, &MODES)
                    .eps(EPS)
                    .iflag(iflag)
                    .method(method),
            )
            .build(&dev)
        };
        let interp = spans.span("cufinufft.build", |_| {
            build(TransformType::Type2, 1, Method::GmSort)
        })?;
        let spread = spans.span("cufinufft.build", |_| {
            build(TransformType::Type1, -1, Method::Sm)
        })?;
        let mut w = T2T1 {
            inputs: Arc::clone(inputs),
            dev,
            interp,
            spread,
            c: vec![Complex::ZERO; M],
            f: vec![Complex::ZERO; modes().total()],
            kept: Vec::new(),
        };
        run_op(&mut w, 0, spans)?;
        Ok(w)
    }

    fn pts_per_op(&self) -> usize {
        2 * M
    }

    fn op(&mut self, i: u64, keep: bool, spans: &mut Spans) -> Result<OpSample, NufftError> {
        let k = i as usize % POOL;
        let c0 = self.dev.clock();
        let (setpts, execute) = run_op(self, k, spans)?;
        let sim = self.dev.clock() - c0;
        if keep {
            self.kept.push((k, self.c.clone(), self.f.clone()));
        }
        Ok(OpSample {
            sim_s: sim,
            sim_exec_s: self.interp.timings().exec() + self.spread.timings().exec(),
            sim_execute_s: execute,
            sim_setpts_s: setpts,
            ..OpSample::default()
        })
    }

    fn verify(&mut self) -> Accuracy {
        let pidx = sample_indices(M, CHECK_POINTS, sub_seed(self.inputs.seed, 2));
        let kidx = sample_indices(modes().total(), CHECK_MODES, sub_seed(self.inputs.seed, 3));
        let mut want = PairWant::new();
        let mut acc = Accuracy::default();
        let env = envelope(EPS, false);
        for (k, c, f) in self.kept.drain(..) {
            let pts = &self.inputs.pts[k];
            // the type-1 reference sums the type-2 output this op
            // produced: every op with pool index k computes the same one
            let (w2, w1) = want.entry(k).or_insert_with(|| {
                (
                    type2_at_points(pts, &self.inputs.coeffs[k], modes(), 1, &pidx),
                    type1_at_modes(pts, &c, modes(), -1, &kidx),
                )
            });
            acc.check(("type2", k), &c, &pidx, w2, env);
            acc.check(("type1", k), &f, &kidx, w1, env);
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
        let fine = self.spread.fine_grid_shape();
        let pts = &self.inputs.pts[0];
        probe_bins(layers, spans, pts, fine, true);
        // the probes run on the plans as the last op left them: bound to
        // that op's points, with its type-2 output as the strengths
        let c = self.c.clone();
        let grid = probe_spread(layers, spans, &mut self.spread, &c)?;
        assert_eq!(
            self.interp.fine_grid_shape(),
            fine,
            "both plans share one fine grid"
        );
        probe_interp(layers, spans, &mut self.interp, &grid)?;
        probe_fft::<f32>(layers, spans, fine)?;
        probe_kernel_eval(layers, spans, self.spread.eval_kernel());
        Ok(())
    }
}

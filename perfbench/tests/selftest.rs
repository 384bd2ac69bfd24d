//! Self-tests of the benchmark: metric names, the percentile rule,
//! failure accounting, the untraced run's observation settings, the
//! repeatability of simulated op time, and agreement with
//! `BENCHMARK.json`.

use std::sync::Arc;

use cufinufft::{Method, Plan};
use gpu_sim::{Device, FaultMode, FaultPlan};
use nufft_common::{
    gen_points, gen_strengths, Complex, NufftError, PointDist, Shape, TransformType,
};
use perfbench::check::Accuracy;
use perfbench::layers::{Layers, Observe, PER_LAYER};
use perfbench::metrics::{tail_percentile, valid_metric_name, valid_unit};
use perfbench::ops::{timed_loop, EndToEnd, OpSample, PlanWorkload, END_TO_END};
use perfbench::spans::Spans;
use perfbench::w_t1::T1;
use perfbench::Workload;

#[test]
fn metric_names_use_the_allowed_charset() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
    }
    for w in Workload::ALL {
        assert!(valid_metric_name(w.name()), "{}", w.name());
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        "op s",
        "p90%",
        "_lead",
        ".lead",
        "naïve",
        "a/b",
        long.as_str(),
    ] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
    assert!(valid_metric_name("nufft-fft.host_s"));
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    all.sort_unstable();
    let n = all.len();
    all.dedup();
    assert_eq!(all.len(), n, "a metric name is used twice");
}

#[test]
fn no_p90_from_fewer_than_100_samples() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&samples[..99], 0.9), None);
    assert_eq!(tail_percentile(&samples, 0.9), Some(90.0));
    // ten samples lie beyond the reported value
    let p90 = tail_percentile(&samples, 0.9).unwrap();
    assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
    assert_eq!(tail_percentile(&samples, 0.99), None);
}

/// A tiny type-1 plan whose spread kernel faults persistently during
/// ops `fault_from..fault_to`.
struct Faulty {
    dev: Device,
    plan: Plan<f32>,
    c: Vec<Complex<f32>>,
    out: Vec<Complex<f32>>,
    fault_from: u64,
    fault_to: u64,
}

impl PlanWorkload for Faulty {
    type Inputs = (u64, u64);
    const NAME: &'static str = "faulty";

    fn inputs(_seed: u64) -> (u64, u64) {
        (3, 5)
    }

    fn setup(
        range: &Arc<(u64, u64)>,
        obs: &Observe,
        _spans: &mut Spans,
    ) -> Result<Self, NufftError> {
        let dev = obs.device();
        let mut plan = Plan::<f32>::builder(TransformType::Type1, &[8, 8])
            .eps(1e-3)
            .method(Method::GmSort)
            .build(&dev)?;
        plan.set_pts(&gen_points(PointDist::Rand, 2, 64, Shape::d2(16, 16), 1))?;
        Ok(Faulty {
            dev,
            plan,
            c: gen_strengths(64, 2),
            out: vec![Complex::ZERO; 64],
            fault_from: range.0,
            fault_to: range.1,
        })
    }

    fn pts_per_op(&self) -> usize {
        64
    }

    fn op(&mut self, i: u64, _keep: bool, _spans: &mut Spans) -> Result<OpSample, NufftError> {
        if i == self.fault_from {
            self.dev
                .inject_faults(FaultPlan::new(7).fail_kernel("spread", FaultMode::Always));
        }
        if i == self.fault_to {
            self.dev.clear_faults();
        }
        let c0 = self.dev.clock();
        self.plan.execute(&self.c, &mut self.out)?;
        Ok(OpSample {
            sim_s: self.dev.clock() - c0,
            sim_exec_s: self.plan.timings().exec(),
            ..OpSample::default()
        })
    }

    fn verify(&mut self) -> Accuracy {
        let mut acc = Accuracy::default();
        let one = [Complex::new(1.0, 0.0)];
        acc.check(("type1", 0), &one, &[0], &[Complex::new(1.0, 0.0)], 1.0);
        acc
    }

    fn device(&self) -> Option<&Device> {
        Some(&self.dev)
    }

    fn layers(&mut self, _: &mut Layers, _: &mut Spans, _: &Observe) -> Result<(), NufftError> {
        Ok(())
    }
}

#[test]
fn a_typed_error_counts_as_a_failure_not_a_panic() {
    let inputs = Arc::new(Faulty::inputs(0));
    let mut spans = Spans::off();
    let mut w = Faulty::setup(&inputs, &Observe::off(), &mut spans).unwrap();
    let lp = timed_loop(&mut w, 0.0, 120, &mut spans, |_| {});
    assert_eq!(lp.attempted, 120);
    assert_eq!(lp.failed, 2, "ops 3 and 4 fault: {:?}", lp.errors);
    assert_eq!(lp.samples.len(), 118);
    assert!(lp
        .errors
        .iter()
        .all(|e| e.starts_with("op 3") || e.starts_with("op 4")));
    let acc = w.verify();
    let r = EndToEnd {
        setups: &[1.0],
        host: &lp,
        sim: &lp.samples,
        pts_per_op: 64,
        accuracy: &acc,
        extra_attempted: 0,
    }
    .into_result()
    .unwrap();
    assert_eq!((r.attempted, r.failed), (120, 2));
    assert!((r.metrics.get("ok_ratio").unwrap() - 118.0 / 120.0).abs() < 1e-15);
    assert!(!r.correct());
}

#[test]
fn an_accuracy_miss_counts_as_a_failure() {
    let mut acc = Accuracy::default();
    acc.check(
        ("type1", 0),
        &[Complex::new(1.001f64, 0.0)],
        &[0],
        &[Complex::new(1.0, 0.0)],
        1e-4,
    );
    let lp = perfbench::ops::LoopStats {
        samples: vec![
            OpSample {
                host_s: 1.0,
                sim_s: 1.0,
                sim_exec_s: 1.0,
                ..OpSample::default()
            };
            100
        ],
        wall_s: 100.0,
        attempted: 100,
        ..Default::default()
    };
    let r = EndToEnd {
        setups: &[1.0],
        host: &lp,
        sim: &lp.samples,
        pts_per_op: 1,
        accuracy: &acc,
        extra_attempted: 0,
    }
    .into_result()
    .unwrap();
    assert_eq!(r.failed, 1);
    assert!(!r.correct());
    assert!((r.metrics.get("ok_ratio").unwrap() - 0.99).abs() < 1e-15);
}

#[test]
fn untraced_setup_attaches_no_trace_and_keeps_the_timeline_off() {
    let inputs = Arc::new(T1::inputs(1));
    let mut spans = Spans::off();
    let mut w = T1::setup(&inputs, &Observe::off(), &mut spans).unwrap();
    w.op(0, false, &mut spans).unwrap();
    let dev = w.device().unwrap();
    assert!(dev.trace().is_none());
    assert!(dev.timeline().is_empty());
    assert!(spans.records().is_empty());

    let traced = Observe::on().device();
    assert!(traced.trace().is_some());
    traced.advance("probe", 1e-6);
    assert_eq!(traced.timeline().len(), 1);
}

/// The repeatability `sim_op_s` rests on: on a plan with its points bound,
/// every execute after the first (which allocates the IO buffers) moves
/// the device clock by the same amount, while `GpuStageTimings::alloc`
/// keeps growing with each rebind, so `total_mem()` cannot stand in for
/// per-op simulated time.
#[test]
fn simulated_op_time_repeats_after_the_first_op() {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let mut plan = Plan::<f64>::builder(TransformType::Type1, &[8, 8, 8])
        .eps(1e-9)
        .method(Method::GmSort)
        .build(&dev)
        .unwrap();
    let pts = gen_points::<f64>(PointDist::Rand, 3, 512, Shape::d3(20, 20, 20), 5);
    plan.set_pts(&pts).unwrap();
    let mut out = vec![Complex::ZERO; 512];
    let mut deltas = Vec::new();
    for k in 0..6 {
        let c = gen_strengths::<f64>(512, 10 + k);
        let c0 = dev.clock();
        plan.execute(&c, &mut out).unwrap();
        deltas.push(dev.clock() - c0);
    }
    assert!(deltas[0] > deltas[1], "the first op allocates: {deltas:?}");
    for d in &deltas[2..] {
        assert!(
            ((d - deltas[1]) / deltas[1]).abs() < 1e-12,
            "ops after the first must repeat: {deltas:?}"
        );
    }

    let alloc_before = plan.timings().alloc;
    plan.set_pts(&pts).unwrap();
    plan.set_pts(&pts).unwrap();
    assert!(
        plan.timings().alloc > alloc_before,
        "alloc accumulates across rebinds"
    );
}

/// Metric objects of one `BENCHMARK.json` array, as (name, unit) pairs.
fn benchmark_json_metrics(text: &str, key: &str) -> Vec<(String, String)> {
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        obj[at..at + obj[at..].find('"').unwrap()].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_runs_report() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let want = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(
        benchmark_json_metrics(&text, "end_to_end"),
        want(END_TO_END)
    );
    assert_eq!(benchmark_json_metrics(&text, "per_layer"), want(PER_LAYER));
    for w in Workload::ALL {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

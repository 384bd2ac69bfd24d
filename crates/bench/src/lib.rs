//! Shared utilities for the paper-reproduction benchmark harnesses.
//!
//! Each figure/table of the paper has one `harness = false` bench target
//! under `benches/`; they print paper-style tables to stdout and write
//! CSV rows under `results/` at the workspace root. Problem sizes are
//! scaled down from the paper's (DESIGN.md §2.3) unless `BENCH_LARGE=1`.

#![forbid(unsafe_code)]

use gpu_sim::Device;
use nufft_common::workload::{gen_points, gen_strengths, PointDist, Points};
use nufft_common::{Complex, NufftPlan, Real, Shape, TransformType};
use nufft_trace::bench::BenchReport;
use nufft_trace::Trace;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// True when the (slower) closer-to-paper problem sizes are requested.
pub fn large_mode() -> bool {
    std::env::var("BENCH_LARGE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// True when `BENCH_TRACE=1` asks each bench row to dump a Chrome trace.
pub fn trace_mode() -> bool {
    std::env::var("BENCH_TRACE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

static TRACE_ROW: AtomicUsize = AtomicUsize::new(0);

/// Start a per-row trace session when [`trace_mode`] is on. Pair with
/// [`finish_trace`] after the run to write `results/traces/<tag>-NNN.trace.json`.
pub fn start_trace() -> Option<Trace> {
    trace_mode().then(Trace::new)
}

/// Export a trace started by [`start_trace`] as Chrome trace-event JSON
/// under `results/traces/`; returns the written path.
pub fn finish_trace(trace: Option<Trace>, tag: &str) -> Option<PathBuf> {
    let trace = trace?;
    let row = TRACE_ROW.fetch_add(1, Ordering::Relaxed);
    let mut dir = results_dir();
    dir.push("traces");
    std::fs::create_dir_all(&dir).expect("create traces dir");
    let path = dir.join(format!("{tag}-{row:03}.trace.json"));
    std::fs::write(&path, trace.report().chrome_json()).expect("write trace");
    Some(path)
}

/// Locate the workspace root.
pub fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p
}

/// Locate the workspace-root `results/` directory.
pub fn results_dir() -> PathBuf {
    let mut p = workspace_root();
    p.push("results");
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Locate `results/bench/`, the *tracked* home of the `BENCH_*.json`
/// trajectory. Reports must live here, not at the workspace root: the
/// root-level `BENCH_*.json` glob is git-ignored (it used to require a
/// per-file whitelist entry, which silently broke the prior-report
/// lookup), while this directory is explicitly un-ignored.
pub fn bench_dir() -> PathBuf {
    let mut p = results_dir();
    p.push("bench");
    std::fs::create_dir_all(&p).expect("create bench dir");
    p
}

/// UTC `YYYYMMDD` for a unix timestamp (civil-from-days arithmetic —
/// no date crates in this workspace).
pub fn utc_yyyymmdd(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}{m:02}{d:02}")
}

/// Write a trajectory point as `BENCH_<date>.json` under `dir` (date
/// from the report's own `created_unix`); returns the written path.
///
/// Never clobbers an existing same-day point: a second run on the same
/// date gets a `a`/`b`/… suffix (`BENCH_<date>a.json`). Since `'.'`
/// sorts before letters, suffixed names still sort *after* the bare
/// date and *before* the next day — lexicographic filename order stays
/// chronological, so `latest_prior_bench` keeps seeing the most recent
/// earlier point instead of losing the trajectory to an overwrite.
pub fn write_bench_report(dir: &std::path::Path, report: &BenchReport) -> PathBuf {
    let date = utc_yyyymmdd(report.created_unix);
    let mut path = dir.join(format!("BENCH_{date}.json"));
    let mut suffix = b'a';
    while path.exists() {
        assert!(suffix <= b'z', "more than 27 bench reports on {date}");
        path = dir.join(format!("BENCH_{date}{}.json", suffix as char));
        suffix += 1;
    }
    std::fs::write(&path, report.to_json()).expect("write bench report");
    path
}

/// The latest *valid* `BENCH_*.json` under `dir` other than `exclude`
/// (lexicographic filename order == chronological for the
/// `BENCH_YYYYMMDD` naming). Unparseable files are skipped, not fatal:
/// a corrupt old trajectory point must not wedge the bench tier.
pub fn latest_prior_bench(
    dir: &std::path::Path,
    exclude: Option<&std::path::Path>,
) -> Option<(PathBuf, BenchReport)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json") && Some(p.as_path()) != exclude
        })
        .collect();
    paths.sort();
    while let Some(path) = paths.pop() {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(report) = BenchReport::from_json(&text) {
                return Some((path, report));
            }
        }
    }
    None
}

/// A CSV sink under `results/`.
pub struct Csv {
    f: File,
}

impl Csv {
    pub fn create(name: &str, header: &str) -> Self {
        let path = results_dir().join(name);
        let mut f = File::create(&path).expect("create csv");
        writeln!(f, "{header}").unwrap();
        Csv { f }
    }

    pub fn row(&mut self, line: &str) {
        writeln!(self.f, "{line}").unwrap();
    }
}

/// Format seconds-per-point as nanoseconds.
pub fn ns_per_pt(seconds: f64, m: usize) -> f64 {
    seconds / m as f64 * 1e9
}

/// Generate the paper's benchmark inputs for a given fine grid.
pub fn workload<T: Real>(
    dist: PointDist,
    dim: usize,
    fine: Shape,
    rho: f64,
    seed: u64,
) -> (Points<T>, Vec<Complex<T>>) {
    let m = ((fine.total() as f64) * rho).round() as usize;
    let pts = gen_points::<T>(dist, dim, m, fine, seed);
    let cs = gen_strengths::<T>(m, seed + 1);
    (pts, cs)
}

/// Drive any backend plan through the shared [`NufftPlan`] lifecycle:
/// bind points, execute one transform, return the output vector.
pub fn run_plan<T: Real>(
    plan: &mut dyn NufftPlan<T>,
    pts: &Points<T>,
    input: &[Complex<T>],
) -> Vec<Complex<T>> {
    plan.set_points(pts).expect("set_points");
    let mut out = vec![Complex::<T>::ZERO; plan.output_len()];
    plan.execute(input, &mut out).expect("execute");
    out
}

/// Run cuFINUFFT with an explicit spreading method; returns timings and
/// the outputs for error measurement.
pub fn run_cufinufft<T: Real>(
    ttype: TransformType,
    modes: &[usize],
    eps: f64,
    method: cufinufft::Method,
    pts: &Points<T>,
    input: &[Complex<T>],
) -> (cufinufft::GpuStageTimings, Vec<Complex<T>>) {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let trace = start_trace();
    let mut builder = cufinufft::Plan::<T>::builder(ttype, modes)
        .eps(eps)
        .method(method);
    if let Some(t) = &trace {
        builder = builder.tracing(t);
    }
    let mut plan = builder.build(&dev).expect("cufinufft plan");
    let out = run_plan(&mut plan, pts, input);
    let timings = plan.timings();
    finish_trace(trace, &format!("cufinufft-{ttype:?}-{method:?}"));
    (timings, out)
}

/// Run cuFINUFFT's stream-pipelined batched path over `b` stacked
/// strength/coefficient vectors; returns the plan (holding stage and
/// per-chunk batch timings) plus the stacked outputs.
pub fn run_cufinufft_batch<T: Real>(
    ttype: TransformType,
    modes: &[usize],
    eps: f64,
    b: usize,
    max_batch: usize,
    pts: &Points<T>,
    input: &[Complex<T>],
) -> (cufinufft::Plan<T>, Vec<Complex<T>>) {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let trace = start_trace();
    let mut builder = cufinufft::Plan::<T>::builder(ttype, modes)
        .eps(eps)
        .ntransf(b)
        .max_batch(max_batch);
    if let Some(t) = &trace {
        builder = builder.tracing(t);
    }
    let mut plan = builder.build(&dev).expect("cufinufft batch plan");
    plan.set_pts(pts).expect("set_pts");
    let out_per = match ttype {
        TransformType::Type1 => modes.iter().product(),
        TransformType::Type2 => pts.len(),
    };
    let mut out = vec![Complex::<T>::ZERO; out_per * b];
    plan.execute_many(input, &mut out).expect("execute_many");
    finish_trace(trace, &format!("cufinufft-batch-{ttype:?}"));
    (plan, out)
}

/// Run the CUNFFT baseline.
pub fn run_cunfft<T: Real>(
    ttype: TransformType,
    modes: &[usize],
    eps: f64,
    pts: &Points<T>,
    input: &[Complex<T>],
) -> (cufinufft::GpuStageTimings, Vec<Complex<T>>) {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let iflag = if ttype == TransformType::Type1 { -1 } else { 1 };
    let mut plan =
        nufft_baselines::CunfftPlan::<T>::new(ttype, modes, iflag, eps, &dev).expect("cunfft plan");
    let out = run_plan(&mut plan, pts, input);
    (plan.timings(), out)
}

/// Run the gpuNUFFT baseline.
pub fn run_gpunufft<T: Real>(
    ttype: TransformType,
    modes: &[usize],
    eps: f64,
    pts: &Points<T>,
    input: &[Complex<T>],
) -> (cufinufft::GpuStageTimings, Vec<Complex<T>>) {
    let dev = Device::v100();
    dev.set_record_timeline(false);
    let iflag = if ttype == TransformType::Type1 { -1 } else { 1 };
    let mut plan = nufft_baselines::GpunufftPlan::<T>::new(ttype, modes, iflag, eps, &dev)
        .expect("gpunufft plan");
    let out = run_plan(&mut plan, pts, input);
    (plan.timings(), out)
}

/// Model the FINUFFT CPU comparator's "exec" and "total" times for a
/// transform (paper testbed: 2x Xeon E5-2680 v4, 28 threads).
pub fn finufft_model_times<T: Real>(
    ttype: TransformType,
    modes: Shape,
    eps: f64,
    m: usize,
) -> (f64, f64) {
    let model = finufft_cpu::CpuModel::xeon_e5_2680v4();
    let prec = finufft_cpu::CpuPrecision::of::<T>();
    let kernel =
        nufft_kernels::EsKernel::for_tolerance(eps, T::IS_DOUBLE).expect("tolerance in range");
    let fine = modes.map(|_, n| nufft_common::smooth::fine_grid_size(n, 2.0, kernel.w));
    let exec = match ttype {
        TransformType::Type1 => model.type1_exec(m, kernel.w, modes, fine, prec),
        TransformType::Type2 => model.type2_exec(m, kernel.w, modes, fine, prec),
    };
    (exec, model.total(exec, m))
}

/// Compute the true values with the CPU library at high accuracy
/// (FINUFFT's role as ground truth in the paper's error methodology).
pub fn ground_truth<T: Real>(
    ttype: TransformType,
    modes: &[usize],
    pts: &Points<T>,
    input: &[Complex<T>],
) -> Vec<Complex<f64>> {
    let iflag = if ttype == TransformType::Type1 { -1 } else { 1 };
    // eps = 1e-14 ground truth, as in the paper's double-precision runs
    let mut plan =
        finufft_cpu::Plan::<f64>::new(ttype, modes, iflag, 1e-14, finufft_cpu::Opts::default())
            .expect("truth plan");
    let pts64 = Points::<f64> {
        coords: [
            pts.coords[0].iter().map(|v| v.to_f64()).collect(),
            pts.coords[1].iter().map(|v| v.to_f64()).collect(),
            pts.coords[2].iter().map(|v| v.to_f64()).collect(),
        ],
        dim: pts.dim,
    };
    let input64: Vec<Complex<f64>> = input.iter().map(|z| z.cast()).collect();
    plan.set_pts(pts64).expect("truth pts");
    let n: usize = modes.iter().product();
    let out_len = match ttype {
        TransformType::Type1 => n,
        TransformType::Type2 => pts.len(),
    };
    let mut out = vec![Complex::<f64>::ZERO; out_len];
    plan.execute(&input64, &mut out).expect("truth exec");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_dates_match_known_timestamps() {
        assert_eq!(utc_yyyymmdd(0), "19700101");
        assert_eq!(utc_yyyymmdd(86_399), "19700101");
        assert_eq!(utc_yyyymmdd(86_400), "19700102");
        assert_eq!(utc_yyyymmdd(951_868_800), "20000301"); // leap-year boundary
        assert_eq!(utc_yyyymmdd(1_754_611_200), "20250808");
    }

    #[test]
    fn bench_trajectory_write_find_compare() {
        let dir = std::env::temp_dir().join(format!("bench-traj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(latest_prior_bench(&dir, None).is_none());

        let mut old = BenchReport::new("bench-smoke", 86_400); // 19700102
        old.push_row("row", 0.100, 3);
        let old_path = write_bench_report(&dir, &old);
        assert!(old_path.ends_with("BENCH_19700102.json"));

        let mut cur = BenchReport::new("bench-smoke", 31_536_000); // 19710101
        cur.push_row("row", 0.200, 3);
        let cur_path = write_bench_report(&dir, &cur);

        // prior = the latest file that isn't the one just written
        let (found_path, found) =
            latest_prior_bench(&dir, Some(cur_path.as_path())).expect("prior exists");
        assert_eq!(found_path, old_path);
        let regs = nufft_trace::bench::compare(&found, &cur, 0.15);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "row");

        // a corrupt trajectory point is skipped, not fatal
        std::fs::write(dir.join("BENCH_19720101.json"), "not json").unwrap();
        let (p, _) = latest_prior_bench(&dir, Some(cur_path.as_path())).expect("prior");
        assert_eq!(p, old_path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_reports_round_trip_from_the_tracked_bench_dir() {
        // Regression test for the PR-8 trajectory break: reports were
        // written to the workspace root, where `.gitignore`'s
        // `BENCH_*.json` glob swallowed them, so `latest_prior_bench`
        // never saw a prior on a fresh checkout. The tracked home is
        // `results/bench/`; a report written there must be found again.
        let dir = bench_dir();
        assert!(
            dir.ends_with("results/bench"),
            "bench reports must live under results/bench, got {}",
            dir.display()
        );

        // The committed trajectory must already be visible here (the
        // root-level BENCH_20260808.json was migrated into this dir).
        assert!(
            latest_prior_bench(&dir, None).is_some(),
            "no committed BENCH_*.json under {} — the trajectory is broken again",
            dir.display()
        );

        // Round-trip a synthetic far-future point and clean it up.
        let mut fut = BenchReport::new("bench-smoke", 4_102_444_800); // 21000101
        fut.push_row("row", 0.125, 1);
        let fut_path = write_bench_report(&dir, &fut);
        assert!(fut_path.ends_with("BENCH_21000101.json"));
        let (found_path, found) = latest_prior_bench(&dir, None).expect("just wrote one");
        assert_eq!(found_path, fut_path);
        assert_eq!(found.rows.len(), 1);
        // Excluding the new point falls back to the committed prior.
        let (prior_path, _) =
            latest_prior_bench(&dir, Some(fut_path.as_path())).expect("committed prior");
        assert_ne!(prior_path, fut_path);

        // A second same-day run must NOT clobber the first (that is how
        // the trajectory was lost once): it gets a letter suffix that
        // still sorts after the bare date, so the new point is latest
        // and the first one is its visible prior.
        let mut fut2 = BenchReport::new("bench-smoke", 4_102_444_800);
        fut2.push_row("row", 0.0625, 1);
        let fut2_path = write_bench_report(&dir, &fut2);
        assert!(fut2_path.ends_with("BENCH_21000101a.json"));
        let (latest_path, _) = latest_prior_bench(&dir, None).expect("two written");
        assert_eq!(latest_path, fut2_path);
        let (prev_path, prev) =
            latest_prior_bench(&dir, Some(fut2_path.as_path())).expect("same-day prior");
        assert_eq!(prev_path, fut_path);
        assert_eq!(prev.rows[0].wall_s, 0.125);

        std::fs::remove_file(fut_path).ok();
        std::fs::remove_file(fut2_path).ok();
    }

    #[test]
    fn workload_density_sizing() {
        let fine = Shape::d2(64, 64);
        let (pts, cs) = workload::<f32>(PointDist::Rand, 2, fine, 1.0, 3);
        assert_eq!(pts.len(), 4096);
        assert_eq!(cs.len(), 4096);
    }

    #[test]
    fn finish_trace_writes_parseable_chrome_json() {
        let trace = Trace::new();
        {
            let _on = trace.activate();
            let _s = trace.span("bench.row");
        }
        let path = finish_trace(Some(trace), "unit").expect("path");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = nufft_trace::json::Json::parse(&text).expect("valid json");
        assert!(doc.get("traceEvents").and_then(|v| v.as_array()).is_some());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn harness_runners_smoke() {
        let fine = Shape::d2(64, 64);
        let (pts, cs) = workload::<f32>(PointDist::Rand, 2, fine, 0.5, 4);
        let (t, out) = run_cufinufft(
            TransformType::Type1,
            &[32, 32],
            1e-4,
            cufinufft::Method::Sm,
            &pts,
            &cs,
        );
        assert!(t.exec() > 0.0);
        let truth = ground_truth(TransformType::Type1, &[32, 32], &pts, &cs);
        let err = nufft_common::metrics::rel_l2(&out, &truth);
        assert!(err < 1e-3, "err={err}");
        let (fe, ft) =
            finufft_model_times::<f32>(TransformType::Type1, Shape::d2(32, 32), 1e-4, pts.len());
        assert!(fe > 0.0 && ft > fe);
    }
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report (lines starting with `#`) and, as its
//! last line, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 only when every op succeeded and
//! every checked output met its accuracy envelope.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host::HostInfo;
use perfbench::metrics::{json_number, json_string, result_line, MetricSet};
use perfbench::Workload;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds {value:?}: want a number in (0, 60]"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the run's report file goes: beside the executable, which lives
/// in the build directory of the checkout.
fn report_dir() -> Option<PathBuf> {
    Some(
        std::env::current_exe()
            .ok()?
            .parent()?
            .join("perfbench-reports"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = HostInfo::probe();
    let name = args.workload.name();
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("# host {}", host.to_json());
    let result = match args.workload.run(args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &result.errors {
        eprintln!("perfbench: {name}: {e}");
    }
    println!(
        "# accuracy: {} outputs checked, {} outside the envelope, worst single output rel l2 {:e}",
        result.accuracy.checked, result.accuracy.misses, result.accuracy.worst_output
    );
    for m in result.metrics.iter() {
        println!("# {:32} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    let mut metrics = MetricSet::default();
    for m in result.metrics.iter().filter(|m| m.value.is_finite()) {
        metrics.push(&m.name, m.unit, m.value);
    }
    let non_finite = result.metrics.non_finite();
    let correct = result.correct() && non_finite.is_empty();
    if !non_finite.is_empty() {
        eprintln!("perfbench: {name}: non-finite metrics {non_finite:?}");
    }

    let line = result_line(correct, result.attempted, result.failed, &metrics);
    if let Some(dir) = report_dir() {
        let path = dir.join(format!(
            "{name}-seed{}-trace{}.json",
            args.seed, args.trace as u8
        ));
        let (span_stats, spans) = result
            .spans
            .as_ref()
            .map_or(("{}".into(), "[]".into()), |s| {
                (s.stats_json(), s.to_json())
            });
        let body = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"result\": {line}, \"span_stats\": {span_stats}, \"spans\": {spans}}}\n",
            json_string(name),
            args.seed,
            json_number(args.seconds),
            args.trace,
            host.to_json(),
        );
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
        match written {
            Ok(()) => println!("# report {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! End-to-end and per-layer benchmark of the PKA analysis path.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload sim_full|select_scaled|serve_feed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets its workload up several times (`setup_s` is the median),
//! measures passes of the workload through the library's public entry
//! points for `--seconds`, checks the outputs, and prints one JSON object
//! as the last stdout line: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the benchmark re-drives the same work through each layer's public
//! functions, times those calls itself, and reports the per-layer set.
//! `README.md` next to this file explains the workloads and metrics.

mod fingerprint;
mod layers;
mod passes;
mod per_layer;
mod report;
mod select_scaled;
mod serve_feed;
mod sim_full;
mod stats;
mod traced;

use std::process::ExitCode;
use std::time::Instant;

use pka_core::{PkaConfig, PksConfig, TwoLevelConfig};
use report::Report;

/// The seed whose selections and cycle totals are pinned by the digests
/// recorded in the workload modules.
pub const DIGEST_SEED: u64 = 0;

/// Executor workers for the untraced `sim_full` passes: one per core of
/// the reference 2-core host. `select_scaled` uses one worker (see there).
/// Traced passes run on one thread so that layer self times add up to wall
/// time.
pub const WORKERS: usize = 2;

/// How many times set-up runs per invocation (`setup_s` is the median).
const SETUP_REPEATS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DIGEST_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The pipeline configuration of a run: `seed` is both the PKS (K-Means)
/// seed and the two-level classifier seed; 0 gives the library defaults.
pub fn pka_config(seed: u64, workers: usize) -> PkaConfig {
    PkaConfig::default()
        .with_two_level(TwoLevelConfig::default().with_classifier_seed(seed))
        .with_pks(PksConfig::default().with_seed(seed))
        .with_workers(workers)
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each state before the
/// next is built, and returns the last state with the median set-up time.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), stats::median(&times)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: pka-e2ebench --workload sim_full|select_scaled|serve_feed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let print = fingerprint::Fingerprint::detect();
    println!("{}", print.to_json());

    let outcome = match args.workload.as_str() {
        "sim_full" => sim_full::run(&args),
        "select_scaled" => select_scaled::run(&args),
        "serve_feed" => serve_feed::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut report: Report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        report.named("peak_rss_mb", fingerprint::peak_rss_mb(), "MB");
    }
    for line in report.detail_lines(&args.workload) {
        println!("{line}");
    }
    match report.result_line() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use crate::layers::Tracer;
    use crate::passes::Passes;
    use crate::per_layer::Traced;
    use crate::report::Report;
    use serde_json::Value;

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m[k].as_str().expect("string field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    fn emitted(report: &Report) -> Vec<(String, String)> {
        report
            .metric_units()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_the_benchmark_file() {
        let mut report = Report::default();
        Passes::default().emit(&mut report, 1.0, 1.0, "units");
        assert_eq!(sorted(emitted(&report)), sorted(listed("end_to_end")));
    }

    #[test]
    fn per_layer_metrics_match_the_benchmark_file() {
        let mut report = Report::default();
        Traced::new(Tracer::new(true).finish(), 1.0, 1.0).emit(&mut report);
        assert_eq!(emitted(&report), listed("per_layer"));
    }
}

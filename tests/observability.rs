//! End-to-end observability contract of the `pka` binary: a traced run
//! emits schema-valid JSONL, and the `--metrics-out` manifest's counter
//! totals agree with the workload's ground truth (the Table 3 kernel
//! counts) and with the acceptance bar for stage coverage. The tail
//! classifier's cost-driver counters account for every classified kernel.

use std::path::PathBuf;
use std::process::Command;

use principal_kernel_analysis::core::{Executor, TwoLevel, TwoLevelConfig};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::obs;
use principal_kernel_analysis::profile::Profiler;
use principal_kernel_analysis::workloads::all_workloads;
use serde_json::Value;

fn pka_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pka")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pka_obs_it_{}_{name}", std::process::id()))
}

fn read_json(path: &PathBuf) -> Value {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&body).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

/// `pka select` on a Table 3 workload with both sinks attached: the trace
/// must be schema-valid JSONL and the manifest's record counters must
/// equal the workload's kernel-launch count (gauss_208's Table 3 row).
#[test]
fn traced_select_manifest_matches_table3_kernel_count() {
    let trace = temp_path("select_trace.jsonl");
    let manifest = temp_path("select_manifest.json");
    let status = Command::new(pka_bin())
        .args([
            "select",
            "--workload",
            "gauss_208",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            manifest.to_str().unwrap(),
        ])
        .output()
        .expect("run pka select");
    assert!(
        status.status.success(),
        "pka select failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    // --- JSONL trace: every line parses; header first; records typed. ---
    let body = std::fs::read_to_string(&trace).expect("read trace");
    let lines: Vec<Value> = body
        .lines()
        .enumerate()
        .map(|(i, l)| {
            serde_json::from_str(l).unwrap_or_else(|e| panic!("trace line {i} invalid: {e}"))
        })
        .collect();
    assert!(!lines.is_empty(), "trace is empty");
    assert_eq!(lines[0]["schema"].as_str(), Some(obs::TRACE_SCHEMA));
    assert_eq!(lines[0]["type"].as_str(), Some("header"));
    for (i, line) in lines.iter().enumerate().skip(1) {
        match line["type"].as_str() {
            Some("span") => {
                assert!(line["name"].as_str().is_some(), "span {i} missing name");
                assert!(line["dur_ns"].as_u64().is_some(), "span {i} missing dur_ns");
                assert!(line["depth"].as_u64().is_some(), "span {i} missing depth");
            }
            Some("event") => {
                assert!(line["name"].as_str().is_some(), "event {i} missing name");
                assert!(line["fields"].as_object().is_some(), "event {i} missing fields");
            }
            other => panic!("trace line {i} has unexpected type {other:?}"),
        }
    }
    assert!(
        lines.iter().any(|l| l["name"].as_str() == Some("pks.select")),
        "trace never recorded the pks.select span"
    );

    // --- Manifest: counters agree with the workload's ground truth. ---
    let kernel_count = all_workloads()
        .into_iter()
        .find(|w| w.name() == "gauss_208")
        .expect("gauss_208 exists")
        .kernel_count();
    let m = read_json(&manifest);
    assert_eq!(m["schema"].as_str(), Some(obs::MANIFEST_SCHEMA));
    // gauss_208 profiles one-level (detailed profiling is tractable), so
    // every kernel launch becomes one detailed record fed to PKS — the
    // Table 3 kernel count.
    assert_eq!(
        m["counters"]["profile.detailed_records"].as_u64(),
        Some(kernel_count),
        "detailed records != Table 3 kernel count"
    );
    assert_eq!(
        m["counters"]["pks.records"].as_u64(),
        Some(kernel_count),
        "PKS input records != Table 3 kernel count"
    );
    assert!(m["gauges"]["pks.selected_k"].as_u64().unwrap_or(0) >= 1);
    assert!(
        m["checksums"]["selection"].as_u64().is_some(),
        "manifest missing selection checksum"
    );
    assert_eq!(m["config"]["command"].as_str(), Some("select"));

    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&manifest).ok();
}

/// `pka simulate` with metrics: the stop rule must actually fire, at least
/// six distinct counters must populate, and per-stage span timings must
/// cover >= 90% of total wall time (the acceptance bar).
#[test]
fn simulate_manifest_covers_wall_time_and_stop_rule() {
    let manifest = temp_path("simulate_manifest.json");
    let status = Command::new(pka_bin())
        .args([
            "simulate",
            "--workload",
            "bfs65536",
            "--metrics-out",
            manifest.to_str().unwrap(),
        ])
        .output()
        .expect("run pka simulate");
    assert!(
        status.status.success(),
        "pka simulate failed: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let m = read_json(&manifest);
    assert_eq!(m["schema"].as_str(), Some(obs::MANIFEST_SCHEMA));

    let counters = m["counters"].as_object().expect("counters object");
    let populated = counters.values().filter(|v| v.as_u64() != Some(0)).count();
    assert!(
        populated >= 6,
        "expected >= 6 nonzero counters, got {populated}: {counters:?}"
    );
    assert!(
        counters["pkp.stops"].as_u64().unwrap_or(0) >= 1,
        "the PKP stop rule never fired"
    );
    assert!(counters["pkp.evals"].as_u64().unwrap_or(0) >= 1);
    assert!(counters["sim.kernels"].as_u64().unwrap_or(0) >= 1);

    let wall_ns = m["wall_ns"].as_u64().expect("wall_ns");
    let max_stage_ns = m["stages"]
        .as_object()
        .expect("stages object")
        .values()
        .filter_map(|s| s["total_ns"].as_u64())
        .max()
        .unwrap_or(0);
    assert!(
        max_stage_ns as f64 >= 0.9 * wall_ns as f64,
        "stage coverage {max_stage_ns} ns < 90% of wall {wall_ns} ns"
    );

    std::fs::remove_file(&manifest).ok();
}

/// A traced two-level select: every tail kernel is either a classifier-memo
/// hit or a miss (one ensemble row), so the two counters sum to the
/// classified tail — and on a template-heavy stream the memo absorbs almost
/// all of it, and the training span splits into one span per ensemble
/// member. This file's only global-registry test; the others observe
/// child processes.
#[test]
fn traced_two_level_memo_counters_cover_the_classified_tail() {
    let trace = temp_path("two_level_trace.jsonl");
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name() == "gramschmidt")
        .expect("gramschmidt exists");
    let cap = 600;
    obs::reset();
    obs::enable();
    obs::trace_to(&trace).expect("open trace");
    let selection = TwoLevel::new(TwoLevelConfig::default().with_detailed_prefix_cap(cap))
        .with_executor(Executor::new(2))
        .analyze(&w, &Profiler::new(GpuConfig::v100()))
        .expect("two-level select");
    let counter = |name| obs::counter(name).get();
    let (hits, misses, classified) = (
        counter("classify.memo_hits"),
        counter("classify.memo_misses"),
        counter("two_level.classified"),
    );
    obs::close_trace().expect("close trace");
    obs::disable();

    assert_eq!(selection.kernels_represented(), w.kernel_count());
    assert_eq!(classified, w.kernel_count() - cap);
    assert_eq!(hits + misses, classified, "hits {hits} + misses {misses}");
    assert!(misses >= 1 && hits > 10 * misses, "hits {hits}, misses {misses}");
    let body = std::fs::read_to_string(&trace).expect("read trace");
    assert!(body.contains("\"two_level.classify\""), "trace lacks the classify span");
    // Each ensemble member's fit is its own span, one level inside the
    // training span.
    let depth_of = |name: &str| -> Vec<u64> {
        body.lines()
            .filter_map(|l| serde_json::from_str::<Value>(l).ok())
            .filter(|v| v["type"].as_str() == Some("span") && v["name"].as_str() == Some(name))
            .map(|v| v["depth"].as_u64().expect("span depth"))
            .collect()
    };
    let train = depth_of("two_level.train");
    assert_eq!(train.len(), 1, "one training span");
    for member in ["classify.fit.sgd", "classify.fit.gnb", "classify.fit.mlp"] {
        assert_eq!(
            depth_of(member),
            vec![train[0] + 1],
            "{member} nests in two_level.train"
        );
    }
    std::fs::remove_file(&trace).ok();
}

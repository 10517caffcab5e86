//! `select_scaled`: `Pka::select_kernels` on three MLPerf workloads that
//! take the two-level path. Detailed profiling of a 20k-kernel prefix, PKS
//! over it, the SGD/GNB/MLP ensemble fit on it, and one ensemble vote per
//! tail kernel do the work; no cycle is simulated. `ssd` is bound by
//! prediction, `gnmt` by fitting.

use std::time::Instant;

use pka_core::{Pka, Selection};
use pka_gpu::GpuConfig;
use pka_profile::Profiler;
use pka_workloads::Workload;

use crate::layers::{timed, with_registry, Tracer};
use crate::passes::measure;
use crate::per_layer::{check_sum, Traced, SELECT_APPS};
use crate::report::Report;
use crate::traced::{self, fnv_hex, ClassifyCounts};
use crate::{pka_config, repeated_setup, stats, Args, DIGEST_SEED};

/// Executor workers for the untraced passes. Only prediction fans out, so
/// 2 workers on the 2-core reference host kept ~1.5 cores busy, and every
/// fan-out waited for the slower core. In passes alternating between the
/// two settings, 2-worker pass times spread 23% (quartile distance over
/// median) against 16% for one worker. One worker leaves the second core to
/// the host and matches the one-thread traced run.
const WORKERS: usize = 1;

/// Per workload at [`DIGEST_SEED`]: FNV-1a of K, the representatives and
/// the group counts, as rendered by [`digest`].
const SELECTION_DIGESTS: [(&str, &str); 3] = [
    ("mlperf_ssd_train", "e36453a922436662"),
    ("mlperf_gnmt_train", "3a12a2f7c06ac633"),
    ("mlperf_bert_offline_infer", "3a2f13a0383786df"),
];

struct State {
    apps: Vec<Workload>,
}

fn setup(seed: u64) -> Result<State, String> {
    let all = pka_workloads::mlperf::workloads();
    let apps = SELECT_APPS
        .iter()
        .map(|name| {
            all.iter()
                .find(|w| w.name() == *name)
                .cloned()
                .ok_or_else(|| format!("workload {name} is missing"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: the smallest workload once; a cold first pass runs
    // measurably slower than the steady state.
    let bert = apps.last().expect("three workloads");
    Pka::new(GpuConfig::v100(), pka_config(seed, WORKERS))
        .select_kernels(bert)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok(State { apps })
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Report, String> {
    let (state, setup_s) = repeated_setup(|| setup(args.seed))?;
    let mut report = Report::default();
    if args.trace {
        traced_run(args, &state, &mut report);
        return Ok(report);
    }

    let pka = Pka::new(GpuConfig::v100(), pka_config(args.seed, WORKERS));
    let (passes, timing) = measure(args.seconds, || public_pass(&pka, &state.apps, &mut report));
    let mut latencies_ms = Vec::new();
    let mut represented = 0u64;
    for (selections, lat) in &passes {
        latencies_ms.extend(lat);
        represented += selections
            .iter()
            .map(Selection::kernels_represented)
            .sum::<u64>();
    }
    for (selections, _) in &passes[1..] {
        report.check("pass-to-pass determinism", selections, &passes[0].0);
    }
    let first = &passes[0].0;
    check_outputs(args, &state.apps, first, &mut report);

    timing.emit(&mut report, setup_s, represented as f64, "kernels_per_s");
    let errors: Vec<f64> = first.iter().map(Selection::error_pct).collect();
    report.named("selection_error_pct", stats::median(&errors), "%");
    report.named(
        "select_call_p50_ms",
        stats::percentile(&latencies_ms, 50.0),
        "ms",
    );
    report.named(
        "select_call_p99_ms",
        stats::percentile(&latencies_ms, 99.0),
        "ms",
    );
    Ok(report)
}

fn public_pass(pka: &Pka, apps: &[Workload], report: &mut Report) -> (Vec<Selection>, Vec<f64>) {
    let mut selections = Vec::with_capacity(apps.len());
    let mut lat = Vec::with_capacity(apps.len());
    for w in apps {
        let t = Instant::now();
        let s = pka.select_kernels(w);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(s) = report.op_result(&format!("select_kernels({})", w.name()), s) {
            selections.push(s);
        }
    }
    (selections, lat)
}

/// The digest string of one selection.
fn digest(w: &Workload, s: &Selection) -> String {
    let counts: Vec<u64> = s.groups().iter().map(|g| g.count()).collect();
    let reps: Vec<u64> = s.representative_ids().iter().map(|id| id.index()).collect();
    format!("{} k={} reps={reps:?} counts={counts:?}", w.name(), s.k())
}

fn check_outputs(args: &Args, apps: &[Workload], selections: &[Selection], report: &mut Report) {
    for (w, s) in apps.iter().zip(selections) {
        report.check(
            &format!("{} selection represents every kernel", w.name()),
            s.kernels_represented(),
            w.kernel_count(),
        );
        if args.seed == DIGEST_SEED {
            let d = digest(w, s);
            let want = SELECTION_DIGESTS
                .iter()
                .find(|x| x.0 == w.name())
                .map(|x| x.1.to_string());
            report.check("selection digest", Some(fnv_hex(&d)), want);
        }
    }
}

fn traced_run(args: &Args, state: &State, report: &mut Report) {
    let gpu = GpuConfig::v100();
    let config = pka_config(args.seed, 1);
    let pka = Pka::new(gpu.clone(), config);
    let profiler = Profiler::new(gpu);
    let tracer = Tracer::new(true);
    let mut counts = ClassifyCounts::default();
    let (mut untraced_wall, mut obs_wall) = (0.0, 0.0);
    // Workload by workload: untraced, registry on, traced.
    for w in &state.apps {
        let (untraced, t) = timed(|| pka.select_kernels(w));
        untraced_wall += t;
        let (with_obs, t) = with_registry(|| timed(|| pka.select_kernels(w)));
        obs_wall += t;
        let traced =
            tracer.pass(|| traced::select(&tracer, &profiler, &config, args.seed, w, &mut counts));
        let what = format!("select_kernels({})", w.name());
        let Some(untraced) = report.op_result(&what, untraced) else {
            continue;
        };
        if let Some(o) = report.op_result(&what, with_obs) {
            report.check("registry on leaves results unchanged", &o, &untraced);
        }
        if let Some(t) = report.op_result(&format!("traced {what}"), traced) {
            report.check("traced recomputation equals the public call", &t, &untraced);
        }
    }
    let trace = tracer.finish();
    check_sum(report, &trace);
    let mut traced = Traced::new(trace, untraced_wall, obs_wall);
    traced.classify = counts;
    traced.emit(report);
}

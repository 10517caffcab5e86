//! `sim_full`: `Pka::evaluate_in_simulation(w, run_full_sim = true)` on V100
//! over a fixed mix of memory-bound, compute-bound and mixed apps. The
//! cycle-level simulator does nearly all of the work; the classifier,
//! stream and server layers are never entered.

use std::time::Instant;

use pka_core::{Pka, SimulationReport};
use pka_gpu::GpuConfig;
use pka_workloads::Workload;

use crate::layers::{timed, with_registry, Tracer};
use crate::passes::measure;
use crate::per_layer::{check_sum, Traced, SIM_APPS};
use crate::report::Report;
use crate::traced::{self, fnv_hex, SimCounts, SimTotals};
use crate::{pka_config, repeated_setup, stats, Args, DIGEST_SEED, WORKERS};

/// Per app: silicon cycles and full-simulation cycles. Neither depends on
/// the seed, so every run checks them.
const CYCLE_DIGESTS: [(&str, u64, u64); 9] = [
    ("srad_v1", 337195, 377719),
    ("spmv", 638482, 418696),
    ("histo", 467197, 401691),
    ("bfs65536", 166073, 122435),
    ("stencil", 304289, 363800),
    ("cutlass_sgemm_1024x1024x1024", 93731, 304220),
    ("gemm", 126794, 105447),
    ("kmeans_819k", 115431, 107465),
    ("deepbench_rnn_infer_0", 334232, 515829),
];

/// Per app at [`DIGEST_SEED`]: FNV-1a of the selection (K,
/// representatives, group counts) and the PKS/PKA projected and simulated
/// cycle totals, as rendered by [`selection_digest`].
const SELECTION_DIGESTS: [(&str, &str); 9] = [
    ("srad_v1", "bcc87b2ae9606663"),
    ("spmv", "68a0352beb854aea"),
    ("histo", "11054371d4906663"),
    ("bfs65536", "d4aad8930b14a57c"),
    ("stencil", "1562e7a3a588dd3d"),
    ("cutlass_sgemm_1024x1024x1024", "7e35586579edcd4a"),
    ("gemm", "be5deac811230602"),
    ("kmeans_819k", "bee23926653b783b"),
    ("deepbench_rnn_infer_0", "6424d68f7ac9dc6a"),
];

struct State {
    apps: Vec<Workload>,
}

fn setup(seed: u64) -> Result<State, String> {
    let all = pka_workloads::all_workloads();
    let apps = SIM_APPS
        .iter()
        .map(|name| {
            all.iter()
                .find(|w| w.name() == *name)
                .cloned()
                .ok_or_else(|| format!("workload {name} is missing"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: one sampled (no full-sim) evaluation touches the profiler,
    // PKS and both simulator entry points.
    let stencil = apps
        .iter()
        .find(|w| w.name() == "stencil")
        .expect("in the mix");
    Pka::new(GpuConfig::v100(), pka_config(seed, WORKERS))
        .evaluate_in_simulation(stencil, false)
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
    let (mut simulated, mut silicon, mut projected) = (0u64, 0u64, 0u64);
    let mut latencies_ms = Vec::new();
    for (reports, lat) in &passes {
        latencies_ms.extend(lat);
        for r in reports {
            simulated +=
                r.fullsim_cycles.unwrap_or(0) + r.pks_simulated_cycles + r.pka_simulated_cycles;
            silicon += r.silicon_cycles;
            projected += r.pka_projected_cycles;
        }
    }
    for (reports, _) in &passes[1..] {
        report.check("pass-to-pass determinism", reports, &passes[0].0);
    }
    check_outputs(args, &pka, &state.apps, &passes[0].0, &mut report);

    timing.emit(&mut report, setup_s, simulated as f64, "sim_cycles_per_s");
    let error_pct = (projected as f64 - silicon as f64).abs() / silicon.max(1) as f64 * 100.0;
    report.named("pka_error_pct", error_pct, "%");
    report.named(
        "app_call_p50_ms",
        stats::percentile(&latencies_ms, 50.0),
        "ms",
    );
    report.named(
        "app_call_p99_ms",
        stats::percentile(&latencies_ms, 99.0),
        "ms",
    );
    Ok(report)
}

/// One pass of the mix through the public entry point.
fn public_pass(
    pka: &Pka,
    apps: &[Workload],
    report: &mut Report,
) -> (Vec<SimulationReport>, Vec<f64>) {
    let mut reports = Vec::with_capacity(apps.len());
    let mut lat = Vec::with_capacity(apps.len());
    for w in apps {
        let t = Instant::now();
        let r = pka.evaluate_in_simulation(w, true);
        lat.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(r) = report.op_result(&format!("evaluate_in_simulation({})", w.name()), r) {
            reports.push(r);
        }
    }
    (reports, lat)
}

/// The digest string of one app's selection and projections.
fn selection_digest(pka: &Pka, w: &Workload, r: &SimulationReport) -> Result<String, String> {
    let s = pka.select_kernels(w).map_err(|e| e.to_string())?;
    let counts: Vec<u64> = s.groups().iter().map(|g| g.count()).collect();
    let reps: Vec<u64> = s.representative_ids().iter().map(|id| id.index()).collect();
    Ok(format!(
        "{} k={} reps={reps:?} counts={counts:?} pks={}/{} pka={}/{}",
        w.name(),
        s.k(),
        r.pks_projected_cycles,
        r.pks_simulated_cycles,
        r.pka_projected_cycles,
        r.pka_simulated_cycles
    ))
}

fn check_outputs(
    args: &Args,
    pka: &Pka,
    apps: &[Workload],
    reports: &[SimulationReport],
    report: &mut Report,
) {
    for (w, r) in apps.iter().zip(reports) {
        let cycles = (w.name(), r.silicon_cycles, r.fullsim_cycles.unwrap_or(0));
        let want = CYCLE_DIGESTS.iter().find(|c| c.0 == w.name()).copied();
        report.check("silicon and full-sim cycles", Some(cycles), want);
        if args.seed == DIGEST_SEED {
            let digest = selection_digest(pka, w, r);
            let want = SELECTION_DIGESTS
                .iter()
                .find(|d| d.0 == w.name())
                .map(|d| d.1.to_string());
            report.check("selection digest", digest.map(|d| fnv_hex(&d)).ok(), want);
        }
    }
}

fn traced_run(args: &Args, state: &State, report: &mut Report) {
    let gpu = GpuConfig::v100();
    let config = pka_config(args.seed, 1);
    let pka = Pka::new(gpu.clone(), config);
    let tracer = Tracer::new(true);
    let mut sim = SimCounts::default();
    let (mut untraced_wall, mut obs_wall) = (0.0, 0.0);
    // App by app: untraced, registry on, traced — so that host drift over
    // the run hits all three alike.
    for w in &state.apps {
        let (untraced, t) = timed(|| pka.evaluate_in_simulation(w, true));
        untraced_wall += t;
        let (with_obs, t) = with_registry(|| timed(|| pka.evaluate_in_simulation(w, true)));
        obs_wall += t;
        let totals =
            tracer.pass(|| traced::evaluate(&tracer, &gpu, &config, args.seed, w, &mut sim));
        let what = format!("evaluate_in_simulation({})", w.name());
        let Some(untraced) = report.op_result(&what, untraced) else {
            continue;
        };
        if let Some(o) = report.op_result(&what, with_obs) {
            report.check("registry on leaves results unchanged", &o, &untraced);
        }
        if let Some(t) = report.op_result(&format!("traced {what}"), totals) {
            report.check(
                "traced recomputation equals the public call",
                t,
                SimTotals::of(&untraced),
            );
        }
    }
    let trace = tracer.finish();
    check_sum(report, &trace);
    let mut traced = Traced::new(trace, untraced_wall, obs_wall);
    traced.sim = sim;
    traced.emit(report);
}

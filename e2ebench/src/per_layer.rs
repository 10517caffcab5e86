//! The per-layer metric set of a traced run.
//!
//! Every traced run reports every per-layer metric, whatever its workload:
//! a layer the workload does not reach reads 0 (no calls, no time), which
//! is itself the check that, say, `sim_full` never enters the stream or
//! server layers.

use crate::layers::Trace;
use crate::report::Report;
use crate::traced::{ClassifyCounts, SimCounts};

/// The apps of the `sim_full` mix, in pass order.
pub const SIM_APPS: [&str; 9] = [
    "srad_v1",
    "spmv",
    "histo",
    "bfs65536",
    "stencil",
    "cutlass_sgemm_1024x1024x1024",
    "gemm",
    "kmeans_819k",
    "deepbench_rnn_infer_0",
];

/// The two-level workloads of `select_scaled`, in pass order.
pub const SELECT_APPS: [&str; 3] = [
    "mlperf_ssd_train",
    "mlperf_gnmt_train",
    "mlperf_bert_offline_infer",
];

/// Client-side measurements of the server layer.
#[derive(Debug, Default, Clone)]
pub struct ServerLayer {
    pub create_ms: f64,
    pub finish_to_result_ms: f64,
    pub status_200: u64,
    pub status_202: u64,
    pub status_4xx: u64,
    pub status_5xx: u64,
    pub result_polls: u64,
    pub post_p50_ms: f64,
    pub post_p99_ms: f64,
    pub progress_p50_ms: f64,
    pub progress_p99_ms: f64,
    /// HTTP session wall minus direct-engine wall on the same lines, s.
    pub http_overhead_s: f64,
}

/// Everything a traced run measured.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The traced pass (one thread, benchmark spans).
    pub trace: Trace,
    /// Wall time of the same work untraced, s.
    pub untraced_wall_s: f64,
    /// Wall time of the same work untraced with the `pka-obs` registry
    /// enabled (no sink attached), s.
    pub obs_wall_s: f64,
    pub sim: SimCounts,
    pub classify: ClassifyCounts,
    pub stream_records: u64,
    pub stream_checkpoints: u64,
    pub server: ServerLayer,
}

impl Traced {
    /// A traced run with only the pass timings filled in.
    pub fn new(trace: Trace, untraced_wall_s: f64, obs_wall_s: f64) -> Self {
        Self {
            trace,
            untraced_wall_s,
            obs_wall_s,
            sim: SimCounts::default(),
            classify: ClassifyCounts::default(),
            stream_records: 0,
            stream_checkpoints: 0,
            server: ServerLayer::default(),
        }
    }

    /// Adds every per-layer metric to `report`.
    pub fn emit(&self, report: &mut Report) {
        let t = &self.trace;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let pct_over = |a: f64, b: f64| if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 };

        // pka-sim
        report.metric("sim.run_kernel.self_s", t.self_s("sim.run_kernel"), "s");
        report.metric(
            "sim.run_kernel_monitored.self_s",
            t.self_s("sim.run_kernel_monitored"),
            "s",
        );
        for app in SIM_APPS {
            let (ns, cycles) = self.sim.per_app.get(app).copied().unwrap_or_default();
            report.metric(
                format!("sim.host_ns_per_cycle.{app}"),
                ratio(ns, cycles),
                "ns",
            );
        }
        report.metric(
            "sim.longest_call_s",
            self.sim.longest_call_ns as f64 / 1e9,
            "s",
        );
        report.metric("sim.calls", self.sim.calls as f64, "count");
        report.metric("sim.cycles", self.sim.cycles as f64, "count");
        report.metric("sim.instructions", self.sim.instructions as f64, "count");
        // core PKP
        report.metric(
            "pkp.early_stop_ratio",
            ratio(self.sim.early_stops, self.sim.monitored),
            "ratio",
        );
        report.metric(
            "pkp.simulated_share",
            ratio(self.sim.rep_simulated_cycles, self.sim.rep_projected_cycles),
            "ratio",
        );
        // pka-profile / pka-gpu / pka-workloads
        for layer in [
            "profile.silicon_run",
            "profile.detailed",
            "profile.lightweight",
        ] {
            report.metric(format!("{layer}.self_s"), t.self_s(layer), "s");
        }
        report.metric(
            "workloads.tail_gen.self_s",
            t.self_s("workloads.tail_gen"),
            "s",
        );
        // core PKS + pka-ml PCA/K-Means
        report.metric("pks.select.self_s", t.self_s("pks.select"), "s");
        // pka-ml classifiers
        for (metric, layer) in [
            ("classify.fit.sgd_s", "classify.fit.sgd"),
            ("classify.fit.gnb_s", "classify.fit.gnb"),
            ("classify.fit.mlp_s", "classify.fit.mlp"),
        ] {
            report.metric(metric, t.self_s(layer), "s");
        }
        report.metric("classify.predict.self_s", t.self_s("classify.predict"), "s");
        report.metric(
            "classify.predict.calls",
            self.classify.predict_calls as f64,
            "count",
        );
        report.metric(
            "classify.unique_inputs_ratio",
            ratio(self.classify.unique_inputs, self.classify.predict_calls),
            "ratio",
        );
        // core two-level
        for app in SELECT_APPS {
            let ns = self.classify.analyze_ns.get(app).copied().unwrap_or(0);
            report.metric(format!("two_level.analyze_s.{app}"), ns as f64 / 1e9, "s");
        }
        // pka-stream
        let run = t.layer("stream.run");
        report.metric("stream.run.self_s", t.self_s("stream.run"), "s");
        report.metric(
            "stream.records_per_s",
            if run.total_ns == 0 {
                0.0
            } else {
                self.stream_records as f64 / (run.total_ns as f64 / 1e9)
            },
            "1/s",
        );
        report.metric(
            "stream.checkpoint_write.self_s",
            t.self_s("stream.checkpoint_write"),
            "s",
        );
        report.metric(
            "stream.checkpoints",
            self.stream_checkpoints as f64,
            "count",
        );
        // serde_json
        report.metric("json.parse.self_s", t.self_s("json.parse"), "s");
        // pka-server (client side)
        let s = &self.server;
        report.metric("server.create_ms", s.create_ms, "ms");
        report.metric("server.finish_to_result_ms", s.finish_to_result_ms, "ms");
        report.metric("server.status.200", s.status_200 as f64, "count");
        report.metric("server.status.202", s.status_202 as f64, "count");
        report.metric("server.status.4xx", s.status_4xx as f64, "count");
        report.metric("server.status.5xx", s.status_5xx as f64, "count");
        report.metric(
            "server.result_poll_waste_ratio",
            ratio(s.status_202, s.result_polls),
            "ratio",
        );
        report.metric("server.http_overhead_s", s.http_overhead_s, "s");
        report.metric("server.post_p50_ms", s.post_p50_ms, "ms");
        report.metric("server.post_p99_ms", s.post_p99_ms, "ms");
        report.metric("server.progress_p50_ms", s.progress_p50_ms, "ms");
        report.metric("server.progress_p99_ms", s.progress_p99_ms, "ms");
        // benchmark bookkeeping inside the traced pass, and pka-obs
        report.metric(
            "bench.unique_probe.self_s",
            t.self_s("bench.unique_probe"),
            "s",
        );
        report.metric("trace.wall_s", t.wall_s(), "s");
        report.metric("trace.unattributed_s", t.unattributed_s(), "s");
        report.metric(
            "trace.overhead_pct",
            pct_over(t.wall_s(), self.untraced_wall_s),
            "%",
        );
        report.metric(
            "obs.enabled_overhead_pct",
            pct_over(self.obs_wall_s, self.untraced_wall_s),
            "%",
        );
    }
}

/// Every self-time layer the traced passes open, for the sum check: these
/// self times plus `trace.unattributed_s` equal `trace.wall_s`.
pub const SELF_LAYERS: [&str; 15] = [
    "sim.run_kernel",
    "sim.run_kernel_monitored",
    "profile.silicon_run",
    "profile.detailed",
    "profile.lightweight",
    "workloads.tail_gen",
    "pks.select",
    "classify.fit.sgd",
    "classify.fit.gnb",
    "classify.fit.mlp",
    "classify.predict",
    "stream.run",
    "stream.checkpoint_write",
    "json.parse",
    "bench.unique_probe",
];

/// Checks that the reported self times account for the traced wall time:
/// every span the pass opened is one of [`SELF_LAYERS`], and their self
/// times plus the unattributed remainder equal the wall time.
pub fn check_sum(report: &mut Report, trace: &Trace) {
    let unknown: Vec<&str> = trace
        .layers
        .keys()
        .copied()
        .filter(|k| !SELF_LAYERS.contains(k))
        .collect();
    report.check(
        "every traced span is a reported layer",
        unknown,
        Vec::<&str>::new(),
    );
    let sum: f64 =
        SELF_LAYERS.iter().map(|l| trace.self_s(l)).sum::<f64>() + trace.unattributed_s();
    let ok = (sum - trace.wall_s()).abs() <= 1e-6 * trace.wall_s().max(1.0);
    report.op(ok, || {
        format!(
            "self times + unattributed = {sum} s, traced wall = {} s",
            trace.wall_s()
        )
    });
}

//! The traced re-drive of `Pka::select_kernels` and
//! `Pka::evaluate_in_simulation`: the same calls into the profiler, PKS,
//! the classifiers, the simulator and PKP, in the same order, each wrapped
//! in a benchmark span. Runs on one thread. The results are compared with
//! the public entry points' results, so the re-drive cannot silently drift
//! from what it measures.

use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use pka_core::{PkaConfig, PkaError, PkpMonitor, Pks, ProjectedKernel, Selection, TwoLevel};
use pka_gpu::{GpuConfig, KernelId};
use pka_ml::classify::{Classifier, Ensemble, GaussianNb, MlpClassifier, SgdClassifier};
use pka_ml::Matrix;
use pka_profile::{LightweightRecord, Profiler};
use pka_sim::Simulator;
use pka_workloads::Workload;

use crate::layers::{nanos, Tracer};

/// Exact simulator and PKP counts of a traced pass, plus per-app host cost.
#[derive(Debug, Default, Clone)]
pub struct SimCounts {
    pub calls: u64,
    pub cycles: u64,
    pub instructions: u64,
    pub longest_call_ns: u64,
    /// Per app: (host ns in the simulator, simulated cycles).
    pub per_app: BTreeMap<String, (u64, u64)>,
    pub monitored: u64,
    pub early_stops: u64,
    pub rep_simulated_cycles: u64,
    pub rep_projected_cycles: u64,
}

impl SimCounts {
    fn record(&mut self, app: &str, ns: u64, cycles: u64, instructions: u64) {
        self.calls += 1;
        self.cycles += cycles;
        self.instructions += instructions;
        self.longest_call_ns = self.longest_call_ns.max(ns);
        let e = self.per_app.entry(app.to_string()).or_default();
        e.0 += ns;
        e.1 += cycles;
    }
}

/// Tail-classification counts of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct ClassifyCounts {
    pub predict_calls: u64,
    pub unique_inputs: u64,
    /// Inclusive wall time of each two-level analysis, ns, by workload.
    pub analyze_ns: BTreeMap<String, u64>,
}

/// The cycle totals `Pka::evaluate_in_simulation` reports, recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTotals {
    pub silicon_cycles: u64,
    pub fullsim_cycles: u64,
    pub pks_projected_cycles: u64,
    pub pks_simulated_cycles: u64,
    pub pka_projected_cycles: u64,
    pub pka_simulated_cycles: u64,
}

impl SimTotals {
    /// The same totals from a public-API report.
    pub fn of(r: &pka_core::SimulationReport) -> Self {
        Self {
            silicon_cycles: r.silicon_cycles,
            fullsim_cycles: r.fullsim_cycles.unwrap_or(0),
            pks_projected_cycles: r.pks_projected_cycles,
            pks_simulated_cycles: r.pks_simulated_cycles,
            pka_projected_cycles: r.pka_projected_cycles,
            pka_simulated_cycles: r.pka_simulated_cycles,
        }
    }
}

/// Traced `Pka::select_kernels`: one-level PKS over the whole stream, or
/// the two-level detailed prefix + classified tail.
pub fn select(
    t: &Tracer,
    profiler: &Profiler,
    config: &PkaConfig,
    classifier_seed: u64,
    w: &Workload,
    counts: &mut ClassifyCounts,
) -> Result<Selection, PkaError> {
    if !profiler.profiling_cost(w).detailed_is_intractable() {
        let records = t.span("profile.detailed", || {
            profiler.detailed(w, 0..w.kernel_count())
        })?;
        return t.span("pks.select", || Pks::new(config.pks()).select(&records));
    }
    let started = Instant::now();
    let two = config.two_level();
    let j = TwoLevel::new(two).detailed_prefix(w);
    let detailed = t.span("profile.detailed", || profiler.detailed(w, 0..j))?;
    let mut selection = t.span("pks.select", || Pks::new(two.pks()).select(&detailed))?;
    if j < w.kernel_count() {
        classify_tail(t, profiler, classifier_seed, w, j, &mut selection, counts)?;
    }
    counts
        .analyze_ns
        .insert(w.name().to_string(), nanos(started));
    Ok(selection)
}

fn classify_tail(
    t: &Tracer,
    profiler: &Profiler,
    seed: u64,
    w: &Workload,
    j: u64,
    selection: &mut Selection,
    counts: &mut ClassifyCounts,
) -> Result<(), PkaError> {
    let train = t.span("profile.lightweight", || profiler.lightweight(w, 0..j));
    let rows: Vec<Vec<f64>> = train
        .iter()
        .map(LightweightRecord::to_feature_vector)
        .collect();
    let x = Matrix::from_rows(&rows)?;
    let y = selection.labels().to_vec();
    let sgd = t.span("classify.fit.sgd", || SgdClassifier::fit(&x, &y, seed))?;
    let gnb = t.span("classify.fit.gnb", || GaussianNb::fit(&x, &y))?;
    let mlp = t.span("classify.fit.mlp", || {
        MlpClassifier::fit(&x, &y, seed ^ 0xff)
    })?;
    let ensemble = Ensemble::new(vec![Box::new(sgd), Box::new(gnb), Box::new(mlp)]);

    // One clock read per phase boundary: generating the lightweight view
    // (workloads + profile), predicting (classifiers), and probing the
    // distinct-input set (benchmark bookkeeping).
    let mut group_counts = vec![0u64; selection.k()];
    // Distinct inputs are counted by a 64-bit fingerprint of the feature
    // bits (a collision among millions of inputs is vanishingly unlikely).
    let mut seen: HashSet<u64, BuildHasherDefault<Fnv>> = HashSet::default();
    let (mut gen_ns, mut pred_ns, mut probe_ns) = (0u64, 0u64, 0u64);
    let mut t0 = Instant::now();
    for id in j..w.kernel_count() {
        let kernel = w.kernel(KernelId::new(id));
        let features = LightweightRecord::new(KernelId::new(id), &kernel).to_feature_vector();
        let t1 = Instant::now();
        let group = ensemble.predict(&features)?;
        let t2 = Instant::now();
        group_counts[group] += 1;
        let key = features
            .iter()
            .fold(FNV_OFFSET, |h, f| (h ^ f.to_bits()).wrapping_mul(FNV_PRIME));
        seen.insert(key);
        let t3 = Instant::now();
        gen_ns += ns(t0, t1);
        pred_ns += ns(t1, t2);
        probe_ns += ns(t2, t3);
        t0 = t3;
    }
    let n = w.kernel_count() - j;
    t.leaf("workloads.tail_gen", gen_ns);
    t.leaf("classify.predict", pred_ns);
    t.leaf("bench.unique_probe", probe_ns);
    counts.predict_calls += n;
    counts.unique_inputs += seen.len() as u64;
    for (group, &c) in group_counts.iter().enumerate() {
        selection.add_classified_members(group, c);
    }
    Ok(())
}

fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Traced `Pka::evaluate_in_simulation(w, true)`.
pub fn evaluate(
    t: &Tracer,
    gpu: &GpuConfig,
    config: &PkaConfig,
    classifier_seed: u64,
    w: &Workload,
    sim: &mut SimCounts,
) -> Result<SimTotals, PkaError> {
    let profiler = Profiler::new(gpu.clone());
    let counts = &mut ClassifyCounts::default();
    let selection = select(t, &profiler, config, classifier_seed, w, counts)?;
    let silicon = t.span("profile.silicon_run", || profiler.silicon_run(w))?;
    let simulator = Simulator::new(gpu.clone(), config.sim_options());

    let mut fullsim = 0u64;
    for id in 0..w.kernel_count() {
        let kernel = w.kernel(KernelId::new(id));
        let t0 = Instant::now();
        let r = t.span("sim.run_kernel", || simulator.run_kernel(&kernel))?;
        sim.record(w.name(), nanos(t0), r.cycles, r.instructions);
        fullsim += r.cycles;
    }

    let (mut pks_rep, mut pka_rep) = (Vec::new(), Vec::new());
    let (mut pks_spent, mut pka_spent) = (0u64, 0u64);
    for id in selection.representative_ids() {
        let kernel = w.kernel(id);
        let t0 = Instant::now();
        let full = t.span("sim.run_kernel", || simulator.run_kernel(&kernel))?;
        sim.record(w.name(), nanos(t0), full.cycles, full.instructions);
        let mut monitor = PkpMonitor::new(config.pkp(), config.sim_options().sample_interval());
        let t0 = Instant::now();
        let stopped = t.span("sim.run_kernel_monitored", || {
            simulator.run_kernel_monitored(&kernel, &mut monitor)
        })?;
        sim.record(w.name(), nanos(t0), stopped.cycles, stopped.instructions);
        let projected = ProjectedKernel::from_monitored(&stopped, &monitor);
        sim.monitored += 1;
        sim.early_stops += u64::from(stopped.early_stop);
        sim.rep_simulated_cycles += projected.simulated_cycles;
        sim.rep_projected_cycles += projected.cycles;
        pks_rep.push(full.cycles);
        pks_spent += full.cycles;
        pka_rep.push(projected.cycles);
        pka_spent += projected.simulated_cycles;
    }
    Ok(SimTotals {
        silicon_cycles: silicon.total_cycles,
        fullsim_cycles: fullsim,
        pks_projected_cycles: selection.project_with(&pks_rep),
        pks_simulated_cycles: pks_spent,
        pka_projected_cycles: selection.project_with(&pka_rep),
        pka_simulated_cycles: pka_spent,
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a (a word at a time for `u64`s), for the distinct-input set.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a of a canonical digest string, as recorded in the digest tables.
pub fn fnv_hex(text: &str) -> String {
    let mut h = Fnv::default();
    h.write(text.as_bytes());
    format!("{:016x}", h.finish())
}

//! Sequential-vs-parallel parity: the executor's determinism contract.
//!
//! Every parallel fan-out in the pipeline (per-kernel silicon profiling,
//! the K-Means K-sweep, per-representative simulation, two-level tail
//! classification) must produce **bitwise identical** observable results to
//! a sequential run — same selections, same projected cycles, same error
//! tables — for any worker count. These tests compare whole result structs
//! (including their `f64` fields) with `assert_eq!`, so even a one-ULP
//! divergence from a reordered float reduction fails the suite.

use std::num::NonZeroUsize;

use principal_kernel_analysis::core::{
    Pka, PkaConfig, Pks, PksConfig, Selection, SimulationReport, TwoLevel, TwoLevelConfig,
};
use principal_kernel_analysis::gpu::{GpuConfig, KernelId};
use principal_kernel_analysis::ml::classify::{
    Classifier, Ensemble, GaussianNb, MlpClassifier, SgdClassifier,
};
use principal_kernel_analysis::ml::Matrix;
use principal_kernel_analysis::profile::{LightweightRecord, Profiler};
use principal_kernel_analysis::workloads::{all_workloads, Workload};

/// Worker counts exercised against the sequential baseline. Real threads
/// are spawned regardless of the host's core count, so index-ordered
/// result collection is exercised even on a single-core machine.
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

/// Clustering seeds the parity matrix sweeps.
const SEEDS: [u64; 3] = [0, 1, 0x9E3779B97F4A7C15];

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload")
}

fn tiny_gpu() -> GpuConfig {
    GpuConfig::builder("parity8").num_sms(8).build().expect("valid")
}

#[test]
fn selection_parity_across_seeds_and_workloads() {
    // 3 seeds x 3 workloads (different suites and kernel-stream shapes),
    // each selected sequentially and with 4 workers. (The full 2/4/8
    // worker-count sweep runs on one combination in
    // `selection_parity_across_worker_counts` — worker count cannot affect
    // which items exist, only their schedule, so one sweep suffices.)
    for name in ["gauss_208", "histo", "fdtd2d"] {
        let w = workload(name);
        for seed in SEEDS {
            let config_for = |workers: usize| {
                PkaConfig::default()
                    .with_pks(PksConfig::default().with_seed(seed))
                    .with_workers(workers)
            };
            let sequential: Selection = Pka::new(GpuConfig::v100(), config_for(1))
                .select_kernels(&w)
                .expect("sequential selection");
            let parallel = Pka::new(GpuConfig::v100(), config_for(4))
                .select_kernels(&w)
                .expect("parallel selection");
            assert_eq!(
                sequential, parallel,
                "{name} seed {seed}: selection diverged at 4 workers"
            );
            assert_eq!(
                sequential.projected_cycles(),
                parallel.projected_cycles(),
                "{name} seed {seed}: projected cycles diverged at 4 workers"
            );
        }
    }
}

#[test]
fn selection_parity_across_worker_counts() {
    let w = workload("histo");
    let config_for = |workers: usize| {
        PkaConfig::default()
            .with_pks(PksConfig::default().with_seed(SEEDS[2]))
            .with_workers(workers)
    };
    let sequential: Selection = Pka::new(GpuConfig::v100(), config_for(1))
        .select_kernels(&w)
        .expect("sequential selection");
    for workers in WORKER_COUNTS {
        let parallel = Pka::new(GpuConfig::v100(), config_for(workers))
            .select_kernels(&w)
            .expect("parallel selection");
        assert_eq!(
            sequential, parallel,
            "selection diverged at {workers} workers"
        );
    }
}

#[test]
fn simulation_report_parity_across_worker_counts() {
    // The full sampled-simulation path, full-sim baseline included: every
    // field of the report (u64 cycles and f64 errors/hours/DRAM) must
    // match bit for bit.
    for name in ["cutcp", "bfs65536", "srad_v1"] {
        let w = workload(name);
        let sequential: SimulationReport =
            Pka::new(tiny_gpu(), PkaConfig::default().with_workers(1))
                .evaluate_in_simulation(&w, true)
                .expect("sequential evaluation");
        let parallel = Pka::new(tiny_gpu(), PkaConfig::default().with_workers(4))
            .evaluate_in_simulation(&w, true)
            .expect("parallel evaluation");
        assert_eq!(
            sequential, parallel,
            "{name}: simulation report diverged at 4 workers"
        );
    }
}

#[test]
fn silicon_report_parity_across_worker_counts() {
    // The cross-generation silicon path: selection on Volta, re-execution
    // of the representatives on Turing/Ampere silicon models.
    let w = workload("srad_v1");
    let selection = Pka::new(GpuConfig::v100(), PkaConfig::default())
        .select_kernels(&w)
        .expect("selects");
    for gpu in [GpuConfig::v100(), GpuConfig::rtx2060(), GpuConfig::rtx3070()] {
        let sequential = Pka::new(gpu.clone(), PkaConfig::default().with_workers(1))
            .silicon_report_for(&w, &selection)
            .expect("sequential report");
        for workers in WORKER_COUNTS {
            let parallel = Pka::new(gpu.clone(), PkaConfig::default().with_workers(workers))
                .silicon_report_for(&w, &selection)
                .expect("parallel report");
            assert_eq!(
                sequential, parallel,
                "{}: silicon report diverged at {workers} workers",
                gpu.name()
            );
        }
    }
}

/// The two-level pipeline as it classified the tail before the memoised
/// batch path: one materialised descriptor, one lightweight record, one
/// feature vector and one `Ensemble::predict` call per tail kernel, run
/// sequentially in stream order. The oracle the fast path must reproduce.
fn per_record_two_level(w: &Workload, config: TwoLevelConfig, profiler: &Profiler) -> Selection {
    let j = TwoLevel::new(config).detailed_prefix(w);
    let detailed = profiler.detailed(w, 0..j).expect("detailed prefix");
    let mut selection = Pks::new(config.pks()).select(&detailed).expect("prefix PKS");
    let rows: Vec<Vec<f64>> = profiler
        .lightweight(w, 0..j)
        .iter()
        .map(LightweightRecord::to_feature_vector)
        .collect();
    let x = Matrix::from_rows(&rows).expect("training matrix");
    let y = selection.labels().to_vec();
    let seed = config.classifier_seed();
    let ensemble = Ensemble::new(vec![
        Box::new(SgdClassifier::fit(&x, &y, seed).expect("sgd")),
        Box::new(GaussianNb::fit(&x, &y).expect("gnb")),
        Box::new(MlpClassifier::fit(&x, &y, seed ^ 0xff).expect("mlp")),
    ]);
    for id in j..w.kernel_count() {
        let id = KernelId::new(id);
        let record = LightweightRecord::new(id, &w.kernel(id));
        let group = ensemble.predict(&record.to_feature_vector()).expect("predict");
        selection.add_classified_member(group);
    }
    selection
}

/// `TwoLevel::analyze` equals the per-record oracle on `name` with the
/// detailed prefix capped at `cap`, at 1, 2 and 4 workers.
fn assert_two_level_matches_oracle(name: &str, cap: u64) {
    let profiler = Profiler::new(GpuConfig::v100());
    let w = workload(name);
    let config = TwoLevelConfig::default().with_detailed_prefix_cap(cap);
    let oracle = per_record_two_level(&w, config, &profiler);
    assert_eq!(oracle.kernels_represented(), w.kernel_count());
    for workers in [1, 2, 4] {
        let exec = principal_kernel_analysis::core::Executor::new(workers);
        let fast = TwoLevel::new(config)
            .with_executor(exec)
            .analyze(&w, &profiler.clone().with_executor(exec))
            .expect("two-level");
        assert_eq!(fast.k(), oracle.k(), "{name}: K at {workers} workers");
        assert_eq!(
            fast.representative_ids(),
            oracle.representative_ids(),
            "{name}: representatives at {workers} workers"
        );
        let counts = |s: &Selection| s.groups().iter().map(|g| g.count()).collect::<Vec<_>>();
        assert_eq!(counts(&fast), counts(&oracle), "{name}: group counts at {workers} workers");
        assert_eq!(fast, oracle, "{name}: selection at {workers} workers");
    }
}

#[test]
fn two_level_matches_the_per_record_oracle_on_a_capped_mlperf_stream() {
    assert_two_level_matches_oracle("mlperf_bert_offline_infer", 2_000);
}

#[test]
fn two_level_matches_the_per_record_oracle_on_gramschmidt() {
    assert_two_level_matches_oracle("gramschmidt", 600);
}

#[test]
fn two_level_parity_across_worker_counts() {
    // Forces the two-level path (detailed prefix + classified tail) on a
    // mid-sized stream; the chunked parallel tail classification must
    // reproduce the streamed sequential group counts exactly.
    let w = workload("gramschmidt");
    let config = TwoLevelConfig::default().with_detailed_prefix_cap(600);
    let profiler = Profiler::new(GpuConfig::v100());
    let sequential = TwoLevel::new(config)
        .analyze(&w, &profiler)
        .expect("sequential two-level");
    for workers in WORKER_COUNTS {
        let exec = principal_kernel_analysis::core::Executor::new(workers);
        let parallel = TwoLevel::new(config)
            .with_executor(exec)
            .analyze(&w, &profiler.clone().with_executor(exec))
            .expect("parallel two-level");
        assert_eq!(
            sequential, parallel,
            "two-level selection diverged at {workers} workers"
        );
    }
}

#[test]
fn parallel_is_faster_on_multicore_hosts() {
    // Wall-clock smoke: with >= 4 hardware threads, profiling a 6411-kernel
    // stream with 4 workers must beat the sequential run. Skipped (not
    // failed) on smaller hosts, where the parity tests above still
    // exercise real threads via explicit worker counts.
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup smoke: only {cores} hardware thread(s)");
        return;
    }
    let w = workload("gramschmidt");
    let sequential_profiler = Profiler::new(GpuConfig::v100());
    let parallel_profiler = Profiler::new(GpuConfig::v100())
        .with_executor(principal_kernel_analysis::core::Executor::new(4));

    // Warm up caches/allocator before timing.
    let _ = sequential_profiler.detailed(&w, 0..200).expect("warmup");

    let t0 = std::time::Instant::now();
    let a = sequential_profiler
        .detailed(&w, 0..w.kernel_count())
        .expect("sequential profiling");
    let sequential_time = t0.elapsed();

    let t1 = std::time::Instant::now();
    let b = parallel_profiler
        .detailed(&w, 0..w.kernel_count())
        .expect("parallel profiling");
    let parallel_time = t1.elapsed();

    assert_eq!(a, b, "profiling records diverged");
    assert!(
        parallel_time < sequential_time,
        "4 workers ({parallel_time:?}) not faster than sequential ({sequential_time:?})"
    );
}

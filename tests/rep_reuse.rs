//! Full-simulation evaluations take each representative's PKS cycles from
//! the baseline instead of simulating it to completion a second time.
//!
//! The simulator is deterministic, so the reuse must be invisible: every
//! PKS/PKA figure, per-representative projection and attribution term is
//! identical whether the baseline ran or not, at any worker count. The one
//! observable difference is the simulator's own bill: a full-sim evaluation
//! of `n` kernels with `K` groups now runs `n + K` kernels, not `n + 2K`.

use std::sync::Mutex;

use principal_kernel_analysis::core::{Pka, PkaConfig, SimulationReport};
use principal_kernel_analysis::gpu::GpuConfig;
use principal_kernel_analysis::obs;
use principal_kernel_analysis::workloads::{all_workloads, Workload};

/// Serialises this file's tests: one of them reads the process-global
/// metrics registry, which the others' simulations would otherwise feed.
static REGISTRY: Mutex<()> = Mutex::new(());

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == name)
        .expect("known workload")
}

fn tiny_gpu() -> GpuConfig {
    GpuConfig::builder("reuse8")
        .num_sms(8)
        .build()
        .expect("valid")
}

fn pka(workers: usize) -> Pka {
    Pka::new(tiny_gpu(), PkaConfig::default().with_workers(workers))
}

/// The report with its full-simulation baseline fields blanked: what must
/// not depend on whether the baseline ran.
fn sampled_part(report: &SimulationReport) -> SimulationReport {
    SimulationReport {
        fullsim_cycles: None,
        fullsim_dram_util_pct: None,
        sim_error_pct: None,
        fullsim_hours: 0.0,
        ..report.clone()
    }
}

#[test]
fn pks_and_pka_figures_do_not_depend_on_the_baseline() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let w = workload("cutcp");
    let reference = pka(1)
        .evaluate_in_simulation(&w, false)
        .expect("sampled evaluation");
    assert!(
        reference.per_representative.len() >= 2,
        "the check needs K >= 2 to mean anything"
    );
    for workers in [1, 2] {
        let pka = pka(workers);
        let sampled = pka.evaluate_in_simulation(&w, false).expect("sampled");
        let full = pka.evaluate_in_simulation(&w, true).expect("full");
        assert!(full.fullsim_cycles.is_some());
        assert_eq!(sampled, reference, "sampled run moved at {workers} workers");
        assert_eq!(
            sampled_part(&full),
            sampled_part(&reference),
            "baseline reuse changed a PKS/PKA figure at {workers} workers"
        );
    }
}

#[test]
fn attribution_does_not_depend_on_the_baseline() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let w = workload("cutcp");
    let (sampled, sampled_attr) = pka(2)
        .evaluate_with_attribution(&w, false)
        .expect("sampled attribution");
    let (full, full_attr) = pka(2)
        .evaluate_with_attribution(&w, true)
        .expect("full attribution");
    assert_eq!(full_attr, sampled_attr);
    assert_eq!(sampled_part(&full), sampled_part(&sampled));
    assert_eq!(
        full,
        pka(1).evaluate_in_simulation(&w, true).expect("plain full"),
        "the attribution path must report what the plain path reports"
    );
}

#[test]
fn a_full_evaluation_simulates_each_representative_once_to_completion() {
    let _guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let w = workload("cutcp");
    let pka = pka(2);
    obs::reset();
    obs::enable();
    let report = pka.evaluate_in_simulation(&w, true);
    let kernels = obs::counter("sim.kernels").get();
    let cycles = obs::counter("sim.cycles").get();
    obs::disable();
    let report = report.expect("full evaluation");

    let n = w.kernel_count();
    let k = report.per_representative.len() as u64;
    assert_eq!(kernels, n + k, "n = {n}, K = {k}");
    // The baseline plus one PKP-monitored run per representative.
    assert_eq!(
        cycles,
        report.fullsim_cycles.expect("baseline ran") + report.pka_simulated_cycles
    );
}

//! The measured phase of an untraced run: whole passes of the workload,
//! repeated until the run's time is up, and the end-to-end metrics they
//! give.

use std::time::Instant;

use crate::fingerprint::{host_steal_s, process_cpu_s};
use crate::report::Report;
use crate::stats;

/// Wall and CPU time of every measured pass.
#[derive(Debug, Default)]
pub struct Passes {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    steal_s: f64,
}

/// Runs `pass` for about `seconds` (at least once) and returns each pass's
/// result with the timings. A new pass starts only while the run would
/// end nearer to `seconds` with it than without it, so a run measures
/// `seconds` give or take half a pass instead of overshooting by up to a
/// whole one.
pub fn measure<T>(seconds: f64, mut pass: impl FnMut() -> T) -> (Vec<T>, Passes) {
    let started = Instant::now();
    let steal0 = host_steal_s();
    let mut out = Vec::new();
    let mut p = Passes::default();
    while out.is_empty()
        || started.elapsed().as_secs_f64() + stats::median(&p.walls) / 2.0 < seconds
    {
        let (c0, t0) = (process_cpu_s(), Instant::now());
        out.push(pass());
        p.walls.push(t0.elapsed().as_secs_f64());
        p.cpus.push(process_cpu_s() - c0);
    }
    p.steal_s = host_steal_s() - steal0;
    (out, p)
}

impl Passes {
    /// Adds the end-to-end metrics: `wall_s` (median pass), `setup_s`, and
    /// `units_per_s` (`units` of work over all passes per host second, also
    /// reported under the workload's own name `units_name`), plus the CPU
    /// time per pass and the host's steal time on the detail line.
    pub fn emit(&self, report: &mut Report, setup_s: f64, units: f64, units_name: &'static str) {
        eprintln!("pass walls (s): {:?}", self.walls);
        let wall = stats::median(&self.walls);
        let rate = units / self.walls.iter().sum::<f64>();
        report.metric("wall_s", wall, "s");
        report.metric("setup_s", setup_s, "s");
        report.metric("units_per_s", rate, "1/s");
        report.named("wall_s", wall, "s");
        report.named(units_name, rate, "1/s");
        report.named("cpu_s", stats::median(&self.cpus), "s");
        report.named("passes", self.walls.len() as f64, "count");
        report.named("host_steal_s", self.steal_s, "s");
    }
}

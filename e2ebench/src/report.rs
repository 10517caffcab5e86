//! The result a run prints: operation counts, the contract metrics for the
//! final stdout line, and the workload's own named metrics for the line
//! before it.

use std::fmt::Debug;

/// One measured value.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Operation accounting plus the metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (calls, requests and output checks).
    pub attempted: u64,
    /// Operations that failed: an error, an unexpected status, or a failed
    /// output check.
    pub failed: u64,
    metrics: Vec<Metric>,
    named: Vec<Metric>,
}

impl Report {
    /// Counts one operation; a failure is reported on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Counts one operation that returned a `Result`.
    pub fn op_result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one output check comparing `got` with `want`.
    pub fn check<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.op(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }

    /// Adds a metric to the final result line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a workload-specific named metric (printed on the detail line).
    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Names and units of the result-line metrics, in order.
    #[cfg(test)]
    pub fn metric_units(&self) -> Vec<(String, &'static str)> {
        self.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect()
    }

    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The detail line(s): the workload's named metrics with their units.
    pub fn detail_lines(&self, workload: &str) -> Vec<String> {
        if self.named.is_empty() {
            return Vec::new();
        }
        vec![format!(
            "{{\"workload\": \"{workload}\", \"named\": {}}}",
            render(&self.named)
        )]
    }

    /// The final result line.
    ///
    /// # Errors
    ///
    /// Fails when a metric is not a finite number (JSON cannot carry it).
    pub fn result_line(&self) -> Result<String, String> {
        if let Some(m) = self
            .metrics
            .iter()
            .chain(&self.named)
            .find(|m| !m.value.is_finite())
        {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            render(&self.metrics)
        ))
    }
}

fn render(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

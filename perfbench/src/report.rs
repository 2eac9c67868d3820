//! Metric collection, the human-readable report and the result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
}

/// Everything one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report only.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Free-form report lines (input digests and the like).
    pub info: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// A metric of the result line when `gated`, a report note otherwise.
    pub fn put(&mut self, gated: bool, name: &str, value: f64, unit: &'static str, samples: usize) {
        if gated {
            self.metric(name, value, unit, samples);
        } else {
            self.note(name, value, unit, samples);
        }
    }

    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Record an output check; a failing one marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The report lines: every metric with its unit and sample count.
    pub fn human(&self, header: &str) -> String {
        let mut out = format!("== {header} ==\n");
        for line in &self.info {
            let _ = writeln!(out, "{line}");
        }
        for (tag, list) in [("metric", &self.metrics), ("note", &self.notes)] {
            for m in list {
                let _ = writeln!(
                    out,
                    "{tag:<6} {:<40} {:>16.4} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let _ = writeln!(
            out,
            "ops attempted={} failed={} checks={}",
            self.attempted,
            self.failed,
            if self.correct() { "pass" } else { "FAIL" }
        );
        for e in &self.errors {
            let _ = writeln!(out, "check failed: {e}");
        }
        out
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s", 3);
        r.note("recover_s", 1.0, "s", 3);
        r.attempted = 10;
        let line = r.json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check(false, || "boom".into());
        assert!(r.json().starts_with("{\"correct\": false"));
        assert!(r.human("x").contains("check failed: boom"));
    }
}

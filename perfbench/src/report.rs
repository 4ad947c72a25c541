//! What one benchmark run reports: operation accounting, correctness
//! problems, metrics and counters, and the final JSON line.

use crate::util::{json_num, json_str};

/// Whether a counter must repeat bit-for-bit when the same campaign runs
/// again (`Exact`), or depends on how the worker threads were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    Exact,
    Scheduling,
}

impl Stability {
    fn label(self) -> &'static str {
        match self {
            Stability::Exact => "exact",
            Stability::Scheduling => "scheduling-dependent",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Set for counts, which are reported as counts and never as speed-ups.
    pub stability: Option<Stability>,
    /// Free-text context printed beside the value (a ratio's base, say).
    pub note: String,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Faults given a classification.
    pub attempted: u64,
    /// Containment asserts, digest mismatches and API errors.
    pub failed: u64,
    /// Every failed check, in words; the run is correct when this is empty.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `key=value` lines printed before the result (host facts, digests).
    pub facts: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            stability: None,
            note: String::new(),
        });
    }

    pub fn counter(&mut self, name: &str, value: f64, unit: &'static str, stability: Stability) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            stability: Some(stability),
            note: String::new(),
        });
    }

    /// Attaches a note to the most recently added metric.
    pub fn note(&mut self, note: String) {
        if let Some(m) = self.metrics.last_mut() {
            m.note = note;
        }
    }

    /// A failed operation: counts toward `failed` and makes the run
    /// incorrect.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// A failed check that is not an operation of its own (a counter that
    /// should have repeated, say): the run is incorrect, `failed` is not
    /// touched.
    pub fn problem(&mut self, problem: String) {
        self.problems.push(problem);
    }

    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push(format!("{key}={value}"));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Human-readable lines: facts, problems, then every metric with its
    /// unit (and, for counters, whether they are exact).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for f in &self.facts {
            out.push_str(&format!("# {f}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("# PROBLEM: {p}\n"));
        }
        for m in &self.metrics {
            let mut line = format!("{} = {} {}", m.name, json_num(m.value), m.unit);
            if let Some(s) = m.stability {
                line.push_str(&format!(" [{}]", s.label()));
            }
            if !m.note.is_empty() {
                line.push_str(&format!(" ({})", m.note));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
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

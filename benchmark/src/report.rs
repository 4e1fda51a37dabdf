//! What one workload run produces, and the metric list it is checked
//! against.
//!
//! `BENCHMARK.json` at the repository root is the single list of metric
//! names, units and directions: a run reports every end-to-end metric
//! (untraced) or every per-layer metric (traced) it names, and a value
//! under a name it does not list is a bug in this crate.

use std::collections::BTreeMap;
use std::fmt::Display;

use ecl_telemetry::json::{self, Value};

/// The benchmark definition, compiled in so the binary and the file
/// cannot disagree.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed metric lists of the benchmark definition.
#[derive(Debug, Clone)]
pub struct Definition {
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics, in file order.
    pub per_layer: Vec<MetricDef>,
}

impl Definition {
    /// Parses [`BENCHMARK_JSON`].
    pub fn load() -> Definition {
        Definition::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Definition, String> {
        let doc = json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing array {key:?}"))?
                .iter()
                .map(|m| {
                    let better = match m.get("better").and_then(Value::as_str) {
                        Some("higher") => Better::Higher,
                        Some("lower") => Better::Lower,
                        other => return Err(format!("bad direction {other:?}")),
                    };
                    Ok(MetricDef {
                        name: m
                            .get("name")
                            .and_then(Value::as_str)
                            .ok_or("metric without a name")?
                            .to_string(),
                        unit: m
                            .get("unit")
                            .and_then(Value::as_str)
                            .ok_or("metric without a unit")?
                            .to_string(),
                        better,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Definition {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The definition of `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The outcome of one workload run: correctness, operation counts and
/// measured values by metric name.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (scenarios swept, requests sent).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measured values.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// An empty report whose checks have all passed so far.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records one correctness check; a failure is printed to stderr.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        if !ok {
            eprintln!("check failed: {what}");
            self.correct = false;
        }
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric `def` lists for the run's mode. A
    /// per-layer metric whose layer did not run on the workload reads 0.
    ///
    /// # Panics
    ///
    /// On a value whose name `def` does not list, or a missing
    /// end-to-end value: both are bugs in this crate.
    pub fn to_json(&self, def: &Definition, traced: bool) -> String {
        let metrics = if traced {
            &def.per_layer
        } else {
            &def.end_to_end
        };
        for name in self.values.keys() {
            assert!(
                metrics.iter().any(|m| m.name == *name),
                "{name} is not a {} metric of BENCHMARK.json",
                if traced { "per-layer" } else { "end-to-end" }
            );
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = match self.values.get(m.name.as_str()) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {} was not measured", m.name),
                };
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn definition_lists_every_workload_and_metric_once() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let def = Definition::load();
        let mut all: Vec<&str> = def
            .end_to_end
            .iter()
            .chain(&def.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        assert!(def.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(def.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = def.metric("setup_s").expect("setup_s is defined");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let def = Definition::load();
        let mut report = Report::new();
        for m in &def.end_to_end {
            report.set(&m.name, 1.5);
        }
        let line = report.to_json(&def, false);
        let parsed = json::parse(&line).expect("result line is JSON");
        let metrics = parsed.get("metrics").expect("metrics object");
        for m in &def.end_to_end {
            let entry = metrics.get(&m.name).expect("every end-to-end metric");
            assert_eq!(entry.get("value").and_then(Value::as_f64), Some(1.5));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(m.unit.as_str())
            );
        }
        assert_eq!(parsed.get("attempted").and_then(Value::as_f64), Some(1.0));
        let traced = Report::new().to_json(&def, true);
        let parsed = json::parse(&traced).expect("traced line is JSON");
        let metrics = parsed.get("metrics").expect("metrics object");
        for m in &def.per_layer {
            assert!(metrics.get(&m.name).is_some(), "{} present", m.name);
        }
    }
}

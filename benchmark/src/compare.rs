//! `compare A.json… -- B.json…`: medians, quartiles and a verdict per
//! workload × metric, between the parent's runs (A) and a change's (B).
//!
//! Verdicts follow the benchmark's rules. B *improved* a metric when it
//! wins at least nine in ten of the A/B pairs (ties count for neither)
//! and the medians differ in its favour by more than A's interquartile
//! range. An end-to-end metric is *worse* when B's median trails A's by
//! more than the metric's `BENCHMARK.json` bound, and *unresolved* when
//! A's own spread exceeds that bound, unless every B run beats every A
//! run. A per-layer metric has no bound: it is worse by the mirror of
//! the improvement rule.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ecl_telemetry::json::{self, Value};

use crate::report::{Better, Definition};
use crate::stats;

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the pair-and-spread rule.
    Improved,
    /// No regression beyond the bound.
    Unchanged,
    /// B regressed beyond the bound.
    Worse,
    /// A's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares the runs of `a` (parent) and `b` (change); the n-th runs of
/// each side form a pair.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let (Some(med_a), Some(med_b)) = (stats::median(a), stats::median(b)) else {
        return Verdict::Unresolved;
    };
    let iqr_a = stats::quartiles(a).map_or(0.0, |(q1, q3)| q3 - q1);
    let pairs = a.len().min(b.len());
    let wins = |x: &[f64], y: &[f64]| {
        x.iter()
            .zip(y)
            .filter(|(&p, &q)| sign * (q - p) > 0.0)
            .count()
    };
    let gain = sign * (med_b - med_a);
    if pairs > 0 && wins(a, b) * 10 >= pairs * 9 && gain > iqr_a {
        return Verdict::Improved;
    }
    match bound {
        Some(bound) => {
            let scale = med_a.abs();
            let every_b_better = b.iter().all(|&q| a.iter().all(|&p| sign * (q - p) > 0.0));
            if iqr_a > bound * scale && !every_b_better {
                Verdict::Unresolved
            } else if -gain > bound * scale {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            }
        }
        None if pairs > 0 && wins(b, a) * 10 >= pairs * 9 && -gain > iqr_a => Verdict::Worse,
        None => Verdict::Unchanged,
    }
}

/// `(workload, metric)` → values, one per run file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads the `run` output files of one side.
fn read_side(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let Some(Value::Object(workloads)) = doc.get("workloads") else {
            return Err(format!("{path}: no workloads"));
        };
        for (workload, modes) in workloads {
            let Value::Object(modes) = modes else {
                continue;
            };
            for (_, result) in modes {
                let Some(Value::Object(metrics)) = result.get("metrics") else {
                    continue;
                };
                for (metric, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        runs.entry((workload.clone(), metric.clone()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        }
    }
    Ok(runs)
}

/// `v` with five significant digits.
fn sig(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (4 - magnitude).max(0) as usize)
}

fn summary(values: &[f64]) -> String {
    let med = stats::median(values).unwrap_or(f64::NAN);
    match stats::quartiles(values) {
        Some((q1, q3)) => format!("{} [{}, {}]", sig(med), sig(q1), sig(q3)),
        None => sig(med),
    }
}

/// The `compare` subcommand.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: compare A.json... -- B.json...")?;
    let (a, b) = (&args[..split], &args[split + 1..]);
    if a.is_empty() || b.is_empty() {
        return Err("both sides need at least one run file".into());
    }
    if a.len().min(b.len()) < 10 {
        eprintln!("note: fewer than ten runs a side; the pair rule needs ten");
    }
    let (runs_a, runs_b) = (read_side(a)?, read_side(b)?);
    let def = Definition::load();
    let mut worse = false;
    println!("workload metric | A median [q1, q3] | B median [q1, q3] | verdict");
    for ((workload, metric), va) in &runs_a {
        let (Some(vb), Some(m)) = (
            runs_b.get(&(workload.clone(), metric.clone())),
            def.metric(metric),
        ) else {
            continue;
        };
        let v = verdict(va, vb, m.better, m.bound);
        worse |= v == Verdict::Worse && m.bound.is_some();
        println!(
            "{workload} {metric} | {} | {} | {}",
            summary(va),
            summary(vb),
            v.name()
        );
    }
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    fn shifted(by: f64) -> Vec<f64> {
        A.iter().map(|v| v + by).collect()
    }

    #[test]
    fn a_clear_gain_is_an_improvement() {
        assert_eq!(
            verdict(&A, &shifted(5.0), Better::Higher, Some(0.1)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&A, &shifted(-5.0), Better::Lower, Some(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_gain_inside_the_spread_is_not_an_improvement() {
        // Wins every pair, but by less than A's interquartile range.
        let b = shifted(0.05);
        assert_eq!(
            verdict(&A, &b, Better::Higher, Some(0.1)),
            Verdict::Unchanged
        );
        // Wins 8 of 10 pairs only.
        let mut b = shifted(5.0);
        b[0] = 0.0;
        b[1] = 0.0;
        assert_eq!(
            verdict(&A, &b, Better::Higher, Some(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        assert_eq!(
            verdict(&A, &shifted(-20.0), Better::Higher, Some(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&A, &shifted(5.0), Better::Lower, Some(0.1)),
            Verdict::Unchanged,
            "a 5% loss is inside a 10% bound"
        );
        assert_eq!(
            verdict(&A, &shifted(20.0), Better::Lower, Some(0.1)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let b: Vec<f64> = noisy.iter().map(|v| v * 0.98).collect();
        assert_eq!(
            verdict(&noisy, &b, Better::Higher, Some(0.1)),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        let b = vec![200.0; 10];
        assert_eq!(
            verdict(&noisy, &b, Better::Higher, Some(0.1)),
            Verdict::Improved
        );
    }

    #[test]
    fn per_layer_metrics_use_the_pair_rule_both_ways() {
        assert_eq!(
            verdict(&A, &shifted(-5.0), Better::Higher, None),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&A, &shifted(0.0), Better::Higher, None),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&A, &shifted(5.0), Better::Higher, None),
            Verdict::Improved
        );
    }
}

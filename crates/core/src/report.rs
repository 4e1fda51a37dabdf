//! Rendering lifecycle results as Markdown and CSV artifacts.
//!
//! A methodology that shortens the design cycle lives or dies by what it
//! hands back to the designer; this module turns a
//! [`LifecycleReport`] into a
//! human-readable Markdown summary and machine-readable CSV traces.

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph};
use ecl_telemetry::Counts;

use crate::cosim::LoopResult;
use crate::faults::FaultPlan;
use crate::lifecycle::LifecycleReport;
use crate::CoreError;

/// Renders the lifecycle report as a self-contained Markdown document.
pub fn to_markdown(
    report: &LifecycleReport,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
) -> String {
    let mut s = String::new();
    s.push_str("# Design-lifecycle report\n\n");
    s.push_str("## Control performance\n\n");
    s.push_str("| run | quadratic cost | vs ideal |\n|---|---|---|\n");
    let base = report.ideal.cost;
    for (name, run) in [
        ("ideal (stroboscopic)", &report.ideal),
        ("implemented (co-simulated)", &report.implemented),
        ("calibrated (delay-aware redesign)", &report.calibrated),
    ] {
        s.push_str(&format!(
            "| {name} | {:.6} | {:+.2}% |\n",
            run.cost,
            (run.cost / base - 1.0) * 100.0
        ));
    }
    s.push_str(&format!(
        "\nDegradation {:+.2}%, calibration recovers {:.0}% of it.\n",
        report.degradation() * 100.0,
        report.calibration_recovery() * 100.0
    ));

    s.push_str("\n## Latencies (paper eq. 1–2)\n\n```text\n");
    s.push_str(&report.latency.render());
    s.push_str("```\n");

    s.push_str("\n## Observability\n\n");
    s.push_str("Latency percentiles of the implemented run (streaming histograms, ns):\n\n");
    s.push_str("| series | count | min | p50 | p95 | p99 | max | mean |\n");
    s.push_str("|---|---|---|---|---|---|---|---|\n");
    let mut hist_row = |label: String, h: &ecl_telemetry::Histogram| {
        let sm = h.summary();
        s.push_str(&format!(
            "| {label} | {} | {} | {} | {} | {} | {} | {:.1} |\n",
            sm.count, sm.min_ns, sm.p50_ns, sm.p95_ns, sm.p99_ns, sm.max_ns, sm.mean_ns
        ));
    };
    for (j, h) in report.implemented.sampling_hist.iter().enumerate() {
        hist_row(format!("Ls[{j}]"), h);
    }
    for (j, h) in report.implemented.actuation_hist.iter().enumerate() {
        hist_row(format!("La[{j}]"), h);
    }

    s.push_str("\nBusiest blocks of the implemented co-simulation (event deliveries):\n\n");
    s.push_str("| block | activations |\n|---|---|\n");
    for (name, count) in report.implemented.activity.iter().take(5) {
        s.push_str(&format!("| {name} | {count} |\n"));
    }
    let es = &report.implemented.stats;
    s.push_str(&format!(
        "\nEngine counters: {} event instants, {} deliveries, calendar peak {}, \
         {} ODE steps ({} rejected), {} RHS evaluations.\n",
        es.event_instants,
        es.events_delivered,
        es.calendar_peak,
        es.ode.steps_accepted,
        es.ode.steps_rejected,
        es.ode.rhs_evals
    ));

    s.push_str("\n## Static schedule\n\n```text\n");
    s.push_str(&report.schedule.render(alg, arch));
    s.push_str("```\n\n```text\n");
    s.push_str(&ecl_aaa::timeline::gantt_text(&report.schedule, alg, arch));
    s.push_str("```\n");

    s.push_str(&format!(
        "\n## Generated executives (deadlock-free: {})\n\n```text\n{}\n```\n",
        report.deadlock_free, report.executives
    ));
    s
}

/// The cost table of the report as CSV (`run,cost,relative`).
pub fn costs_csv(report: &LifecycleReport) -> String {
    let base = report.ideal.cost;
    let mut s = String::from("run,cost,relative_to_ideal\n");
    for (name, run) in [
        ("ideal", &report.ideal),
        ("implemented", &report.implemented),
        ("calibrated", &report.calibrated),
    ] {
        s.push_str(&format!("{name},{:.9},{:.6}\n", run.cost, run.cost / base));
    }
    s
}

/// Exports chosen probe signals of a run as a merged CSV, linearly
/// resampled on a uniform grid of step `dt` seconds.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] if `dt` is non-positive, a name is
/// unknown, or the run recorded nothing.
pub fn traces_csv(run: &LoopResult, names: &[&str], dt: f64) -> Result<String, CoreError> {
    if !(dt > 0.0) {
        return Err(CoreError::InvalidInput {
            reason: format!("resampling step must be positive, got {dt}"),
        });
    }
    let signals: Result<Vec<_>, CoreError> = names
        .iter()
        .map(|&n| {
            run.result.signal(n).ok_or_else(|| CoreError::InvalidInput {
                reason: format!("unknown probe '{n}'"),
            })
        })
        .collect();
    let signals = signals?;
    let t_end = signals
        .iter()
        .filter_map(|s| s.last().map(|(t, _)| t))
        .fold(0.0f64, f64::max);
    if t_end <= 0.0 {
        return Err(CoreError::InvalidInput {
            reason: "run recorded no samples".into(),
        });
    }
    let mut s = String::from("t");
    for n in names {
        s.push(',');
        s.push_str(n);
    }
    s.push('\n');
    let steps = (t_end / dt).floor() as usize;
    for k in 0..=steps {
        let t = k as f64 * dt;
        s.push_str(&format!("{t:.9}"));
        for sig in &signals {
            s.push_str(&format!(",{:.9}", sig.sample(t).unwrap_or(0.0)));
        }
        s.push('\n');
    }
    Ok(s)
}

/// Aggregated outcome of one scenario of a Monte-Carlo sweep.
///
/// Rows are produced by the sweep engine (`ecl-bench`'s fleet module) in
/// scenario-index order, so a [`SweepSummary`] renders byte-identically
/// regardless of how many workers ran the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario index within the sweep (also the seed-derivation input).
    pub index: usize,
    /// The per-scenario PRNG seed actually used.
    pub seed: u64,
    /// Human-readable description of the perturbation.
    pub label: String,
    /// Quadratic cost of the implemented (co-simulated) run.
    pub cost: f64,
    /// `cost / ideal cost` of the same scenario.
    pub cost_ratio: f64,
    /// Makespan of the scenario's static schedule, ns.
    pub makespan_ns: i64,
    /// Worst observed actuation latency `La_j(k)`, ns.
    pub worst_actuation_ns: i64,
    /// Number of cross-period actuations (lenient-mode overruns).
    pub overruns: usize,
}

/// Verdict of a faulty run against its fault-free baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabilityVerdict {
    /// Cost stayed within the sweep's cost-ratio bound despite the faults.
    Stable,
    /// Cost exceeded the bound but the loop still converged (finite cost
    /// within 10× the bound).
    Degraded,
    /// The loop diverged: non-finite cost, or beyond 10× the bound.
    Diverged,
}

impl StabilityVerdict {
    /// Fixed lower-case name, used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            StabilityVerdict::Stable => "stable",
            StabilityVerdict::Degraded => "degraded",
            StabilityVerdict::Diverged => "diverged",
        }
    }
}

/// How one faulty scenario degraded relative to its fault-free twin.
///
/// Built by [`DegradationSummary::from_runs`] from two co-simulations of
/// the *same* scenario — one with the fault plan active, one nominal —
/// so every delta isolates the injected faults from the scenario's own
/// perturbations.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Scenario index within the sweep.
    pub index: usize,
    /// Periods covered by the fault plan.
    pub periods: u32,
    /// Injected-fault tallies from the plan (frame losses,
    /// retransmissions, outage windows, processor dropouts, ...).
    pub injected: Counts,
    /// Sampling activations lost versus the baseline run (skipped
    /// `I_j(k)` events — the Hold block kept its previous value).
    pub skipped_samples: usize,
    /// Actuation activations lost versus the baseline run.
    pub skipped_actuations: usize,
    /// Cross-period completions of the faulty run (lenient-mode
    /// overruns), counting retransmission stretch and forced rendezvous.
    pub overruns: usize,
    /// Mean `Ls_j(k)` inflation over the baseline, ns.
    pub ls_inflation_ns: i64,
    /// Mean `La_j(k)` inflation over the baseline, ns.
    pub la_inflation_ns: i64,
    /// `faulty cost / baseline cost` of the same scenario.
    pub cost_ratio: f64,
    /// Stability classification of the faulty run.
    pub verdict: StabilityVerdict,
}

impl DegradationSummary {
    /// Compares a faulty run against its fault-free baseline.
    ///
    /// `cost_bound_ratio` is the sweep's robustness bound: within it the
    /// verdict is [`Stable`](StabilityVerdict::Stable), within 10× it is
    /// [`Degraded`](StabilityVerdict::Degraded), beyond (or non-finite)
    /// [`Diverged`](StabilityVerdict::Diverged).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if either run's activation
    /// instants are unsorted or causally impossible.
    pub fn from_runs(
        index: usize,
        plan: &FaultPlan,
        baseline: &LoopResult,
        faulty: &LoopResult,
        cost_bound_ratio: f64,
    ) -> Result<DegradationSummary, CoreError> {
        let skipped = |base: &[Vec<ecl_aaa::TimeNs>], faul: &[Vec<ecl_aaa::TimeNs>]| {
            base.iter()
                .zip(faul)
                .map(|(b, f)| b.len().saturating_sub(f.len()))
                .sum()
        };
        let base_rep = baseline.latency_report_lenient()?;
        let faulty_rep = faulty.latency_report_lenient()?;
        let cost_ratio = faulty.cost / baseline.cost;
        let verdict = if !cost_ratio.is_finite() || cost_ratio > 10.0 * cost_bound_ratio {
            StabilityVerdict::Diverged
        } else if cost_ratio <= cost_bound_ratio {
            StabilityVerdict::Stable
        } else {
            StabilityVerdict::Degraded
        };
        Ok(DegradationSummary {
            index,
            periods: plan.periods(),
            injected: plan.counts().clone(),
            skipped_samples: skipped(&baseline.sample_instants, &faulty.sample_instants),
            skipped_actuations: skipped(&baseline.actuation_instants, &faulty.actuation_instants),
            overruns: faulty_rep.total_overruns(),
            ls_inflation_ns: faulty_rep.mean_sampling().as_nanos()
                - base_rep.mean_sampling().as_nanos(),
            la_inflation_ns: faulty_rep.mean_actuation().as_nanos()
                - base_rep.mean_actuation().as_nanos(),
            cost_ratio,
            verdict,
        })
    }
}

/// Aggregate of a sweep's executive cross-validations (experiment
/// E13-EXEC): every validated run executed the generated code in the
/// `ecl-exec` virtual machine and diffed the measured completion
/// instants against the graph-of-delays prediction
/// (`ecl_core::xval::validate_schedule`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Executive runs cross-validated (a scenario's nominal and faulty
    /// runs count separately).
    pub validated: usize,
    /// Runs whose measured series matched the prediction exactly.
    pub exact: usize,
    /// Largest measured-vs-predicted divergence seen anywhere, ns.
    pub max_divergence_ns: i64,
}

/// Aggregate of a sweep's static verifications (experiment E14-VERIFY):
/// every verified scenario ran the `ecl-verify` passes over its schedule
/// and checked that the sound static `Ls`/`La` bounds dominate the
/// measured latencies.
///
/// Defined here (plain counts, no dependency on the verifier crate) so
/// the renderers stay in one place; the sweep engine populates it from
/// `ecl-verify` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationSummary {
    /// Scenarios statically verified.
    pub verified: usize,
    /// Error-severity diagnostics across all verified scenarios.
    pub errors: usize,
    /// Warning-severity diagnostics across all verified scenarios.
    pub warnings: usize,
    /// Smallest `static bound - measured latency` margin observed
    /// anywhere, ns (non-negative iff the bounds are sound).
    pub worst_margin_ns: i64,
}

/// Aggregate of a sweep's static fault-envelope pruning (experiment
/// E19-ENVELOPE): scenarios whose envelope verdict was conclusive
/// skipped co-simulation entirely and contributed a statically derived
/// report row instead.
///
/// Defined here (plain counts, no dependency on the verifier crate) for
/// the same reason as [`VerificationSummary`]: the renderers stay in one
/// place and the sweep engine populates it from `ecl-verify` envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneSummary {
    /// Scenarios whose fault envelope was evaluated (traced scenarios
    /// are never pruned, so they do not count here).
    pub evaluated: usize,
    /// Scenarios pruned with a conclusively *safe* envelope (no period
    /// or budget violation is possible for any plan in the family).
    pub pruned_safe: usize,
    /// Scenarios pruned with a conclusively *unsafe* envelope (every
    /// plan in the family violates the period or budget).
    pub pruned_unsafe: usize,
    /// Scenarios that went on to co-simulate (inconclusive envelope, or
    /// traced/pass-skipped).
    pub simulated: usize,
}

/// The sweep-level report: per-scenario rows plus robustness statistics.
///
/// Rendering is deliberately free of wall-clock content — two sweeps over
/// the same scenarios produce identical bytes, which is what the
/// determinism check of experiment E11-MC diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Per-scenario outcomes, ordered by scenario index.
    pub scenarios: Vec<ScenarioOutcome>,
    /// A scenario is *robust* when `cost_ratio <= cost_bound_ratio`.
    pub cost_bound_ratio: f64,
    /// Adequation-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Adequation-cache lookups that ran the scheduler.
    pub cache_misses: u64,
    /// Fault-degradation rows, ordered by scenario index; empty for a
    /// fault-free sweep, in which case neither renderer emits the
    /// degradation section (keeping fault-free output byte-identical to
    /// pre-fault sweeps).
    pub degradations: Vec<DegradationSummary>,
    /// Executive cross-validation aggregate; `None` when the sweep did
    /// not self-validate, in which case neither renderer emits the
    /// section (keeping earlier artifacts byte-identical).
    pub validation: Option<ValidationSummary>,
    /// Static-verification aggregate; `None` when the sweep did not run
    /// the verifier, in which case neither renderer emits the section
    /// (keeping earlier artifacts byte-identical).
    pub verification: Option<VerificationSummary>,
    /// Static fault-envelope pruning aggregate; `None` when the sweep
    /// did not prune, in which case neither renderer emits the section
    /// (keeping earlier artifacts byte-identical).
    pub prune: Option<PruneSummary>,
}

impl SweepSummary {
    /// Fraction of scenarios whose cost stayed within the bound
    /// (`cost_ratio <= cost_bound_ratio`); 0 for an empty sweep.
    pub fn robustness_margin(&self) -> f64 {
        if self.scenarios.is_empty() {
            return 0.0;
        }
        let met = self
            .scenarios
            .iter()
            .filter(|s| s.cost_ratio <= self.cost_bound_ratio)
            .count();
        met as f64 / self.scenarios.len() as f64
    }

    /// The scenario with the largest cost ratio (`None` for an empty
    /// sweep). Ties resolve to the lowest index, keeping the answer
    /// independent of worker count.
    pub fn worst(&self) -> Option<&ScenarioOutcome> {
        self.scenarios.iter().reduce(|worst, s| {
            if s.cost_ratio > worst.cost_ratio {
                s
            } else {
                worst
            }
        })
    }

    /// The `q`-quantile (`0 <= q <= 1`) of the cost ratios across
    /// scenarios, by the nearest-rank method; `None` for an empty sweep.
    /// `q = 0` returns the minimum, `q = 1` the maximum, and a
    /// single-scenario sweep returns its only element for every `q`.
    pub fn cost_ratio_quantile(&self, q: f64) -> Option<f64> {
        if self.scenarios.is_empty() {
            return None;
        }
        let mut ratios: Vec<f64> = self.scenarios.iter().map(|s| s.cost_ratio).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("cost ratios are finite"));
        let n = ratios.len();
        // Nearest rank is ⌈q·n⌉, but the product must be snapped to the
        // grid first: 0.95 · 20 evaluates to 19.000000000000004 in f64,
        // whose raw ceil lands on rank 20 instead of 19.
        let pos = q * n as f64;
        let rank = if pos <= pos.floor() + 1e-9 {
            pos.floor()
        } else {
            pos.ceil()
        } as usize;
        Some(ratios[rank.clamp(1, n) - 1])
    }

    /// Fraction of faulty scenarios the loop *survived* (verdict other
    /// than [`Diverged`](StabilityVerdict::Diverged)); `None` when the
    /// sweep injected no faults.
    pub fn survivable_fraction(&self) -> Option<f64> {
        if self.degradations.is_empty() {
            return None;
        }
        let survived = self
            .degradations
            .iter()
            .filter(|d| d.verdict != StabilityVerdict::Diverged)
            .count();
        Some(survived as f64 / self.degradations.len() as f64)
    }

    /// Renders the sweep as a Markdown section (deterministic bytes, no
    /// timestamps).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("## Scenario sweep\n\n");
        s.push_str(&format!(
            "{} scenarios, robustness margin {:.4} (cost ratio bound {:.3}), \
             schedule cache {} hits / {} misses.\n\n",
            self.scenarios.len(),
            self.robustness_margin(),
            self.cost_bound_ratio,
            self.cache_hits,
            self.cache_misses
        ));
        if let Some(w) = self.worst() {
            s.push_str(&format!(
                "Worst scenario: #{} ({}), cost ratio {:.6}.\n",
                w.index, w.label, w.cost_ratio
            ));
        }
        for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            if let Some(v) = self.cost_ratio_quantile(q) {
                s.push_str(&format!("Cost ratio {name}: {v:.6}\n"));
            }
        }
        s.push_str(
            "\n| # | seed | scenario | cost | vs ideal | makespan ns | worst La ns | overruns |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        for sc in &self.scenarios {
            s.push_str(&format!(
                "| {} | {:#018x} | {} | {:.6} | {:.6} | {} | {} | {} |\n",
                sc.index,
                sc.seed,
                sc.label,
                sc.cost,
                sc.cost_ratio,
                sc.makespan_ns,
                sc.worst_actuation_ns,
                sc.overruns
            ));
        }
        if !self.degradations.is_empty() {
            s.push_str("\n### Fault degradation\n\n");
            s.push_str(&format!(
                "{} faulty scenarios, survivable fraction {:.4}.\n\n",
                self.degradations.len(),
                self.survivable_fraction().unwrap_or(0.0)
            ));
            s.push_str(
                "| # | periods | skipped I | skipped O | overruns | Ls infl ns | \
                 La infl ns | cost ratio | verdict | injected |\n\
                 |---|---|---|---|---|---|---|---|---|---|\n",
            );
            for d in &self.degradations {
                s.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {:.6} | {} | {} |\n",
                    d.index,
                    d.periods,
                    d.skipped_samples,
                    d.skipped_actuations,
                    d.overruns,
                    d.ls_inflation_ns,
                    d.la_inflation_ns,
                    d.cost_ratio,
                    d.verdict.as_str(),
                    d.injected.render()
                ));
            }
        }
        if let Some(v) = &self.validation {
            s.push_str("\n### Executive cross-validation\n\n");
            s.push_str(&format!(
                "{} runs validated against the graph of delays: {} exact, \
                 max divergence {} ns.\n",
                v.validated, v.exact, v.max_divergence_ns
            ));
        }
        if let Some(v) = &self.verification {
            s.push_str("\n### Static verification\n\n");
            s.push_str(&format!(
                "{} schedules verified: {} error(s), {} warning(s), worst \
                 bound margin {} ns.\n",
                v.verified, v.errors, v.warnings, v.worst_margin_ns
            ));
        }
        if let Some(p) = &self.prune {
            s.push_str("\n### Static pruning\n\n");
            s.push_str(&format!(
                "{} envelopes evaluated: {} pruned safe, {} pruned unsafe, \
                 {} co-simulated.\n",
                p.evaluated, p.pruned_safe, p.pruned_unsafe, p.simulated
            ));
        }
        s
    }

    /// Renders the sweep as a JSON document (deterministic bytes, no
    /// timestamps; hand-rolled, the workspace has no serialization crate).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"scenario_count\": {},\n  \"cost_bound_ratio\": {:.6},\n  \
             \"robustness_margin\": {:.6},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"scenarios\": [\n",
            self.scenarios.len(),
            self.cost_bound_ratio,
            self.robustness_margin(),
            self.cache_hits,
            self.cache_misses
        ));
        for (i, sc) in self.scenarios.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"index\": {}, \"seed\": {}, \"label\": \"{}\", \
                 \"cost\": {:.9}, \"cost_ratio\": {:.9}, \"makespan_ns\": {}, \
                 \"worst_actuation_ns\": {}, \"overruns\": {}}}{}\n",
                sc.index,
                sc.seed,
                sc.label,
                sc.cost,
                sc.cost_ratio,
                sc.makespan_ns,
                sc.worst_actuation_ns,
                sc.overruns,
                if i + 1 == self.scenarios.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        if self.degradations.is_empty() {
            s.push_str("  ]");
        } else {
            s.push_str(&format!(
                "  ],\n  \"survivable_fraction\": {:.6},\n  \"degradations\": [\n",
                self.survivable_fraction().unwrap_or(0.0)
            ));
            for (i, d) in self.degradations.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"index\": {}, \"periods\": {}, \"skipped_samples\": {}, \
                     \"skipped_actuations\": {}, \"overruns\": {}, \
                     \"ls_inflation_ns\": {}, \"la_inflation_ns\": {}, \
                     \"cost_ratio\": {:.9}, \"verdict\": \"{}\", \
                     \"injected\": \"{}\"}}{}\n",
                    d.index,
                    d.periods,
                    d.skipped_samples,
                    d.skipped_actuations,
                    d.overruns,
                    d.ls_inflation_ns,
                    d.la_inflation_ns,
                    d.cost_ratio,
                    d.verdict.as_str(),
                    d.injected.render(),
                    if i + 1 == self.degradations.len() {
                        ""
                    } else {
                        ","
                    }
                ));
            }
            s.push_str("  ]");
        }
        if let Some(v) = &self.validation {
            s.push_str(&format!(
                ",\n  \"validation\": {{\"validated\": {}, \"exact\": {}, \
                 \"max_divergence_ns\": {}}}",
                v.validated, v.exact, v.max_divergence_ns
            ));
        }
        if let Some(v) = &self.verification {
            s.push_str(&format!(
                ",\n  \"verification\": {{\"verified\": {}, \"errors\": {}, \
                 \"warnings\": {}, \"worst_margin_ns\": {}}}",
                v.verified, v.errors, v.warnings, v.worst_margin_ns
            ));
        }
        if let Some(p) = &self.prune {
            s.push_str(&format!(
                ",\n  \"prune\": {{\"evaluated\": {}, \"pruned_safe\": {}, \
                 \"pruned_unsafe\": {}, \"simulated\": {}}}",
                p.evaluated, p.pruned_safe, p.pruned_unsafe, p.simulated
            ));
        }
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{self, DisturbanceKind, LoopSpec};
    use crate::lifecycle::{self, LifecycleInputs};
    use crate::translate::{uniform_timing, ControlLawSpec};
    use ecl_aaa::{AdequationOptions, ArchitectureGraph, TimeNs};
    use ecl_control::{c2d_zoh, dlqr, plants};
    use ecl_linalg::Mat;

    fn quick_report() -> (LifecycleReport, AlgorithmGraph, ArchitectureGraph) {
        let plant = plants::dc_motor();
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus(
            "can",
            &[p0, p1],
            TimeNs::from_millis(2),
            TimeNs::from_micros(10),
        )
        .unwrap();
        let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(100), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let inputs = LifecycleInputs {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            ts: plant.ts,
            horizon: 0.6,
            lqr_q: Mat::identity(2),
            lqr_r: Mat::diag(&[0.1]),
            q_weight: 1.0,
            r_weight: 0.1,
            law,
            arch: arch.clone(),
            db,
            adequation: AdequationOptions::default(),
            disturbance: DisturbanceKind::None,
        };
        (lifecycle::run(&inputs).unwrap(), alg, arch)
    }

    #[test]
    fn markdown_contains_all_sections() {
        let (rep, alg, arch) = quick_report();
        let md = to_markdown(&rep, &alg, &arch);
        for heading in [
            "# Design-lifecycle report",
            "## Control performance",
            "## Latencies",
            "## Observability",
            "## Static schedule",
            "## Generated executives",
        ] {
            assert!(md.contains(heading), "missing {heading}");
        }
        assert!(md.contains("deadlock-free: true"));
        // Observability section: latency percentile rows for every I/O,
        // busiest blocks, engine counters, and the schedule Gantt.
        for needle in [
            "| Ls[0] |",
            "| Ls[1] |",
            "| La[0] |",
            "Busiest blocks",
            "Engine counters:",
            "gantt over",
        ] {
            assert!(md.contains(needle), "missing {needle}");
        }
        // The delay-graph synchronization blocks dominate event traffic.
        assert!(md.contains("| sync_"), "busiest-block table empty");
    }

    fn sample_sweep() -> SweepSummary {
        let mk = |index: usize, cost_ratio: f64| ScenarioOutcome {
            index,
            seed: 0x1000 + index as u64,
            label: format!("jitter {index}"),
            cost: cost_ratio * 2.0,
            cost_ratio,
            makespan_ns: 5_000_000 + index as i64,
            worst_actuation_ns: 7_000_000,
            overruns: index % 2,
        };
        SweepSummary {
            scenarios: vec![mk(0, 1.01), mk(1, 1.40), mk(2, 1.05), mk(3, 1.02)],
            cost_bound_ratio: 1.10,
            cache_hits: 3,
            cache_misses: 1,
            degradations: vec![],
            validation: None,
            verification: None,
            prune: None,
        }
    }

    #[test]
    fn sweep_summary_statistics() {
        let sweep = sample_sweep();
        assert!((sweep.robustness_margin() - 0.75).abs() < 1e-12);
        assert_eq!(sweep.worst().unwrap().index, 1);
        assert_eq!(sweep.cost_ratio_quantile(0.5), Some(1.02));
        assert_eq!(sweep.cost_ratio_quantile(1.0), Some(1.40));
        let empty = SweepSummary {
            scenarios: vec![],
            cost_bound_ratio: 1.0,
            cache_hits: 0,
            cache_misses: 0,
            degradations: vec![],
            validation: None,
            verification: None,
            prune: None,
        };
        assert_eq!(empty.robustness_margin(), 0.0);
        assert!(empty.worst().is_none());
        assert!(empty.cost_ratio_quantile(0.5).is_none());
        assert!(empty.survivable_fraction().is_none());
    }

    fn sweep_with_ratios(ratios: &[f64]) -> SweepSummary {
        SweepSummary {
            scenarios: ratios
                .iter()
                .enumerate()
                .map(|(index, &cost_ratio)| ScenarioOutcome {
                    index,
                    seed: index as u64,
                    label: String::new(),
                    cost: cost_ratio,
                    cost_ratio,
                    makespan_ns: 0,
                    worst_actuation_ns: 0,
                    overruns: 0,
                })
                .collect(),
            cost_bound_ratio: 1.10,
            cache_hits: 0,
            cache_misses: 0,
            degradations: vec![],
            validation: None,
            verification: None,
            prune: None,
        }
    }

    #[test]
    fn quantile_boundaries_return_min_max_and_only_element() {
        let sweep = sweep_with_ratios(&[1.40, 1.01, 1.05, 1.02]);
        // q = 0 clamps to rank 1 (minimum); q = 1 is rank n (maximum).
        assert_eq!(sweep.cost_ratio_quantile(0.0), Some(1.01));
        assert_eq!(sweep.cost_ratio_quantile(1.0), Some(1.40));
        let single = sweep_with_ratios(&[1.23]);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(single.cost_ratio_quantile(q), Some(1.23), "q={q}");
        }
    }

    #[test]
    fn quantile_nearest_rank_survives_float_dust() {
        // 0.95 · 20 = 19.000000000000004 in f64; a raw ceil picks rank 20
        // (the maximum) instead of the correct rank 19.
        let ratios: Vec<f64> = (1..=20).map(|i| 1.0 + i as f64 / 100.0).collect();
        let sweep = sweep_with_ratios(&ratios);
        assert_eq!(sweep.cost_ratio_quantile(0.95), Some(1.19));
        // Exact products keep the usual nearest-rank answers.
        assert_eq!(sweep.cost_ratio_quantile(0.50), Some(1.10));
        assert_eq!(sweep.cost_ratio_quantile(0.05), Some(1.01));
        // A genuinely fractional product still rounds up: 0.51·20 = 10.2.
        assert_eq!(sweep.cost_ratio_quantile(0.51), Some(1.11));
    }

    #[test]
    fn degradation_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Fault degradation"));
        assert!(!plain.to_json().contains("degradations"));
        let mut faulty = sample_sweep();
        let mut injected = Counts::new();
        injected.add("frames_lost", 3);
        injected.add("retransmissions", 2);
        faulty.degradations.push(DegradationSummary {
            index: 1,
            periods: 120,
            injected,
            skipped_samples: 2,
            skipped_actuations: 1,
            overruns: 4,
            ls_inflation_ns: 150_000,
            la_inflation_ns: 480_000,
            cost_ratio: 1.21,
            verdict: StabilityVerdict::Degraded,
        });
        assert_eq!(faulty.survivable_fraction(), Some(1.0));
        let md = faulty.render();
        assert!(md.contains("### Fault degradation"));
        assert!(md.contains("1 faulty scenarios, survivable fraction 1.0000"));
        assert!(md.contains("frames_lost=3 retransmissions=2"));
        assert!(md.contains("| degraded |"));
        // The extra section is purely additive: the fault-free rendering
        // is a byte-exact prefix, preserving old artifacts.
        assert!(md.starts_with(&plain.render()));
        let json = faulty.to_json();
        assert!(json.contains("\"survivable_fraction\": 1.000000"));
        assert!(json.contains("\"verdict\": \"degraded\""));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn validation_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Executive cross-validation"));
        assert!(!plain.to_json().contains("\"validation\""));
        let mut validated = sample_sweep();
        validated.validation = Some(ValidationSummary {
            validated: 8,
            exact: 8,
            max_divergence_ns: 0,
        });
        let md = validated.render();
        assert!(md.contains("### Executive cross-validation"));
        assert!(md.contains("8 runs validated against the graph of delays: 8 exact"));
        // Purely additive: the unvalidated rendering is a byte-exact
        // prefix, preserving old artifacts.
        assert!(md.starts_with(&plain.render()));
        let json = validated.to_json();
        assert!(json.contains(
            "\"validation\": {\"validated\": 8, \"exact\": 8, \"max_divergence_ns\": 0}"
        ));
        assert!(json.ends_with("}\n}\n"));
        assert!(json.starts_with(json_common_prefix(&plain.to_json())));
        // ...and it composes with the degradation section: validation
        // follows the degradations array.
        let mut both = validated.clone();
        let mut injected = Counts::new();
        injected.add("frames_lost", 1);
        both.degradations.push(DegradationSummary {
            index: 0,
            periods: 10,
            injected,
            skipped_samples: 0,
            skipped_actuations: 0,
            overruns: 0,
            ls_inflation_ns: 0,
            la_inflation_ns: 0,
            cost_ratio: 1.0,
            verdict: StabilityVerdict::Stable,
        });
        let md = both.render();
        assert!(
            md.find("Fault degradation").unwrap() < md.find("Executive cross-validation").unwrap()
        );
        assert!(both.to_json().ends_with("}\n}\n"));
    }

    /// The fault-free JSON minus its closing `\n}\n`, i.e. the prefix an
    /// additive section must preserve.
    fn json_common_prefix(json: &str) -> &str {
        json.strip_suffix("\n}\n").unwrap()
    }

    #[test]
    fn verification_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Static verification"));
        assert!(!plain.to_json().contains("\"verification\""));
        let mut verified = sample_sweep();
        verified.verification = Some(VerificationSummary {
            verified: 8,
            errors: 0,
            warnings: 3,
            worst_margin_ns: 120_500,
        });
        let md = verified.render();
        assert!(md.contains("### Static verification"));
        assert!(md.contains("8 schedules verified: 0 error(s), 3 warning(s)"));
        assert!(md.contains("worst bound margin 120500 ns"));
        // Purely additive: the unverified rendering is a byte-exact
        // prefix, preserving old artifacts.
        assert!(md.starts_with(&plain.render()));
        let json = verified.to_json();
        assert!(json.contains(
            "\"verification\": {\"verified\": 8, \"errors\": 0, \"warnings\": 3, \
             \"worst_margin_ns\": 120500}"
        ));
        assert!(json.starts_with(json_common_prefix(&plain.to_json())));
        assert!(json.ends_with("}\n}\n"));
        // ...and it composes: verification renders after validation.
        let mut both = verified.clone();
        both.validation = Some(ValidationSummary {
            validated: 8,
            exact: 8,
            max_divergence_ns: 0,
        });
        let md = both.render();
        assert!(
            md.find("Executive cross-validation").unwrap()
                < md.find("Static verification").unwrap()
        );
        let json = both.to_json();
        assert!(json.find("\"validation\"").unwrap() < json.find("\"verification\"").unwrap());
        assert!(json.ends_with("}\n}\n"));
    }

    #[test]
    fn prune_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Static pruning"));
        assert!(!plain.to_json().contains("\"prune\""));
        let mut pruned = sample_sweep();
        pruned.prune = Some(PruneSummary {
            evaluated: 8,
            pruned_safe: 3,
            pruned_unsafe: 1,
            simulated: 4,
        });
        let md = pruned.render();
        assert!(md.contains("### Static pruning"));
        assert!(
            md.contains("8 envelopes evaluated: 3 pruned safe, 1 pruned unsafe, 4 co-simulated")
        );
        // Purely additive: the unpruned rendering is a byte-exact prefix.
        assert!(md.starts_with(&plain.render()));
        let json = pruned.to_json();
        assert!(json.contains(
            "\"prune\": {\"evaluated\": 8, \"pruned_safe\": 3, \
             \"pruned_unsafe\": 1, \"simulated\": 4}"
        ));
        assert!(json.starts_with(json_common_prefix(&plain.to_json())));
        assert!(json.ends_with("}\n}\n"));
        // ...and it composes: pruning renders after verification.
        let mut both = pruned.clone();
        both.verification = Some(VerificationSummary {
            verified: 4,
            errors: 0,
            warnings: 0,
            worst_margin_ns: 10,
        });
        let md = both.render();
        assert!(md.find("Static verification").unwrap() < md.find("Static pruning").unwrap());
        let json = both.to_json();
        assert!(json.find("\"verification\"").unwrap() < json.find("\"prune\"").unwrap());
    }

    #[test]
    fn sweep_rendering_is_deterministic_and_complete() {
        let sweep = sample_sweep();
        let md = sweep.render();
        assert_eq!(md, sweep.render());
        assert!(md.contains("## Scenario sweep"));
        assert!(md.contains("4 scenarios, robustness margin 0.7500"));
        assert!(md.contains("Worst scenario: #1 (jitter 1)"));
        assert!(md.contains("3 hits / 1 misses"));
        assert_eq!(md.matches("| 0x").count(), 4, "one row per scenario");
        let json = sweep.to_json();
        assert_eq!(json, sweep.to_json());
        assert!(json.contains("\"scenario_count\": 4"));
        assert!(json.contains("\"robustness_margin\": 0.750000"));
        assert!(json.ends_with("]\n}\n"));
    }

    #[test]
    fn costs_csv_three_rows() {
        let (rep, _, _) = quick_report();
        let csv = costs_csv(&rep);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("run,cost,relative_to_ideal"));
        // ideal row has relative exactly 1.
        let ideal_row = csv.lines().nth(1).unwrap();
        assert!(ideal_row.ends_with("1.000000"));
    }

    #[test]
    fn traces_csv_grid_and_headers() {
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1])).unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 0.2,
            q_weight: 1.0,
            r_weight: 0.1,
            disturbance: DisturbanceKind::None,
        };
        let run = cosim::run_ideal(&spec).unwrap();
        let csv = traces_csv(&run, &["x0", "u0"], 0.05).unwrap();
        assert!(csv.starts_with("t,x0,u0\n"));
        // 0.0, 0.05, 0.1, 0.15, 0.2 -> 5 data rows.
        assert_eq!(csv.lines().count(), 6);
        assert!(traces_csv(&run, &["ghost"], 0.05).is_err());
        assert!(traces_csv(&run, &["x0"], 0.0).is_err());
    }
}

use std::ops::Range;
use std::time::Instant;

use ecl_aaa::{DigestMap, DigestSet};
use ecl_core::cosim::LoopSpec;
use ecl_core::report::{PruneSummary, SweepSummary, ValidationSummary, VerificationSummary};
use ecl_core::CoreError;
use ecl_telemetry::{Histogram, ProfileReport, RecordingSink, WorkerProfile};
use ecl_verify::EnvelopeVerdict;

use super::lane::{sweep_bound_ns, SWEEP_BUCKETS};
use super::{
    map_indexed_with, run_scenario, FleetPool, Lane, RecordExtras, ScenarioRecord, SweepCaches,
    SweepConfig, SweepKeys,
};
use crate::SplitScenario;

/// Everything a sweep returns: the deterministic summary plus the merged
/// latency histogram and (optionally) the merged telemetry stream.
///
/// The memo counters are read off the fold's tables after every lane
/// has finished: digest-derived and worker-count invariant, but carried
/// beside the summary, never inside it — the summary's rendered bytes
/// predate the memos, so the counters belong to experiment sidecars.
#[derive(Debug)]
pub struct SweepOutput {
    /// Per-scenario rows and robustness statistics (deterministic bytes).
    pub summary: SweepSummary,
    /// Actuation latencies of *all* scenarios merged into one fixed-shape
    /// histogram (bound: twice the largest scaled period).
    pub actuation_hist: Histogram,
    /// Merged telemetry of the first `trace_scenarios` scenarios, tracks
    /// prefixed `s<i>:` so timestamps stay monotone per track.
    pub traces: RecordingSink,
    /// The merged fleet profile ([`SweepConfig::profile`]); `None` when
    /// profiling is off. The only sweep output carrying wall-clock
    /// readings.
    pub profile: Option<ProfileReport>,
    /// Ideal-run memo lookups beyond the first of their digest
    /// ([`DigestMemo::hits`](ecl_aaa::DigestMemo::hits)).
    pub ideal_hits: u64,
    /// Distinct ideal runs actually simulated
    /// ([`DigestMemo::misses`](ecl_aaa::DigestMemo::misses)).
    pub ideal_misses: u64,
    /// Scheduled-run memo lookups beyond the first of their digest.
    pub scheduled_hits: u64,
    /// Distinct `(loop × schedule × fault-plan)` co-simulations actually
    /// run.
    pub scheduled_misses: u64,
    /// Report-memo lookups beyond the first of their digest; zero unless
    /// [`SweepConfig::memoize_reports`] is set.
    pub report_hits: u64,
    /// Distinct `(run digest, bound, mode)` report extractions actually
    /// performed.
    pub report_misses: u64,
    /// Fault-envelope memo lookups beyond the first of their digest;
    /// zero unless [`SweepConfig::prune_static`] is set.
    pub envelope_hits: u64,
    /// Distinct `(schedule, period, fault family)` envelopes actually
    /// computed.
    pub envelope_misses: u64,
    /// Fault plans the job generated: one per co-simulated faulty
    /// scenario.
    pub fault_plans: u64,
    /// Of those, the trivial plans, whose replay the nominal run served.
    pub trivial_plans: u64,
    /// Distinct scheduled-run digests of the job's faulty replays under
    /// non-trivial plans.
    pub faulty_keys: u64,
    /// Racing double-computes observed by the schedule cache, the
    /// ideal-run memo, the scheduled-run memo, the report memo and the
    /// envelope memo, in that order. Unlike every other counter here
    /// these depend on thread interleaving — wall-clock-class
    /// contention diagnostics that may vary run to run, so they belong
    /// in profiler/bench sidecars and must never enter a diffed
    /// artifact.
    pub races: [u64; 5],
    /// Scenarios whose class their lane had already seen in the same
    /// pass, so one lookup in the lane's class table gave their
    /// schedule, period and label, or their whole row. Which lane first
    /// sees a class depends on thread interleaving (a serial one-pass
    /// sweep hits `scenarios − classes` times), so like
    /// [`races`](SweepOutput::races) it is sidecar-only.
    pub class_hits: u64,
}

/// Runs the whole sweep on `config.workers` threads over a fresh
/// [`SweepCaches`].
///
/// The returned [`SweepOutput`] is byte-identical for any worker count:
/// scenario seeds depend only on `(base_seed, index)` and aggregation
/// folds in index order.
///
/// # Errors
///
/// Returns the lowest-index scenario failure, if any (also independent of
/// worker count).
pub fn run_sweep(
    spec: &LoopSpec,
    base: &SplitScenario,
    config: &SweepConfig,
) -> Result<SweepOutput, CoreError> {
    let caches = SweepCaches::default();
    let keys = SweepKeys::new(spec, base);
    let mut fold = SweepFold::new(spec, config, &caches);
    fold.scoped(0..config.scenario_count, config.workers, |i, lane| {
        run_scenario(&keys, base, config, &caches, i, lane)
    })?;
    Ok(fold.finish())
}

/// Room for one synthesis span per memo miss of a memo-bound sweep.
const MISS_SPANS: usize = 128;

/// The one fold every sweep runs through, pass by pass. A pass runs
/// `f(index, lane)` — [`run_scenario`] over the caller's deployment —
/// for a range of *global* scenario indices, on scoped threads
/// ([`scoped`](SweepFold::scoped)) or on a resident [`FleetPool`]
/// ([`pooled`](SweepFold::pooled)). The fold builds each [`Lane`]; once
/// the pool has joined, it finishes every lane, in lane order, into the
/// [`SweepCaches`] and the merged histogram before any record's `Err`
/// can end the job, so the tables' counters are exact between passes
/// and after a failure; then it folds the records in index order,
/// straight from the pool's slots, and the first `Err` (the
/// lowest-index failure) ends the pass. The output is the same for any
/// worker count and any split of the sweep into passes.
///
/// The summary's cache counters count the job's own schedule digests
/// (lookups beyond the first of a digest are hits, distinct digests
/// misses), so a daemon's response is byte-identical cold or warm.
#[derive(Debug)]
pub struct SweepFold<'c> {
    caches: &'c SweepCaches,
    /// The summary so far; `finish` sets its cache counters.
    summary: SweepSummary,
    schedule_digests: DigestMap<u64>,
    /// Fault plans folded so far.
    fault_plans: u64,
    /// Trivial fault plans folded so far.
    trivial_plans: u64,
    /// Scheduled-run digests of the faulty replays folded so far.
    replay_digests: DigestSet,
    traces: RecordingSink,
    merged: Histogram,
    worst_actuation_ns: i64,
    overruns: u64,
    /// One shared epoch, so every lane's spans share a time base.
    epoch: Instant,
    spans_per_scenario: usize,
    /// The finished lanes' profiles; `None` when profiling is off.
    profiles: Option<Vec<WorkerProfile>>,
    wall_ns: u64,
    /// The finished lanes' class-table hits.
    class_hits: u64,
}

impl<'c> SweepFold<'c> {
    /// An empty fold of a sweep of `spec` over `config` whose lanes look
    /// up through, and finish into, `caches`.
    pub fn new(spec: &LoopSpec, config: &SweepConfig, caches: &'c SweepCaches) -> Self {
        // Derive, adequation, ideal run, co-simulation and metrics, plus
        // the optional phases the config turns on; a faulty scenario
        // adds a plan and a twin co-simulation.
        let spans_per_scenario = 5
            + usize::from(config.prune_static)
            + usize::from(config.validate_executive)
            + usize::from(config.verify_static)
            + if config.faults.is_zero() { 0 } else { 2 };
        let summary = SweepSummary {
            scenarios: Vec::with_capacity(config.scenario_count),
            cost_bound_ratio: config.cost_bound_ratio,
            validation: config.validate_executive.then(ValidationSummary::default),
            verification: config.verify_static.then_some(VerificationSummary {
                verified: 0,
                errors: 0,
                warnings: 0,
                worst_margin_ns: i64::MAX,
            }),
            prune: config.prune_static.then(PruneSummary::default),
            ..SweepSummary::default()
        };
        SweepFold {
            caches,
            summary,
            schedule_digests: DigestMap::default(),
            fault_plans: 0,
            trivial_plans: 0,
            replay_digests: DigestSet::default(),
            traces: RecordingSink::default(),
            merged: Histogram::new(sweep_bound_ns(spec, config), SWEEP_BUCKETS),
            worst_actuation_ns: 0,
            overruns: 0,
            epoch: Instant::now(),
            spans_per_scenario,
            profiles: config.profile.then(Vec::new),
            wall_ns: 0,
            class_hits: 0,
        }
    }

    /// One pass over the scenarios in `range` on `workers` scoped
    /// threads; errs with the pass's lowest-index scenario failure.
    pub fn scoped<F>(&mut self, range: Range<usize>, workers: usize, f: F) -> Result<(), CoreError>
    where
        F: Fn(usize, &mut Lane) -> Result<ScenarioRecord, CoreError> + Sync,
    {
        let (start, count) = (range.start, range.len());
        let lane = self.lane_builder(count, workers);
        let (records, lanes) = map_indexed_with(count, workers, lane, |i, lane: &mut Lane| {
            lane.task(|lane| f(start + i, lane))
        });
        self.absorb(records, lanes)
    }

    /// One pass over the scenarios in `range` on the resident `pool`;
    /// errs with the pass's lowest-index scenario failure.
    pub fn pooled<F>(
        &mut self,
        pool: &FleetPool,
        range: Range<usize>,
        f: F,
    ) -> Result<(), CoreError>
    where
        F: Fn(usize, &mut Lane) -> Result<ScenarioRecord, CoreError> + Send + Sync + 'static,
    {
        let (start, count) = (range.start, range.len());
        let lane = self.lane_builder(count, pool.workers());
        let (records, lanes) = pool.run_with(count, lane, move |i, lane: &mut Lane| {
            lane.task(|lane| f(start + i, lane))
        });
        self.absorb(records, lanes)
    }

    /// Builds the lane of each worker of a pass of `count` scenarios on
    /// (at most) `workers` lanes.
    fn lane_builder(&self, count: usize, workers: usize) -> impl Fn(usize) -> Lane + Send + Sync {
        let (epoch, bound) = (self.epoch, self.merged.upper_bound());
        let profile = self.profiles.is_some();
        let share = count.div_ceil(workers.clamp(1, count.max(1)));
        let spans = share * self.spans_per_scenario + MISS_SPANS;
        // The profile buffer is presized for the lane's share (nothing
        // when profiling is off) and the class table for as many classes
        // as the share can hold, so neither regrows.
        move |worker| {
            let mut wp = WorkerProfile::new(worker, epoch, profile);
            wp.reserve(spans);
            Lane::new(wp, bound, share)
        }
    }

    /// Finishes the joined pass's lanes, then folds its records.
    fn absorb(
        &mut self,
        records: impl Iterator<Item = Result<ScenarioRecord, CoreError>>,
        lanes: Vec<Lane>,
    ) -> Result<(), CoreError> {
        self.wall_ns = self.epoch.elapsed().as_nanos() as u64;
        for lane in lanes {
            self.class_hits += lane.class_hits();
            let profile = lane.finish(self.caches, &mut self.merged);
            if let Some(profiles) = self.profiles.as_mut() {
                profiles.push(profile);
            }
        }
        for record in records {
            self.push(record?);
        }
        Ok(())
    }

    /// Folds the next scenario's record, in index order.
    fn push(&mut self, record: ScenarioRecord) {
        let (outcome, summary) = (&record.outcome, &mut self.summary);
        self.worst_actuation_ns = self.worst_actuation_ns.max(outcome.worst_actuation_ns);
        self.overruns += outcome.overruns as u64;
        *self
            .schedule_digests
            .entry(record.schedule_digest)
            .or_insert(0) += 1;
        summary.scenarios.push(record.outcome);
        if let Some(p) = summary.prune.as_mut() {
            p.evaluated += usize::from(record.prune.is_some());
            match record.prune {
                Some(EnvelopeVerdict::Safe) => p.pruned_safe += 1,
                Some(EnvelopeVerdict::Unsafe) => p.pruned_unsafe += 1,
                Some(EnvelopeVerdict::Inconclusive) | None => p.simulated += 1,
            }
        }
        if let Some(extras) = record.extras {
            self.push_extras(*extras);
        }
    }

    /// Folds the rare payloads of the next scenario's record.
    fn push_extras(&mut self, extras: RecordExtras) {
        let summary = &mut self.summary;
        if extras.degradation.is_some() {
            self.fault_plans += 1;
            self.trivial_plans += u64::from(extras.trivial_plan());
            self.replay_digests.extend(extras.replay_digest);
        }
        summary.degradations.extend(extras.degradation);
        self.traces.absorb(extras.traces);
        if let (Some(v), Some((exact, max_div))) = (summary.validation.as_mut(), extras.validation)
        {
            v.validated += 1;
            if exact {
                v.exact += 1;
            }
            v.max_divergence_ns = v.max_divergence_ns.max(max_div);
        }
        if let (Some(v), Some((errors, warnings, margin))) =
            (summary.verification.as_mut(), extras.verification)
        {
            v.verified += 1;
            v.errors += errors;
            v.warnings += warnings;
            if let Some(m) = margin {
                v.worst_margin_ns = v.worst_margin_ns.min(m);
            }
        }
    }

    /// The worst actuation latency (ns) and the overrun total of every
    /// record folded so far.
    pub fn progress(&self) -> (i64, u64) {
        (self.worst_actuation_ns, self.overruns)
    }

    /// Finishes the fold: the summary, the merged histogram and traces,
    /// the merged profile ([`SweepConfig::profile`]) and the counters of
    /// the fold's tables.
    pub fn finish(mut self) -> SweepOutput {
        let summary = &mut self.summary;
        if let Some(v) = summary.verification.as_mut() {
            if v.worst_margin_ns == i64::MAX {
                v.worst_margin_ns = 0;
            }
        }
        let digests = self.schedule_digests.values();
        summary.cache_hits = digests.map(|&count| count.saturating_sub(1)).sum();
        summary.cache_misses = self.schedule_digests.len() as u64;
        let caches = self.caches;
        SweepOutput {
            summary: self.summary,
            actuation_hist: self.merged,
            traces: self.traces,
            profile: self
                .profiles
                .map(|p| ProfileReport::from_workers(self.wall_ns, p)),
            ideal_hits: caches.ideal.hits(),
            ideal_misses: caches.ideal.misses(),
            scheduled_hits: caches.scheduled.hits(),
            scheduled_misses: caches.scheduled.misses(),
            report_hits: caches.reports.hits(),
            report_misses: caches.reports.misses(),
            envelope_hits: caches.envelopes.hits(),
            envelope_misses: caches.envelopes.misses(),
            fault_plans: self.fault_plans,
            trivial_plans: self.trivial_plans,
            faulty_keys: self.replay_digests.len() as u64,
            races: [
                caches.schedule.races(),
                caches.ideal.races(),
                caches.scheduled.races(),
                caches.reports.races(),
                caches.envelopes.races(),
            ],
            class_hits: self.class_hits,
        }
    }
}

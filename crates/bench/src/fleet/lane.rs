use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ecl_aaa::{
    BuildDigestHasher, DigestMemo, Fnv1a, MappingPolicy, MemoView, Schedule, ScheduleCache,
    ScheduleKey, TableKey, TimeNs, TimingDb,
};
use ecl_core::cosim::{IdealRunCache, LoopKey, LoopResult, LoopSpec, ScheduledRunCache};
use ecl_core::faults::FaultFamily;
use ecl_core::latency::LatencyReport;
use ecl_telemetry::{Histogram, WorkerProfile};
use ecl_verify::{EnvelopeReport, EnvelopeVerdict};

use super::{Scenario, SweepConfig};
use crate::SplitScenario;

/// Buckets of the sweep-level actuation-latency histogram: the shape of
/// every lane's scratch histogram and of the merged one.
pub(super) const SWEEP_BUCKETS: usize = 64;

/// The sweep-level histogram bound: twice the largest scaled period, so
/// even overrunning actuations stay in range.
pub(super) fn sweep_bound_ns(spec: &LoopSpec, config: &SweepConfig) -> i64 {
    let max_scale = config
        .period_scales
        .iter()
        .fold(1.0f64, |acc, &s| acc.max(s));
    (TimeNs::from_secs_f64(spec.ts * max_scale).as_nanos() * 2).max(1)
}

/// One memoized latency extraction: everything the Metrics phase derives
/// from a co-simulated run at a given histogram bound.
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// The per-period sampling/actuation latency report.
    pub report: LatencyReport,
    /// Actuation latencies bucketed at the sweep's histogram shape,
    /// merged into the lane's scratch histogram on every lookup.
    pub hist: Histogram,
    /// Worst actuation latency of the run.
    pub worst_actuation_ns: i64,
    /// Total period overruns of the run.
    pub overruns: usize,
}

/// The key of one memoized report extraction: the
/// [`ecl_core::cosim::scheduled_run_digest`] of the run (which covers the
/// loop spec, the schedule inputs and the fault plan), the histogram
/// bound, because a shared daemon cache serves jobs whose period axes
/// imply different bounds, and the extraction mode. The mode is keyed
/// on its own: a faulty scenario reads its fault-free baseline (and a
/// trivial plan's replay, which *is* that baseline) leniently, and that
/// entry must never answer a fault-free scenario's strict lookup of the
/// same run, which errs where the lenient one counts overruns.
pub fn report_digest(run_digest: u64, bound_ns: i64, lenient: bool) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(run_digest);
    h.write_i64(bound_ns);
    h.write_u64(u64::from(lenient));
    h.finish()
}

/// The key of one memoized fault envelope: the adequation digest of the
/// schedule (which covers the graphs the envelope reads), the period in
/// nanoseconds and every field of the fault family.
/// [`ecl_verify::fault_envelope`] is a pure function of these when its
/// budget is `None`, which is what every memoized lookup passes; a
/// lookup with a budget would have to add it to the key.
pub fn envelope_digest(schedule_digest: u64, period: TimeNs, family: &FaultFamily) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(schedule_digest);
    h.write_i64(period.as_nanos());
    h.write_u64(u64::from(family.frame_loss));
    h.write_u64(u64::from(family.max_retries));
    h.write_u64(u64::from(family.link_outage));
    h.write_u64(u64::from(family.proc_dropout));
    h.finish()
}

/// The fault-envelope memo: a [`DigestMemo`] of
/// [`ecl_verify::fault_envelope`] reports keyed by [`envelope_digest`].
/// The sweep's pruning stage reads its verdict and bound; a daemon's
/// admission control reads its diagnostics.
pub type EnvelopeCache = DigestMemo<EnvelopeReport>;

/// The latency-report memo: a [`DigestMemo`] of Metrics-phase yields
/// ([`ReportEntry`]) keyed by [`report_digest`]. Its counters belong
/// beside — never inside — byte-compared sweep artifacts.
pub type ReportCache = DigestMemo<ReportEntry>;

/// The shared memo tables one sweep (or one resident daemon) threads
/// through every scenario: adequation schedules, stroboscopic ideal
/// runs, scheduled co-simulations, latency-report extractions and fault
/// envelopes.
///
/// [`run_sweep`](super::run_sweep) creates a fresh set per call; a
/// daemon keeps one set alive across jobs (and backs the first three
/// with its disk store, which answers their misses), which is why the
/// summary's cache counters are derived job-locally by the
/// [`SweepFold`](super::SweepFold) instead of read off these global
/// tables.
#[derive(Debug, Default)]
pub struct SweepCaches {
    /// Content-addressed adequation memo.
    pub schedule: ScheduleCache,
    /// Ideal (stroboscopic reference) run memo.
    pub ideal: IdealRunCache,
    /// Scheduled co-simulation memo ([`SweepConfig::memoize_scheduled`]).
    pub scheduled: ScheduledRunCache,
    /// Latency-report memo ([`SweepConfig::memoize_reports`]).
    pub reports: ReportCache,
    /// Fault-envelope memo ([`SweepConfig::prune_static`]).
    pub envelopes: EnvelopeCache,
}

/// The per-deployment halves of the memo keys: the loop spec and the
/// algorithm/architecture graphs, hashed once per sweep (a daemon: once
/// per registered deployment); a [`Lane`] then hashes each WCET table
/// once onto the graph half, and each scenario hashes only its period
/// and policy.
#[derive(Debug)]
pub struct SweepKeys<'a> {
    /// The swept loop spec, keyed for [`IdealRunCache`] and
    /// [`ScheduledRunCache`] lookups.
    pub spec: LoopKey<'a>,
    /// The deployment's graphs, keyed for [`ScheduleCache`] lookups.
    pub schedule: ScheduleKey<'a>,
}

impl<'a> SweepKeys<'a> {
    /// Hashes the deployment halves of `spec` and `base`.
    pub fn new(spec: &'a LoopSpec, base: &'a SplitScenario) -> Self {
        SweepKeys {
            spec: LoopKey::new(spec),
            schedule: ScheduleKey::new(&base.alg, &base.arch),
        }
    }

    /// The same keys holding their own copies of the spec and graphs.
    pub fn into_owned(self) -> SweepKeys<'static> {
        SweepKeys {
            spec: self.spec.into_owned(),
            schedule: self.schedule.into_owned(),
        }
    }
}

/// Slots of a [`Lane`]'s WCET-table cache. It is direct-mapped by table
/// index, so its size is fixed: it does not grow with
/// [`SweepConfig::wcet_tables`] (which a daemon client chooses) or with
/// the scenario count. 32 slots hold every table of the default 16-table
/// axis.
pub(super) const TABLE_SLOTS: usize = 32;

/// Labels a [`Lane`]'s label cache holds before it starts over: room for
/// every label of exp19's fault axes (768), while its memory stays
/// bounded whatever axes a daemon client picks.
pub(super) const LABEL_ENTRIES: usize = 1024;

/// One worker's private state for one pass of a [`SweepFold`](super::SweepFold),
/// which alone builds and finishes lanes: its profile buffer, its
/// scratch actuation histogram, its [`MemoView`] of each of the five
/// memos, its cache of hashed WCET tables and its cache of report
/// labels. Nothing in it is shared, so a lookup the lane has already
/// made touches no other worker's memory; finishing the lane adds its
/// views' lookup counts to the shared tables.
///
/// The table cache holds the index and [`TableKey`] (graphs and WCET
/// table, hashed) of the last table seen in each of its 32 slots,
/// direct-mapped by table index. A table's content depends only on its
/// index within one pass (the seed, jitter and deployment are fixed), so
/// a scenario whose table is cached builds no jittered [`TimingDb`] and
/// hashes only its policy; a miss builds and hashes the table and
/// evicts the slot's previous entry.
///
/// The label cache hands every row of the same label one shared string:
/// it maps everything a label reads, bit for bit, to the string
/// formatted on the first miss, and holds at most 1 024 labels.
#[derive(Debug)]
pub struct Lane {
    pub(super) profile: WorkerProfile,
    pub(super) scratch: Histogram,
    pub(super) schedule: MemoView<Schedule>,
    pub(super) ideal: MemoView<LoopResult>,
    pub(super) scheduled: MemoView<LoopResult>,
    pub(super) reports: MemoView<ReportEntry>,
    pub(super) envelopes: MemoView<EnvelopeReport>,
    pub(super) tables: [Option<(usize, TableKey)>; TABLE_SLOTS],
    pub(super) labels: LabelCache,
}

impl Lane {
    /// A fresh lane recording into `profile`, with a scratch histogram
    /// of bound `bound_ns`.
    pub(super) fn new(profile: WorkerProfile, bound_ns: i64) -> Lane {
        Lane {
            profile,
            scratch: Histogram::new(bound_ns, SWEEP_BUCKETS),
            schedule: MemoView::new(),
            ideal: MemoView::new(),
            scheduled: MemoView::new(),
            reports: MemoView::new(),
            envelopes: MemoView::new(),
            tables: std::array::from_fn(|_| None),
            labels: LabelCache::default(),
        }
    }

    /// Runs `f` as one claimed task of the lane's profile (see
    /// [`WorkerProfile::begin_task`]).
    pub(super) fn task<R>(&mut self, f: impl FnOnce(&mut Lane) -> R) -> R {
        self.profile.begin_task();
        let r = f(self);
        self.profile.end_task();
        r
    }

    /// Merges the scratch histogram into `merged`, adds the views'
    /// lookup counts to `caches` (the tables every lookup of the lane
    /// went to) and returns the profile buffer.
    pub(super) fn finish(self, caches: &SweepCaches, merged: &mut Histogram) -> WorkerProfile {
        merged.merge(&self.scratch);
        self.schedule.flush(&caches.schedule);
        self.ideal.flush(&caches.ideal);
        self.scheduled.flush(&caches.scheduled);
        self.reports.flush(&caches.reports);
        self.envelopes.flush(&caches.envelopes);
        self.profile
    }
}

/// The hashed WCET table of `scenario` from `tables` (a [`Lane`]'s table
/// cache), and the jittered table itself when the cache missed and had
/// to build it to hash it.
pub(super) fn table_key(
    tables: &mut [Option<(usize, TableKey)>; TABLE_SLOTS],
    key: &ScheduleKey<'_>,
    base: &SplitScenario,
    scenario: &Scenario,
) -> (TableKey, Option<TimingDb>) {
    let table = scenario.wcet_table;
    let slot = &mut tables[table % TABLE_SLOTS];
    if let Some((_, cached)) = slot.as_ref().filter(|(t, _)| *t == table) {
        return (cached.clone(), None);
    }
    let db = scenario.jittered_db(base);
    let hashed = key.table(&db);
    *slot = Some((table, hashed.clone()));
    (hashed, Some(db))
}

/// Everything [`Scenario::label`] reads, bit for bit — `wcet_worst`,
/// `period_scale`, the three fault rates and the policy — and the prune
/// verdict that picks the label's suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LabelKey([u64; 7]);

impl LabelKey {
    fn new(scenario: &Scenario, pruned: Option<EnvelopeVerdict>) -> LabelKey {
        let (policy, seed) = match scenario.policy {
            MappingPolicy::SchedulePressure => (0, 0),
            MappingPolicy::EarliestFinish => (1, 0),
            MappingPolicy::Random { seed } => (2, seed),
        };
        let suffix = match pruned {
            None => 0,
            Some(EnvelopeVerdict::Safe) => 1,
            Some(_) => 2,
        };
        LabelKey([
            scenario.wcet_worst.to_bits(),
            scenario.period_scale.to_bits(),
            scenario.frame_loss_rate.to_bits(),
            scenario.link_outage_rate.to_bits(),
            scenario.proc_dropout_rate.to_bits(),
            policy | suffix << 2,
            seed,
        ])
    }
}

/// Word by word: under [`BuildDigestHasher`] a key costs one finalizer
/// per word (a derived `Hash` would feed the hasher bytes).
impl Hash for LabelKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &word in &self.0 {
            state.write_u64(word);
        }
    }
}

/// A lane's interned report labels: a row's label is an `Arc` clone of
/// the one string formatted for its [`LabelKey`]. Fewer than a hundred
/// labels are distinct in a fault-free sweep of any size, so rows share
/// them instead of each formatting and owning a copy. The cache is the
/// lane's alone and is dropped with it at the end of the pass; it holds
/// at most [`LABEL_ENTRIES`] labels and starts over when full, so it
/// grows with neither the WCET tables nor any other axis.
#[derive(Debug, Default)]
pub(super) struct LabelCache {
    labels: HashMap<LabelKey, Arc<str>, BuildDigestHasher>,
    /// The buffer a miss formats into, reused across misses.
    scratch: String,
}

impl LabelCache {
    /// `scenario`'s label, with the suffix of its prune verdict when a
    /// conclusive envelope replaced its co-simulation.
    pub(super) fn get(&mut self, scenario: &Scenario, pruned: Option<EnvelopeVerdict>) -> Arc<str> {
        let key = LabelKey::new(scenario, pruned);
        if let Some(label) = self.labels.get(&key) {
            return Arc::clone(label);
        }
        if self.labels.len() == LABEL_ENTRIES {
            self.labels.clear();
        }
        self.scratch.clear();
        scenario.write_label(&mut self.scratch);
        self.scratch.push_str(match pruned {
            None => "",
            Some(EnvelopeVerdict::Safe) => " pruned:safe",
            Some(_) => " pruned:unsafe",
        });
        let label: Arc<str> = Arc::from(self.scratch.as_str());
        self.labels.insert(key, Arc::clone(&label));
        label
    }
}

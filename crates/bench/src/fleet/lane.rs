//! The memo tables a sweep shares and the lane each worker keeps.
//!
//! [`SweepCaches`] holds the five content-addressed memos every worker
//! of a sweep (or of a resident daemon) looks up in, with the keys of
//! the two the fleet itself defines ([`report_digest`],
//! [`envelope_digest`]); [`SweepKeys`] hashes a deployment's half of
//! every key once. A [`Lane`] is one worker's private state for one
//! pass: its profile buffer, its scratch histogram and its
//! [`ClassTable`], which maps a scenario's class (its draw without index
//! and seed) to everything the class determines. A scenario whose class
//! the lane has seen costs its draw and one lookup: its schedule, period
//! and label come from the class, and an untraced scenario whose row the
//! class fixes (pruned, or fault-free with both memos on and neither
//! validation nor verification) is served that row whole. Every other
//! lookup goes straight to the shared memos. The memo lookups a class
//! hit skips are owed per digest and counted into the shared memos when
//! the lane finishes (or its full table starts over), so every counter
//! stays exact.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ecl_aaa::{
    BuildDigestHasher, DigestMemo, Fnv1a, MappingPolicy, Schedule, ScheduleCache, ScheduleKey,
    TableKey, TimeNs, TimingDb,
};
use ecl_core::cosim::{IdealRunCache, LoopKey, LoopSpec, ScheduledRunCache};
use ecl_core::faults::FaultFamily;
use ecl_core::latency::LatencyReport;
use ecl_core::report::ScenarioOutcome;
use ecl_telemetry::{Histogram, WorkerProfile};
use ecl_verify::{EnvelopeReport, EnvelopeVerdict};

use super::{Scenario, ScenarioRecord, SweepConfig};
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
/// once onto the graph half, and each class new to the lane hashes only
/// its period and policy.
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

/// Slots of a [`Lane`]'s per-table part of its class table. It is
/// direct-mapped by WCET-table index, so its size is fixed: it does not
/// grow with [`SweepConfig::wcet_tables`] (which a daemon client
/// chooses) or with the scenario count. 32 slots hold every table of
/// the default 16-table axis.
const TABLE_SLOTS: usize = 32;

/// Classes a [`Lane`]'s class table holds before it starts over: room
/// for every class of exp19's fault axes (768), while its memory stays
/// bounded whatever axes a daemon client picks.
pub(super) const CLASS_ENTRIES: usize = 1024;

/// One worker's private state for one pass of a [`SweepFold`](super::SweepFold),
/// which alone builds and finishes lanes: its profile buffer, its
/// scratch actuation histogram and its class table, which answers a
/// scenario whose class (its draw without index and seed) the lane has
/// seen with one lookup. Nothing in it is shared, so a class the lane
/// has already seen touches no other worker's memory; settling the
/// class table counts the lookups its hits skipped into the shared
/// memos.
#[derive(Debug)]
pub struct Lane {
    pub(super) profile: WorkerProfile,
    pub(super) scratch: Histogram,
    pub(super) classes: ClassTable,
}

impl Lane {
    /// A fresh lane recording into `profile`, with a scratch histogram
    /// of bound `bound_ns` and a class table presized for `classes`
    /// classes (at most [`CLASS_ENTRIES`]).
    pub(super) fn new(profile: WorkerProfile, bound_ns: i64, classes: usize) -> Lane {
        Lane {
            profile,
            scratch: Histogram::new(bound_ns, SWEEP_BUCKETS),
            classes: ClassTable::with_capacity(classes.min(CLASS_ENTRIES)),
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

    /// Adds `class` under `key` to the class table and returns its slot.
    /// A full table is settled into `caches` and emptied first.
    pub(super) fn insert_class(
        &mut self,
        caches: &SweepCaches,
        key: ClassKey,
        class: Class,
    ) -> usize {
        if self.classes.classes.len() == CLASS_ENTRIES {
            self.settle_classes(caches);
        }
        self.classes.insert(key, class)
    }

    /// Empties the class table, first adding what its hits owe: each
    /// hit's schedule lookup, and each served row's other lookups, to
    /// their tables in `caches`, and each served row's report's
    /// actuation latencies to the scratch histogram.
    fn settle_classes(&mut self, caches: &SweepCaches) {
        self.classes.index.clear();
        for class in self.classes.classes.drain(..) {
            if class.hits > 0 {
                caches.schedule.count(class.digest, class.hits);
            }
            let Some(row) = class.row.filter(|row| row.hits > 0) else {
                continue;
            };
            if let Some(envelope) = row.envelope {
                caches.envelopes.count(envelope, row.hits);
            }
            if let Some(run) = row.run {
                caches.ideal.count(run.ideal, row.hits);
                caches.scheduled.count(run.scheduled, row.hits);
                caches.reports.count(run.report, row.hits);
                self.scratch.merge_times(&run.entry.hist, row.hits);
            }
        }
    }

    /// Lookups that found their class in this lane (see
    /// [`SweepOutput::class_hits`](super::SweepOutput::class_hits)).
    pub(super) fn class_hits(&self) -> u64 {
        self.classes.hits
    }

    /// Settles the class table into `caches` (the tables every lookup of
    /// the lane went to), merges the scratch histogram into `merged` and
    /// returns the profile buffer.
    pub(super) fn finish(mut self, caches: &SweepCaches, merged: &mut Histogram) -> WorkerProfile {
        self.settle_classes(caches);
        merged.merge(&self.scratch);
        self.profile
    }
}

/// A scenario's class: its draw without its index and seed — the WCET
/// table index, the period scale, the policy (with a
/// [`MappingPolicy::Random`] seed) and the three fault rates, bit for
/// bit. Within one pass of one config everything after the draw but
/// the fault plan is a pure function of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ClassKey([u64; 7]);

impl ClassKey {
    pub(super) fn new(scenario: &Scenario) -> ClassKey {
        let (policy, seed) = match scenario.policy {
            MappingPolicy::SchedulePressure => (0, 0),
            MappingPolicy::EarliestFinish => (1, 0),
            MappingPolicy::Random { seed } => (2, seed),
        };
        ClassKey([
            scenario.wcet_table as u64,
            scenario.period_scale.to_bits(),
            policy,
            seed,
            scenario.frame_loss_rate.to_bits(),
            scenario.link_outage_rate.to_bits(),
            scenario.proc_dropout_rate.to_bits(),
        ])
    }
}

/// Word by word: under [`BuildDigestHasher`] a key costs one finalizer
/// per word (a derived `Hash` would feed the hasher bytes).
impl Hash for ClassKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &word in &self.0 {
            state.write_u64(word);
        }
    }
}

/// What every scenario of one class shares: its deployed part, and once
/// a scenario of the class has finished in a way every later one would
/// repeat, its whole row.
#[derive(Debug)]
pub(super) struct Class {
    /// The class's schedule.
    pub(super) schedule: Arc<Schedule>,
    /// The schedule's adequation digest.
    pub(super) digest: u64,
    /// The period the class runs at (stretched past the makespan).
    pub(super) ts: f64,
    /// The largest factor of the class's WCET table.
    pub(super) wcet_worst: f64,
    /// The label of the class's unpruned rows, formatted when first
    /// asked for ([`ClassTable::label`]): a pruned class needs only its
    /// suffixed label.
    label: Option<Arc<str>>,
    /// The row a scenario of the class is served; `None` until one is
    /// kept ([`ClassTable::keep_row`]).
    row: Option<ClassRow>,
    /// Lookups that found the class; each skipped a schedule lookup.
    hits: u64,
}

impl Class {
    /// A class with no row and no hits yet.
    pub(super) fn new(schedule: Arc<Schedule>, digest: u64, ts: f64, wcet_worst: f64) -> Class {
        Class {
            schedule,
            digest,
            ts,
            wcet_worst,
            label: None,
            row: None,
            hits: 0,
        }
    }
}

/// A class's finished row: what [`run_scenario`](super::run_scenario)
/// returns for an untraced scenario of the class whose row is a pure
/// function of the class — a pruned one, or, with both memos on and
/// neither validation nor verification, a fault-free one.
#[derive(Debug)]
struct ClassRow {
    /// The row, with the index and seed of the scenario that made it.
    outcome: ScenarioOutcome,
    /// The record's prune verdict.
    prune: Option<EnvelopeVerdict>,
    /// The envelope digest the row's scenario looked up, if it did.
    envelope: Option<u64>,
    /// The co-simulation lookups of a simulated row.
    run: Option<RowRun>,
    /// Scenarios served this row; each owes the lookups above.
    hits: u64,
}

/// The memo lookups a simulated row's scenario made after adequation,
/// by digest, and the report entry whose actuation latencies each
/// scenario served the row adds to the lane's histogram.
#[derive(Debug)]
pub(super) struct RowRun {
    /// The ideal run's loop digest.
    pub(super) ideal: u64,
    /// The scheduled run's digest.
    pub(super) scheduled: u64,
    /// The report entry's digest.
    pub(super) report: u64,
    /// The report entry.
    pub(super) entry: Arc<ReportEntry>,
}

/// A lane's class table: one lookup answers everything a scenario's
/// class determines ([`ClassKey`]), from its schedule, period and label
/// to, for a class whose rows repeat, the finished row itself.
///
/// Beside the classes it keeps, in 32 slots direct-mapped by table
/// index, the [`TableKey`] (graphs and WCET table, hashed) and worst
/// factor of the last table seen in each slot. A table's content
/// depends only on its index within one pass (the seed, jitter and
/// deployment are fixed), so a new class of a known table builds no
/// jittered [`TimingDb`] and a `Random`-policy sweep, whose every
/// scenario is a class of its own, still hashes each table once.
///
/// The table is the lane's alone and lives for one pass. It is presized
/// and holds at most [`CLASS_ENTRIES`] classes; when full it is settled
/// ([`Lane::insert_class`]) and starts over, so it grows with neither
/// the WCET tables nor any other axis.
#[derive(Debug)]
pub(super) struct ClassTable {
    tables: [Option<TableSlot>; TABLE_SLOTS],
    index: HashMap<ClassKey, usize, BuildDigestHasher>,
    classes: Vec<Class>,
    /// Lookups that found their class, over the pass.
    hits: u64,
    /// The buffer a new class formats its label into.
    scratch: String,
}

/// One hashed WCET table of a [`ClassTable`]'s per-table part.
#[derive(Debug)]
struct TableSlot {
    table: usize,
    key: TableKey,
    worst: f64,
}

impl ClassTable {
    fn with_capacity(classes: usize) -> ClassTable {
        ClassTable {
            tables: std::array::from_fn(|_| None),
            index: HashMap::with_capacity_and_hasher(classes, BuildDigestHasher::default()),
            classes: Vec::with_capacity(classes),
            hits: 0,
            scratch: String::new(),
        }
    }

    /// The slot of the class under `key`, counting the lookup as a hit
    /// when it is present.
    pub(super) fn find(&mut self, key: &ClassKey) -> Option<usize> {
        let c = *self.index.get(key)?;
        self.hits += 1;
        self.classes[c].hits += 1;
        Some(c)
    }

    /// The class in slot `c`.
    pub(super) fn class(&self, c: usize) -> &Class {
        &self.classes[c]
    }

    /// Class `c`'s row with `index` and `seed` set, counted as served;
    /// `None` when the class keeps no row.
    pub(super) fn serve(&mut self, c: usize, index: usize, seed: u64) -> Option<ScenarioRecord> {
        let class = &mut self.classes[c];
        let row = class.row.as_mut()?;
        row.hits += 1;
        Some(ScenarioRecord {
            outcome: ScenarioOutcome {
                index,
                seed,
                ..row.outcome.clone()
            },
            prune: row.prune,
            schedule_digest: class.digest,
            extras: None,
        })
    }

    /// Keeps `outcome` as class `c`'s row, with its record's `prune`
    /// verdict and the lookups each scenario served it owes: the
    /// `envelope` digest and a simulated row's `run`.
    pub(super) fn keep_row(
        &mut self,
        c: usize,
        outcome: &ScenarioOutcome,
        prune: Option<EnvelopeVerdict>,
        envelope: Option<u64>,
        run: Option<RowRun>,
    ) {
        self.classes[c].row = Some(ClassRow {
            outcome: outcome.clone(),
            prune,
            envelope,
            run,
            hits: 0,
        });
    }

    fn insert(&mut self, key: ClassKey, class: Class) -> usize {
        let c = self.classes.len();
        self.classes.push(class);
        self.index.insert(key, c);
        c
    }

    /// The hashed WCET table of `scenario` and its worst factor, from
    /// the table's slot; the jittered table itself when the slot did not
    /// hold it and it had to be built to be hashed.
    pub(super) fn table(
        &mut self,
        key: &ScheduleKey<'_>,
        base: &SplitScenario,
        scenario: &Scenario,
    ) -> (TableKey, f64, Option<TimingDb>) {
        let table = scenario.wcet_table;
        let slot = &mut self.tables[table % TABLE_SLOTS];
        if let Some(cached) = slot.as_ref().filter(|s| s.table == table) {
            return (cached.key.clone(), cached.worst, None);
        }
        let db = scenario.jittered_db(base);
        let hashed = key.table(&db);
        let worst = scenario.table_worst(base);
        *slot = Some(TableSlot {
            table,
            key: hashed.clone(),
            worst,
        });
        (hashed, worst, Some(db))
    }

    /// The label of `scenario`, of class `c`, with the suffix of its
    /// prune verdict when a conclusive envelope replaced its
    /// co-simulation. Every unpruned row of the class shares one string;
    /// a pruned label is formatted anew, as the class's row keeps it.
    pub(super) fn label(
        &mut self,
        c: usize,
        scenario: &Scenario,
        pruned: Option<EnvelopeVerdict>,
    ) -> Arc<str> {
        let class = &mut self.classes[c];
        if let (None, Some(label)) = (pruned, &class.label) {
            return Arc::clone(label);
        }
        self.scratch.clear();
        scenario.write_label(&mut self.scratch);
        self.scratch.push_str(match pruned {
            None => "",
            Some(EnvelopeVerdict::Safe) => " pruned:safe",
            Some(_) => " pruned:unsafe",
        });
        let label: Arc<str> = Arc::from(self.scratch.as_str());
        if pruned.is_none() {
            class.label = Some(Arc::clone(&label));
        }
        label
    }
}

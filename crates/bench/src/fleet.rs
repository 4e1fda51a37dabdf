//! `ecl-fleet` — a deterministic multi-threaded scenario-sweep engine.
//!
//! A single lifecycle run answers "how does *this* implementation
//! behave?"; a robustness study needs the same answer over hundreds of
//! perturbed implementations (WCET jitter, mapping policy, sampling
//! period). This module runs such a Monte-Carlo sweep over the full
//! adequation → graph-of-delays → co-simulation pipeline on a
//! self-scheduling pool of `std::thread` workers, with two guarantees:
//!
//! * **Determinism** — the sweep report is byte-identical regardless of
//!   worker count. Every scenario derives its PRNG seed from the sweep
//!   seed and its own index ([`scenario_seed`], a splitmix64 stream), and
//!   the aggregator folds per-scenario results in index order, never in
//!   completion order.
//! * **No redundant scheduling** — an [`ScheduleCache`] shared by all
//!   workers memoizes adequation results by content digest; scenarios
//!   draw their WCET jitter from a small set of quantized tables
//!   ([`SweepConfig::wcet_tables`]), so scenarios sharing a table and
//!   policy present identical adequation inputs and skip the scheduler.
//!
//! The memo keys are split ([`SweepKeys`]): the loop spec and the
//! deployment's graphs are hashed once per sweep, each WCET table once
//! per worker, and each scenario hashes only its period and policy —
//! one loop digest and one schedule digest per scenario. The memos look
//! up by those digests and build the scenario's loop spec and jittered
//! WCET table only when a co-simulation or an adequation actually runs,
//! so the hit path clones neither.
//!
//! Each worker owns a [`Lane`]: its profile buffer, its scratch
//! histogram, a [`MemoView`] in front of each of the four shared memos
//! and a fixed-size cache of hashed WCET tables. A lookup the lane has
//! already made is answered from the lane's own view, so the hot path of
//! a memo-bound sweep takes no lock and writes no cache line another
//! worker reads; the views add their lookup counts to the shared tables
//! when the lane finishes. Each scenario's record goes straight into
//! its index's slot of the output.
//!
//! With [`SweepConfig::profile`] the sweep additionally records where its
//! wall time goes: each worker fills a private [`WorkerProfile`] with
//! per-scenario phase spans (no shared-state writes on the hot path), and
//! the joined buffers merge index-ordered into
//! [`SweepOutput::profile`] — the only output carrying wall-clock
//! readings, so every deterministic artifact stays byte-identical with
//! profiling on or off.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use ecl_aaa::{
    codegen, AdequationOptions, DigestMemo, Fnv1a, Lent, MappingPolicy, MemoView, Schedule,
    ScheduleCache, ScheduleKey, TableKey, TimeNs, TimingDb,
};
use ecl_core::cosim::{
    self, Activation, IdealRunCache, LoopAt, LoopKey, LoopResult, LoopSpec, ScheduledRunCache,
};
use ecl_core::faults::{FaultConfig, FaultFamily, FaultPlan};
use ecl_core::latency::LatencyReport;
use ecl_core::report::{
    push_fixed, DegradationSummary, PruneSummary, ScenarioOutcome, SweepSummary, ValidationSummary,
    VerificationSummary,
};
use ecl_core::xval;
use ecl_core::CoreError;
use ecl_exec::ExecOptions;
use ecl_sim::{splitmix64, SplitMix64};
use ecl_telemetry::{
    Collector, Histogram, Phase, PrefixSink, ProfileReport, RecordingSink, WorkerProfile,
};

use crate::SplitScenario;

/// Buckets of the sweep-level actuation-latency histogram. Public so
/// external drivers (e.g. `ecl-serve`) can allocate scratch histograms
/// at the exact shape [`run_scenario`] merges into.
pub const SWEEP_BUCKETS: usize = 64;

/// Salt separating the WCET-table seed stream from the scenario seed
/// stream: table `t`'s factors derive from
/// [`scenario_seed`]`(base_seed ^ WCET_TABLE_SALT, t)`, so a table's
/// content depends only on the sweep seed and the table index — never on
/// which scenario drew it.
const WCET_TABLE_SALT: u64 = 0x57ce_7ab1_e5a1_7000;

/// The WCET factors of the table whose stream starts at `seed`, one per
/// operation in [`ecl_aaa::OpId`] index order: `1 + jitter·u` for
/// uniform draws `u` in `[0, 1)`.
fn wcet_factors(seed: u64, jitter: f64) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::repeat_with(move || 1.0 + jitter * rng.next_f64())
}

/// Derives scenario `index`'s PRNG seed from the sweep seed: element
/// `index` of the splitmix64 stream starting at `base`. Workers never
/// share PRNG state, so the derivation — not scheduling order — fixes
/// every random draw.
pub fn scenario_seed(base: u64, index: usize) -> u64 {
    splitmix64(base.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Fault-injection axes of a sweep (experiment E12-FAULT).
///
/// Each scenario draws one rate per fault class from these lists,
/// *after* its WCET and period draws, so all-zero axes leave historical
/// scenarios (and their report bytes) untouched.
#[derive(Debug, Clone)]
pub struct FaultAxes {
    /// Per-transmission frame-loss probabilities; each scenario draws one.
    pub frame_loss_rates: Vec<f64>,
    /// Per-period link-outage start probabilities; each scenario draws one.
    pub link_outage_rates: Vec<f64>,
    /// Per-period processor-dropout hazards; each scenario draws one.
    pub proc_dropout_rates: Vec<f64>,
    /// Retransmission budget per frame before the period's transfer drops.
    pub max_retries: u32,
    /// Length of a link-outage window, in periods.
    pub outage_periods: u32,
}

impl Default for FaultAxes {
    fn default() -> Self {
        FaultAxes {
            frame_loss_rates: vec![0.0],
            link_outage_rates: vec![0.0],
            proc_dropout_rates: vec![0.0],
            max_retries: 3,
            outage_periods: 2,
        }
    }
}

impl FaultAxes {
    /// `true` when no axis can produce a fault (the sweep is fault-free).
    pub fn is_zero(&self) -> bool {
        let all_zero = |v: &[f64]| v.iter().all(|&r| r == 0.0);
        all_zero(&self.frame_loss_rates)
            && all_zero(&self.link_outage_rates)
            && all_zero(&self.proc_dropout_rates)
    }
}

/// What a sweep varies and how large it is.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Sweep-level seed; scenario `i` uses [`scenario_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Number of scenarios.
    pub scenario_count: usize,
    /// Worker threads (clamped to at least 1). Must not affect results.
    pub workers: usize,
    /// Maximum fractional WCET inflation: each operation's WCET is scaled
    /// by a factor drawn uniformly from `[1, 1 + wcet_jitter]`.
    pub wcet_jitter: f64,
    /// Number of quantized WCET tables the jitter draws are binned into:
    /// each scenario draws a table *index* and the table's per-operation
    /// factors derive from `(base_seed, table)` alone. Scenarios sharing
    /// a table (and mapping policy) present identical adequation inputs,
    /// so the [`ScheduleCache`] can actually hit — a continuous per-
    /// scenario draw would make every schedule digest unique and starve
    /// the cache. Must be at least 1.
    pub wcet_tables: usize,
    /// Sampling-period scales; each scenario draws one uniformly.
    pub period_scales: Vec<f64>,
    /// Mapping policies, assigned round-robin by scenario index. A
    /// [`MappingPolicy::Random`] entry is re-seeded with the scenario
    /// seed.
    pub policies: Vec<MappingPolicy>,
    /// A scenario is robust when `cost / ideal cost <= cost_bound_ratio`.
    pub cost_bound_ratio: f64,
    /// Capture merged telemetry traces for the first `trace_scenarios`
    /// scenarios (they get `s<i>:`-prefixed tracks in the merged stream).
    pub trace_scenarios: usize,
    /// Fault-injection axes; the all-zero default keeps the sweep
    /// fault-free and its report byte-identical to pre-fault sweeps.
    pub faults: FaultAxes,
    /// Cross-validate every scenario: generate executives, execute them
    /// on the `ecl-exec` virtual machine (with the scenario's fault
    /// plan, if any) and compare the measured completion instants
    /// against the graph-of-delays prediction. Off by default; the
    /// report stays byte-identical when off.
    pub validate_executive: bool,
    /// Statically verify every scenario: run the `ecl-verify` passes over
    /// its schedule and check that the sound static `Ls`/`La` bounds
    /// dominate the measured latencies of the co-simulated run. Off by
    /// default; the report stays byte-identical when off.
    pub verify_static: bool,
    /// Profile the sweep: every worker records per-scenario phase spans
    /// into a private [`WorkerProfile`] buffer, merged after the pool
    /// joins into [`SweepOutput::profile`]. Wall-clock readings live only
    /// in that sidecar — the summary, histogram and trace artifacts are
    /// byte-identical with profiling on or off, for any worker count.
    pub profile: bool,
    /// Memoize untraced co-simulations in a shared [`ScheduledRunCache`]
    /// keyed by the `(loop × schedule × fault-plan)` content digest: the
    /// quantized axes pigeonhole large sweeps onto a few distinct keys,
    /// so all but the first scenario per key are answered by the lane's
    /// memo view instead of simulating. The memoized result is
    /// bit-identical to a fresh run (pinned by unit tests, proptests and
    /// the byte-identity sweep test), so every deterministic artifact is
    /// byte-identical with the memo on or off. It is still a flag, off by
    /// default, only because `benchmark/src/sweep.rs` and the daemon set
    /// it; deleting it waits for a change that may edit the benchmark.
    pub memoize_scheduled: bool,
    /// Memoize per-scenario latency metrics in a shared [`ReportCache`]
    /// keyed by `(scheduled-run digest, histogram bound)`: the latency
    /// report, its bucketed actuation histogram, the worst actuation and
    /// the overrun count are all pure functions of the co-simulated run's
    /// bytes, so two scenarios pricing to the same run digest share one
    /// report extraction. The memoized values are identical to freshly
    /// extracted ones (pinned by the byte-identity sweep test), keeping
    /// every deterministic artifact byte-identical with the memo on or
    /// off. Off by default for the same reason as
    /// [`memoize_scheduled`](SweepConfig::memoize_scheduled).
    pub memoize_reports: bool,
    /// Statically prune scenarios by fault-envelope abstract
    /// interpretation: before co-simulating, evaluate the sound
    /// `[lo, hi]` completion envelope of the scenario's *fault family*
    /// (`ecl_verify::fault_envelope`). A conclusively safe or unsafe
    /// verdict skips the ideal run and the co-simulation entirely and
    /// contributes a statically derived report row (cost 0, worst
    /// actuation = envelope upper bound) — a pure function of
    /// `(config, index)`, so pruned sweeps stay byte-identical for any
    /// worker count. Traced scenarios are never pruned (their telemetry
    /// is the point). Off by default; the report grows a `### Static
    /// pruning` section only when on.
    pub prune_static: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            base_seed: 0xec1_f1ee7,
            scenario_count: 64,
            workers: 1,
            wcet_jitter: 0.30,
            wcet_tables: 16,
            period_scales: vec![1.0, 1.25, 1.5],
            policies: vec![
                MappingPolicy::SchedulePressure,
                MappingPolicy::EarliestFinish,
            ],
            cost_bound_ratio: 1.5,
            trace_scenarios: 0,
            faults: FaultAxes::default(),
            validate_executive: false,
            verify_static: false,
            profile: false,
            memoize_scheduled: false,
            memoize_reports: false,
            prune_static: false,
        }
    }
}

/// A concrete perturbation of the baseline, fully determined by
/// `(config, index)` — deriving it never consults shared state.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index within the sweep.
    pub index: usize,
    /// The derived PRNG seed.
    pub seed: u64,
    /// Index of the quantized WCET table this scenario drew.
    pub wcet_table: usize,
    /// Seed of table [`wcet_table`](Scenario::wcet_table)'s factor
    /// stream, a function of `(base_seed, wcet_table)` only: the table
    /// scales each operation's WCETs by `1 + wcet_jitter·u`, with one
    /// draw `u` per operation in [`ecl_aaa::OpId`] index order.
    pub wcet_seed: u64,
    /// The sweep's [`wcet_jitter`](SweepConfig::wcet_jitter).
    pub wcet_jitter: f64,
    /// The table's largest factor, and at least 1.
    pub wcet_worst: f64,
    /// Sampling-period scale.
    pub period_scale: f64,
    /// Mapping policy for this scenario's adequation.
    pub policy: MappingPolicy,
    /// Per-transmission frame-loss probability of this scenario.
    pub frame_loss_rate: f64,
    /// Per-period link-outage start probability of this scenario.
    pub link_outage_rate: f64,
    /// Per-period processor-dropout hazard of this scenario.
    pub proc_dropout_rate: f64,
}

impl Scenario {
    /// Derives scenario `index` of a sweep over `base`.
    pub fn derive(config: &SweepConfig, base: &SplitScenario, index: usize) -> Scenario {
        let seed = scenario_seed(config.base_seed, index);
        let mut rng = SplitMix64::new(seed);
        // The scenario draws a WCET *table index*; the table's content
        // comes from its own seed stream, independent of the scenario.
        // Scenarios sharing a table therefore present byte-identical
        // timing tables to the scheduler and can share a cached schedule.
        let wcet_table = rng.below(config.wcet_tables.max(1));
        let wcet_seed = scenario_seed(config.base_seed ^ WCET_TABLE_SALT, wcet_table);
        let wcet_worst = wcet_factors(wcet_seed, config.wcet_jitter)
            .take(base.alg.len())
            .fold(1.0f64, f64::max);
        let period_scale = config.period_scales[rng.below(config.period_scales.len())];
        // Fault rates are drawn after the historical axes so that an
        // all-zero `FaultAxes` reproduces pre-fault scenario draws (and
        // hence report bytes) exactly.
        let axes = &config.faults;
        let frame_loss_rate = axes.frame_loss_rates[rng.below(axes.frame_loss_rates.len())];
        let link_outage_rate = axes.link_outage_rates[rng.below(axes.link_outage_rates.len())];
        let proc_dropout_rate = axes.proc_dropout_rates[rng.below(axes.proc_dropout_rates.len())];
        let mut policy = config.policies[index % config.policies.len()];
        if let MappingPolicy::Random { .. } = policy {
            policy = MappingPolicy::Random { seed };
        }
        Scenario {
            index,
            seed,
            wcet_table,
            wcet_seed,
            wcet_jitter: config.wcet_jitter,
            wcet_worst,
            period_scale,
            policy,
            frame_loss_rate,
            link_outage_rate,
            proc_dropout_rate,
        }
    }

    /// `true` when this scenario injects at least one fault class.
    pub fn has_faults(&self) -> bool {
        self.frame_loss_rate > 0.0 || self.link_outage_rate > 0.0 || self.proc_dropout_rate > 0.0
    }

    /// The fault-injection configuration of this scenario: plan seed =
    /// scenario seed, budgets from the sweep axes.
    pub fn fault_config(&self, axes: &FaultAxes) -> FaultConfig {
        FaultConfig {
            seed: self.seed,
            frame_loss_rate: self.frame_loss_rate,
            max_retries: axes.max_retries,
            link_outage_rate: self.link_outage_rate,
            outage_periods: axes.outage_periods,
            proc_dropout_rate: self.proc_dropout_rate,
        }
    }

    /// The perturbed WCET table: every default and processor-specific
    /// entry scaled by its operation's factor (interdictions kept).
    pub fn jittered_db(&self, base: &SplitScenario) -> TimingDb {
        let scale = |t: TimeNs, f: f64| {
            TimeNs::from_nanos(((t.as_nanos() as f64 * f).round() as i64).max(1))
        };
        // The timing table iterates in unspecified (HashMap) order, so the
        // factors are drawn first, in operation order.
        let factors: Vec<f64> = wcet_factors(self.wcet_seed, self.wcet_jitter)
            .take(base.alg.len())
            .collect();
        let mut db = base.db.clone();
        for (op, t) in base.db.iter_defaults() {
            db.set_default(op, scale(t, factors[op.index()]));
        }
        for (op, p, t) in base.db.iter_specific() {
            db.set(op, p, scale(t, factors[op.index()]));
        }
        db
    }

    /// One-line description used in report rows. Fault rates appear only
    /// when non-zero, keeping fault-free labels byte-identical to
    /// pre-fault sweeps.
    pub fn label(&self) -> String {
        // Room for a fixed policy, the fault rates when present and a
        // ` pruned:unsafe` suffix, so neither these writes nor the suffix
        // reallocate.
        let mut s = String::with_capacity(if self.has_faults() { 104 } else { 56 });
        s.push_str("wcet<=x");
        push_fixed(&mut s, self.wcet_worst, 3);
        s.push_str(" Ts x");
        push_fixed(&mut s, self.period_scale, 2);
        s.push(' ');
        match self.policy {
            MappingPolicy::SchedulePressure => s.push_str("SchedulePressure"),
            MappingPolicy::EarliestFinish => s.push_str("EarliestFinish"),
            random @ MappingPolicy::Random { .. } => {
                let _ = write!(s, "{random:?}");
            }
        }
        if self.has_faults() {
            s.push_str(" faults fl");
            push_fixed(&mut s, self.frame_loss_rate, 3);
            s.push_str(" ol");
            push_fixed(&mut s, self.link_outage_rate, 3);
            s.push_str(" pd");
            push_fixed(&mut s, self.proc_dropout_rate, 4);
        }
        s
    }
}

/// Everything a sweep returns: the deterministic summary plus the merged
/// latency histogram and (optionally) the merged telemetry stream.
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
    /// ([`DigestMemo::hits`], read after every [`Lane`] has flushed its
    /// views — digest-derived, worker-count invariant). Carried beside
    /// the summary, never inside it: the summary's rendered bytes
    /// predate the memo and must stay byte-identical, so these counters
    /// belong to experiment sidecars.
    pub ideal_hits: u64,
    /// Distinct ideal runs actually simulated ([`DigestMemo::misses`]).
    pub ideal_misses: u64,
    /// Scheduled-run memo lookups beyond the first of their digest
    /// ([`DigestMemo::hits`], after the flush, like
    /// [`SweepOutput::ideal_hits`]). Same sidecar contract: beside the
    /// summary, never inside it.
    pub scheduled_hits: u64,
    /// Distinct `(loop × schedule × fault-plan)` co-simulations actually
    /// run ([`DigestMemo::misses`]).
    pub scheduled_misses: u64,
    /// Report-memo lookups beyond the first of their digest
    /// ([`DigestMemo::hits`], after the flush, like
    /// [`SweepOutput::ideal_hits`]). Same sidecar contract: beside the
    /// summary, never inside it. Zero unless
    /// [`SweepConfig::memoize_reports`] is set.
    pub report_hits: u64,
    /// Distinct `(run digest, bound)` report extractions actually
    /// performed ([`DigestMemo::misses`]).
    pub report_misses: u64,
    /// Racing double-computes observed by the schedule cache, the
    /// ideal-run memo, the scheduled-run memo and the report memo, in
    /// that order. Unlike every other counter here these depend on thread
    /// interleaving — wall-clock-class contention diagnostics that may
    /// vary run to run, so they belong in profiler/bench sidecars and
    /// must never enter a diffed artifact.
    pub races: [u64; 4],
}

/// Batch of consecutive indices one claim takes: small enough that the
/// tail imbalance stays under a few percent of the sweep, large enough
/// that a 10⁵-scenario sweep of sub-millisecond tasks touches the shared
/// claim counter thousands of times instead of a hundred thousand.
/// Small sweeps degrade to one-at-a-time claiming, which keeps load
/// balancing exact where it matters most.
fn claim_batch(count: usize, workers: usize) -> usize {
    (count / (workers * 16)).clamp(1, 32)
}

/// Like [`map_indexed`], but each worker additionally owns a private
/// state created by `init(worker_index)` and threaded through every task
/// it claims; the joined states are returned **in worker-index order**
/// alongside the results. The fleet profiler rides here: its per-worker
/// buffers are worker state, so the hot path never writes shared memory.
///
/// Workers claim **batches** of consecutive indices (up to 32, about a
/// sixteenth of each worker's share) from the shared counter, amortizing
/// the claim over small tasks, and write each result straight into its
/// index's slot as soon as it is computed: no staging buffer, no lock.
/// Results are slotted by index, so claiming granularity can never leak
/// into the output order.
pub fn map_indexed_with<R, W, G, F>(count: usize, workers: usize, init: G, f: F) -> (Vec<R>, Vec<W>)
where
    R: Send + Sync,
    W: Send,
    G: Fn(usize) -> W + Sync,
    F: Fn(usize, &mut W) -> R + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    let lanes = Lanes::new(count, workers);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (lanes, init, f) = (&lanes, &init, &f);
            scope.spawn(move || lanes.run(w, init, f));
        }
    });
    lanes.into_parts()
}

/// The shared state of one indexed map over `0..count`: the claim
/// counter, the index-addressed result slots and the per-lane states.
/// Both [`map_indexed_with`] and [`FleetPool::run_with`] drive it.
///
/// Each index is claimed by exactly one lane and each slot is written
/// once, by that lane: a [`OnceLock`] per slot is enough, and setting it
/// takes no lock and touches no other slot.
struct Lanes<R, W> {
    count: usize,
    batch: usize,
    next: AtomicUsize,
    slots: Vec<OnceLock<R>>,
    states: Mutex<Vec<Option<W>>>,
}

impl<R, W> Lanes<R, W> {
    fn new(count: usize, lanes: usize) -> Self {
        Lanes {
            count,
            batch: claim_batch(count, lanes),
            next: AtomicUsize::new(0),
            slots: (0..count).map(|_| OnceLock::new()).collect(),
            states: Mutex::new((0..lanes).map(|_| None).collect()),
        }
    }

    /// One lane's life: claim a batch of indices and write each result
    /// into its slot as it is computed, until no index is left; then
    /// park the lane's state.
    fn run<G, F>(&self, lane: usize, init: &G, f: &F)
    where
        G: Fn(usize) -> W,
        F: Fn(usize, &mut W) -> R,
    {
        let mut state = init(lane);
        loop {
            let start = self.next.fetch_add(self.batch, Ordering::Relaxed);
            if start >= self.count {
                break;
            }
            let end = (start + self.batch).min(self.count);
            for (i, slot) in (start..end).zip(&self.slots[start..end]) {
                if slot.set(f(i, &mut state)).is_err() {
                    unreachable!("index {i} claimed twice");
                }
            }
        }
        self.states.lock().expect("lane states")[lane] = Some(state);
    }

    /// The results in index order and the lane states in lane order, once
    /// every lane has run.
    fn into_parts(self) -> (Vec<R>, Vec<W>) {
        let parked = self.states.into_inner().expect("lane states");
        let results = self
            .slots
            .into_iter()
            .map(|r| r.into_inner().expect("every index produced a result"));
        let states = parked
            .into_iter()
            .map(|s| s.expect("every lane parked its state"));
        (results.collect(), states.collect())
    }
}

/// Runs `f` over `0..count` on `workers` self-scheduling threads and
/// returns the results **in index order** — the pool pulls indices from a
/// shared counter (work stealing by self-scheduling), but completion
/// order never leaks into the output.
pub fn map_indexed<R, F>(count: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with(count, workers, |_| (), |i, ()| f(i)).0
}

/// A boxed unit of pool work.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// A resident fleet: long-lived worker threads fed from an MPSC inbox.
///
/// [`map_indexed_with`] spawns and joins a scoped pool per sweep — the
/// right shape for a one-shot experiment binary, and measurably wrong for
/// a daemon that answers many small sweep jobs: thread spawn/join cost
/// lands on every request. `FleetPool` keeps the workers alive across
/// jobs; [`run_with`](FleetPool::run_with) reproduces the
/// `map_indexed_with` contract (index-ordered results, worker states in
/// lane order, batched claiming) on top of them, so a sweep sharded over
/// the pool stays byte-identical to one run on scoped threads. Jobs submitted concurrently interleave at lane granularity;
/// each lane task runs to completion independently, so no job can
/// deadlock another.
///
/// Dropping the pool closes the inbox and joins every worker.
pub struct FleetPool {
    workers: usize,
    sender: Option<mpsc::Sender<PoolTask>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for FleetPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl FleetPool {
    /// Spawns a resident pool of `workers` threads (clamped to at least
    /// one).
    pub fn new(workers: usize) -> FleetPool {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<PoolTask>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|w| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("fleet-{w}"))
                    .spawn(move || loop {
                        // Hold the inbox lock only for the blocking recv;
                        // the task itself runs unlocked.
                        let task = receiver.lock().expect("fleet pool inbox").recv();
                        match task {
                            Ok(task) => task(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn fleet pool worker")
            })
            .collect();
        FleetPool {
            workers,
            sender: Some(sender),
            handles,
        }
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// [`map_indexed_with`] on the resident pool: runs `f` over
    /// `0..count` across at most `workers()` lanes, each lane owning a
    /// private state from `init(lane)`, and blocks until the job
    /// completes. Results come back **in index order** and lane states in
    /// lane order — identical aggregation semantics to the scoped-thread
    /// pool, so sweep artifacts cannot depend on which pool ran them.
    pub fn run_with<R, W, G, F>(&self, count: usize, init: G, f: F) -> (Vec<R>, Vec<W>)
    where
        R: Send + Sync + 'static,
        W: Send + 'static,
        G: Fn(usize) -> W + Send + Sync + 'static,
        F: Fn(usize, &mut W) -> R + Send + Sync + 'static,
    {
        let lanes = self.workers.clamp(1, count.max(1));
        let job = Arc::new(Lanes::new(count, lanes));
        let init = Arc::new(init);
        let f = Arc::new(f);
        let sender = self.sender.as_ref().expect("pool inbox open");
        // Completion latch: one message per finished lane.
        let (done, finished) = mpsc::channel::<()>();
        for lane in 0..lanes {
            let (job, init, f, done) = (
                Arc::clone(&job),
                Arc::clone(&init),
                Arc::clone(&f),
                done.clone(),
            );
            sender
                .send(Box::new(move || {
                    job.run(lane, &*init, &*f);
                    // Release the job before signalling, so the caller
                    // holds the last handle once every lane has reported.
                    drop(job);
                    let _ = done.send(());
                }))
                .expect("fleet pool worker hung up");
        }
        drop(done);
        for _ in 0..lanes {
            finished.recv().expect("a fleet pool lane panicked");
        }
        match Arc::try_unwrap(job) {
            Ok(job) => job.into_parts(),
            Err(_) => unreachable!("every lane released the job before reporting"),
        }
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        // Closing the channel lets every worker's recv fail and exit.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The sweep-level histogram bound: twice the largest scaled period, so
/// even overrunning actuations stay in range. Public so external
/// drivers can build [`run_scenario`]-compatible scratch histograms.
pub fn sweep_bound_ns(spec: &LoopSpec, config: &SweepConfig) -> i64 {
    let max_scale = config
        .period_scales
        .iter()
        .fold(1.0f64, |acc, &s| acc.max(s));
    (TimeNs::from_secs_f64(spec.ts * max_scale).as_nanos() * 2).max(1)
}

/// What one scenario contributes to the sweep fold: its report row, the
/// optional degradation twin delta, its telemetry sink, the optional
/// `(is_exact, max divergence ns)` verdict of the executive
/// cross-validation, the optional
/// `(errors, warnings, soundness margin ns)` yield of the static
/// verification (margin `None` under a drop-capable plan, whose retry
/// bounds are declaredly unsound), and the adequation digest its
/// schedule priced to (the [`SweepAccumulator`]'s job-local cache
/// counters derive from these). The scenario's actuation latencies go
/// straight into the caller's scratch [`Histogram`], never through this
/// record — the sweep fold allocates no per-scenario histograms.
#[derive(Debug)]
pub struct ScenarioRecord {
    /// The deterministic report row.
    pub outcome: ScenarioOutcome,
    /// Degradation delta against the fault-free twin, when faults ran.
    pub degradation: Option<DegradationSummary>,
    /// Telemetry of a traced scenario (empty otherwise).
    pub traces: RecordingSink,
    /// `(is_exact, max divergence ns)` of the executive cross-validation.
    pub validation: Option<(bool, i64)>,
    /// `(errors, warnings, margin ns)` of the static verification.
    pub verification: Option<(usize, usize, Option<i64>)>,
    /// Verdict of the static fault-envelope pruning pass: `None` when
    /// the pass did not run (pruning off, or a traced scenario);
    /// conclusive verdicts mean the scenario skipped co-simulation.
    pub prune: Option<ecl_verify::EnvelopeVerdict>,
    /// Adequation digest of this scenario's schedule.
    pub schedule_digest: u64,
}

/// One memoized latency extraction: everything the Metrics phase derives
/// from a co-simulated run at a given histogram bound.
#[derive(Debug, Clone)]
pub struct ReportEntry {
    /// The per-period sampling/actuation latency report.
    pub report: LatencyReport,
    /// Actuation latencies bucketed at the sweep bound
    /// ([`sweep_bound_ns`], [`SWEEP_BUCKETS`] buckets) — merged into the
    /// caller's scratch histogram on every lookup.
    pub hist: Histogram,
    /// Worst actuation latency of the run.
    pub worst_actuation_ns: i64,
    /// Total period overruns of the run.
    pub overruns: usize,
}

/// The key of one memoized report extraction: the
/// [`cosim::scheduled_run_digest`] of the run (which covers the loop
/// spec, the schedule inputs and the fault plan — and therefore also the
/// strict-vs-lenient extraction mode, since leniency tracks plan
/// presence) mixed with the histogram bound, because a shared daemon
/// cache serves jobs whose period axes imply different bounds.
pub fn report_digest(run_digest: u64, bound_ns: i64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(run_digest);
    h.write_i64(bound_ns);
    h.finish()
}

/// The latency-report memo: a [`DigestMemo`] of Metrics-phase yields
/// ([`ReportEntry`]) keyed by [`report_digest`]. Its counters belong
/// beside — never inside — byte-compared sweep artifacts.
pub type ReportCache = DigestMemo<ReportEntry>;

/// The shared memo tables one sweep (or one resident daemon) threads
/// through every scenario: adequation schedules, stroboscopic ideal
/// runs, scheduled co-simulations and latency-report extractions.
///
/// [`run_sweep`] creates a fresh set per call; a daemon keeps one set
/// alive across jobs (and warm-starts the first three from disk), which
/// is why the summary's cache counters are derived job-locally by the
/// [`SweepAccumulator`] instead of read off these global tables.
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
}

impl SweepCaches {
    /// A fresh, empty set of memo tables.
    pub fn new() -> Self {
        SweepCaches::default()
    }
}

/// The per-deployment halves of the memo keys: the loop spec and the
/// algorithm/architecture graphs, hashed once. [`run_sweep`] builds them
/// once per sweep and a daemon once per registered deployment; a
/// [`Lane`] then hashes each WCET table once onto the graph half, and
/// each scenario hashes only its period and policy — one loop digest
/// and one schedule digest per scenario.
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
const TABLE_SLOTS: usize = 32;

/// One hashed WCET table a [`Lane`] keeps: the table index and the sweep
/// parameters its content depends on, with the table's [`TableKey`].
#[derive(Debug, Clone)]
struct CachedTable {
    table: usize,
    base_seed: u64,
    jitter_bits: u64,
    key: TableKey,
}

/// One worker's private state for a run of scenarios over one
/// [`SweepCaches`] and one deployment: its profile buffer, its scratch
/// actuation histogram (at the [`sweep_bound_ns`]/[`SWEEP_BUCKETS`]
/// shape), its [`MemoView`] of each of the four memos and its cache of
/// hashed WCET tables. [`run_scenario`] records into it and looks up
/// through it; nothing in it is shared, so a lookup the lane has already
/// made touches no other worker's memory.
///
/// The table cache holds the [`TableKey`] (graphs and WCET table,
/// hashed) of the last table seen in each of its 32 slots,
/// direct-mapped by table index and checked against the index, the
/// sweep seed and the jitter on every hit. A scenario whose table is
/// cached builds no jittered [`TimingDb`] and hashes only its policy; a
/// miss builds and hashes the table and evicts the slot's previous
/// entry. A table's content also depends on the deployment's base
/// timing, which is why a lane serves one deployment for its whole life.
///
/// [`finish`](Lane::finish) hands the lane's contributions back: the
/// histogram is merged and the views' lookup counts are added to the
/// shared tables, so the tables' counters are exact once every lane of
/// a run has finished.
#[derive(Debug)]
pub struct Lane {
    profile: WorkerProfile,
    scratch: Histogram,
    schedule: MemoView<Schedule>,
    ideal: MemoView<LoopResult>,
    scheduled: MemoView<LoopResult>,
    reports: MemoView<ReportEntry>,
    tables: [Option<CachedTable>; TABLE_SLOTS],
}

impl Lane {
    /// The state of pool worker `worker`, profiling (when `profile` is
    /// set) against the run's shared `epoch`, with a scratch histogram
    /// of bound `bound_ns` ([`sweep_bound_ns`]).
    pub fn new(worker: usize, epoch: Instant, profile: bool, bound_ns: i64) -> Lane {
        Lane {
            profile: WorkerProfile::new(worker, epoch, profile),
            scratch: Histogram::new(bound_ns, SWEEP_BUCKETS),
            schedule: MemoView::new(),
            ideal: MemoView::new(),
            scheduled: MemoView::new(),
            reports: MemoView::new(),
            tables: std::array::from_fn(|_| None),
        }
    }

    /// Presizes the profile buffer for `scenarios` scenarios of `config`
    /// (nothing when profiling is off), so a lane that knows its share
    /// of a sweep records every span without regrowing.
    fn reserve(&mut self, config: &SweepConfig, scenarios: usize) {
        // Derive, adequation, ideal run, co-simulation and metrics, plus
        // the optional phases the config turns on; a faulty scenario
        // adds a plan, a twin co-simulation and its degradation metrics.
        let per_scenario = 5
            + usize::from(config.prune_static)
            + usize::from(config.validate_executive)
            + usize::from(config.verify_static)
            + if config.faults.is_zero() { 0 } else { 3 };
        // Room for one synthesis span per memo miss of a memo-bound sweep.
        const MISS_SPANS: usize = 128;
        self.profile.reserve(scenarios * per_scenario + MISS_SPANS);
    }

    /// Runs `f` as one claimed task of the lane's profile (see
    /// [`WorkerProfile::begin_task`]).
    pub fn task<R>(&mut self, f: impl FnOnce(&mut Lane) -> R) -> R {
        self.profile.begin_task();
        let r = f(self);
        self.profile.end_task();
        r
    }

    /// Merges the scratch histogram into `merged`, adds the views'
    /// lookup counts to `caches` (the tables every lookup of the lane
    /// went to) and returns the profile buffer.
    pub fn finish(self, caches: &SweepCaches, merged: &mut Histogram) -> WorkerProfile {
        merged.merge(&self.scratch);
        self.schedule.flush(&caches.schedule);
        self.ideal.flush(&caches.ideal);
        self.scheduled.flush(&caches.scheduled);
        self.reports.flush(&caches.reports);
        self.profile
    }
}

/// The hashed WCET table of `scenario` from `tables` (a [`Lane`]'s table
/// cache), and the jittered table itself when the cache missed and had
/// to build it to hash it.
fn table_key(
    tables: &mut [Option<CachedTable>; TABLE_SLOTS],
    key: &ScheduleKey<'_>,
    base: &SplitScenario,
    config: &SweepConfig,
    scenario: &Scenario,
) -> (TableKey, Option<TimingDb>) {
    let (table, base_seed) = (scenario.wcet_table, config.base_seed);
    let jitter_bits = config.wcet_jitter.to_bits();
    let slot = &mut tables[table % TABLE_SLOTS];
    if let Some(cached) = slot
        .as_ref()
        .filter(|c| (c.table, c.base_seed, c.jitter_bits) == (table, base_seed, jitter_bits))
    {
        return (cached.key.clone(), None);
    }
    let db = scenario.jittered_db(base);
    let hashed = key.table(&db);
    *slot = Some(CachedTable {
        table,
        base_seed,
        jitter_bits,
        key: hashed.clone(),
    });
    (hashed, Some(db))
}

/// Folds [`ScenarioRecord`]s — **in index order** — into the
/// deterministic sweep artifacts: the [`SweepSummary`] and the merged
/// telemetry stream.
///
/// The summary's `cache_hits`/`cache_misses` are derived from the
/// multiset of schedule digests the job's own scenarios priced to
/// (lookups beyond the first of their digest are hits, distinct digests
/// are misses). On a fresh [`SweepCaches`] this equals the global
/// [`ScheduleCache`] counters exactly; on a daemon's warm shared caches
/// it still reports what *this* job deduplicated — which is what keeps a
/// response's bytes identical whether the daemon answered it cold, warm,
/// or after a restart.
#[derive(Debug)]
pub struct SweepAccumulator {
    cost_bound_ratio: f64,
    scenarios: Vec<ScenarioOutcome>,
    degradations: Vec<DegradationSummary>,
    traces: RecordingSink,
    validation: Option<ValidationSummary>,
    verification: Option<VerificationSummary>,
    prune: Option<PruneSummary>,
    schedule_digests: HashMap<u64, u64>,
}

impl SweepAccumulator {
    /// An empty fold for a sweep over `config`.
    pub fn new(config: &SweepConfig) -> Self {
        SweepAccumulator {
            cost_bound_ratio: config.cost_bound_ratio,
            scenarios: Vec::with_capacity(config.scenario_count),
            degradations: Vec::new(),
            traces: RecordingSink::default(),
            validation: config.validate_executive.then_some(ValidationSummary {
                validated: 0,
                exact: 0,
                max_divergence_ns: 0,
            }),
            verification: config.verify_static.then_some(VerificationSummary {
                verified: 0,
                errors: 0,
                warnings: 0,
                worst_margin_ns: i64::MAX,
            }),
            prune: config.prune_static.then_some(PruneSummary {
                evaluated: 0,
                pruned_safe: 0,
                pruned_unsafe: 0,
                simulated: 0,
            }),
            schedule_digests: HashMap::new(),
        }
    }

    /// Folds the next scenario's record. Call in index order.
    pub fn push(&mut self, record: ScenarioRecord) {
        *self
            .schedule_digests
            .entry(record.schedule_digest)
            .or_insert(0) += 1;
        self.scenarios.push(record.outcome);
        self.degradations.extend(record.degradation);
        self.traces.absorb(record.traces);
        if let (Some(v), Some((exact, max_div))) = (self.validation.as_mut(), record.validation) {
            v.validated += 1;
            if exact {
                v.exact += 1;
            }
            v.max_divergence_ns = v.max_divergence_ns.max(max_div);
        }
        if let (Some(v), Some((errors, warnings, margin))) =
            (self.verification.as_mut(), record.verification)
        {
            v.verified += 1;
            v.errors += errors;
            v.warnings += warnings;
            if let Some(m) = margin {
                v.worst_margin_ns = v.worst_margin_ns.min(m);
            }
        }
        if let Some(p) = self.prune.as_mut() {
            match record.prune {
                Some(v) => {
                    p.evaluated += 1;
                    match v {
                        ecl_verify::EnvelopeVerdict::Safe => p.pruned_safe += 1,
                        ecl_verify::EnvelopeVerdict::Unsafe => p.pruned_unsafe += 1,
                        ecl_verify::EnvelopeVerdict::Inconclusive => p.simulated += 1,
                    }
                }
                None => p.simulated += 1,
            }
        }
    }

    /// Number of records folded so far.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` when nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Finishes the fold into the deterministic summary and the merged
    /// telemetry stream.
    pub fn finish(mut self) -> (SweepSummary, RecordingSink) {
        if let Some(v) = self.verification.as_mut() {
            if v.worst_margin_ns == i64::MAX {
                v.worst_margin_ns = 0;
            }
        }
        let cache_hits = self
            .schedule_digests
            .values()
            .map(|&count| count.saturating_sub(1))
            .sum();
        let cache_misses = self.schedule_digests.len() as u64;
        (
            SweepSummary {
                scenarios: self.scenarios,
                cost_bound_ratio: self.cost_bound_ratio,
                cache_hits,
                cache_misses,
                degradations: self.degradations,
                validation: self.validation,
                verification: self.verification,
                prune: self.prune,
            },
            self.traces,
        )
    }
}

/// One untraced graph-of-delays co-simulation with its profile spans.
/// With [`SweepConfig::memoize_scheduled`] the lookup goes through the
/// lane's view of the shared [`ScheduledRunCache`], whose per-digest
/// counts record it; without it the co-simulation runs fresh —
/// the pre-memo fleet pipeline, kept for baseline benchmarks and for the
/// byte-identity tests that pin the memoized artifacts against it.
///
/// A run's measured synthesis/simulation split becomes two back-to-back
/// spans from the profile's last boundary to one clock read after the
/// lookup; a memo hit charges the lookup itself (the run key and a
/// lookup in the lane's own view) to the co-simulation phase, so the
/// profile shows what the memo reduced the phase *to* rather than
/// dropping the time on the floor.
///
/// Returns the run with its [`cosim::scheduled_run_digest`], which the
/// report memo keys on.
#[allow(clippy::too_many_arguments)]
fn scheduled_cosim(
    config: &SweepConfig,
    scheduled_memo: &ScheduledRunCache,
    view: &mut MemoView<LoopResult>,
    at: LoopAt<'_>,
    base: &SplitScenario,
    schedule: &Schedule,
    schedule_digest: u64,
    plan: Option<&FaultPlan>,
    index: usize,
    wp: &mut WorkerProfile,
) -> Result<(Lent<LoopResult>, u64), CoreError> {
    let t0 = wp.last_boundary();
    let (run, key, hit, phases) = if config.memoize_scheduled {
        let (alg, io, arch) = (&base.alg, &base.io, &base.arch);
        scheduled_memo.get_or_run_at(view, at, alg, io, schedule, arch, schedule_digest, plan)?
    } else {
        let key = cosim::scheduled_run_digest(at.digest(), schedule_digest, plan);
        let activation =
            Activation::scheduled(&base.alg, &base.io, schedule, &base.arch, plan.cloned());
        let (run, phases) = cosim::simulate(&at.spec(), activation, &mut Collector::noop(), "")?;
        (Lent::new(Arc::new(run)), key, false, phases)
    };
    let end = wp.boundary();
    if hit {
        wp.push_span(index, Phase::Cosim, t0, end);
    } else {
        // The co-simulation phase also takes the run's keying and memo
        // bookkeeping after the simulation proper.
        let synthesized = (t0 + phases.synthesis_wall_ns).min(end);
        wp.push_span(index, Phase::Synthesis, t0, synthesized);
        wp.push_span(index, Phase::Cosim, synthesized, end);
    }
    Ok((run, key))
}

/// The number of whole periods of `horizon` at period `ts` (at least
/// one): what a fault plan, the virtual executive and a pruned row's
/// overrun count are sized by.
fn periods_in(horizon: f64, ts: f64) -> u32 {
    (horizon / ts).floor().max(1.0) as u32
}

/// Extracts the Metrics-phase yield of one run: the latency report
/// (lenient under faults), its actuation histogram at the sweep shape,
/// the worst actuation and the overrun count — everything a
/// [`ReportCache`] hit must reproduce bit-exactly.
fn build_report_entry(
    run: &LoopResult,
    lenient: bool,
    bound_ns: i64,
) -> Result<ReportEntry, CoreError> {
    let report = if lenient {
        run.latency_report_lenient()?
    } else {
        run.latency_report()?
    };
    let mut hist = Histogram::new(bound_ns, SWEEP_BUCKETS);
    let mut worst = 0i64;
    for series in &report.actuation {
        for &v in series.values() {
            hist.record(v.as_nanos());
            worst = worst.max(v.as_nanos());
        }
    }
    let overruns = report.total_overruns();
    Ok(ReportEntry {
        report,
        hist,
        worst_actuation_ns: worst,
        overruns,
    })
}

/// Runs one scenario end to end: jitter → (cached) adequation →
/// (memoized) graph-of-delays co-simulation → metrics. With
/// [`SweepConfig::memoize_scheduled`], untraced co-simulations are
/// answered by the shared [`ScheduledRunCache`] keyed on the
/// `(loop × schedule × fault-plan)` digest — two scenarios that price
/// to the same key share one simulation. Every memo lookup goes through
/// the `lane`'s view of its table, so a key the lane has seen before is
/// answered from the lane's own memory. A scenario with fault rates
/// also runs its fault-free twin on the same schedule and returns the
/// degradation delta between the two. With
/// [`SweepConfig::validate_executive`] it additionally executes the
/// generated executives on the virtual machine and returns
/// `(is_exact, max divergence ns)` against the delay-graph prediction.
///
/// Every stage is wrapped in a phase of the lane's [`WorkerProfile`],
/// and the phases run back to back: each starts where the previous one
/// ended, so a profiled scenario reads the clock once per phase
/// boundary. Work that a phase names runs inside it; with profiling off
/// the wrappers are branch-only no-ops and the computation is the same
/// expression either way, so results cannot depend on the flag.
///
/// The scenario's WCET table is hashed once per lane ([`Lane`]'s table
/// cache): a scenario whose table the lane has seen hashes only its
/// policy, and builds its jittered table only on a schedule-memo miss
/// or for [`SweepConfig::verify_static`].
///
/// The scenario's latencies are recorded (or, on a report-memo hit,
/// merged) into the lane's scratch histogram in place, so the hot loop
/// allocates no per-scenario histograms. A lane serves one `caches`
/// and one deployment for its whole life: its views fall through to
/// those tables and [`Lane::finish`] flushes into them. `index` is a
/// *global* scenario index — seeds, labels and trace prefixes derive
/// from it — which is how a daemon shards one logical sweep into chunks
/// without perturbing a single byte.
///
/// `keys` are the per-deployment key halves of the swept spec and of
/// `base`'s graphs ([`SweepKeys::new`]). The scenario's loop spec is
/// the keyed spec at the scenario's period; it is built only for a
/// co-simulation that actually runs, so a memo hit clones no spec.
#[allow(clippy::too_many_arguments)]
pub fn run_scenario(
    keys: &SweepKeys<'_>,
    base: &SplitScenario,
    config: &SweepConfig,
    caches: &SweepCaches,
    index: usize,
    lane: &mut Lane,
) -> Result<ScenarioRecord, CoreError> {
    let Lane {
        profile: wp,
        scratch,
        schedule: schedule_view,
        ideal: ideal_view,
        scheduled: scheduled_view,
        reports: report_view,
        tables,
    } = lane;
    let spec = keys.spec.base();
    // The jittered table is built here only when the lane has not hashed
    // this scenario's table yet.
    let (scenario, table, db) = wp.phase(index, Phase::Derive, |_| {
        let scenario = Scenario::derive(config, base, index);
        let (table, db) = table_key(tables, &keys.schedule, base, config, &scenario);
        (scenario, table, db)
    });
    // A schedule-memo miss builds the jittered table if the derive phase
    // did not; static verification reads it again, so it is kept (or
    // rebuilt) for that pass and otherwise freed here, so its teardown
    // is adequation time. The delay-graph builder rejects makespan >
    // period, so a badly jittered schedule stretches the scenario's
    // period just enough (deterministically).
    let (schedule, digest, db, ts) = wp.phase(index, Phase::Adequation, |_| {
        let options = AdequationOptions {
            policy: scenario.policy,
        };
        let mut db = db;
        let (schedule, digest) = caches
            .schedule
            .get_or_compute_in(schedule_view, &keys.schedule, &table, options, || {
                db.take().unwrap_or_else(|| scenario.jittered_db(base))
            })
            .map_err(CoreError::from)?;
        let db = config
            .verify_static
            .then(|| db.unwrap_or_else(|| scenario.jittered_db(base)));
        let mut ts = spec.ts * scenario.period_scale;
        let makespan_s = schedule.makespan().as_secs_f64();
        if makespan_s > ts {
            ts = makespan_s * 1.05;
        }
        Ok::<_, CoreError>((schedule, digest, db, ts))
    })?;

    let traced = index < config.trace_scenarios;
    // Static pruning: evaluate the sound completion envelope of the
    // scenario's whole fault *family* before running anything. The
    // verdict is a pure function of `(config, index)` — no PRNG state
    // beyond the scenario derivation, no shared caches — so pruned rows
    // are byte-stable for any worker count. Conclusive verdicts return
    // a statically derived row; inconclusive ones fall through to the
    // full pipeline and are counted as simulated.
    let prune = if config.prune_static && !traced {
        let (verdict, worst_hi) = wp.phase(index, Phase::Envelope, |_| {
            let family = FaultFamily::from_config(&scenario.fault_config(&config.faults));
            let period = TimeNs::from_secs_f64(ts);
            let envelope =
                ecl_verify::fault_envelope(&base.alg, &base.arch, &schedule, period, &family, None);
            (envelope.verdict(), envelope.max_actuation_hi())
        });
        if verdict != ecl_verify::EnvelopeVerdict::Inconclusive {
            let overruns = if verdict == ecl_verify::EnvelopeVerdict::Unsafe {
                // Every period's actuation can land past the deadline.
                periods_in(spec.horizon, ts) as usize
            } else {
                0
            };
            let mut label = scenario.label();
            label.push_str(if verdict == ecl_verify::EnvelopeVerdict::Safe {
                " pruned:safe"
            } else {
                " pruned:unsafe"
            });
            return Ok(ScenarioRecord {
                outcome: ScenarioOutcome {
                    index,
                    seed: scenario.seed,
                    label,
                    cost: 0.0,
                    cost_ratio: 0.0,
                    makespan_ns: schedule.makespan().as_nanos(),
                    worst_actuation_ns: worst_hi.as_nanos(),
                    overruns,
                },
                degradation: None,
                traces: RecordingSink::default(),
                validation: None,
                verification: None,
                prune: Some(verdict),
                schedule_digest: digest,
            });
        }
        Some(verdict)
    } else {
        None
    };

    // The stroboscopic reference is pure in the scenario's loop spec —
    // which varies only in its period across the sweep — so it is
    // memoized by content digest: one simulation per distinct period,
    // everything else is lent by the lane's view of the shared table.
    // The period's digest, taken here once, keys the scheduled runs too.
    let (at, ideal) = wp.phase(index, Phase::IdealSim, |_| {
        let at = keys.spec.at(ts);
        caches
            .ideal
            .get_or_run_at(ideal_view, at)
            .map(|ideal| (at, ideal))
    })?;
    // The plan is a pure function of (config, schedule, arch, periods),
    // so the co-simulation and the virtual executive below are driven by
    // byte-identical fault fates.
    let plan = scenario
        .has_faults()
        .then(|| {
            wp.phase(index, Phase::FaultPlan, |_| {
                FaultPlan::generate(
                    &scenario.fault_config(&config.faults),
                    &schedule,
                    &base.arch,
                    periods_in(spec.horizon, ts),
                )
            })
        })
        .transpose()?;
    let mut untraced_cosim = |plan: Option<&FaultPlan>, wp: &mut WorkerProfile| {
        let (memo, view) = (&caches.scheduled, &mut *scheduled_view);
        scheduled_cosim(
            config, memo, view, at, base, &schedule, digest, plan, index, wp,
        )
    };
    // `run_key` is the run's scheduled-run digest, `None` for a traced
    // run (the report memo never serves those).
    let (run, run_key, degradation, sink) = if let Some(plan) = &plan {
        // Faulty scenarios compare against a fault-free twin on the same
        // schedule; they never contribute telemetry traces (tracing the
        // degraded replay would double the sink for no new information).
        let (baseline, _) = untraced_cosim(None, wp)?;
        let (faulty, key) = untraced_cosim(Some(plan), wp)?;
        let degradation = wp.phase(index, Phase::Metrics, |_| {
            DegradationSummary::from_runs(index, plan, &baseline, &faulty, config.cost_bound_ratio)
        })?;
        (
            faulty,
            Some(key),
            Some(degradation),
            RecordingSink::default(),
        )
    } else if traced {
        // Timeline emission, synthesis and simulation are all attributed
        // to co-simulation.
        let (run, sink) = wp.phase(index, Phase::Cosim, |_| {
            let spec2 = at.spec();
            let sink = PrefixSink::new(format!("s{index}:"), RecordingSink::default());
            let mut tel = Collector::new(sink);
            let (alg, arch) = (&base.alg, &base.arch);
            cosim::emit_schedule_timeline(&mut tel, &schedule, alg, arch, spec2.ts, spec2.horizon)?;
            let activation = Activation::scheduled(alg, &base.io, &schedule, arch, None);
            let (run, _) = cosim::simulate(&spec2, activation, &mut tel, "")?;
            // Surface the hot-loop engine counters into the same stream:
            // sim-derived, deterministic, stamped at the horizon.
            let horizon_ns = TimeNs::from_secs_f64(spec2.horizon).as_nanos();
            for ev in run.stats_events(horizon_ns) {
                tel.emit(|| ev);
            }
            Ok::<_, CoreError>((run, tel.into_sink().into_inner()))
        })?;
        (Lent::new(Arc::new(run)), None, None, sink)
    } else {
        let (run, key) = untraced_cosim(None, wp)?;
        (run, Some(key), None, RecordingSink::default())
    };

    let (outcome, report) = wp.phase(index, Phase::Metrics, |_| {
        let bound = sweep_bound_ns(spec, config);
        // Forced rendezvous under faults legitimately pushes sampling
        // past its period, so degraded runs are measured leniently.
        let lenient = scenario.has_faults();
        let entry = if let Some(run_key) = run_key.filter(|_| config.memoize_reports) {
            report_view
                .get_or_compute(&caches.reports, report_digest(run_key, bound), || {
                    build_report_entry(&run, lenient, bound)
                })?
                .0
        } else {
            Lent::new(Arc::new(build_report_entry(&run, lenient, bound)?))
        };
        scratch.merge(&entry.hist);
        let outcome = ScenarioOutcome {
            index,
            seed: scenario.seed,
            label: scenario.label(),
            cost: run.cost,
            cost_ratio: run.cost / ideal.cost,
            makespan_ns: schedule.makespan().as_nanos(),
            worst_actuation_ns: entry.worst_actuation_ns,
            overruns: entry.overruns,
        };
        // The run, the ideal run and (unless static verification reads
        // it) the report entry are freed here, so their teardown is
        // metrics time instead of busy time no phase accounts for.
        drop(run);
        drop(ideal);
        Ok::<_, CoreError>((outcome, config.verify_static.then_some(entry)))
    })?;

    // Measured-vs-modeled cross-validation: execute the generated
    // executives on the virtual machine under the *same* fault plan the
    // co-simulation used, and diff completion instants op by op.
    let validation = if config.validate_executive {
        wp.phase(index, Phase::Validation, |_| {
            let generated =
                codegen::generate(&schedule, &base.alg, &base.arch).map_err(CoreError::from)?;
            let period = TimeNs::from_secs_f64(ts);
            let periods = periods_in(spec.horizon, ts);
            let opts = ExecOptions {
                period,
                periods,
                faults: plan.as_ref(),
            };
            let measured =
                ecl_exec::run(&generated, &base.arch, &schedule, &opts).map_err(|e| {
                    CoreError::InvalidInput {
                        reason: format!("virtual executive of scenario {index}: {e}"),
                    }
                })?;
            let predicted = xval::predict_op_completions(
                &base.alg,
                &base.arch,
                &schedule,
                period,
                periods,
                plan.as_ref(),
            )?;
            let report = xval::validate_schedule(&measured.timeline(), &predicted, &base.alg)?;
            Ok::<_, CoreError>(Some((report.is_exact(), report.max_divergence_ns())))
        })?
    } else {
        None
    };

    // Static verification: run every `ecl-verify` pass over the scenario's
    // schedule, then check soundness — the static `Ls`/`La` bounds must
    // dominate every latency the co-simulation measured.
    let verification = if let (Some(db), Some(report)) = (db, report) {
        wp.phase(index, Phase::Verification, |_| {
            let period = TimeNs::from_secs_f64(ts);
            let vreport =
                ecl_verify::verify(&base.alg, &base.arch, &db, &schedule, period, plan.as_ref())
                    .map_err(CoreError::from)?;
            let bounds = vreport
                .bounds
                .as_ref()
                .expect("verify always derives bounds");
            let margin = if bounds.drop_capable {
                // Deadline forcing takes over; the retry bounds are
                // unsound by declaration, so the scenario contributes no
                // margin.
                None
            } else {
                let mut margin: Option<i64> = None;
                let rep = &report.report;
                let sensors = base.io.sensors.iter().zip(&rep.sampling);
                let actuators = base.io.actuators.iter().zip(&rep.actuation);
                for (op, series) in sensors.chain(actuators) {
                    if let Some(b) = bounds.bound_for(*op) {
                        for &v in series.values() {
                            let m = b.faulty.as_nanos() - v.as_nanos();
                            margin = Some(margin.map_or(m, |cur| cur.min(m)));
                        }
                    }
                }
                margin
            };
            Ok::<_, CoreError>(Some((
                vreport.count(ecl_verify::Severity::Error),
                vreport.count(ecl_verify::Severity::Warn),
                margin,
            )))
        })?
    } else {
        None
    };
    Ok(ScenarioRecord {
        outcome,
        degradation,
        traces: sink,
        validation,
        verification,
        prune,
        schedule_digest: digest,
    })
}

/// Runs the whole sweep on `config.workers` threads.
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
    let caches = SweepCaches::new();
    let keys = SweepKeys::new(spec, base);
    // One shared epoch so every worker's spans share a time base; the
    // lanes themselves are per-worker state — no hot-path sharing.
    let epoch = Instant::now();
    let bound = sweep_bound_ns(spec, config);
    let count = config.scenario_count;
    let share = count.div_ceil(config.workers.clamp(1, count.max(1)));
    let (results, lanes) = map_indexed_with(
        count,
        config.workers,
        |worker| {
            let mut lane = Lane::new(worker, epoch, config.profile, bound);
            lane.reserve(config, share);
            lane
        },
        |i, lane: &mut Lane| lane.task(|lane| run_scenario(&keys, base, config, &caches, i, lane)),
    );
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    // Bucket sums are commutative and associative, so merging the
    // per-worker scratch histograms (in worker-index order) yields bytes
    // identical to a per-scenario merge for any claim interleaving.
    let mut merged = Histogram::new(bound, SWEEP_BUCKETS);
    let profiles: Vec<_> = lanes
        .into_iter()
        .map(|lane| lane.finish(&caches, &mut merged))
        .collect();
    let profile = config
        .profile
        .then(|| ProfileReport::from_workers(wall_ns, profiles));

    let mut acc = SweepAccumulator::new(config);
    for result in results {
        acc.push(result?);
    }
    let (summary, traces) = acc.finish();
    Ok(SweepOutput {
        summary,
        actuation_hist: merged,
        traces,
        profile,
        ideal_hits: caches.ideal.hits(),
        ideal_misses: caches.ideal.misses(),
        scheduled_hits: caches.scheduled.hits(),
        scheduled_misses: caches.scheduled.misses(),
        report_hits: caches.reports.hits(),
        report_misses: caches.reports.misses(),
        races: [
            caches.schedule.races(),
            caches.ideal.races(),
            caches.scheduled.races(),
            caches.reports.races(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dc_motor_loop, standard_split};
    use proptest::prelude::*;

    fn small_base() -> SplitScenario {
        standard_split().unwrap()
    }

    fn small_config(workers: usize) -> SweepConfig {
        SweepConfig {
            scenario_count: 8,
            workers,
            trace_scenarios: 2,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn seeds_are_index_deterministic_and_distinct() {
        let a: Vec<u64> = (0..16).map(|i| scenario_seed(42, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| scenario_seed(42, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "seeds must be distinct");
        assert_ne!(scenario_seed(42, 0), scenario_seed(43, 0));
    }

    #[test]
    fn map_indexed_orders_results_for_any_worker_count() {
        for workers in [1, 2, 5, 64] {
            let out = map_indexed(17, workers, |i| i * i);
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map_indexed(0, 4, |i| i).is_empty());
    }

    #[test]
    fn map_indexed_with_returns_worker_states_in_index_order() {
        for workers in [1, 3, 8] {
            let (results, states) = map_indexed_with(
                20,
                workers,
                |w| (w, 0usize),
                |i, s: &mut (usize, usize)| {
                    s.1 += 1;
                    i * 2
                },
            );
            assert_eq!(results, (0..20).map(|i| i * 2).collect::<Vec<_>>());
            // One state per spawned worker, in worker-index order, and
            // the claim counts cover all tasks exactly once.
            assert_eq!(states.len(), workers.min(20));
            for (w, state) in states.iter().enumerate() {
                assert_eq!(state.0, w);
            }
            assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 20);
        }
    }

    /// Every default WCET of `db`, sorted by operation.
    fn defaults(db: &TimingDb) -> Vec<(ecl_aaa::OpId, TimeNs)> {
        let mut entries: Vec<_> = db.iter_defaults().collect();
        entries.sort();
        entries
    }

    /// Every entry of `db`: its defaults, then its processor-specific
    /// WCETs, each sorted.
    fn entries(db: &TimingDb) -> (Vec<(ecl_aaa::OpId, TimeNs)>, Vec<String>) {
        let mut specific: Vec<String> = db
            .iter_specific()
            .map(|(op, p, t)| format!("{op:?} {p:?} {t:?}"))
            .collect();
        specific.sort();
        (defaults(db), specific)
    }

    #[test]
    fn scenario_derivation_is_pure() {
        let base = small_base();
        let config = small_config(1);
        let a = Scenario::derive(&config, &base, 3);
        let b = Scenario::derive(&config, &base, 3);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.wcet_seed, b.wcet_seed);
        assert_eq!(a.wcet_worst.to_bits(), b.wcet_worst.to_bits());
        assert_eq!(a.period_scale, b.period_scale);
        assert_eq!(a.policy, b.policy);
        assert_eq!(a.label(), b.label());
        assert_eq!(
            entries(&a.jittered_db(&base)),
            entries(&b.jittered_db(&base))
        );
        assert!((1.0..=1.0 + config.wcet_jitter).contains(&a.wcet_worst));
        // The jittered table never shrinks a WCET, nor inflates one by
        // more than the worst factor.
        let base_defaults: std::collections::HashMap<_, _> = base.db.iter_defaults().collect();
        for (op, t) in defaults(&a.jittered_db(&base)) {
            let t0 = base_defaults[&op].as_nanos() as f64;
            assert!(t >= base_defaults[&op], "jitter must only inflate WCETs");
            assert!(t.as_nanos() as f64 <= (t0 * a.wcet_worst).round());
        }
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let serial = run_sweep(&spec, &base, &small_config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &small_config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.actuation_hist, parallel.actuation_hist);
        assert_eq!(serial.traces, parallel.traces);
        // Sanity: the sweep actually ran and measured something.
        assert_eq!(serial.summary.scenarios.len(), 8);
        assert!(serial.actuation_hist.count() > 0);
        assert!(serial
            .summary
            .scenarios
            .iter()
            .all(|s| s.cost_ratio.is_finite() && s.cost_ratio > 0.0));
        // Round-robin policies + repeated tables mean the cache must see
        // every lookup and deduplicate at least nothing-or-more.
        let s = &serial.summary;
        assert_eq!(
            s.cache_hits + s.cache_misses,
            s.scenarios.len() as u64,
            "one cache lookup per scenario"
        );
        // Two traced scenarios produced namespaced tracks.
        let rendered = serial.traces.render();
        assert!(rendered.contains("s0:"), "missing s0 prefix:\n{rendered}");
        assert!(rendered.contains("s1:"), "missing s1 prefix:\n{rendered}");
        // The all-zero default fault axes leave no degradation rows and
        // no fault section in either artifact.
        assert!(serial.summary.degradations.is_empty());
        assert!(!serial.summary.render().contains("Fault degradation"));
        assert!(!serial.summary.to_json().contains("degradations"));
    }

    /// Regression test for the `cache_hits: 0` bug: the digest covers
    /// exactly the adequation inputs, and quantized WCET tables mean
    /// scenarios actually repeat those inputs. With 2 tables and 2
    /// round-robin policies, 8 scenarios share at most 4 distinct
    /// digests, so at least 4 hits are guaranteed by pigeonhole — for
    /// any worker count, with identical counters.
    #[test]
    fn quantized_wcet_tables_produce_cache_hits() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            wcet_tables: 2,
            ..small_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        let s = &serial.summary;
        assert_eq!(s.cache_hits + s.cache_misses, 8, "one lookup per scenario");
        assert!(
            s.cache_hits >= 4,
            "8 scenarios over <= 4 digests must hit at least 4 times, got {}",
            s.cache_hits
        );
        assert_eq!(
            (s.cache_hits, s.cache_misses),
            (parallel.summary.cache_hits, parallel.summary.cache_misses),
            "cache counters must not depend on worker count"
        );
        assert_eq!(serial.summary, parallel.summary);
        // Scenarios sharing a table present byte-identical timing tables
        // and the same worst factor.
        let scenarios: Vec<Scenario> = (0..8)
            .map(|i| Scenario::derive(&config(1), &base, i))
            .collect();
        for a in &scenarios {
            for b in &scenarios {
                if a.wcet_table == b.wcet_table {
                    assert_eq!(
                        entries(&a.jittered_db(&base)),
                        entries(&b.jittered_db(&base))
                    );
                    assert_eq!(a.wcet_worst.to_bits(), b.wcet_worst.to_bits());
                    let worst = |s: &Scenario| s.label().split(' ').next().map(str::to_owned);
                    assert_eq!(worst(a), worst(b));
                }
            }
        }
        assert!(scenarios.iter().any(|s| s.wcet_table == 0));
        assert!(scenarios.iter().any(|s| s.wcet_table == 1));
    }

    #[test]
    fn profiled_sweep_keeps_artifacts_identical_and_attributes_phases() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let plain = run_sweep(&spec, &base, &small_config(1)).unwrap();
        assert!(plain.profile.is_none(), "profiling is off by default");
        let config = |workers| SweepConfig {
            profile: true,
            memoize_scheduled: true,
            ..small_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();

        // Profiling and memoization must not perturb any deterministic
        // artifact — `plain` ran with both off, so these equalities also
        // pin the memoized sweep byte-for-byte to the fresh pipeline.
        assert_eq!(plain.summary, serial.summary);
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(plain.actuation_hist, serial.actuation_hist);
        assert_eq!(serial.actuation_hist, parallel.actuation_hist);
        assert_eq!(plain.traces, serial.traces);
        assert_eq!(serial.traces, parallel.traces);

        // Lookup counts come from the memo tables, not the profiler:
        // one schedule lookup per scenario, one scheduled-run lookup per
        // untraced scenario, at any worker count.
        for out in [&serial, &parallel] {
            assert_eq!(out.summary.cache_hits + out.summary.cache_misses, 8);
            assert_eq!(out.scheduled_hits + out.scheduled_misses, 6);
        }
        assert_eq!(
            (serial.scheduled_hits, serial.scheduled_misses),
            (parallel.scheduled_hits, parallel.scheduled_misses)
        );

        let p1 = serial.profile.expect("profiling was requested");
        let p4 = parallel.profile.expect("profiling was requested");
        assert_eq!(p1.workers.len(), 1);
        assert_eq!(p4.workers.len(), 4);
        assert_eq!(p1.workers[0].tasks, 8);
        assert_eq!(p4.workers.iter().map(|w| w.tasks).sum::<u64>(), 8);

        // Every scenario contributes its pipeline phases exactly once.
        let count = |p: &ProfileReport, phase: Phase| {
            p.phases
                .iter()
                .find(|s| s.phase == phase)
                .map_or(0, |s| s.count)
        };
        for p in [&p1, &p4] {
            assert_eq!(count(p, Phase::Derive), 8);
            assert_eq!(count(p, Phase::Adequation), 8);
            assert_eq!(count(p, Phase::IdealSim), 8);
            assert_eq!(count(p, Phase::Cosim), 8);
            assert_eq!(count(p, Phase::FaultPlan), 0, "fault-free sweep");
            // The per-phase histogram holds one observation per span.
            for stat in &p.phases {
                assert_eq!(stat.hist.count(), stat.count);
                assert_eq!(stat.hist.overflow(), 0);
            }
        }

        // Attribution: the named phases cover the bulk of busy time, and
        // the report is internally consistent.
        assert!(p1.wall_ns > 0);
        assert!(p1.attributed_ns() <= p1.busy_ns());
        let frac = p1.attributed_fraction();
        assert!(
            frac > 0.5 && frac <= 1.0,
            "implausible attributed fraction {frac}"
        );
        assert!(p1.utilization() > 0.0 && p1.utilization() <= 1.0);

        // The exporters agree with the lanes.
        assert!(!p1.to_events().is_empty());
        assert!(p1.render().contains("co-simulation"));
        assert_eq!(p4.gantt(40).lines().count(), 1 + 4);
    }

    fn faulty_config(workers: usize) -> SweepConfig {
        SweepConfig {
            scenario_count: 6,
            workers,
            faults: FaultAxes {
                frame_loss_rates: vec![0.25, 0.5],
                link_outage_rates: vec![0.0, 0.2],
                proc_dropout_rates: vec![0.0, 0.02],
                ..FaultAxes::default()
            },
            ..SweepConfig::default()
        }
    }

    #[test]
    fn fault_sweep_is_worker_count_invariant() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let serial = run_sweep(&spec, &base, &faulty_config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &faulty_config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        // Every scenario draws a non-zero frame-loss rate, so every row
        // has a degradation twin, in index order.
        assert_eq!(serial.summary.degradations.len(), 6);
        let indices: Vec<usize> = serial
            .summary
            .degradations
            .iter()
            .map(|d| d.index)
            .collect();
        assert_eq!(indices, (0..6).collect::<Vec<_>>());
        assert!(serial.summary.render().contains("### Fault degradation"));
        assert!(serial.summary.survivable_fraction().is_some());
        // The faults actually bit: some scenario lost frames or windows.
        let injected_total: u64 = serial
            .summary
            .degradations
            .iter()
            .map(|d| d.injected.total())
            .sum();
        assert!(injected_total > 0, "fault axes injected nothing");
    }

    #[test]
    fn validated_sweep_is_exact_and_worker_count_invariant() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            validate_executive: true,
            ..small_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        let v = serial.summary.validation.expect("validation was requested");
        assert_eq!(v.validated, 8, "every scenario must be validated");
        assert_eq!(
            v.exact, 8,
            "virtual executive diverged from the graph of delays"
        );
        assert_eq!(v.max_divergence_ns, 0);
        assert!(serial
            .summary
            .render()
            .contains("### Executive cross-validation"));
        assert!(serial.summary.to_json().contains("\"validation\""));
        // The section is strictly additive: turning validation off keeps
        // the summary free of it (byte-compat is proven in ecl-core).
        let off = run_sweep(&spec, &base, &small_config(1)).unwrap();
        assert!(off.summary.validation.is_none());
        assert_eq!(off.summary.scenarios, serial.summary.scenarios);
    }

    #[test]
    fn verified_sweep_bounds_dominate_and_worker_invariant() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            verify_static: true,
            ..small_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        let v = serial
            .summary
            .verification
            .expect("verification was requested");
        assert_eq!(v.verified, 8, "every scenario must be verified");
        assert_eq!(v.errors, 0, "static verifier flagged a clean sweep");
        assert!(
            v.worst_margin_ns >= 0,
            "a measured latency exceeded its static bound"
        );
        assert!(serial.summary.render().contains("### Static verification"));
        assert!(serial.summary.to_json().contains("\"verification\""));
        // The section is strictly additive: off by default.
        let off = run_sweep(&spec, &base, &small_config(1)).unwrap();
        assert!(off.summary.verification.is_none());
        assert_eq!(off.summary.scenarios, serial.summary.scenarios);
    }

    #[test]
    fn verified_fault_sweep_counts_margins_soundly() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            verify_static: true,
            ..faulty_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        let v = serial
            .summary
            .verification
            .expect("verification was requested");
        assert_eq!(v.verified, 6);
        assert_eq!(v.errors, 0, "faulty scenarios must still verify cleanly");
        // Drop-capable scenarios contribute no margin; whatever margins
        // the retries-only scenarios contributed must be sound.
        assert!(
            v.worst_margin_ns >= 0,
            "a measured latency exceeded its fault-aware static bound"
        );
    }

    #[test]
    fn validated_fault_sweep_is_worker_count_invariant() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            validate_executive: true,
            ..faulty_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        let v = serial.summary.validation.expect("validation was requested");
        assert_eq!(v.validated, 6);
        // Divergence, if any, is bounded by the horizon; exactness under
        // controlled fault plans is asserted by experiment E13-EXEC.
        assert!(v.exact <= v.validated);
        assert!(v.max_divergence_ns >= 0);
    }

    /// The sweep's ideal-run memo collapses the stroboscopic reference
    /// to one simulation per distinct period: every scenario looks up
    /// exactly once, distinct digests are bounded by the period-scale
    /// axis, and the derived counters are worker-count invariant.
    #[test]
    fn sweep_memoizes_ideal_runs_per_period() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let serial = run_sweep(&spec, &base, &small_config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &small_config(4)).unwrap();
        assert_eq!(
            serial.ideal_hits + serial.ideal_misses,
            8,
            "one ideal-memo lookup per scenario"
        );
        assert!(
            serial.ideal_misses <= small_config(1).period_scales.len() as u64,
            "at most one ideal run per period scale, got {} misses",
            serial.ideal_misses
        );
        assert!(serial.ideal_hits >= 5, "8 scenarios over <= 3 periods");
        assert_eq!(
            (serial.ideal_hits, serial.ideal_misses),
            (parallel.ideal_hits, parallel.ideal_misses),
            "memo counters must not depend on worker count"
        );
        // And the memo must not perturb the deterministic artifacts
        // (also pinned byte-exactly by the golden fleet test).
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
    }

    /// The scheduled-run memo collapses untraced co-simulations to one
    /// per distinct `(loop × schedule × fault-plan)` digest. With one
    /// WCET table the key space is bounded by `policies × period_scales`,
    /// so a 16-scenario sweep must hit by pigeonhole — and because the
    /// memoized result is bit-identical to a fresh run, every
    /// deterministic artifact stays byte-identical for any worker count.
    #[test]
    fn sweep_memoizes_scheduled_runs_by_content() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            scenario_count: 16,
            workers,
            wcet_tables: 1,
            memoize_scheduled: true,
            ..SweepConfig::default()
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        // The unmemoized pipeline is the reference: the memoized sweep
        // must reproduce its artifacts byte for byte.
        let fresh = run_sweep(
            &spec,
            &base,
            &SweepConfig {
                memoize_scheduled: false,
                ..config(1)
            },
        )
        .unwrap();
        assert_eq!(
            (fresh.scheduled_hits, fresh.scheduled_misses),
            (0, 0),
            "the unmemoized pipeline never touches the scheduled memo"
        );
        assert_eq!(fresh.summary, serial.summary);
        assert_eq!(fresh.summary.render(), serial.summary.render());
        assert_eq!(fresh.actuation_hist, serial.actuation_hist);
        assert_eq!(fresh.traces, serial.traces);
        assert_eq!(
            serial.scheduled_hits + serial.scheduled_misses,
            16,
            "one scheduled-memo lookup per untraced fault-free scenario"
        );
        let keys = (config(1).policies.len() * config(1).period_scales.len()) as u64;
        assert!(
            serial.scheduled_misses <= keys,
            "at most one co-simulation per (policy × period scale), got {} misses",
            serial.scheduled_misses
        );
        assert!(
            serial.scheduled_hits >= 16 - keys,
            "16 scenarios over <= {keys} keys must hit, got {}",
            serial.scheduled_hits
        );
        assert_eq!(
            (serial.scheduled_hits, serial.scheduled_misses),
            (parallel.scheduled_hits, parallel.scheduled_misses),
            "memo counters must not depend on worker count"
        );
        // The memo must not perturb any deterministic artifact.
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.actuation_hist, parallel.actuation_hist);
        assert_eq!(serial.traces, parallel.traces);
    }

    /// Faulty scenarios take two memo lookups (fault-free twin + faulty
    /// replay); twins share entries across scenarios with the same
    /// schedule and period while seeded plans keep the faulty keys
    /// distinct — all still worker-count invariant.
    #[test]
    fn fault_sweep_memoizes_twins_and_counts_double_lookups() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            wcet_tables: 1,
            scenario_count: 8,
            memoize_scheduled: true,
            ..faulty_config(workers)
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(
            serial.scheduled_hits + serial.scheduled_misses,
            16,
            "twin + faulty lookup per scenario"
        );
        // Every plan is seeded per scenario, so the 8 faulty runs keep 8
        // distinct keys; only the twins can collapse — and 8 twins over
        // the <= 6 (policy × period scale) twin keys must, by pigeonhole.
        assert!(
            serial.scheduled_misses >= 8,
            "seeded fault plans cannot share keys, got {} misses",
            serial.scheduled_misses
        );
        assert!(
            serial.scheduled_hits >= 2,
            "8 twins over <= 6 (policy × period) keys must collapse, got {}",
            serial.scheduled_hits
        );
        assert_eq!(
            (serial.scheduled_hits, serial.scheduled_misses),
            (parallel.scheduled_hits, parallel.scheduled_misses),
            "memo counters must not depend on worker count"
        );
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
    }

    /// Static pruning: fault-free scenarios carry a trivial family whose
    /// envelope is exact, so they prune conclusively safe; frame-loss
    /// scenarios admit drops and stay inconclusive (they co-simulate).
    /// Pruned rows are pure functions of `(config, index)` — worker-count
    /// invariant — and their envelope bounds must dominate what an
    /// unpruned sweep actually measures at the same index.
    #[test]
    fn pruned_sweep_is_sound_and_worker_count_invariant() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            scenario_count: 16,
            workers,
            prune_static: true,
            faults: FaultAxes {
                frame_loss_rates: vec![0.0, 0.25],
                ..FaultAxes::default()
            },
            ..SweepConfig::default()
        };
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.actuation_hist, parallel.actuation_hist);

        let p = serial.summary.prune.expect("pruning was requested");
        assert_eq!(p.evaluated, 16, "no traced scenarios: every envelope runs");
        assert_eq!(p.pruned_safe + p.pruned_unsafe + p.simulated, 16);
        assert!(p.pruned_safe > 0, "fault-free scenarios must prune safe");
        assert!(
            p.simulated > 0,
            "drop-admitting families must stay inconclusive"
        );
        assert!(serial.summary.render().contains("### Static pruning"));
        assert!(serial.summary.to_json().contains("\"prune\""));

        // Sampled soundness audit: the unpruned sweep at the same config
        // is ground truth, row for row.
        let unpruned = run_sweep(
            &spec,
            &base,
            &SweepConfig {
                prune_static: false,
                ..config(1)
            },
        )
        .unwrap();
        assert!(
            unpruned.summary.prune.is_none(),
            "pruning is off by default"
        );
        let mut audited_safe = 0;
        for (pr, gt) in serial
            .summary
            .scenarios
            .iter()
            .zip(&unpruned.summary.scenarios)
        {
            if pr.label.ends_with(" pruned:safe") {
                audited_safe += 1;
                assert_eq!(gt.overruns, 0, "safe-pruned scenario #{} overran", gt.index);
                assert!(
                    gt.worst_actuation_ns <= pr.worst_actuation_ns,
                    "scenario #{}: measured {} exceeds envelope bound {}",
                    gt.index,
                    gt.worst_actuation_ns,
                    pr.worst_actuation_ns
                );
                assert_eq!((pr.cost, pr.cost_ratio), (0.0, 0.0));
            } else {
                assert!(!pr.label.contains("pruned:"), "unexpected unsafe prune");
                assert_eq!(pr, gt, "unpruned scenarios must be untouched");
            }
        }
        assert_eq!(audited_safe, p.pruned_safe, "every safe prune was audited");
    }

    #[test]
    fn fleet_pool_matches_scoped_pool_and_survives_reuse() {
        let pool = FleetPool::new(3);
        assert_eq!(pool.workers(), 3);
        for round in 0..3usize {
            let (results, states) = pool.run_with(
                20,
                |lane| (lane, 0usize),
                move |i, s: &mut (usize, usize)| {
                    s.1 += 1;
                    i * 2 + round
                },
            );
            assert_eq!(results, (0..20).map(|i| i * 2 + round).collect::<Vec<_>>());
            assert_eq!(states.len(), 3);
            for (lane, state) in states.iter().enumerate() {
                assert_eq!(state.0, lane);
            }
            assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 20);
        }
        // An empty job completes without claiming anything.
        let (results, states) = pool.run_with(0, |lane| lane, |i, _s: &mut usize| i);
        assert!(results.is_empty());
        assert_eq!(states.len(), 1);
    }

    /// Runs every scenario of `config` in a fresh [`Lane`] (an empty
    /// table cache each time) over one shared [`SweepCaches`], folded in
    /// index order: the reference the lanes' table caches must match.
    /// Returns the summary's Markdown and JSON, the merged histogram and
    /// every memo counter.
    fn fresh_lane_sweep(
        spec: &LoopSpec,
        base: &SplitScenario,
        config: &SweepConfig,
    ) -> (String, String, Histogram, [(u64, u64); 4]) {
        let caches = SweepCaches::new();
        let keys = SweepKeys::new(spec, base);
        let bound = sweep_bound_ns(spec, config);
        let mut merged = Histogram::new(bound, SWEEP_BUCKETS);
        let mut acc = SweepAccumulator::new(config);
        for i in 0..config.scenario_count {
            let mut lane = Lane::new(0, Instant::now(), false, bound);
            let record = run_scenario(&keys, base, config, &caches, i, &mut lane).unwrap();
            lane.finish(&caches, &mut merged);
            acc.push(record);
        }
        let (summary, _) = acc.finish();
        let counters = [
            (summary.cache_hits, summary.cache_misses),
            (caches.ideal.hits(), caches.ideal.misses()),
            (caches.scheduled.hits(), caches.scheduled.misses()),
            (caches.reports.hits(), caches.reports.misses()),
        ];
        (summary.render(), summary.to_json(), merged, counters)
    }

    /// A lane's table cache changes no byte and no memo counter: sweeps
    /// at 1 and 2 workers equal [`fresh_lane_sweep`] with more distinct
    /// WCET tables than the cache has slots (so entries are evicted and
    /// re-hashed), and with static verification, which reads the
    /// jittered table the cache lets the hit path skip.
    #[test]
    fn lane_table_cache_matches_fresh_lanes() {
        let base = small_base();
        let spec = dc_motor_loop(0.05).unwrap();
        let memoized = SweepConfig {
            memoize_scheduled: true,
            memoize_reports: true,
            trace_scenarios: 0,
            ..SweepConfig::default()
        };
        let evicting = SweepConfig {
            scenario_count: 160,
            wcet_tables: 2 * TABLE_SLOTS + 3,
            ..memoized.clone()
        };
        // Replay the direct-mapped slots over the scenarios' tables: the
        // sweep must both hit and evict.
        let mut slots = [None; TABLE_SLOTS];
        let (mut hits, mut evictions) = (0, 0);
        for i in 0..evicting.scenario_count {
            let table = Scenario::derive(&evicting, &base, i).wcet_table;
            match slots[table % TABLE_SLOTS].replace(table) {
                Some(t) if t == table => hits += 1,
                Some(_) => evictions += 1,
                None => {}
            }
        }
        assert!(
            hits > 0 && evictions > 0,
            "{hits} hits, {evictions} evictions"
        );
        let verifying = SweepConfig {
            scenario_count: 40,
            verify_static: true,
            ..memoized
        };
        for config in [evicting, verifying] {
            let (render, json, hist, counters) = fresh_lane_sweep(&spec, &base, &config);
            for workers in [1, 2] {
                let config = SweepConfig {
                    workers,
                    ..config.clone()
                };
                let out = run_sweep(&spec, &base, &config).unwrap();
                assert_eq!(out.summary.render(), render, "{workers} workers");
                if config.verify_static {
                    let v = out.summary.verification.as_ref();
                    assert_eq!(v.expect("verification ran").verified, 40);
                }
                assert_eq!(out.summary.to_json(), json);
                assert_eq!(out.actuation_hist, hist);
                let s = &out.summary;
                assert_eq!(
                    [
                        (s.cache_hits, s.cache_misses),
                        (out.ideal_hits, out.ideal_misses),
                        (out.scheduled_hits, out.scheduled_misses),
                        (out.report_hits, out.report_misses),
                    ],
                    counters,
                    "{workers} workers"
                );
            }
        }
    }

    /// At 1 worker every scenario's profile spans are contiguous — each
    /// starts where the previous one ended — run in the order of its
    /// pipeline, and lie inside the scenario's task window: the task
    /// shares its clock reads with its phases, and a phase that stops
    /// recording leaves a gap or a missing step.
    #[test]
    fn profiled_scenarios_tile_their_task_windows() {
        use Phase::*;
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let cases = [
            (
                small_config(1),
                vec![Derive, Adequation, IdealSim, Cosim, Metrics],
            ),
            (
                // One table and one period: co-simulation memo hits.
                SweepConfig {
                    wcet_tables: 1,
                    period_scales: vec![1.0],
                    validate_executive: true,
                    verify_static: true,
                    memoize_scheduled: true,
                    memoize_reports: true,
                    ..small_config(1)
                },
                vec![
                    Derive,
                    Adequation,
                    IdealSim,
                    Cosim,
                    Metrics,
                    Validation,
                    Verification,
                ],
            ),
            (
                SweepConfig {
                    memoize_scheduled: true,
                    ..faulty_config(1)
                },
                vec![
                    Derive, Adequation, IdealSim, FaultPlan, Cosim, Cosim, Metrics, Metrics,
                ],
            ),
        ];
        let mut memo_hits = 0;
        for (config, pipeline) in cases {
            let caches = SweepCaches::new();
            let keys = SweepKeys::new(&spec, &base);
            let bound = sweep_bound_ns(&spec, &config);
            let mut lane = Lane::new(0, Instant::now(), true, bound);
            for i in 0..config.scenario_count {
                let before = lane.profile.now_ns();
                let (busy, recorded) = (lane.profile.busy_ns(), lane.profile.spans().len());
                lane.task(|lane| run_scenario(&keys, &base, &config, &caches, i, lane))
                    .unwrap();
                let after = lane.profile.now_ns();
                let window = lane.profile.busy_ns() - busy;
                let spans = &lane.profile.spans()[recorded..];
                assert!(spans.iter().all(|s| s.scenario == i));
                for pair in spans.windows(2) {
                    assert_eq!(pair[1].start_ns, pair[0].end_ns, "scenario {i}: {spans:?}");
                }
                let (first, last) = (spans[0], spans[spans.len() - 1]);
                assert!(before <= first.start_ns && last.end_ns <= after);
                assert!(last.end_ns - first.start_ns <= window);
                // A memo miss splits the co-simulation: synthesis, then
                // the run.
                for pair in spans.windows(2).filter(|p| p[0].phase == Synthesis) {
                    assert_eq!(pair[1].phase, Cosim);
                }
                let phases: Vec<Phase> = spans
                    .iter()
                    .map(|s| s.phase)
                    .filter(|&p| p != Synthesis)
                    .collect();
                assert_eq!(phases, pipeline, "scenario {i}");
                let misses = spans.iter().filter(|s| s.phase == Synthesis).count();
                if i >= config.trace_scenarios && misses == 0 {
                    memo_hits += 1;
                }
            }
        }
        assert!(memo_hits > 0, "no co-simulation memo hit was profiled");
    }

    /// exp17's first scenario keys the schedule, ideal-run and
    /// scheduled-run memos under digests pinned from the full,
    /// single-pass digest functions the split keys replaced, so the memo
    /// keys and the persisted cache file names cannot move.
    #[test]
    fn exp17_first_scenario_memo_keys_are_pinned() {
        let spec = dc_motor_loop(0.05).unwrap();
        let base = small_base();
        let config = SweepConfig {
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        };
        let caches = SweepCaches::new();
        let mut lane = Lane::new(0, Instant::now(), false, sweep_bound_ns(&spec, &config));
        let keys = SweepKeys::new(&spec, &base);
        let record = run_scenario(&keys, &base, &config, &caches, 0, &mut lane).unwrap();
        let digests = |memo: Vec<(u64, Arc<LoopResult>)>| -> Vec<u64> {
            memo.into_iter().map(|(d, _)| d).collect()
        };
        const SCHEDULE: u64 = 0x6b1e_3df7_63d2_516f;
        const LOOP: u64 = 0xdc4f_92cf_e1c5_e3d5;
        const RUN: u64 = 0xd644_c329_b091_6501;
        assert_eq!(record.schedule_digest, SCHEDULE);
        assert_eq!(caches.schedule.snapshot()[0].0, SCHEDULE);
        assert_eq!(digests(caches.ideal.snapshot()), [LOOP]);
        assert_eq!(digests(caches.scheduled.snapshot()), [RUN]);
        assert_eq!(cosim::scheduled_run_digest(LOOP, SCHEDULE, None), RUN);
        // The full digest functions agree with the split keys.
        let scenario = Scenario::derive(&config, &base, 0);
        let options = AdequationOptions {
            policy: scenario.policy,
        };
        let db = scenario.jittered_db(&base);
        let full = ecl_aaa::schedule_digest(&base.alg, &base.arch, &db, options);
        assert_eq!(full, SCHEDULE);
        let ts = spec.ts * scenario.period_scale;
        assert_eq!(cosim::loop_spec_digest(&LoopSpec { ts, ..spec }), LOOP);
    }

    /// exp17's deployment and axes with both memos on, first 2 000
    /// scenarios: every memo counter is the same at 1, 2 and 4 workers,
    /// where each lane answers its repeats from its own views, and equals
    /// the counts pinned from direct lookups in the shared tables.
    #[test]
    fn exp17_memo_counters_survive_lane_views_at_any_worker_count() {
        let spec = dc_motor_loop(0.05).unwrap();
        let base = small_base();
        for workers in [1, 2, 4] {
            let config = SweepConfig {
                scenario_count: 2_000,
                workers,
                trace_scenarios: 0,
                memoize_scheduled: true,
                memoize_reports: true,
                ..SweepConfig::default()
            };
            let out = run_sweep(&spec, &base, &config).unwrap();
            let counters = [
                (out.ideal_hits, out.ideal_misses),
                (out.scheduled_hits, out.scheduled_misses),
                (out.report_hits, out.report_misses),
                (out.summary.cache_hits, out.summary.cache_misses),
            ];
            assert_eq!(
                counters,
                [(1_997, 3), (1_904, 96), (1_904, 96), (1_968, 32)],
                "{workers} workers"
            );
        }
    }

    /// The resident-pool sharding a daemon uses — [`FleetPool::run_with`]
    /// over the public [`run_scenario`] folded by a [`SweepAccumulator`]
    /// — must reproduce [`run_sweep`]'s artifacts byte for byte, cold
    /// *and* warm: the second pass over the same shared [`SweepCaches`]
    /// answers from the memos (zero new co-simulations) yet yields the
    /// identical summary, because the accumulator derives its cache
    /// counters from the job's own digest multiset, not the global
    /// tables.
    #[test]
    fn pooled_sweep_reproduces_scoped_sweep_bytes_cold_and_warm() {
        let spec = dc_motor_loop(0.3).unwrap();
        let config = SweepConfig {
            memoize_scheduled: true,
            memoize_reports: true,
            ..small_config(4)
        };
        let reference = run_sweep(&spec, &small_base(), &config).unwrap();

        let pool = FleetPool::new(4);
        let caches = Arc::new(SweepCaches::new());
        let base = Arc::new(small_base());
        let keys = Arc::new(SweepKeys::new(&spec, &base).into_owned());
        let config = Arc::new(config);
        let bound = sweep_bound_ns(&spec, &config);
        let run_pass = || {
            let epoch = Instant::now();
            let profile_on = config.profile;
            let (results, lanes) = pool.run_with(
                config.scenario_count,
                move |worker| Lane::new(worker, epoch, profile_on, bound),
                {
                    let caches = Arc::clone(&caches);
                    let keys = Arc::clone(&keys);
                    let base = Arc::clone(&base);
                    let config = Arc::clone(&config);
                    move |i, lane: &mut Lane| {
                        lane.task(|lane| run_scenario(&keys, &base, &config, &caches, i, lane))
                    }
                },
            );
            let mut merged = Histogram::new(bound, SWEEP_BUCKETS);
            for lane in lanes {
                lane.finish(&caches, &mut merged);
            }
            let mut acc = SweepAccumulator::new(&config);
            for result in results {
                acc.push(result.unwrap());
            }
            let (summary, traces) = acc.finish();
            (summary, traces, merged)
        };

        let (cold_summary, cold_traces, cold_hist) = run_pass();
        assert_eq!(cold_summary, reference.summary);
        assert_eq!(cold_summary.render(), reference.summary.render());
        assert_eq!(cold_summary.to_json(), reference.summary.to_json());
        assert_eq!(cold_traces, reference.traces);
        assert_eq!(cold_hist, reference.actuation_hist);

        let computes_after_cold = caches.scheduled.computes();
        let (warm_summary, warm_traces, warm_hist) = run_pass();
        assert_eq!(warm_summary, reference.summary);
        assert_eq!(warm_summary.render(), reference.summary.render());
        assert_eq!(warm_traces, reference.traces);
        assert_eq!(warm_hist, reference.actuation_hist);
        assert_eq!(
            caches.scheduled.computes(),
            computes_after_cold,
            "a warm pass must answer every untraced co-simulation from the memo"
        );
    }

    #[test]
    fn report_memo_keeps_artifacts_identical_and_counts() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let config = |workers| SweepConfig {
            scenario_count: 8,
            workers,
            trace_scenarios: 2,
            wcet_tables: 1,
            period_scales: vec![1.0],
            memoize_reports: true,
            ..SweepConfig::default()
        };
        // The unmemoized pipeline is the reference: the memoized sweep
        // must reproduce its artifacts byte for byte.
        let fresh = run_sweep(
            &spec,
            &base,
            &SweepConfig {
                memoize_reports: false,
                ..config(1)
            },
        )
        .unwrap();
        assert_eq!(
            (fresh.report_hits, fresh.report_misses),
            (0, 0),
            "the unmemoized pipeline never touches the report memo"
        );
        let serial = run_sweep(&spec, &base, &config(1)).unwrap();
        let parallel = run_sweep(&spec, &base, &config(4)).unwrap();
        assert_eq!(fresh.summary, serial.summary);
        assert_eq!(fresh.summary.render(), serial.summary.render());
        assert_eq!(fresh.actuation_hist, serial.actuation_hist);
        assert_eq!(fresh.traces, serial.traces);
        // One lookup per untraced scenario; one WCET table and one period
        // scale bound the keys by the policy axis, so pigeonhole forces
        // hits.
        assert_eq!(serial.report_hits + serial.report_misses, 6);
        assert!(
            serial.report_misses <= 2,
            "6 untraced scenarios over <= 2 (policy) keys, got {} misses",
            serial.report_misses
        );
        assert!(serial.report_hits >= 4);
        assert_eq!(
            (serial.report_hits, serial.report_misses),
            (parallel.report_hits, parallel.report_misses),
            "memo counters must not depend on worker count"
        );
        assert_eq!(serial.summary, parallel.summary);
        assert_eq!(serial.summary.render(), parallel.summary.render());
        assert_eq!(serial.summary.to_json(), parallel.summary.to_json());
        assert_eq!(serial.actuation_hist, parallel.actuation_hist);
        assert_eq!(serial.traces, parallel.traces);
    }

    /// Degraded runs are measured leniently; the report key marks plan
    /// presence, so memoized lenient entries can never answer a strict
    /// lookup (or vice versa) and fault-sweep artifacts stay identical.
    #[test]
    fn report_memo_is_lenient_safe_under_faults() {
        let base = small_base();
        let spec = dc_motor_loop(0.3).unwrap();
        let on = run_sweep(
            &spec,
            &base,
            &SweepConfig {
                memoize_reports: true,
                ..faulty_config(1)
            },
        )
        .unwrap();
        let off = run_sweep(&spec, &base, &faulty_config(1)).unwrap();
        assert_eq!(on.summary, off.summary);
        assert_eq!(on.summary.render(), off.summary.render());
        assert_eq!(on.actuation_hist, off.actuation_hist);
        assert_eq!(
            on.report_hits + on.report_misses,
            6,
            "one report lookup per (faulty) scenario"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4 })]

        /// A memoized ideal run answers with bits identical to a fresh
        /// [`cosim::run_ideal`] for any sampling period — cost, instants,
        /// engine counters — so `cost_ratio` cannot depend on whether a
        /// scenario hit or missed the memo.
        #[test]
        fn ideal_memo_equals_fresh_run_for_random_periods(scale in 0.2f64..4.0) {
            let mut spec = dc_motor_loop(0.2).unwrap();
            spec.ts *= scale;
            let memo = IdealRunCache::new();
            let key = LoopKey::new(&spec);
            let mut view = MemoView::new();
            let first = memo.get_or_run_at(&mut view, key.at(spec.ts)).unwrap();
            let second = memo.get_or_run_at(&mut view, key.at(spec.ts)).unwrap();
            view.flush(&memo);
            prop_assert_eq!((memo.hits(), memo.misses()), (1, 1));
            let fresh = cosim::run_ideal(&spec).unwrap();
            // Memo entries keep the totals, not the per-block vector.
            let totals = fresh.stats.clone().without_activations();
            for r in [&first, &second] {
                prop_assert_eq!(r.cost.to_bits(), fresh.cost.to_bits());
                prop_assert_eq!(&r.sample_instants, &fresh.sample_instants);
                prop_assert_eq!(&r.actuation_instants, &fresh.actuation_instants);
                prop_assert_eq!(&r.stats, &totals);
                prop_assert_eq!(&r.activity, &fresh.activity);
            }
        }

        /// A memoized scheduled run answers with bits identical to a
        /// fresh [`cosim::run_scheduled_faulty`] for any sampling period
        /// and fault draw — cost, instants, engine counters — so no sweep
        /// artifact can depend on whether a scenario hit or missed the
        /// scheduled memo.
        #[test]
        fn scheduled_memo_equals_fresh_faulty_run(
            scale in 0.5f64..3.0,
            seed in 0u64..(1u64 << 48),
            frame_loss in 0.0f64..0.6,
        ) {
            let base = small_base();
            let config = SweepConfig::default();
            let scenario = Scenario {
                seed,
                frame_loss_rate: frame_loss,
                ..Scenario::derive(&config, &base, 0)
            };
            let db = scenario.jittered_db(&base);
            let (schedule, digest) = ScheduleCache::new()
                .get_or_compute(
                    &ScheduleKey::new(&base.alg, &base.arch),
                    &db,
                    AdequationOptions {
                        policy: scenario.policy,
                    },
                )
                .unwrap();
            let mut spec = dc_motor_loop(0.2).unwrap();
            spec.ts *= scale;
            let makespan_s = schedule.makespan().as_secs_f64();
            if makespan_s > spec.ts {
                spec.ts = makespan_s * 1.05;
            }
            let periods = (spec.horizon / spec.ts).floor().max(1.0) as u32;
            let plan = FaultPlan::generate(
                &scenario.fault_config(&config.faults),
                &schedule,
                &base.arch,
                periods,
            )
            .unwrap();
            let memo = ScheduledRunCache::new();
            let lookup = || {
                memo.get_or_run(
                    &spec,
                    &base.alg,
                    &base.io,
                    &schedule,
                    &base.arch,
                    digest,
                    Some(&plan),
                )
            };
            let (first, ..) = lookup().unwrap();
            let (second, ..) = lookup().unwrap();
            prop_assert_eq!((memo.hits(), memo.misses()), (1, 1));
            let fresh = cosim::run_scheduled_faulty(
                &spec,
                &base.alg,
                &base.io,
                &schedule,
                &base.arch,
                plan.clone(),
            )
            .unwrap();
            // Memo entries keep the totals, not the per-block vector.
            let totals = fresh.stats.clone().without_activations();
            for r in [&first, &second] {
                prop_assert_eq!(r.cost.to_bits(), fresh.cost.to_bits());
                prop_assert_eq!(&r.sample_instants, &fresh.sample_instants);
                prop_assert_eq!(&r.actuation_instants, &fresh.actuation_instants);
                prop_assert_eq!(&r.stats, &totals);
                prop_assert_eq!(&r.activity, &fresh.activity);
            }
        }

        /// The plan a scenario ends up with must not depend on how many
        /// workers computed the sweep — only on `(base_seed, index)` and
        /// the schedule content. Zero-rate plans stay trivial for every
        /// seed, which is what keeps fault-free sweeps byte-identical to
        /// pre-fault ones.
        #[test]
        fn fault_plans_are_worker_count_invariant(base_seed in 0u64..(1u64 << 48)) {
            let base = small_base();
            let mut config = faulty_config(1);
            config.base_seed = base_seed;
            config.scenario_count = 5;
            let key = ScheduleKey::new(&base.alg, &base.arch);
            let digests_on = |workers: usize| -> Vec<u64> {
                let cache = ScheduleCache::new();
                map_indexed(config.scenario_count, workers, |i| {
                    let scenario = Scenario::derive(&config, &base, i);
                    let db = scenario.jittered_db(&base);
                    let options = AdequationOptions {
                        policy: scenario.policy,
                    };
                    let (schedule, _) = cache.get_or_compute(&key, &db, options).unwrap();
                    FaultPlan::generate(
                        &scenario.fault_config(&config.faults),
                        &schedule,
                        &base.arch,
                        32,
                    )
                    .unwrap()
                    .digest()
                })
            };
            prop_assert_eq!(digests_on(1), digests_on(4));

            let zero = Scenario {
                frame_loss_rate: 0.0,
                link_outage_rate: 0.0,
                proc_dropout_rate: 0.0,
                ..Scenario::derive(&config, &base, 0)
            };
            let db = zero.jittered_db(&base);
            let options = AdequationOptions {
                policy: zero.policy,
            };
            let (schedule, _) = ScheduleCache::new().get_or_compute(&key, &db, options).unwrap();
            let plan = FaultPlan::generate(
                &zero.fault_config(&config.faults),
                &schedule,
                &base.arch,
                32,
            )
            .unwrap();
            prop_assert!(plan.is_trivial());
        }
    }
}

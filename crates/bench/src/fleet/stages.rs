//! One scenario's lifecycle, one function per stage: derive, adequation,
//! envelope (and prune), ideal run, fault plan, co-simulation (nominal,
//! faulty twin or traced), metrics, validation and verification. Each
//! stage is one phase of the lane's profile; the phases run back to
//! back, so a profiled scenario reads the clock once per phase boundary.
//! A scenario whose class row its lane keeps ([`ClassTable`](super::lane::ClassTable))
//! ends in the derive stage: the draw and one lookup are its one phase.

use std::convert::Infallible;
use std::sync::Arc;

use ecl_aaa::{codegen, AdequationOptions, Schedule, TimeNs, TimingDb};
use ecl_core::cosim::{self, Activation, LoopAt, LoopResult};
use ecl_core::faults::{FaultFamily, FaultPlan};
use ecl_core::report::{DegradationSummary, ScenarioOutcome};
use ecl_core::{xval, CoreError};
use ecl_exec::ExecOptions;
use ecl_telemetry::{Collector, Histogram, Phase, PrefixSink, RecordingSink};
use ecl_verify::EnvelopeVerdict;

use super::lane::{Class, ClassKey, RowRun, SWEEP_BUCKETS};
use super::{
    envelope_digest, report_digest, Lane, ReportCache, ReportEntry, Scenario, SweepCaches,
    SweepConfig, SweepKeys,
};
use crate::SplitScenario;

/// What one scenario contributes to the sweep fold. The scenario's
/// actuation latencies go straight into its lane's scratch histogram,
/// never through this record, so the fold allocates no per-scenario
/// histograms. The payloads only some scenarios carry sit behind one
/// box, so a result slot of the fold stays small.
#[derive(Debug)]
pub struct ScenarioRecord {
    /// The deterministic report row.
    pub outcome: ScenarioOutcome,
    /// Verdict of the static fault-envelope pruning pass: `None` when
    /// the pass did not run (pruning off, or a traced scenario);
    /// conclusive verdicts mean the scenario skipped co-simulation.
    pub prune: Option<EnvelopeVerdict>,
    /// Adequation digest of this scenario's schedule (the fold's
    /// job-local cache counters derive from these).
    pub schedule_digest: u64,
    /// The rare payloads; `None` for an untraced, fault-free scenario
    /// that ran neither validation nor verification.
    pub extras: Option<Box<RecordExtras>>,
}

/// The payloads of a [`ScenarioRecord`] that only faulty, traced,
/// validated or verified scenarios carry.
#[derive(Debug, Default)]
pub struct RecordExtras {
    /// Degradation delta against the fault-free twin, when faults ran.
    pub degradation: Option<DegradationSummary>,
    /// Scheduled-run digest of the faulty replay under a non-trivial
    /// plan; `None` when the plan was trivial (the nominal run served as
    /// the replay) or no faults ran.
    pub replay_digest: Option<u64>,
    /// Telemetry of a traced scenario (empty otherwise).
    pub traces: RecordingSink,
    /// `(is_exact, max divergence ns)` of the executive cross-validation.
    pub validation: Option<(bool, i64)>,
    /// `(errors, warnings, margin ns)` of the static verification (no
    /// margin under a drop-capable plan: its retry bounds are unsound).
    pub verification: Option<(usize, usize, Option<i64>)>,
}

impl RecordExtras {
    /// `true` when faults ran under a trivial plan, whose replay the
    /// nominal run served.
    pub fn trivial_plan(&self) -> bool {
        self.degradation.is_some() && self.replay_digest.is_none()
    }
}

/// Runs one scenario end to end: jitter → (cached) adequation →
/// (memoized) graph-of-delays co-simulation → metrics, plus the stages
/// `config` turns on, each memo lookup in its table in `caches`.
/// `index` is a *global* scenario index — seeds, labels and trace
/// prefixes derive from it — which is how a daemon shards one sweep
/// into chunks without perturbing a single byte.
/// `keys` are the per-deployment key halves of the swept spec and of
/// `base`'s graphs ([`SweepKeys::new`]).
pub fn run_scenario(
    keys: &SweepKeys<'_>,
    base: &SplitScenario,
    config: &SweepConfig,
    caches: &SweepCaches,
    index: usize,
    lane: &mut Lane,
) -> Result<ScenarioRecord, CoreError> {
    let mut stages = Stages {
        keys,
        base,
        config,
        caches,
        index,
        lane,
    };
    let traced = index < config.trace_scenarios;
    let (scenario, seen) = match stages.derive(traced) {
        Derived::Served(record) => return Ok(record),
        Derived::Drawn(scenario, seen) => (scenario, seen),
    };
    let (d, db) = stages.adequation(scenario, seen)?;
    let envelope = if config.prune_static && !traced {
        let (verdict, worst_hi, envelope) = stages.envelope(&d);
        if verdict != EnvelopeVerdict::Inconclusive {
            return Ok(stages.pruned(&d, verdict, worst_hi, envelope));
        }
        Some(envelope)
    } else {
        None
    };
    let (at, ideal) = stages.ideal(&d)?;
    let plan = d.scenario.has_faults().then(|| stages.fault_plan(&d));
    let plan = plan.transpose()?;
    let (run, key, twin, traces) = stages.cosimulate(&d, at, plan.as_ref(), traced)?;
    let (degradation, entry, replay_digest) = match twin {
        Some(twin) => (Some(twin.degradation), Some(twin.entry), twin.replay_digest),
        None => (None, None, None),
    };
    let (outcome, entry) = stages.metrics(&d, run, key, entry, ideal)?;
    let validation = if config.validate_executive {
        Some(stages.validation(&d, plan.as_ref())?)
    } else {
        None
    };
    let verification = match db {
        Some(db) => Some(stages.verification(&d, &db, &entry, plan.as_ref())?),
        None => None,
    };
    let extras = RecordExtras {
        degradation,
        replay_digest,
        traces,
        validation,
        verification,
    };
    let rare = extras.degradation.is_some()
        || traced
        || extras.validation.is_some()
        || extras.verification.is_some();
    if !rare {
        stages.keep_row(&d, &outcome, envelope, at.digest(), key, entry);
    }
    Ok(ScenarioRecord {
        outcome,
        prune: envelope.map(|_| EnvelopeVerdict::Inconclusive),
        schedule_digest: d.digest,
        extras: rare.then(|| Box::new(extras)),
    })
}

/// What the derive stage found: the record of a scenario its class's
/// row serves whole, or the draw the later stages run on.
enum Derived {
    Served(ScenarioRecord),
    Drawn(Scenario, Seen),
}

/// Whether the lane's class table holds a drawn scenario's class: its
/// slot, or the key a new class is inserted under.
enum Seen {
    Class(usize),
    New(ClassKey),
}

/// The per-scenario context every stage runs over: the sweep's shared
/// inputs, the scenario's global index and the lane it records into.
struct Stages<'s, 'k> {
    keys: &'s SweepKeys<'k>,
    base: &'s SplitScenario,
    config: &'s SweepConfig,
    caches: &'s SweepCaches,
    index: usize,
    lane: &'s mut Lane,
}

/// A scenario after adequation: its draw, its schedule and adequation
/// digest, the period it runs at and the slot of its class in the
/// lane's class table.
struct Deployed {
    scenario: Scenario,
    schedule: Arc<Schedule>,
    digest: u64,
    ts: f64,
    class: usize,
}

/// What a co-simulation stage hands on: the run, its scheduled-run
/// digest (`None` for a traced run, which the report memo never serves),
/// a faulty scenario's [`Twin`] and a traced run's telemetry.
type Cosimulated = (Arc<LoopResult>, Option<u64>, Option<Twin>, RecordingSink);

/// What a faulty scenario's twin run yields besides its replay.
struct Twin {
    /// The degradation delta of the replay against its baseline.
    degradation: DegradationSummary,
    /// The replay's lenient report entry, which the metrics reuse.
    entry: Arc<ReportEntry>,
    /// The replay's scheduled-run digest under a non-trivial plan;
    /// `None` when the baseline served as a trivial plan's replay.
    replay_digest: Option<u64>,
}

/// The number of whole periods of `horizon` at period `ts` (at least
/// one): what a fault plan, the virtual executive and a pruned row's
/// overrun count are sized by.
fn periods_in(horizon: f64, ts: f64) -> u32 {
    (horizon / ts).floor().max(1.0) as u32
}

/// The Metrics-phase yield of `run` (see [`build_report_entry`]): from
/// the report `memo` under the run's [`report_digest`] when the sweep
/// memoizes reports and the run has a key, extracted afresh otherwise.
fn report_entry(
    memo: Option<&ReportCache>,
    run: &LoopResult,
    key: Option<u64>,
    lenient: bool,
    bound_ns: i64,
) -> Result<Arc<ReportEntry>, CoreError> {
    let build = || build_report_entry(run, lenient, bound_ns);
    match (memo, key) {
        (Some(memo), Some(key)) => {
            let digest = report_digest(key, bound_ns, lenient);
            Ok(memo.get_or_compute(digest, build)?.0)
        }
        _ => Ok(Arc::new(build()?)),
    }
}

/// Extracts the Metrics-phase yield of one run: the latency report
/// (lenient under faults), its actuation histogram at the sweep shape,
/// the worst actuation and the overrun count — everything a report-memo
/// hit must reproduce bit-exactly.
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

impl<'s> Stages<'s, '_> {
    /// Derive: the scenario's draw and one lookup of its class in the
    /// lane's class table. An untraced scenario whose class keeps a row
    /// is served that row here, with its own index and seed, and runs
    /// no other stage: its derive phase closes with its task, so the
    /// task is one phase and two clock reads.
    fn derive(&mut self, traced: bool) -> Derived {
        let (classes, index) = (&mut self.lane.classes, self.index);
        let scenario = Scenario::draw(self.config, index);
        let key = ClassKey::new(&scenario);
        let found = classes.find(&key);
        let served = found
            .filter(|_| !traced)
            .and_then(|c| classes.serve(c, index, scenario.seed));
        if let Some(record) = served {
            self.lane.profile.last_phase(index, Phase::Derive);
            return Derived::Served(record);
        }
        // Closes the derive window, open since the task's first read.
        self.lane.profile.phase(index, Phase::Derive, |_| ());
        Derived::Drawn(scenario, found.map_or(Seen::New(key), Seen::Class))
    }

    /// Adequation: the class's deployed part, lent by the class table
    /// when the lane knows the class and built into a new class
    /// otherwise. The jittered table is built only for static
    /// verification or, on a new class, when the schedule memo misses
    /// a table the lane has not hashed yet.
    fn adequation(
        &mut self,
        scenario: Scenario,
        seen: Seen,
    ) -> Result<(Deployed, Option<TimingDb>), CoreError> {
        match seen {
            Seen::Class(c) => Ok(self.known_class(scenario, c)),
            Seen::New(key) => self.new_class(scenario, key),
        }
    }

    /// Adequation of a scenario of a class the lane knows: its
    /// schedule and period are the class's.
    fn known_class(&mut self, mut scenario: Scenario, c: usize) -> (Deployed, Option<TimingDb>) {
        let (base, verify) = (self.base, self.config.verify_static);
        let classes = &self.lane.classes;
        self.lane.profile.phase(self.index, Phase::Adequation, |_| {
            let class = classes.class(c);
            scenario.wcet_worst = class.wcet_worst;
            let db = verify.then(|| scenario.jittered_db(base));
            let deployed = Deployed {
                scenario,
                schedule: Arc::clone(&class.schedule),
                digest: class.digest,
                ts: class.ts,
                class: c,
            };
            (deployed, db)
        })
    }

    /// Adequation of a scenario of a class new to the lane, through the
    /// schedule memo, and the class it adds to the class table. A miss
    /// builds the jittered table if the class table's slot did not; it
    /// is kept (or rebuilt) for static verification and otherwise freed
    /// here. The delay-graph builder rejects makespan > period, so a
    /// badly jittered schedule stretches the period just enough
    /// (deterministically).
    fn new_class(
        &mut self,
        mut scenario: Scenario,
        key: ClassKey,
    ) -> Result<(Deployed, Option<TimingDb>), CoreError> {
        let phased = self.lane.profile.phase(self.index, Phase::Adequation, |_| {
            let (config, base) = (self.config, self.base);
            let classes = &mut self.lane.classes;
            let (table, worst, mut db) = classes.table(&self.keys.schedule, base, &scenario);
            scenario.wcet_worst = worst;
            let options = AdequationOptions {
                policy: scenario.policy,
            };
            let jittered = || scenario.jittered_db(base);
            let (schedule, digest) = self
                .caches
                .schedule
                .get_or_compute_in(&self.keys.schedule, &table, options, || {
                    db.take().unwrap_or_else(jittered)
                })
                .map_err(CoreError::from)?;
            let db = config.verify_static.then(|| db.unwrap_or_else(jittered));
            let mut ts = self.keys.spec.base().ts * scenario.period_scale;
            let makespan_s = schedule.makespan().as_secs_f64();
            if makespan_s > ts {
                ts = makespan_s * 1.05;
            }
            Ok::<_, CoreError>((scenario, schedule, digest, ts, db))
        });
        let (scenario, schedule, digest, ts, db) = phased?;
        let class = Class::new(Arc::clone(&schedule), digest, ts, scenario.wcet_worst);
        let class = self.lane.insert_class(self.caches, key, class);
        let deployed = Deployed {
            scenario,
            schedule,
            digest,
            ts,
            class,
        };
        Ok((deployed, db))
    }

    /// Envelope: the verdict and worst actuation upper bound of the
    /// sound completion envelope of the scenario's whole fault *family*
    /// — a pure function of `(config, index)`, so pruned rows are
    /// byte-stable for any worker count. The envelope is looked up in
    /// the envelope memo by its [`envelope_digest`] and computed only on
    /// a miss. Also returns that digest.
    fn envelope(&mut self, d: &Deployed) -> (EnvelopeVerdict, TimeNs, u64) {
        self.lane.profile.phase(self.index, Phase::Envelope, |_| {
            let family = FaultFamily::from_config(&d.scenario.fault_config(&self.config.faults));
            let period = TimeNs::from_secs_f64(d.ts);
            let (alg, arch) = (&self.base.alg, &self.base.arch);
            let key = envelope_digest(d.digest, period, &family);
            let Ok((envelope, _)) = self.caches.envelopes.get_or_compute(key, || {
                Ok::<_, Infallible>(ecl_verify::fault_envelope(
                    alg,
                    arch,
                    &d.schedule,
                    period,
                    &family,
                    None,
                ))
            });
            (envelope.verdict(), envelope.max_actuation_hi(), key)
        })
    }

    /// Prune: the statically derived row of a conclusive envelope
    /// verdict, in place of every later stage. The verdict is a
    /// function of the class, so the row becomes the class's row, which
    /// serves every later untraced scenario of the class; each owes the
    /// schedule and `envelope` lookups it skips.
    fn pruned(
        &mut self,
        d: &Deployed,
        verdict: EnvelopeVerdict,
        worst_hi: TimeNs,
        envelope: u64,
    ) -> ScenarioRecord {
        let overruns = if verdict == EnvelopeVerdict::Unsafe {
            // Every period's actuation can land past the deadline.
            periods_in(self.keys.spec.base().horizon, d.ts) as usize
        } else {
            0
        };
        let classes = &mut self.lane.classes;
        let outcome = ScenarioOutcome {
            index: self.index,
            seed: d.scenario.seed,
            label: classes.label(d.class, &d.scenario, Some(verdict)),
            cost: 0.0,
            cost_ratio: 0.0,
            makespan_ns: d.schedule.makespan().as_nanos(),
            worst_actuation_ns: worst_hi.as_nanos(),
            overruns,
        };
        classes.keep_row(d.class, &outcome, Some(verdict), Some(envelope), None);
        ScenarioRecord {
            outcome,
            prune: Some(verdict),
            schedule_digest: d.digest,
            extras: None,
        }
    }

    /// Keeps a fault-free, untraced scenario's row, which ran neither
    /// validation nor verification, as its class's row when both memos
    /// are on: every later untraced scenario of the class would make
    /// the same lookups — the `envelope` (with pruning), the ideal run
    /// at `ideal`, the scheduled run `key` and its strict report entry —
    /// and yield this row, so it is served the row and owes them.
    fn keep_row(
        &mut self,
        d: &Deployed,
        outcome: &ScenarioOutcome,
        envelope: Option<u64>,
        ideal: u64,
        key: Option<u64>,
        entry: Arc<ReportEntry>,
    ) {
        let memoized = self.config.memoize_scheduled && self.config.memoize_reports;
        let Some(scheduled) = key.filter(|_| memoized) else {
            return;
        };
        let run = RowRun {
            ideal,
            scheduled,
            report: report_digest(scheduled, self.lane.scratch.upper_bound(), false),
            entry,
        };
        let prune = envelope.map(|_| EnvelopeVerdict::Inconclusive);
        let classes = &mut self.lane.classes;
        classes.keep_row(d.class, outcome, prune, envelope, Some(run));
    }

    /// Ideal run: the stroboscopic reference, memoized by the digest of
    /// the scenario's loop spec — one simulation per distinct period.
    /// The period's digest, taken here once, keys the scheduled runs too.
    fn ideal(&mut self, d: &Deployed) -> Result<(LoopAt<'s>, Arc<LoopResult>), CoreError> {
        self.lane.profile.phase(self.index, Phase::IdealSim, |_| {
            let at = self.keys.spec.at(d.ts);
            let ideal = self.caches.ideal.get_or_run_at(at)?;
            Ok((at, ideal))
        })
    }

    /// Fault plan: a pure function of `(config, schedule, arch,
    /// periods)`, so the co-simulation and the virtual executive are
    /// driven by byte-identical fault fates.
    fn fault_plan(&mut self, d: &Deployed) -> Result<FaultPlan, CoreError> {
        self.lane.profile.phase(self.index, Phase::FaultPlan, |_| {
            let periods = periods_in(self.keys.spec.base().horizon, d.ts);
            let config = d.scenario.fault_config(&self.config.faults);
            FaultPlan::generate(&config, &d.schedule, &self.base.arch, periods)
        })
    }

    /// Co-simulation: the faulty twin under a fault `plan`, the traced
    /// run of a traced scenario, the untraced nominal run otherwise.
    fn cosimulate(
        &mut self,
        d: &Deployed,
        at: LoopAt<'_>,
        plan: Option<&FaultPlan>,
        traced: bool,
    ) -> Result<Cosimulated, CoreError> {
        match plan {
            Some(plan) => self.faulty_twin(d, at, plan),
            None if traced => self.traced(d, at),
            None => {
                let (run, key) = self.untraced(d, at, None)?;
                Ok((run, Some(key), None, RecordingSink::default()))
            }
        }
    }

    /// Faulty twin: a faulty scenario runs against a fault-free twin on
    /// the same schedule (both untraced), and the degradation delta
    /// between the two, from their lenient report entries, is metrics
    /// time. A trivial plan injects nothing and its replay is
    /// bit-identical to the nominal run ([`cosim::run_scheduled_faulty`]),
    /// so the baseline serves as the replay, under the baseline's key. It
    /// traces nothing: tracing the degraded replay would double the sink
    /// for no new information.
    fn faulty_twin(
        &mut self,
        d: &Deployed,
        at: LoopAt<'_>,
        plan: &FaultPlan,
    ) -> Result<Cosimulated, CoreError> {
        let (baseline, baseline_key) = self.untraced(d, at, None)?;
        let (run, key) = if plan.is_trivial() {
            (Arc::clone(&baseline), baseline_key)
        } else {
            self.untraced(d, at, Some(plan))?
        };
        let twin = self.lane.profile.phase(self.index, Phase::Metrics, |_| {
            let bound = self.lane.scratch.upper_bound();
            let memo = self.config.memoize_reports.then_some(&self.caches.reports);
            let entry = report_entry(memo, &run, Some(key), true, bound)?;
            let baseline_entry = if key == baseline_key {
                Arc::clone(&entry)
            } else {
                report_entry(memo, &baseline, Some(baseline_key), true, bound)?
            };
            let degradation = DegradationSummary::new(
                self.index,
                plan,
                (&baseline, &baseline_entry.report),
                (&run, &entry.report),
                self.config.cost_bound_ratio,
            );
            let replay_digest = (key != baseline_key).then_some(key);
            Ok::<_, CoreError>(Twin {
                degradation,
                entry,
                replay_digest,
            })
        })?;
        Ok((run, Some(key), Some(twin), RecordingSink::default()))
    }

    /// Traced co-simulation: timeline emission, synthesis and simulation
    /// into the scenario's `s<i>:`-prefixed telemetry, all attributed to
    /// co-simulation.
    fn traced(&mut self, d: &Deployed, at: LoopAt<'_>) -> Result<Cosimulated, CoreError> {
        let (run, traces) = self.lane.profile.phase(self.index, Phase::Cosim, |_| {
            let spec2 = at.spec();
            let sink = PrefixSink::new(format!("s{}:", self.index), RecordingSink::default());
            let mut tel = Collector::new(sink);
            let (base, schedule) = (self.base, &d.schedule);
            let (alg, arch) = (&base.alg, &base.arch);
            cosim::emit_schedule_timeline(&mut tel, schedule, alg, arch, spec2.ts, spec2.horizon)?;
            let activation = Activation::scheduled(alg, &base.io, schedule, arch, None);
            let (run, _) = cosim::simulate(&spec2, activation, &mut tel, "")?;
            // Surface the hot-loop engine counters into the same stream:
            // sim-derived, deterministic, stamped at the horizon.
            let horizon_ns = TimeNs::from_secs_f64(spec2.horizon).as_nanos();
            for ev in run.stats_events(horizon_ns) {
                tel.emit(|| ev);
            }
            Ok::<_, CoreError>((run, tel.into_sink().into_inner()))
        })?;
        Ok((Arc::new(run), None, None, traces))
    }

    /// Untraced co-simulation — the nominal run, or with `plan` the
    /// faulty replay — through the scheduled-run memo with
    /// [`SweepConfig::memoize_scheduled`], fresh without it (the pre-memo
    /// pipeline the byte-identity tests pin the memo against).
    /// A miss's measured synthesis/simulation split becomes two spans; a
    /// hit charges the lookup itself to co-simulation. The run's key is
    /// its [`cosim::scheduled_run_digest`], which the report memo keys on.
    fn untraced(
        &mut self,
        d: &Deployed,
        at: LoopAt<'_>,
        plan: Option<&FaultPlan>,
    ) -> Result<(Arc<LoopResult>, u64), CoreError> {
        let (base, schedule, wp) = (self.base, &d.schedule, &mut self.lane.profile);
        let t0 = wp.last_boundary();
        let (run, key, hit, phases) = if self.config.memoize_scheduled {
            let (alg, io, arch) = (&base.alg, &base.io, &base.arch);
            let memo = &self.caches.scheduled;
            memo.get_or_run_at(at, alg, io, schedule, arch, d.digest, plan)?
        } else {
            let key = cosim::scheduled_run_digest(at.digest(), d.digest, plan);
            let activation =
                Activation::scheduled(&base.alg, &base.io, schedule, &base.arch, plan.cloned());
            let (run, phases) =
                cosim::simulate(&at.spec(), activation, &mut Collector::noop(), "")?;
            (Arc::new(run), key, false, phases)
        };
        let end = wp.boundary();
        if hit {
            wp.push_span(self.index, Phase::Cosim, t0, end);
        } else {
            // The co-simulation phase also takes the run's keying and
            // memo bookkeeping after the simulation proper.
            let synthesized = (t0 + phases.synthesis_wall_ns).min(end);
            wp.push_span(self.index, Phase::Synthesis, t0, synthesized);
            wp.push_span(self.index, Phase::Cosim, synthesized, end);
        }
        Ok((run, key))
    }

    /// Metrics: the latency report (through the report memo with
    /// [`SweepConfig::memoize_reports`]; a faulty scenario's twin already
    /// fetched its lenient `entry`), merged into the lane's scratch
    /// histogram, and the report row. The runs are
    /// freed here, so their teardown is metrics time; the report entry
    /// is returned for static verification and the class's row.
    fn metrics(
        &mut self,
        d: &Deployed,
        run: Arc<LoopResult>,
        key: Option<u64>,
        entry: Option<Arc<ReportEntry>>,
        ideal: Arc<LoopResult>,
    ) -> Result<(ScenarioOutcome, Arc<ReportEntry>), CoreError> {
        self.lane.profile.phase(self.index, Phase::Metrics, |_| {
            let config = self.config;
            let bound = self.lane.scratch.upper_bound();
            let entry = match entry {
                Some(entry) => entry,
                None => {
                    let memo = config.memoize_reports.then_some(&self.caches.reports);
                    report_entry(memo, &run, key, false, bound)?
                }
            };
            self.lane.scratch.merge(&entry.hist);
            let outcome = ScenarioOutcome {
                index: self.index,
                seed: d.scenario.seed,
                label: self.lane.classes.label(d.class, &d.scenario, None),
                cost: run.cost,
                cost_ratio: run.cost / ideal.cost,
                makespan_ns: d.schedule.makespan().as_nanos(),
                worst_actuation_ns: entry.worst_actuation_ns,
                overruns: entry.overruns,
            };
            drop(run);
            drop(ideal);
            Ok::<_, CoreError>((outcome, entry))
        })
    }

    /// Validation: executes the generated executives on the virtual
    /// machine under the *same* fault plan the co-simulation used, and
    /// diffs the completion instants op by op against the delay-graph
    /// prediction: `(is_exact, max divergence ns)`.
    fn validation(
        &mut self,
        d: &Deployed,
        plan: Option<&FaultPlan>,
    ) -> Result<(bool, i64), CoreError> {
        self.lane.profile.phase(self.index, Phase::Validation, |_| {
            let (alg, arch, schedule) = (&self.base.alg, &self.base.arch, &d.schedule);
            let generated = codegen::generate(schedule, alg, arch).map_err(CoreError::from)?;
            let period = TimeNs::from_secs_f64(d.ts);
            let periods = periods_in(self.keys.spec.base().horizon, d.ts);
            let opts = ExecOptions {
                period,
                periods,
                faults: plan,
            };
            let measured = ecl_exec::run(&generated, arch, schedule, &opts).map_err(|e| {
                CoreError::InvalidInput {
                    reason: format!("virtual executive of scenario {}: {e}", self.index),
                }
            })?;
            let predicted =
                xval::predict_op_completions(alg, arch, schedule, period, periods, plan)?;
            let report = xval::validate_schedule(&measured.timeline(), &predicted, alg)?;
            Ok((report.is_exact(), report.max_divergence_ns()))
        })
    }

    /// Verification: every `ecl-verify` pass over the scenario's
    /// schedule, then soundness — the static `Ls`/`La` bounds must
    /// dominate every latency the co-simulation measured.
    fn verification(
        &mut self,
        d: &Deployed,
        db: &TimingDb,
        report: &ReportEntry,
        plan: Option<&FaultPlan>,
    ) -> Result<(usize, usize, Option<i64>), CoreError> {
        let index = self.index;
        self.lane.profile.phase(index, Phase::Verification, |_| {
            let (base, period) = (self.base, TimeNs::from_secs_f64(d.ts));
            let (alg, arch) = (&base.alg, &base.arch);
            let vreport = ecl_verify::verify(alg, arch, db, &d.schedule, period, plan)
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
            Ok((
                vreport.count(ecl_verify::Severity::Error),
                vreport.count(ecl_verify::Severity::Warn),
                margin,
            ))
        })
    }
}

//! Concurrent virtual distributed executive.
//!
//! The AAA pipeline generates, per processor, a synchronized instruction
//! sequence ([`ecl_aaa::codegen::Executive`]) and, per medium, a total
//! order of transfers ([`ecl_aaa::codegen::MediumSequence`]). The graph
//! of delays (`ecl_core::delays`) *predicts* when each operation of that
//! code would complete; this crate *measures* it by actually running the
//! generated code: [`run`] launches one OS thread per processor and one
//! per medium, synchronized through rendezvous boards keyed on
//! `(period, producer, sender, medium)`.
//!
//! # The virtual-clock protocol
//!
//! No thread ever reads a wall clock. Each processor thread carries a
//! *local virtual clock* that restarts at `k·P` each period `k`,
//! advances by the WCET on every `Compute`, and max-merges with the
//! transfer's arrival instant on every `Recv`; a `Send` posts the
//! producer's data stamped with the local clock (posting is
//! non-blocking, as in the generated code). Each medium thread replays
//! its communication sequence in order: a transfer starts at
//! `max(data ready, medium free)` and arrives after the medium's
//! latency-plus-rate time. Every timestamp is therefore a pure max/plus
//! fold over the executives, the architecture timing and the fault
//! plan — the OS scheduler decides only *when* the folds happen, never
//! their *values*, so runs are byte-deterministic and wall-clock-free
//! at any level of genuine hardware parallelism.
//!
//! # Fault semantics
//!
//! An optional [`FaultPlan`] — the same plan that drives the graph of
//! delays' `FaultyDelay` blocks — drives the boards: a dropped transfer
//! posts no arrival (its consumers and the medium's next slot are
//! *forced* at the period's deadline
//! `k·P + P − 1ns`, mirroring the graph's `Synchronization` timeout
//! arms), a retried transfer stretches by `retries · retry cost`, and a
//! dead processor executes nothing from its failure period on. Because
//! every fate is precomputed from the shared plan, a receive knows
//! *before blocking* whether its arrival will ever be posted — the VM
//! cannot hang on an injected fault.
//!
//! Divergence boundaries (where the VM is *not* expected to mirror the
//! graph of delays) are documented in `DESIGN.md` §9: completions
//! crossing a period's deadline pollute the graph's synchronization
//! flags for the next window, while the VM scopes every rendezvous to
//! its own period.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::{Condvar, Mutex};

use ecl_aaa::codegen::{check_deadlock_free, Executive, Generated, Instr, MediumSequence};
use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, MediumId, OpId, ProcId, Schedule, TimeNs};
use ecl_core::faults::{CommFault, FaultPlan};
use ecl_core::xval::OpTimeline;
use ecl_telemetry::Event;

/// How to drive a [`run`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions<'a> {
    /// The sampling period `P` the infinite loop is re-entered at.
    pub period: TimeNs,
    /// How many periods to execute.
    pub periods: u32,
    /// Optional fault plan; a trivial (or absent) plan runs nominally.
    pub faults: Option<&'a FaultPlan>,
}

/// Why a [`run`] refused to launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The executives fail the pre-launch deadlock check; the message
    /// names the blocked receives and the wait cycle.
    Deadlock(String),
    /// The executives, communication sequences and schedule are
    /// mutually inconsistent (a receive with no matching transfer, a
    /// transfer with no matching send, sequences that do not match the
    /// schedule's medium orders, a non-positive period).
    InvalidInput(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Deadlock(d) => write!(f, "executives would hang: {d}"),
            ExecError::InvalidInput(r) => write!(f, "invalid executive input: {r}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One measured computation: operation `op` ran on `proc` in period
/// `period` over `[start, end)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation computed.
    pub op: OpId,
    /// The hosting processor.
    pub proc: ProcId,
    /// The period index `k`.
    pub period: u32,
    /// Virtual start instant.
    pub start: TimeNs,
    /// Virtual completion instant (`start + wcet`).
    pub end: TimeNs,
    /// `true` if an input never arrived (or arrived past the deadline)
    /// and the computation was forced at `k·P + P − 1ns` on stale data.
    pub forced: bool,
}

/// One measured transfer over a medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRecord {
    /// Producer whose data moved.
    pub src_op: OpId,
    /// The carrying medium.
    pub medium: MediumId,
    /// Sending processor.
    pub from: ProcId,
    /// Scheduled receiving processor.
    pub to: ProcId,
    /// The period index `k`.
    pub period: u32,
    /// Virtual activation instant of the transfer.
    pub start: TimeNs,
    /// Virtual arrival instant (including retransmissions).
    pub end: TimeNs,
}

/// Everything a [`run`] measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRun {
    /// The period the run was driven at.
    pub period: TimeNs,
    /// Number of periods executed.
    pub periods: u32,
    /// Every computation, grouped by processor (in processor order),
    /// each group in execution order.
    pub ops: Vec<OpRecord>,
    /// Every completed (non-dropped) transfer, grouped by medium (in
    /// medium order), each group in sequence order.
    pub comms: Vec<CommRecord>,
}

impl ExecRun {
    /// The run horizon `periods · period`.
    pub fn horizon(&self) -> TimeNs {
        self.period * i64::from(self.periods)
    }

    /// Completion instants of `op`, ascending, truncated to the horizon.
    pub fn op_completions(&self, op: OpId) -> Vec<TimeNs> {
        let horizon = self.horizon();
        let mut v: Vec<TimeNs> = self
            .ops
            .iter()
            .filter(|r| r.op == op && r.end < horizon)
            .map(|r| r.end)
            .collect();
        v.sort();
        v
    }

    /// The measured per-operation completion timeline, in the shape the
    /// cross-validation ([`ecl_core::xval::validate_schedule`]) compares
    /// against the graph-of-delays prediction.
    pub fn timeline(&self) -> OpTimeline {
        let horizon = self.horizon();
        let mut series: Vec<(OpId, Vec<TimeNs>)> = Vec::new();
        for r in &self.ops {
            if r.end >= horizon {
                continue;
            }
            match series.iter_mut().find(|(op, _)| *op == r.op) {
                Some((_, s)) => s.push(r.end),
                None => series.push((r.op, vec![r.end])),
            }
        }
        for (_, s) in &mut series {
            s.sort();
        }
        series.sort_by_key(|(op, _)| op.index());
        OpTimeline {
            period: self.period,
            periods: self.periods,
            series,
        }
    }

    /// Exports the run as telemetry slices (virtual-time spans): one
    /// `vm:proc:<name>` track per processor, one `vm:bus:<name>` track
    /// per medium — the measured counterpart of `ecl_aaa::timeline`.
    pub fn trace_events(&self, alg: &AlgorithmGraph, arch: &ArchitectureGraph) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.ops.len() + self.comms.len());
        for r in &self.ops {
            events.push(Event::Slice {
                track: format!("vm:proc:{}", arch.proc_name(r.proc)),
                name: alg.name(r.op).to_string(),
                start_ns: r.start.as_nanos(),
                end_ns: r.end.as_nanos(),
            });
        }
        for c in &self.comms {
            events.push(Event::Slice {
                track: format!("vm:bus:{}", arch.medium_name(c.medium)),
                name: format!(
                    "{}:{}->{}",
                    alg.name(c.src_op),
                    arch.proc_name(c.from),
                    arch.proc_name(c.to)
                ),
                start_ns: c.start.as_nanos(),
                end_ns: c.end.as_nanos(),
            });
        }
        events
    }
}

/// A rendezvous board: the first post for a key wins (matching the
/// replay's `or_insert` semantics), waiters block on the condvar until
/// their key appears.
#[derive(Default)]
struct Board {
    map: Mutex<HashMap<(u32, OpId, ProcId, MediumId), TimeNs>>,
    cv: Condvar,
}

impl Board {
    fn post(&self, key: (u32, OpId, ProcId, MediumId), t: TimeNs) {
        let mut map = self.map.lock().expect("board poisoned");
        map.entry(key).or_insert(t);
        self.cv.notify_all();
    }

    fn wait(&self, key: (u32, OpId, ProcId, MediumId)) -> TimeNs {
        let mut map = self.map.lock().expect("board poisoned");
        loop {
            if let Some(&t) = map.get(&key) {
                return t;
            }
            map = self.cv.wait(map).expect("board poisoned");
        }
    }
}

/// Executes the generated code concurrently for `opts.periods` periods
/// and returns every measured computation and transfer.
///
/// `schedule` must be the schedule the executives were generated from:
/// it carries the per-medium transfer order and slot durations that the
/// fault plan's fates are indexed by (the same indexing the graph of
/// delays uses, so a shared plan drives both models identically).
///
/// # Errors
///
/// * [`ExecError::Deadlock`] if the pre-launch [`check_deadlock_free`]
///   finds a cyclic or orphan wait — nothing is spawned;
/// * [`ExecError::InvalidInput`] if the executives, sequences and
///   schedule are mutually inconsistent (which could otherwise hang a
///   board wait forever).
pub fn run(
    generated: &Generated,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    opts: &ExecOptions<'_>,
) -> Result<ExecRun, ExecError> {
    if opts.period <= TimeNs::ZERO {
        return Err(ExecError::InvalidInput(format!(
            "period {} is not positive",
            opts.period
        )));
    }
    let check = check_deadlock_free(&generated.executives);
    if !check.is_free() {
        return Err(ExecError::Deadlock(check.to_string()));
    }
    let slot_index = map_slots_to_schedule(generated, schedule)?;
    // Transfers delivering each (producer, sender, medium) key, as
    // global communication indices — the fate lookup for receives.
    let mut delivering: HashMap<(OpId, ProcId, MediumId), Vec<usize>> = HashMap::new();
    for (si, seq) in generated.comm_sequences.iter().enumerate() {
        for (pos, t) in seq.transfers.iter().enumerate() {
            delivering
                .entry((t.src_op, t.from, seq.medium))
                .or_default()
                .push(slot_index[si][pos]);
        }
    }
    for e in &generated.executives {
        for ins in &e.instrs {
            if let Instr::Recv {
                src_op,
                medium,
                from,
            } = *ins
            {
                if !delivering.contains_key(&(src_op, from, medium)) {
                    return Err(ExecError::InvalidInput(format!(
                        "{} receives {} from {} on {} but no transfer delivers it",
                        e.proc, src_op, from, medium
                    )));
                }
            }
        }
    }
    for seq in &generated.comm_sequences {
        for t in &seq.transfers {
            let sent = generated.executives.iter().any(|e| {
                e.proc == t.from
                    && e.instrs.iter().any(|i| {
                        matches!(i, Instr::Send { src_op, medium, .. }
                            if *src_op == t.src_op && *medium == seq.medium)
                    })
            });
            if !sent {
                return Err(ExecError::InvalidInput(format!(
                    "transfer of {} from {} on {} has no matching send",
                    t.src_op, t.from, seq.medium
                )));
            }
        }
    }

    let plan: Option<&FaultPlan> = opts.faults.filter(|p| !p.is_trivial());
    let posted = Board::default();
    let arrived = Board::default();
    let (period, periods) = (opts.period, opts.periods);

    let (ops, comms) = std::thread::scope(|scope| {
        let proc_handles: Vec<_> = generated
            .executives
            .iter()
            .map(|e| {
                let (posted, arrived, delivering) = (&posted, &arrived, &delivering);
                scope.spawn(move || {
                    run_processor(e, plan, delivering, posted, arrived, period, periods)
                })
            })
            .collect();
        let comm_handles: Vec<_> = generated
            .comm_sequences
            .iter()
            .zip(&slot_index)
            .map(|(seq, slots)| {
                let (posted, arrived) = (&posted, &arrived);
                scope.spawn(move || {
                    run_medium(
                        seq, slots, schedule, arch, plan, posted, arrived, period, periods,
                    )
                })
            })
            .collect();
        // Joining in spawn order makes the record concatenation (and so
        // the whole `ExecRun`) independent of thread scheduling.
        let ops = proc_handles
            .into_iter()
            .flat_map(|h| h.join().expect("processor thread panicked"))
            .collect();
        let comms = comm_handles
            .into_iter()
            .flat_map(|h| h.join().expect("medium thread panicked"))
            .collect();
        (ops, comms)
    });
    Ok(ExecRun {
        period,
        periods,
        ops,
        comms,
    })
}

/// Maps every medium-sequence slot to its global index in
/// `schedule.comms()` — the indexing fault fates use — and verifies the
/// sequences are exactly the schedule's per-medium orders.
fn map_slots_to_schedule(
    generated: &Generated,
    schedule: &Schedule,
) -> Result<Vec<Vec<usize>>, ExecError> {
    let mut slot_index = Vec::with_capacity(generated.comm_sequences.len());
    for seq in &generated.comm_sequences {
        let scheduled: Vec<usize> = schedule
            .comms()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.medium == seq.medium)
            .map(|(i, _)| i)
            .collect();
        if scheduled.len() != seq.transfers.len() {
            return Err(ExecError::InvalidInput(format!(
                "medium {} sequences {} transfers but the schedule has {}",
                seq.medium,
                seq.transfers.len(),
                scheduled.len()
            )));
        }
        for (&i, t) in scheduled.iter().zip(&seq.transfers) {
            let c = &schedule.comms()[i];
            if c.src_op != t.src_op || c.from != t.from || c.to != t.to {
                return Err(ExecError::InvalidInput(format!(
                    "transfer of {} from {} on {} does not match schedule slot {}",
                    t.src_op, t.from, seq.medium, i
                )));
            }
        }
        slot_index.push(scheduled);
    }
    Ok(slot_index)
}

fn run_processor(
    exec: &Executive,
    plan: Option<&FaultPlan>,
    delivering: &HashMap<(OpId, ProcId, MediumId), Vec<usize>>,
    posted: &Board,
    arrived: &Board,
    period: TimeNs,
    periods: u32,
) -> Vec<OpRecord> {
    let mut records = Vec::new();
    let dead_from = plan.and_then(|p| p.proc_dead_from(exec.proc.index()));
    for k in 0..periods {
        if dead_from.is_some_and(|d| k >= d) {
            continue; // dead: computes nothing, posts nothing
        }
        let origin = period * i64::from(k);
        let deadline = origin + period - TimeNs::from_nanos(1);
        let mut local = origin;
        let mut forced = false;
        for ins in &exec.instrs {
            match *ins {
                Instr::Recv {
                    src_op,
                    medium,
                    from,
                } => {
                    // The fate of every delivering transfer is known
                    // from the shared plan before blocking: if none
                    // arrives this period, don't wait for a post that
                    // will never come.
                    let fated = plan.is_none_or(|p| {
                        delivering[&(src_op, from, medium)]
                            .iter()
                            .any(|&i| p.comm_fault(i, k) != CommFault::Drop)
                    });
                    if !fated {
                        forced = true;
                    } else {
                        let t = arrived.wait((k, src_op, from, medium));
                        if plan.is_some() && t > deadline {
                            forced = true; // arrived past the deadline
                        } else {
                            local = local.max(t);
                        }
                    }
                }
                Instr::Compute { op, wcet } => {
                    let start = if forced { deadline } else { local };
                    let end = start + wcet;
                    records.push(OpRecord {
                        op,
                        proc: exec.proc,
                        period: k,
                        start,
                        end,
                        forced,
                    });
                    local = end;
                    forced = false;
                }
                Instr::Send { src_op, medium, .. } => {
                    posted.post((k, src_op, exec.proc, medium), local);
                }
            }
        }
    }
    records
}

#[allow(clippy::too_many_arguments)]
fn run_medium(
    seq: &MediumSequence,
    slots: &[usize],
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    plan: Option<&FaultPlan>,
    posted: &Board,
    arrived: &Board,
    period: TimeNs,
    periods: u32,
) -> Vec<CommRecord> {
    let mut records = Vec::new();
    for k in 0..periods {
        let origin = period * i64::from(k);
        let deadline = origin + period - TimeNs::from_nanos(1);
        // Completion of the previous slot this period (the period clock
        // for the first); `None` after a dropped slot, whose missing
        // rendezvous arm forces the next slot at the deadline — exactly
        // the graph of delays' wiring.
        let mut prev: Option<TimeNs> = Some(origin);
        for (pos, t) in seq.transfers.iter().enumerate() {
            let i = slots[pos];
            let fate = plan.map_or(CommFault::Ok, |p| p.comm_fault(i, k));
            if fate == CommFault::Drop {
                prev = None;
                continue; // swallowed: no arrival is ever posted
            }
            let ready = posted.wait((k, t.src_op, t.from, seq.medium));
            let start = match prev {
                Some(p) if plan.is_none() => p.max(ready),
                Some(p) if ready <= deadline && p <= deadline => p.max(ready),
                _ => deadline,
            };
            let slot = &schedule.comms()[i];
            let mut end = start + (slot.end - slot.start);
            if let CommFault::Retry(r) = fate {
                let cost = schedule.comm_retry_cost(arch, i).unwrap_or(TimeNs::ZERO);
                end += cost * i64::from(r);
            }
            arrived.post((k, t.src_op, t.from, seq.medium), end);
            records.push(CommRecord {
                src_op: t.src_op,
                medium: seq.medium,
                from: t.from,
                to: t.to,
                period: k,
                start,
                end,
            });
            prev = Some(end);
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::codegen::{generate, DeadlockCheck};
    use ecl_aaa::{adequation, AdequationOptions, TimingDb};
    use ecl_core::faults::FaultConfig;
    use ecl_core::xval::{predict_op_completions, validate_schedule};

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    /// The delays-module fixture: sensor `s` on p0 (100us), function `f`
    /// on p1 (200us), one 2-unit transfer over a 10us+5us/unit bus —
    /// scheduled s 0..100, comm 100..120, f 120..320.
    fn fixture() -> (
        AlgorithmGraph,
        ArchitectureGraph,
        Schedule,
        Generated,
        OpId,
        OpId,
    ) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f = alg.add_function("f");
        alg.add_edge(s, f, 2).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let p1 = arch.add_processor("p1", "arm");
        arch.add_bus("bus", &[p0, p1], us(10), us(5)).unwrap();
        let mut db = TimingDb::new();
        db.set(s, p0, us(100));
        db.set(f, p1, us(200));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        let generated = generate(&schedule, &alg, &arch).unwrap();
        assert_eq!(
            check_deadlock_free(&generated.executives),
            DeadlockCheck::Free
        );
        (alg, arch, schedule, generated, s, f)
    }

    fn nominal(periods: u32) -> ExecOptions<'static> {
        ExecOptions {
            period: TimeNs::from_millis(1),
            periods,
            faults: None,
        }
    }

    #[test]
    fn nominal_run_reproduces_schedule_instants() {
        let (_, arch, schedule, generated, s, f) = fixture();
        let run = run(&generated, &arch, &schedule, &nominal(3)).unwrap();
        assert_eq!(run.op_completions(s), vec![us(100), us(1100), us(2100)]);
        assert_eq!(run.op_completions(f), vec![us(320), us(1320), us(2320)]);
        // Transfers occupy [s done, s done + 20us) each period.
        assert_eq!(run.comms.len(), 3);
        assert_eq!(run.comms[0].start, us(100));
        assert_eq!(run.comms[0].end, us(120));
        assert!(run.ops.iter().all(|r| !r.forced));
    }

    #[test]
    fn nominal_run_matches_delay_graph_prediction() {
        let (alg, arch, schedule, generated, _, _) = fixture();
        let opts = nominal(3);
        let measured = run(&generated, &arch, &schedule, &opts).unwrap().timeline();
        let predicted =
            predict_op_completions(&alg, &arch, &schedule, opts.period, opts.periods, None)
                .unwrap();
        let rep = validate_schedule(&measured, &predicted, &alg).unwrap();
        assert!(rep.is_exact(), "{}", rep.render());
    }

    #[test]
    fn runs_are_deterministic_across_invocations() {
        let (_, arch, schedule, generated, _, _) = fixture();
        let a = run(&generated, &arch, &schedule, &nominal(5)).unwrap();
        let b = run(&generated, &arch, &schedule, &nominal(5)).unwrap();
        assert_eq!(a, b);
    }

    /// Scans seeds for a plan whose single comm slot has the wanted
    /// fates over the first periods.
    fn plan_where(
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        config: &FaultConfig,
        periods: u32,
        want: impl Fn(&FaultPlan) -> bool,
    ) -> FaultPlan {
        for seed in 0..512 {
            let cfg = FaultConfig { seed, ..*config };
            let plan = FaultPlan::generate(&cfg, schedule, arch, periods).unwrap();
            if want(&plan) {
                return plan;
            }
        }
        panic!("no seed produced the wanted plan");
    }

    #[test]
    fn dropped_frame_forces_consumer_at_deadline() {
        let (alg, arch, schedule, generated, s, f) = fixture();
        // Certain frame loss: every attempt fails, every period drops.
        let config = FaultConfig {
            frame_loss_rate: 1.0,
            max_retries: 1,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, &schedule, &arch, 2).unwrap();
        assert_eq!(plan.comm_fault(0, 0), CommFault::Drop);
        let opts = ExecOptions {
            period: TimeNs::from_millis(1),
            periods: 2,
            faults: Some(&plan),
        };
        let run = run(&generated, &arch, &schedule, &opts).unwrap();
        // s is unaffected; f is forced at kP + P − 1ns, so only the
        // period-0 instance completes inside the horizon — the exact
        // instants the graph of delays pins in its own tests.
        assert_eq!(run.op_completions(s), vec![us(100), us(1100)]);
        assert_eq!(run.op_completions(f), vec![TimeNs::from_nanos(1_199_999)]);
        assert!(run.comms.is_empty());
        let predicted = predict_op_completions(
            &alg,
            &arch,
            &schedule,
            opts.period,
            opts.periods,
            Some(&plan),
        )
        .unwrap();
        let rep = validate_schedule(&run.timeline(), &predicted, &alg).unwrap();
        assert!(rep.is_exact(), "{}", rep.render());
    }

    #[test]
    fn retried_frame_stretches_arrival() {
        let (alg, arch, schedule, generated, _, f) = fixture();
        let config = FaultConfig {
            frame_loss_rate: 0.5,
            max_retries: 3,
            ..FaultConfig::default()
        };
        let plan = plan_where(&schedule, &arch, &config, 1, |p| {
            p.comm_fault(0, 0) == CommFault::Retry(1)
        });
        let opts = ExecOptions {
            period: TimeNs::from_millis(1),
            periods: 1,
            faults: Some(&plan),
        };
        let run = run(&generated, &arch, &schedule, &opts).unwrap();
        // One retransmission: arrival 120us + 20us, f done at 340us.
        assert_eq!(run.op_completions(f), vec![us(340)]);
        assert_eq!(run.comms[0].end, us(140));
        let predicted = predict_op_completions(
            &alg,
            &arch,
            &schedule,
            opts.period,
            opts.periods,
            Some(&plan),
        )
        .unwrap();
        let rep = validate_schedule(&run.timeline(), &predicted, &alg).unwrap();
        assert!(rep.is_exact(), "{}", rep.render());
    }

    #[test]
    fn dead_processor_degrades_consumer_every_period() {
        let (alg, arch, schedule, generated, s, f) = fixture();
        let config = FaultConfig {
            proc_dropout_rate: 0.5,
            ..FaultConfig::default()
        };
        let plan = plan_where(&schedule, &arch, &config, 3, |p| {
            p.proc_dead_from(0) == Some(0) && p.proc_dead_from(1).is_none()
        });
        let opts = ExecOptions {
            period: TimeNs::from_millis(1),
            periods: 3,
            faults: Some(&plan),
        };
        let run = run(&generated, &arch, &schedule, &opts).unwrap();
        // p0 is dead from period 0: s never runs, f is forced at every
        // deadline — completions at kP + (P − 1ns) + 200us, the last
        // falling outside the horizon.
        assert!(run.op_completions(s).is_empty());
        assert_eq!(
            run.op_completions(f),
            vec![TimeNs::from_nanos(1_199_999), TimeNs::from_nanos(2_199_999)]
        );
        let predicted = predict_op_completions(
            &alg,
            &arch,
            &schedule,
            opts.period,
            opts.periods,
            Some(&plan),
        )
        .unwrap();
        let rep = validate_schedule(&run.timeline(), &predicted, &alg).unwrap();
        assert!(rep.is_exact(), "{}", rep.render());
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let (_, arch, schedule, generated, _, _) = fixture();
        let config = FaultConfig {
            seed: 7,
            frame_loss_rate: 0.4,
            proc_dropout_rate: 0.1,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, &schedule, &arch, 8).unwrap();
        let opts = ExecOptions {
            period: TimeNs::from_millis(1),
            periods: 8,
            faults: Some(&plan),
        };
        let a = run(&generated, &arch, &schedule, &opts).unwrap();
        let b = run(&generated, &arch, &schedule, &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trivial_plan_is_byte_identical_to_nominal() {
        let (_, arch, schedule, generated, _, _) = fixture();
        let plan = FaultPlan::trivial(4);
        let opts = ExecOptions {
            period: TimeNs::from_millis(1),
            periods: 4,
            faults: Some(&plan),
        };
        let faulty = run(&generated, &arch, &schedule, &opts).unwrap();
        let plain = run(&generated, &arch, &schedule, &nominal(4)).unwrap();
        assert_eq!(faulty, plain);
    }

    #[test]
    fn trace_events_cover_every_record() {
        let (alg, arch, schedule, generated, _, _) = fixture();
        let run = run(&generated, &arch, &schedule, &nominal(2)).unwrap();
        let events = run.trace_events(&alg, &arch);
        assert_eq!(events.len(), run.ops.len() + run.comms.len());
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Slice { track, name, .. } if track == "vm:proc:p1" && name == "f"
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::Slice { track, .. } if track == "vm:bus:bus"
        )));
    }

    #[test]
    fn deadlocked_executives_are_rejected_before_launch() {
        let (_, arch, schedule, _, s, f) = fixture();
        let procs: Vec<ProcId> = arch.processors().collect();
        let m = arch.media().next().unwrap();
        // Crossed receives: each processor first waits for data the
        // other only sends afterwards.
        let crossed = |own: OpId, own_proc: ProcId, want: OpId, want_from: ProcId| Executive {
            proc: own_proc,
            instrs: vec![
                Instr::Recv {
                    src_op: want,
                    medium: m,
                    from: want_from,
                },
                Instr::Send {
                    src_op: own,
                    medium: m,
                    to: want_from,
                },
            ],
        };
        let g = Generated {
            executives: vec![
                crossed(s, procs[0], f, procs[1]),
                crossed(f, procs[1], s, procs[0]),
            ],
            comm_sequences: vec![],
        };
        let err = run(&g, &arch, &schedule, &nominal(1)).unwrap_err();
        let ExecError::Deadlock(msg) = err else {
            panic!("expected deadlock, got {err:?}");
        };
        assert!(msg.contains("cycle"), "{msg}");
    }

    #[test]
    fn inconsistent_sequences_are_rejected() {
        let (_, arch, schedule, generated, _, _) = fixture();
        // Orphan transfer: sequence slot with no matching send. Drop
        // both endpoints (keeping the Recv would trip the deadlock
        // check first).
        let mut g = generated.clone();
        g.executives[0]
            .instrs
            .retain(|i| !matches!(i, Instr::Send { .. }));
        g.executives[1]
            .instrs
            .retain(|i| !matches!(i, Instr::Recv { .. }));
        assert!(matches!(
            run(&g, &arch, &schedule, &nominal(1)),
            Err(ExecError::InvalidInput(_))
        ));
        // Sequence/schedule mismatch: an extra fabricated transfer.
        let mut g = generated.clone();
        let slot = g.comm_sequences[0].transfers[0];
        g.comm_sequences[0].transfers.push(slot);
        // The duplicated transfer also needs a recv-side check to fail
        // first on the count mismatch.
        assert!(matches!(
            run(&g, &arch, &schedule, &nominal(1)),
            Err(ExecError::InvalidInput(_))
        ));
        // Non-positive period.
        assert!(matches!(
            run(
                &generated,
                &arch,
                &schedule,
                &ExecOptions {
                    period: TimeNs::ZERO,
                    periods: 1,
                    faults: None
                }
            ),
            Err(ExecError::InvalidInput(_))
        ));
    }
}

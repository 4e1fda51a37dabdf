//! Graph-of-delays synthesis (paper §3.2).
//!
//! Given the static schedule produced by the adequation, this module
//! builds, inside an `ecl-sim` [`Model`], the Scicos event sub-graph that
//! replays the schedule's temporal behaviour:
//!
//! * **Sequencing** (§3.2.1, Fig. 4) — every computation and communication
//!   slot becomes an [`EventDelay`] whose duration is the slot's length;
//!   chaining the delays in schedule order reproduces each operation's
//!   start and completion instants.
//! * **Synchronization** (§3.2.3) — when an operation must wait for both
//!   its processor predecessor *and* data arriving over a medium, a
//!   [`Synchronization`] block joins the corresponding completion events;
//!   it fires at the *latest* of them, exactly like the rendezvous in the
//!   generated executive.
//! * **Conditioning** (§3.2.2, Fig. 5) — operations conditioned on a
//!   branch variable are routed through an [`EventSelect`] whose
//!   *condition mapping* reads a regular signal of the model; each branch
//!   gets its own delay chain, so branches of unequal execution time
//!   produce the activation jitter the paper warns about.
//!
//! The returned [`DelayGraph`] exposes, for every operation, the event
//! that marks its completion; connecting the completion events of sensor
//! and actuator operations to the model's Sample/Hold blocks makes the
//! co-simulation sample and actuate at the implementation's instants — the
//! `I_j(k)` and `O_j(k)` of the paper's equations (1)–(2).

use std::collections::HashMap;

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, OpId, Schedule, TimeNs};
use ecl_blocks::{
    add_clock, ConditionMapping, EventDelay, EventSelect, FaultyDelay, Synchronization,
};
use ecl_sim::{BlockId, Model};

use crate::faults::FaultPlan;
use crate::CoreError;

/// Where a condition variable's value can be read in the model, and how it
/// maps to a branch index.
pub struct ConditionSource {
    /// Block whose regular output carries the condition value.
    pub block: BlockId,
    /// Output port index on that block.
    pub output: usize,
    /// Condition mapping (paper §3.2.2): value → branch index.
    pub mapping: ConditionMapping,
}

impl std::fmt::Debug for ConditionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConditionSource")
            .field("block", &self.block)
            .field("output", &self.output)
            .finish()
    }
}

/// Configuration of the synthesis.
#[derive(Debug, Default)]
pub struct DelayGraphConfig {
    /// One [`ConditionSource`] per condition variable of the algorithm
    /// graph. Required iff the graph has conditioned operations.
    pub condition_sources: HashMap<OpId, ConditionSource>,
    /// Optional fault plan (see [`crate::faults`]). A trivial (or absent)
    /// plan takes the exact nominal synthesis path — same blocks, same
    /// wiring, byte-identical behaviour. A non-trivial plan swaps
    /// [`FaultyDelay`] blocks in for faulted slots and arms every
    /// [`Synchronization`] with a timeout so a dead predecessor degrades
    /// the period instead of deadlocking it.
    pub faults: Option<FaultPlan>,
}

/// Room for a block or probe name: `format!` sizes its buffer from the
/// literal pieces alone and regrows it for every longer name.
const NAME_CAPACITY: usize = 48;

/// `args` as a block or probe name, in one allocation up to
/// [`NAME_CAPACITY`] bytes.
pub(crate) fn name(args: std::fmt::Arguments<'_>) -> String {
    let mut s = String::with_capacity(NAME_CAPACITY);
    std::fmt::Write::write_fmt(&mut s, args).expect("a String accepts every write");
    s
}

/// An event source: `(block, event output)`.
type EventSrc = (BlockId, usize);

/// The synthesized graph of delays.
#[derive(Debug)]
pub struct DelayGraph {
    /// The period clock driving the whole structure.
    pub clock: BlockId,
    /// Per-operation completion event (the operation's own delay block),
    /// indexed by [`OpId::index`]; `None` for an unscheduled operation.
    op_done: Vec<Option<EventSrc>>,
    /// The `EventSelect` block of each condition variable, for inspection.
    selectors: Vec<(OpId, BlockId)>,
}

impl DelayGraph {
    /// The event `(block, event output)` marking `op`'s completion.
    ///
    /// For a conditioned operation this event only fires on periods where
    /// its branch is selected.
    pub fn completion(&self, op: OpId) -> Option<(BlockId, usize)> {
        self.op_done.get(op.index()).copied().flatten()
    }

    /// Connects `op`'s completion event to event input `port` of `target`
    /// — the call that re-activates a Sample/Hold or controller block at
    /// the implementation's instant.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] for an unknown operation, and
    /// propagates wiring errors.
    pub fn activate_on_completion(
        &self,
        model: &mut Model,
        op: OpId,
        target: BlockId,
        port: usize,
    ) -> Result<(), CoreError> {
        let (b, o) = self.completion(op).ok_or_else(|| CoreError::InvalidInput {
            reason: format!("operation {op} is not part of the delay graph"),
        })?;
        model.connect_event(b, o, target, port)?;
        Ok(())
    }

    /// The `EventSelect` synthesized for condition variable `var`, if any.
    pub fn selector(&self, var: OpId) -> Option<BlockId> {
        self.selectors
            .iter()
            .find(|&&(v, _)| v == var)
            .map(|&(_, b)| b)
    }
}

/// Joins one or more event sources onto `target`'s event input `port`.
///
/// A single source connects directly; several sources go through a fresh
/// [`Synchronization`] block named `sync_{label}` (the rendezvous fires at
/// the latest source). Sources listed as alternatives (`any_of`) are
/// merged onto the same synchronization input. With a `timeout` event
/// source the barrier gets a timeout arm wired to it, so a source that
/// never fires (fault injection) forces the rendezvous at the end of the
/// period instead of deadlocking every following period.
fn join(
    model: &mut Model,
    label: std::fmt::Arguments<'_>,
    sources: &[&[EventSrc]],
    target: BlockId,
    port: usize,
    timeout: Option<EventSrc>,
) -> Result<(), CoreError> {
    match sources.len() {
        0 => Err(CoreError::InvalidInput {
            reason: format!("'{label}' has no activation source"),
        }),
        1 => {
            for &(b, o) in sources[0] {
                model.connect_event(b, o, target, port)?;
            }
            Ok(())
        }
        n => {
            let sync = match timeout {
                None => {
                    model.add_block(name(format_args!("sync_{label}")), Synchronization::new(n)?)
                }
                Some((tb, to)) => {
                    let sync = model.add_block(
                        name(format_args!("sync_{label}")),
                        Synchronization::with_timeout(n)?,
                    );
                    model.connect_event(tb, to, sync, n)?;
                    sync
                }
            };
            for (i, alt) in sources.iter().enumerate() {
                for &(b, o) in *alt {
                    model.connect_event(b, o, sync, i)?;
                }
            }
            model.connect_event(sync, 0, target, port)?;
            Ok(())
        }
    }
}

/// The conditioned operations of one condition variable.
struct Group {
    var: OpId,
    /// Members by schedule start, then id.
    members: Vec<OpId>,
    /// The last member of every branch, sorted: successors outside the
    /// group wait on all of them (exactly one fires per period).
    tails: Vec<EventSrc>,
}

/// The events signalling `op`'s completion for *successor chaining*: its
/// own delay block, or for a conditioned operation the tails of every
/// branch of its group.
fn ready<'a>(
    alg: &AlgorithmGraph,
    groups: &'a [Group],
    op_done: &'a [Option<EventSrc>],
    op: OpId,
) -> &'a [EventSrc] {
    match alg.condition(op) {
        Some(c) => {
            let g = groups.iter().find(|g| g.var == c.variable);
            &g.expect("every condition variable has a group").tails
        }
        None => std::slice::from_ref(
            op_done[op.index()]
                .as_ref()
                .expect("every scheduled operation has a delay block"),
        ),
    }
}

/// Builds the delay block of one schedule slot of length `dur`: an
/// [`EventDelay`], or a [`FaultyDelay`] when the fault plan acts on it.
fn delay_block(
    model: &mut Model,
    name: String,
    dur: TimeNs,
    faulted: Option<Vec<ecl_blocks::DelayAction>>,
) -> Result<BlockId, CoreError> {
    let invalid = |e: ecl_blocks::BlockError| CoreError::InvalidInput {
        reason: e.to_string(),
    };
    Ok(match faulted {
        Some(actions) => model.add_block(name, FaultyDelay::new(dur, actions).map_err(invalid)?),
        None => model.add_block(name, EventDelay::new(dur).map_err(invalid)?),
    })
}

/// An upper bound on what [`build`] adds to a model for `schedule` of
/// `alg`, under any fault plan: `(blocks, signal connections, event
/// connections)`.
pub(crate) fn growth_bound(alg: &AlgorithmGraph, schedule: &Schedule) -> (usize, usize, usize) {
    let (ops, comms) = (schedule.ops().len(), schedule.comms().len());
    let conditioned = alg.ops().filter(|&o| alg.condition(o).is_some()).count();
    // One join per communication, plain operation and group: at most one
    // per slot, each through at most one synchronization.
    let joins = ops + comms;
    // The clock, the fault timeout, a delay per slot, a synchronization
    // per join and a selector, fed by one signal, per group.
    let blocks = 2 + ops + comms + joins + conditioned;
    // A join's sources: two per communication; per operation or group the
    // slot before it and one arrival per incoming edge. A source is one
    // event, or a group's branch tails, at most its members.
    let sources = 2 * comms + ops + alg.edges().len();
    let fan = conditioned.max(1);
    // The clock's loop and the timeout's trigger; per join its sources,
    // its synchronization's output and timeout arm; per conditioned
    // operation the link of its branch chain.
    let events = 2 + sources * fan + 2 * joins + conditioned;
    (blocks, conditioned, events)
}

/// Synthesizes the graph of delays for `schedule` inside `model`.
///
/// `period` is the control period `Ts`; the schedule's makespan must fit
/// within it (the paper's schedules are single-period, non-pipelined).
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] if the makespan exceeds the period, a
///   condition variable lacks a [`ConditionSource`], or a conditioned
///   group spans several processors.
/// * Propagated model-wiring errors.
pub fn build(
    model: &mut Model,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    config: DelayGraphConfig,
) -> Result<DelayGraph, CoreError> {
    if schedule.makespan() > period {
        return Err(CoreError::InvalidInput {
            reason: format!(
                "schedule makespan {} exceeds the period {period}; the loop cannot sustain Ts",
                schedule.makespan()
            ),
        });
    }
    let DelayGraphConfig {
        mut condition_sources,
        faults,
    } = config;
    let clock = add_clock(model, "delay_clock", period, TimeNs::ZERO)?;
    let clock_src: &[EventSrc] = &[(clock, 0)];

    // A non-trivial fault plan switches the synthesis to the degraded
    // vocabulary; a trivial (or absent) one takes the nominal path below,
    // block for block.
    let plan = faults.as_ref().filter(|p| !p.is_trivial());
    // Shared timeout source for every barrier: the period clock delayed to
    // just before the next tick, so a rendezvous whose predecessor died is
    // forced at the end of its own period. (With a makespan equal to the
    // full period, nominal completions at exactly `period` land after the
    // forced fire — acceptable for the degraded replay, documented in
    // DESIGN.md.)
    let timeout_src: Option<EventSrc> = match plan {
        Some(_) => {
            let d = delay_block(
                model,
                "fault_timeout".into(),
                period - TimeNs::from_nanos(1),
                None,
            )?;
            model.connect_event(clock, 0, d, 0)?;
            Some((d, 0))
        }
        None => None,
    };

    // ---- per-operation delay blocks -------------------------------------
    // The completion event of each operation, indexed by `OpId::index`.
    let mut op_done: Vec<Option<EventSrc>> = vec![None; alg.len()];
    for s in schedule.ops() {
        let faulted = plan.and_then(|p| p.op_delay_actions(s.proc.index()));
        let name = name(format_args!("dly_{}", alg.name(s.op)));
        let blk = delay_block(model, name, s.end - s.start, faulted)?;
        op_done[s.op.index()] = Some((blk, 0));
    }

    // ---- group conditioned operations by condition variable ------------
    // In variable order; members by schedule start, then id.
    let mut groups: Vec<Group> = Vec::new();
    for op in alg.ops() {
        if let Some(c) = alg.condition(op) {
            match groups.iter_mut().find(|g| g.var == c.variable) {
                Some(g) => g.members.push(op),
                None => groups.push(Group {
                    var: c.variable,
                    members: vec![op],
                    tails: Vec::new(),
                }),
            }
        }
    }
    groups.sort_by_key(|g| g.var);
    for g in &mut groups {
        g.members
            .sort_by_key(|&o| (schedule.slot(o).map(|s| s.start), o));
        let branch = |m: OpId| {
            alg.condition(m)
                .expect("grouped because conditioned")
                .branch
        };
        for (i, &m) in g.members.iter().enumerate() {
            if !g.members[i + 1..].iter().any(|&o| branch(o) == branch(m)) {
                g.tails
                    .push(op_done[m.index()].expect("conditioned operations are scheduled"));
            }
        }
        g.tails.sort();
    }

    // ---- per-communication delay blocks ----------------------------------
    let mut comm_done: Vec<EventSrc> = Vec::with_capacity(schedule.comms().len());
    for (i, c) in schedule.comms().iter().enumerate() {
        let name = name(format_args!(
            "comm_{}_{}_to_{}",
            alg.name(c.src_op),
            arch.proc_name(c.from),
            arch.proc_name(c.to)
        ));
        // One retransmission re-sends the payload: it costs the medium's
        // full transfer time for the slot's data.
        let faulted = plan.and_then(|p| {
            let cost = schedule.comm_retry_cost(arch, i)?;
            p.comm_delay_actions(i, cost)
        });
        comm_done.push((delay_block(model, name, c.end - c.start, faulted)?, 0));
    }

    // ---- helper lookups --------------------------------------------------
    // Previous computation slot on the same processor.
    let prev_on_proc = |op: OpId| -> Option<OpId> {
        let slot = schedule.slot(op)?;
        schedule
            .ops()
            .iter()
            .filter(|s| s.proc == slot.proc && s.start < slot.start)
            .max_by_key(|s| s.start)
            .map(|s| s.op)
    };
    // The communication delivering `src`'s data to processor `proc` in
    // time for `before` — earliest qualifying transfer (broadcast-aware).
    let delivering_comm = |src: OpId, proc: ecl_aaa::ProcId, before: TimeNs| -> Option<usize> {
        schedule
            .comms()
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.src_op == src && c.end <= before && arch.medium_procs(c.medium).contains(&proc)
            })
            .min_by_key(|(_, c)| c.end)
            .map(|(i, _)| i)
    };
    // The join sources of one target, rebuilt for each.
    let mut sources: Vec<&[EventSrc]> = Vec::with_capacity(4);

    // ---- wire communications ---------------------------------------------
    for (i, c) in schedule.comms().iter().enumerate() {
        sources.clear();
        // Producer completion.
        sources.push(ready(alg, &groups, &op_done, c.src_op));
        // Previous transfer on the same medium.
        let prev = schedule
            .comms()
            .iter()
            .enumerate()
            .filter(|(_, o)| o.medium == c.medium && o.start < c.start)
            .max_by_key(|(_, o)| o.start)
            .map(|(j, _)| j);
        sources.push(match prev {
            Some(j) => std::slice::from_ref(&comm_done[j]),
            None => clock_src,
        });
        let target = comm_done[i].0;
        join(
            model,
            format_args!("comm{i}"),
            &sources,
            target,
            0,
            timeout_src,
        )?;
    }

    // ---- wire computations -------------------------------------------------
    // Conditioned groups get an EventSelect; plain operations get direct
    // precondition joins.

    // Validate conditioned groups up front: a source must exist for every
    // condition variable, and a group must sit on one processor (paper
    // Fig. 5: a conditional branch inside one processor's sequence).
    for g in &groups {
        if !condition_sources.contains_key(&g.var) {
            return Err(CoreError::InvalidInput {
                reason: format!(
                    "condition variable '{}' has no ConditionSource in the config",
                    alg.name(g.var)
                ),
            });
        }
        let mut procs = g
            .members
            .iter()
            .filter_map(|&m| schedule.slot(m).map(|s| s.proc));
        if let Some(first) = procs.next() {
            if procs.any(|p| p != first) {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "conditioned group of '{}' spans several processors",
                        alg.name(g.var)
                    ),
                });
            }
        }
    }

    let mut selectors = Vec::with_capacity(groups.len());
    for g in &groups {
        // The EventSelect block takes ownership of the condition mapping.
        let src = condition_sources
            .remove(&g.var)
            .expect("validated in the loop above");
        let members = &g.members;
        let branch = |m: OpId| alg.condition(m).expect("conditioned").branch;
        let n_branches = members.iter().map(|&m| branch(m)).max().expect("non-empty") + 1;
        let select = model.add_block(
            name(format_args!("select_{}", alg.name(g.var))),
            EventSelect::new(n_branches, src.mapping)?,
        );
        model.connect(src.block, src.output, select, 0)?;
        selectors.push((g.var, select));

        // Group preconditions: previous non-group op on the processor (or
        // the clock), plus comm arrivals needed by any member from outside
        // the group, plus the condition variable's own completion if it
        // runs on another processor (then it arrives via a comm anyway).
        let head = *members.first().expect("non-empty");
        sources.clear();
        let mut prev = prev_on_proc(head);
        // Skip group-internal predecessors (other branches of this group).
        while let Some(p) = prev {
            if members.contains(&p) {
                prev = prev_on_proc(p);
            } else {
                break;
            }
        }
        sources.push(match prev {
            Some(p) => ready(alg, &groups, &op_done, p),
            None => clock_src,
        });
        let group_proc = schedule.slot(head).map(|s| s.proc);
        for &m in members {
            let mslot = schedule.slot(m).expect("scheduled");
            for e in alg.edges().iter().filter(|e| e.dst == m) {
                if members.contains(&e.src) {
                    continue;
                }
                let pslot = schedule.slot(e.src).expect("scheduled");
                if Some(pslot.proc) != group_proc {
                    if let Some(ci) = delivering_comm(e.src, mslot.proc, mslot.start) {
                        let s = std::slice::from_ref(&comm_done[ci]);
                        if !sources.contains(&s) {
                            sources.push(s);
                        }
                    }
                }
            }
        }
        let name = format_args!("group_{}", alg.name(g.var));
        join(model, name, &sources, select, 0, timeout_src)?;

        // Per-branch internal chains: select output k -> first member of
        // branch k -> ... -> tail.
        for (i, &m) in members.iter().enumerate() {
            let prev_evt = match members[..i].iter().rev().find(|&&o| branch(o) == branch(m)) {
                Some(&o) => op_done[o.index()].expect("scheduled"),
                None => (select, branch(m)),
            };
            let (blk, _) = op_done[m.index()].expect("scheduled");
            model.connect_event(prev_evt.0, prev_evt.1, blk, 0)?;
        }
    }

    // Plain operations.
    for s in schedule.ops() {
        if alg.condition(s.op).is_some() {
            continue;
        }
        sources.clear();
        sources.push(match prev_on_proc(s.op) {
            Some(p) => ready(alg, &groups, &op_done, p),
            None => clock_src,
        });
        for e in alg.edges().iter().filter(|e| e.dst == s.op) {
            let pslot = schedule.slot(e.src).expect("scheduled");
            if pslot.proc != s.proc {
                if let Some(ci) = delivering_comm(e.src, s.proc, s.start) {
                    let src = std::slice::from_ref(&comm_done[ci]);
                    if !sources.contains(&src) {
                        sources.push(src);
                    }
                }
            }
        }
        let (target, _) = op_done[s.op.index()].expect("scheduled above");
        join(
            model,
            format_args!("{}", alg.name(s.op)),
            &sources,
            target,
            0,
            timeout_src,
        )?;
    }

    Ok(DelayGraph {
        clock,
        op_done,
        selectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::{adequation, AdequationOptions, ArchitectureGraph, TimingDb};
    use ecl_blocks::{Constant, Scope};
    use ecl_sim::{SimOptions, Simulator};

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    /// 3-op chain on one processor, checks Fig. 4 sequencing instants.
    #[test]
    fn sequencing_reproduces_schedule_instants() {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f = alg.add_function("f");
        let a = alg.add_actuator("a");
        alg.add_edge(s, f, 1).unwrap();
        alg.add_edge(f, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        db.set_default(s, us(100));
        db.set_default(f, us(300));
        db.set_default(a, us(50));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();

        let mut model = Model::new();
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            DelayGraphConfig::default(),
        )
        .unwrap();

        // Observe each completion with a scope on a constant input.
        let c = model.add_block("c", Constant::new(0.0));
        let mut scopes = Vec::new();
        for op in [s, f, a] {
            let sc = model.add_block(format!("sc_{op}"), Scope::new());
            model.connect(c, 0, sc, 0).unwrap();
            dg.activate_on_completion(&mut model, op, sc, 0).unwrap();
            scopes.push(sc);
        }
        let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(2)).unwrap();
        let times = |sc| r.activation_times(sc, Some(0));
        // Period 0: s done at 100us, f at 400us, a at 450us; period 1 at +1ms.
        assert_eq!(times(scopes[0]), vec![us(100), us(1100)]);
        assert_eq!(times(scopes[1]), vec![us(400), us(1400)]);
        assert_eq!(times(scopes[2]), vec![us(450), us(1450)]);
    }

    /// Two processors + bus: the synchronization fires at the comm arrival.
    #[test]
    fn synchronization_reproduces_comm_arrival() {
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
        db.set(f, p1, us(200)); // forces distribution
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        // comm: starts 100, lasts 10 + 2*5 = 20 -> f runs 120..320.
        let slot_f = schedule.slot(f).unwrap();
        assert_eq!(slot_f.start, us(120));

        let mut model = Model::new();
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            DelayGraphConfig::default(),
        )
        .unwrap();
        let c = model.add_block("c", Constant::new(0.0));
        let sc = model.add_block("sc", Scope::new());
        model.connect(c, 0, sc, 0).unwrap();
        dg.activate_on_completion(&mut model, f, sc, 0).unwrap();
        let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(1)).unwrap();
        assert_eq!(r.activation_times(sc, Some(0)), vec![us(320)]);
    }

    /// Conditioning: two branches of unequal duration produce jitter.
    #[test]
    fn conditioning_routes_and_jitters() {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let mode = alg.add_function("mode");
        let fast = alg.add_function("fast");
        let slow = alg.add_function("slow");
        let a = alg.add_actuator("a");
        alg.add_edge(s, mode, 1).unwrap();
        alg.set_condition(fast, mode, 0).unwrap();
        alg.set_condition(slow, mode, 1).unwrap();
        alg.add_edge(fast, a, 1).unwrap();
        alg.add_edge(slow, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        db.set_default(s, us(10));
        db.set_default(mode, us(10));
        db.set_default(fast, us(50));
        db.set_default(slow, us(400));
        db.set_default(a, us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();

        // Condition signal: a constant selecting branch 1 (slow).
        let mut model = Model::new();
        let cond = model.add_block("cond", Constant::new(1.0));
        let mut cfg = DelayGraphConfig::default();
        cfg.condition_sources.insert(
            mode,
            ConditionSource {
                block: cond,
                output: 0,
                mapping: Box::new(|v| v as usize),
            },
        );
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            cfg,
        )
        .unwrap();
        assert!(dg.selector(mode).is_some());

        let c = model.add_block("c", Constant::new(0.0));
        let sc = model.add_block("sc", Scope::new());
        model.connect(c, 0, sc, 0).unwrap();
        dg.activate_on_completion(&mut model, a, sc, 0).unwrap();
        let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(1)).unwrap();
        let t = r.activation_times(sc, Some(0));
        assert_eq!(t.len(), 1);
        // Branch 1 (slow): s(10) + mode(10) + slow(400) + a(10) = 430us.
        assert_eq!(t[0], us(430));
    }

    /// Conditioned groups are synthesized in condition-variable order, so
    /// every build of one schedule creates the same blocks in the same
    /// order.
    #[test]
    fn conditioned_groups_build_in_variable_order() {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let vars = [alg.add_function("mode_a"), alg.add_function("mode_b")];
        let mut db = TimingDb::new();
        db.set_default(s, us(10));
        for (k, &var) in vars.iter().enumerate() {
            alg.add_edge(s, var, 1).unwrap();
            db.set_default(var, us(10));
            for branch in 0..2 {
                let op = alg.add_function(format!("b{k}{branch}"));
                alg.set_condition(op, var, branch).unwrap();
                db.set_default(op, us(20 + 30 * branch as i64));
            }
        }
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let names = || {
            let mut model = Model::new();
            let cond = model.add_block("cond", Constant::new(1.0));
            let mut cfg = DelayGraphConfig::default();
            for var in vars {
                let mapping: ConditionMapping = Box::new(|v| v as usize);
                let source = ConditionSource {
                    block: cond,
                    output: 0,
                    mapping,
                };
                cfg.condition_sources.insert(var, source);
            }
            build(
                &mut model,
                &alg,
                &arch,
                &schedule,
                TimeNs::from_millis(1),
                cfg,
            )
            .unwrap();
            (0..model.len())
                .map(|i| model.name(BlockId::from_index(i)).unwrap().to_owned())
                .collect::<Vec<_>>()
        };
        let first = names();
        let selects: Vec<&str> = first
            .iter()
            .map(String::as_str)
            .filter(|n| n.starts_with("select_"))
            .collect();
        assert_eq!(selects, ["select_mode_a", "select_mode_b"]);
        for _ in 0..8 {
            assert_eq!(names(), first);
        }
    }

    #[test]
    fn conditioning_without_source_rejected() {
        let mut alg = AlgorithmGraph::new();
        let mode = alg.add_function("mode");
        let f = alg.add_function("f");
        alg.set_condition(f, mode, 0).unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        db.set_default(mode, us(10));
        db.set_default(f, us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let mut model = Model::new();
        let r = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            DelayGraphConfig::default(),
        );
        assert!(matches!(r, Err(CoreError::InvalidInput { .. })));
    }

    #[test]
    fn makespan_exceeding_period_rejected() {
        let mut alg = AlgorithmGraph::new();
        let f = alg.add_function("f");
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        db.set_default(f, TimeNs::from_millis(2));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let mut model = Model::new();
        let r = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            DelayGraphConfig::default(),
        );
        assert!(matches!(r, Err(CoreError::InvalidInput { .. })));
    }

    /// Distributed fixture of `synchronization_reproduces_comm_arrival`:
    /// s on p0 (100us), 20us bus transfer, f on p1 (200us), so nominal f
    /// completion is 320us into each 1ms period.
    fn distributed_fixture() -> (AlgorithmGraph, ArchitectureGraph, ecl_aaa::Schedule) {
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
        (alg, arch, schedule)
    }

    fn observe_completion(model: &mut Model, dg: &DelayGraph, op: OpId) -> ecl_sim::BlockId {
        let c = model.add_block(format!("c_{op}"), Constant::new(0.0));
        let sc = model.add_block(format!("sc_{op}"), Scope::new());
        model.connect(c, 0, sc, 0).unwrap();
        dg.activate_on_completion(model, op, sc, 0).unwrap();
        sc
    }

    /// A dropped frame (retry budget exhausted every period) leaves the
    /// consumer's rendezvous to the timeout arm: f is forced at the end
    /// of the period and completes 200us later, instead of deadlocking.
    #[test]
    fn dropped_frame_forces_timeout_degradation() {
        let (alg, arch, schedule) = distributed_fixture();
        let f = alg.ops().find(|&o| alg.name(o) == "f").unwrap();
        let cfg_faults = crate::faults::FaultConfig {
            frame_loss_rate: 1.0,
            max_retries: 1,
            ..Default::default()
        };
        let plan = crate::faults::FaultPlan::generate(&cfg_faults, &schedule, &arch, 2).unwrap();
        assert!(!plan.is_trivial());
        let mut model = Model::new();
        let cfg = DelayGraphConfig {
            faults: Some(plan),
            ..Default::default()
        };
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            cfg,
        )
        .unwrap();
        let sc = observe_completion(&mut model, &dg, f);
        let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(2)).unwrap();
        // Forced at kP + (P - 1ns), f done 200us later; the period-1 fire
        // completes past the horizon.
        assert_eq!(
            r.activation_times(sc, Some(0)),
            vec![TimeNs::from_nanos(1_199_999)]
        );
    }

    /// A retransmitted frame stretches the transfer by k·cost, shifting
    /// the consumer's completion by exactly that much.
    #[test]
    fn retransmission_stretches_consumer_completion() {
        let (alg, arch, schedule) = distributed_fixture();
        let f = alg.ops().find(|&o| alg.name(o) == "f").unwrap();
        // Deterministic seed scan: first seed whose period-0 fate is a
        // single retransmission.
        let plan = (0..200u64)
            .find_map(|seed| {
                let cfg = crate::faults::FaultConfig {
                    seed,
                    frame_loss_rate: 0.3,
                    max_retries: 3,
                    ..Default::default()
                };
                let p = crate::faults::FaultPlan::generate(&cfg, &schedule, &arch, 1).unwrap();
                (p.comm_fault(0, 0) == crate::faults::CommFault::Retry(1)).then_some(p)
            })
            .expect("a seed with Retry(1) in period 0 exists");
        let mut model = Model::new();
        let cfg = DelayGraphConfig {
            faults: Some(plan),
            ..Default::default()
        };
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            cfg,
        )
        .unwrap();
        let sc = observe_completion(&mut model, &dg, f);
        let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(1)).unwrap();
        // Retry cost = full 20us transfer: 320us + 20us = 340us.
        assert_eq!(r.activation_times(sc, Some(0)), vec![us(340)]);
    }

    /// A dead producer processor silences its sensor; the consumer is
    /// forced by the timeout every period and keeps actuating (on stale
    /// data) instead of stopping.
    #[test]
    fn dead_processor_degrades_but_does_not_deadlock() {
        let (alg, arch, schedule) = distributed_fixture();
        let s = alg.ops().find(|&o| alg.name(o) == "s").unwrap();
        let f = alg.ops().find(|&o| alg.name(o) == "f").unwrap();
        // Deterministic seed scan: p0 dead from period 0, p1 alive for
        // all 3 periods.
        let plan = (0..400u64)
            .find_map(|seed| {
                let cfg = crate::faults::FaultConfig {
                    seed,
                    proc_dropout_rate: 0.4,
                    ..Default::default()
                };
                let p = crate::faults::FaultPlan::generate(&cfg, &schedule, &arch, 3).unwrap();
                (p.proc_dead_from(0) == Some(0) && p.proc_dead_from(1).is_none()).then_some(p)
            })
            .expect("a seed killing only p0 at period 0 exists");
        let mut model = Model::new();
        let cfg = DelayGraphConfig {
            faults: Some(plan),
            ..Default::default()
        };
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            cfg,
        )
        .unwrap();
        let sc_s = observe_completion(&mut model, &dg, s);
        let sc_f = observe_completion(&mut model, &dg, f);
        let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(3)).unwrap();
        assert!(r.activation_times(sc_s, Some(0)).is_empty());
        // Forced fires at kP + (P - 1ns) + 200us; the period-2 one
        // completes past the horizon.
        assert_eq!(
            r.activation_times(sc_f, Some(0)),
            vec![TimeNs::from_nanos(1_199_999), TimeNs::from_nanos(2_199_999)]
        );
    }

    /// A trivial plan takes the nominal synthesis path: same block count,
    /// same instants as a build without any fault config.
    #[test]
    fn trivial_plan_is_byte_identical_to_nominal() {
        let (alg, arch, schedule) = distributed_fixture();
        let f = alg.ops().find(|&o| alg.name(o) == "f").unwrap();
        let run = |faults: Option<crate::faults::FaultPlan>| {
            let mut model = Model::new();
            let cfg = DelayGraphConfig {
                faults,
                ..Default::default()
            };
            let dg = build(
                &mut model,
                &alg,
                &arch,
                &schedule,
                TimeNs::from_millis(1),
                cfg,
            )
            .unwrap();
            let sc = observe_completion(&mut model, &dg, f);
            let n_blocks = model.len();
            let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
            let r = sim.run(TimeNs::from_millis(2)).unwrap();
            (n_blocks, r.activation_times(sc, Some(0)))
        };
        let nominal = run(None);
        let trivial = run(Some(crate::faults::FaultPlan::trivial(2)));
        let zero_rate = run(Some(
            crate::faults::FaultPlan::generate(
                &crate::faults::FaultConfig {
                    seed: 9,
                    ..Default::default()
                },
                &schedule,
                &arch,
                2,
            )
            .unwrap(),
        ));
        assert_eq!(nominal, trivial);
        assert_eq!(nominal, zero_rate);
    }

    #[test]
    fn unknown_op_activation_rejected() {
        let mut alg = AlgorithmGraph::new();
        let f = alg.add_function("f");
        let ghost = {
            let mut other = AlgorithmGraph::new();
            other.add_function("a");
            other.add_function("b")
        };
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        db.set_default(f, us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let mut model = Model::new();
        let dg = build(
            &mut model,
            &alg,
            &arch,
            &schedule,
            TimeNs::from_millis(1),
            DelayGraphConfig::default(),
        )
        .unwrap();
        let sc = model.add_block("sc", Scope::new());
        assert!(dg.activate_on_completion(&mut model, ghost, sc, 0).is_err());
    }
}

//! Fault-envelope abstract interpretation (pass e).
//!
//! Where [`crate::latency_bounds`] bounds one *concrete* retries-only
//! [`FaultPlan`](ecl_core::faults::FaultPlan), this pass computes sound
//! `[lo, hi]` completion intervals for an entire [`FaultFamily`] — every
//! plan any seed can draw under a set of fault axes — by abstractly
//! interpreting the graph-of-delays synthesis rules of
//! `ecl_core::delays::build` over the interval domain
//! ([`TimeInterval`]):
//!
//! * a retried transfer stretches its slot by at most
//!   `max_retries * comm_retry_cost`;
//! * a dropped transfer or dead producer leaves a rendezvous arm silent;
//!   under a non-trivial plan every multi-source rendezvous carries a
//!   timeout arm that forces it at `T = period - 1ns`, so the join fires
//!   in `[min(lo, T), max(nominal, min(hi, T))]` — the widening rule for
//!   outage windows;
//! * an operation on a dead processor, or a transfer the family can
//!   drop, *may be absent*: if it fires at all, its instant is inside
//!   the interval, but no completion is guaranteed.
//!
//! The per-operation envelopes roll up into a [`EnvelopeVerdict`]: a
//! schedule whose sensor/actuation envelopes provably fit the period (and
//! cannot be absent) is conclusively *safe* — no member plan can overrun —
//! while an envelope whose *lower* bound already exceeds the period is
//! conclusively *unsafe* for every member. Both verdicts let the fleet
//! skip co-simulation (`SweepConfig::prune_static`) and let the daemon
//! reject infeasible deployments before queueing. Registry codes EV401 —
//! EV405 (DESIGN.md §10); the EV2xx range already names executive
//! analysis, so the envelope rules take the 4xx block.

use std::collections::{HashMap, HashSet};

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, OpId, ProcId, Schedule, TimeNs};
use ecl_core::faults::FaultFamily;
use ecl_core::interval::TimeInterval;

use crate::diag::{Anchor, Diagnostic, Severity};

/// The abstract completion of one operation under a whole fault family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEnvelope {
    /// The operation.
    pub op: OpId,
    /// Exact completion offset of the fault-free (trivial) member plan.
    pub nominal: TimeNs,
    /// Sound interval containing the completion offset of *every* member
    /// plan, whenever the operation completes at all.
    pub completion: TimeInterval,
    /// `true` when some member plan silences the operation for a period
    /// (dead processor, or a rendezvous that can deadlock without a
    /// timeout arm): the interval then bounds only the periods it fires.
    pub may_be_absent: bool,
}

/// The conclusive outcome of the envelope analysis for one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeVerdict {
    /// Every sensor and actuator envelope fits the period (and the
    /// latency budget, when given) and cannot be absent: no member plan
    /// of the family can overrun. Co-simulation is redundant.
    Safe,
    /// Some I/O envelope's *lower* bound exceeds the period (or an
    /// actuation lower bound exceeds the budget): every member plan
    /// overruns. Co-simulation is redundant.
    Unsafe,
    /// The envelope straddles the limit, or completions may be absent:
    /// only a concrete replay can decide.
    Inconclusive,
}

impl std::fmt::Display for EnvelopeVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvelopeVerdict::Safe => write!(f, "safe"),
            EnvelopeVerdict::Unsafe => write!(f, "unsafe"),
            EnvelopeVerdict::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// Sound completion envelopes of a schedule under a fault family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeReport {
    /// The control period the schedule executes under.
    pub period: TimeNs,
    /// The control design's end-to-end actuation latency budget, if one
    /// was supplied (EV404/EV405 fire against it).
    pub budget: Option<TimeNs>,
    /// The abstracted fault family.
    pub family: FaultFamily,
    /// Envelope of every scheduled operation, in schedule order.
    pub ops: Vec<OpEnvelope>,
    /// Sensor envelopes (`Ls` bounds), in operation order.
    pub sensors: Vec<OpEnvelope>,
    /// Actuator envelopes (`La` bounds), in operation order.
    pub actuators: Vec<OpEnvelope>,
}

impl EnvelopeReport {
    /// The envelope of `op`, if it was scheduled.
    pub fn envelope_for(&self, op: OpId) -> Option<&OpEnvelope> {
        self.ops.iter().find(|e| e.op == op)
    }

    /// The largest actuation upper bound — the family-wide worst-case
    /// `La` whenever actuation happens.
    pub fn max_actuation_hi(&self) -> TimeNs {
        self.actuators
            .iter()
            .map(|e| e.completion.hi())
            .max()
            .unwrap_or(TimeNs::ZERO)
    }

    /// The conclusive verdict of the analysis (see [`EnvelopeVerdict`]).
    pub fn verdict(&self) -> EnvelopeVerdict {
        let mut conclusively_unsafe = false;
        let mut conclusively_safe = true;
        for e in self.sensors.iter().chain(self.actuators.iter()) {
            if e.completion.lo() > self.period {
                conclusively_unsafe = true;
            }
            if e.may_be_absent || e.completion.hi() > self.period {
                conclusively_safe = false;
            }
        }
        if let Some(budget) = self.budget {
            for e in &self.actuators {
                if e.completion.lo() > budget {
                    conclusively_unsafe = true;
                }
                if e.completion.hi() > budget {
                    conclusively_safe = false;
                }
            }
        }
        if conclusively_unsafe {
            EnvelopeVerdict::Unsafe
        } else if conclusively_safe {
            EnvelopeVerdict::Safe
        } else {
            EnvelopeVerdict::Inconclusive
        }
    }

    /// Renders the envelopes as readable text.
    pub fn render(&self) -> String {
        let mut s = String::from("### Fault envelope\n");
        s.push_str(&format!(
            "family: loss={} retries<={} outage={} dropout={} | verdict: {} | period: {}\n",
            if self.family.frame_loss { "yes" } else { "no" },
            self.family.max_retries,
            if self.family.link_outage { "yes" } else { "no" },
            if self.family.proc_dropout {
                "yes"
            } else {
                "no"
            },
            self.verdict(),
            self.period
        ));
        if let Some(b) = self.budget {
            s.push_str(&format!("latency budget: {b}\n"));
        }
        let line = |kind: &str, e: &OpEnvelope| {
            format!(
                "  {kind} op{}: {} nominal {}{}\n",
                e.op.index(),
                e.completion,
                e.nominal,
                if e.may_be_absent {
                    " (may be absent)"
                } else {
                    ""
                }
            )
        };
        for e in &self.sensors {
            s.push_str(&line("sensor", e));
        }
        for e in &self.actuators {
            s.push_str(&line("actuator", e));
        }
        s
    }

    /// The envelopes as a JSON object fragment (no surrounding braces),
    /// consumed by [`crate::VerifyReport::to_json`].
    pub(crate) fn json_fragment(&self) -> String {
        let list = |envs: &[OpEnvelope]| {
            envs.iter()
                .map(|e| {
                    format!(
                        "{{\"op\": {}, \"nominal_ns\": {}, \"lo_ns\": {}, \"hi_ns\": {}, \"may_be_absent\": {}}}",
                        e.op.index(),
                        e.nominal.as_nanos(),
                        e.completion.lo().as_nanos(),
                        e.completion.hi().as_nanos(),
                        e.may_be_absent
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "  \"envelope\": {{\n    \"period_ns\": {},\n    \"budget_ns\": {},\n    \"verdict\": \"{}\",\n    \"family\": {{\"frame_loss\": {}, \"max_retries\": {}, \"link_outage\": {}, \"proc_dropout\": {}}},\n    \"sensors\": [{}],\n    \"actuators\": [{}]\n  }}",
            self.period.as_nanos(),
            self.budget
                .map_or_else(|| "null".to_string(), |b| b.as_nanos().to_string()),
            self.verdict(),
            self.family.frame_loss,
            self.family.max_retries,
            self.family.link_outage,
            self.family.proc_dropout,
            list(&self.sensors),
            list(&self.actuators)
        )
    }
}

/// Abstract state of one delay-graph entity: the exact nominal firing
/// offset, a sound `[lo, hi]` interval over all member plans, and whether
/// some member plan can silence it for a period.
#[derive(Debug, Clone, Copy)]
struct Ent {
    nom: TimeNs,
    lo: TimeNs,
    hi: TimeNs,
    absent: bool,
}

impl Ent {
    fn clock() -> Ent {
        Ent {
            nom: TimeNs::ZERO,
            lo: TimeNs::ZERO,
            hi: TimeNs::ZERO,
            absent: false,
        }
    }

    fn shift(self, d: TimeNs) -> Ent {
        Ent {
            nom: self.nom + d,
            lo: self.lo + d,
            hi: self.hi + d,
            absent: self.absent,
        }
    }
}

/// One conditioned group: members sorted by slot start, branch chains in
/// that order, and the tail operation of every branch.
struct Group {
    members: Vec<OpId>,
    branch_of: HashMap<OpId, usize>,
    chains: HashMap<usize, Vec<OpId>>,
    tails: Vec<OpId>,
}

/// The interval interpreter: memoized recursion over the same wiring the
/// graph-of-delays synthesis performs, with plan-specific delays replaced
/// by family-wide interval transfers.
struct Eval<'a> {
    alg: &'a AlgorithmGraph,
    arch: &'a ArchitectureGraph,
    schedule: &'a Schedule,
    family: FaultFamily,
    period: TimeNs,
    /// The timeout-arm firing offset `kP + (P - 1ns)` relative to the
    /// period origin: every forced rendezvous fires here.
    t_force: TimeNs,
    groups: HashMap<OpId, Group>,
    group_of: HashMap<OpId, OpId>,
    op_memo: HashMap<OpId, Ent>,
    comm_memo: Vec<Option<Ent>>,
    join_memo: HashMap<OpId, Ent>,
    visiting: HashSet<u64>,
}

const KIND_OP: u64 = 0;
const KIND_COMM: u64 = 1;
const KIND_GROUP: u64 = 2;

fn key(kind: u64, index: usize) -> u64 {
    (kind << 32) | index as u64
}

impl<'a> Eval<'a> {
    fn new(
        alg: &'a AlgorithmGraph,
        arch: &'a ArchitectureGraph,
        schedule: &'a Schedule,
        period: TimeNs,
        family: FaultFamily,
    ) -> Eval<'a> {
        let mut grouped: HashMap<OpId, Vec<OpId>> = HashMap::new();
        for op in alg.ops() {
            if let Some(c) = alg.condition(op) {
                grouped.entry(c.variable).or_default().push(op);
            }
        }
        let mut groups = HashMap::new();
        let mut group_of = HashMap::new();
        for (var, mut members) in grouped {
            members.sort_by_key(|&o| (schedule.slot(o).map(|s| s.start), o));
            let mut branch_of = HashMap::new();
            let mut chains: HashMap<usize, Vec<OpId>> = HashMap::new();
            for &m in &members {
                let b = alg
                    .condition(m)
                    .expect("grouped because conditioned")
                    .branch;
                branch_of.insert(m, b);
                chains.entry(b).or_default().push(m);
                group_of.insert(m, var);
            }
            let mut tails: Vec<OpId> = chains
                .values()
                .map(|ops| *ops.last().expect("non-empty branch"))
                .collect();
            tails.sort();
            groups.insert(
                var,
                Group {
                    members,
                    branch_of,
                    chains,
                    tails,
                },
            );
        }
        let n_comms = schedule.comms().len();
        Eval {
            alg,
            arch,
            schedule,
            family,
            period,
            t_force: period - TimeNs::from_nanos(1),
            groups,
            group_of,
            op_memo: HashMap::new(),
            comm_memo: vec![None; n_comms],
            join_memo: HashMap::new(),
            visiting: HashSet::new(),
        }
    }

    /// Conservative state for structurally-broken inputs (an unscheduled
    /// operation or a wiring cycle): pessimistic on every bound, flagged
    /// absent so no verdict can become `Safe` through it. Feasibility
    /// diagnostics (EV001/EV004) pinpoint the underlying defect.
    fn degenerate(&self) -> Ent {
        Ent {
            nom: self.period,
            lo: TimeNs::ZERO,
            hi: self.period,
            absent: true,
        }
    }

    /// Abstract activation of a transfer slot, mirroring the medium
    /// executive: the slot starts at `max(data ready, medium free)`,
    /// and every non-trivial member plan deadline-checks *both* arms —
    /// a late post, a late previous slot or a dropped previous slot
    /// forces the start at exactly `t_force`. The trivial member
    /// (always in the family) starts at `base_nom`, uncapped.
    fn forced_join(&self, arms: &[Ent]) -> Ent {
        if arms.len() == 1 {
            return arms[0];
        }
        let base_nom = arms.iter().map(|a| a.nom).max().unwrap_or(TimeNs::ZERO);
        let base_lo = arms.iter().map(|a| a.lo).max().unwrap_or(TimeNs::ZERO);
        let base_hi = arms.iter().map(|a| a.hi).max().unwrap_or(TimeNs::ZERO);
        let any_absent = arms.iter().any(|a| a.absent);
        if self.family.is_trivial() {
            return Ent {
                nom: base_nom,
                lo: base_lo,
                hi: base_hi,
                absent: any_absent,
            };
        }
        let cap = if any_absent {
            self.t_force
        } else {
            base_hi.min(self.t_force)
        };
        let hi = base_nom.max(cap);
        let lo = base_lo.min(self.t_force).min(hi);
        Ent {
            nom: base_nom,
            lo,
            hi,
            absent: any_absent,
        }
    }

    /// Abstract gate of a computation, mirroring the processor
    /// executive: the program counter reaches the wait at `reach`
    /// (sequential order on the processor — **never** deadline-forced,
    /// so a late same-processor predecessor pushes every later start
    /// past the period boundary), then merges the comm arrivals whose
    /// `Synchronization` timeout arm, armed by every non-trivial member
    /// plan, *forces* the start at exactly `t_force` when an arrival is
    /// dropped or lands past the deadline — discarding even `reach`.
    fn gate_join(&self, reach: Ent, comms: &[Ent]) -> Ent {
        if comms.is_empty() {
            return reach;
        }
        let nom_c = comms.iter().map(|a| a.nom).max().unwrap_or(TimeNs::ZERO);
        let lo_c = comms.iter().map(|a| a.lo).max().unwrap_or(TimeNs::ZERO);
        let hi_c = comms.iter().map(|a| a.hi).max().unwrap_or(TimeNs::ZERO);
        let any_absent = comms.iter().any(|a| a.absent);
        let nom = reach.nom.max(nom_c);
        let absent = reach.absent || any_absent;
        if self.family.is_trivial() {
            return Ent {
                nom,
                lo: reach.lo.max(lo_c),
                hi: reach.hi.max(hi_c),
                absent,
            };
        }
        // The family can force this gate iff some arrival may be silent
        // or may land past the deadline; a forced start is exactly
        // `t_force`, so it both caps the arrival side of `hi` and pulls
        // `lo` down below an overrunning reach chain.
        let can_force = any_absent || hi_c > self.t_force;
        let cap = if any_absent {
            self.t_force
        } else {
            hi_c.min(self.t_force)
        };
        let gate_lo = reach.lo.max(lo_c);
        Ent {
            nom,
            lo: if can_force {
                gate_lo.min(self.t_force)
            } else {
                gate_lo
            },
            hi: reach.hi.max(nom_c.max(cap)),
            absent,
        }
    }

    /// The arm a consumer waits on for `op`'s output: the operation's own
    /// completion, or — for a conditioned operation — the tails of every
    /// branch of its group (exactly one fires per period).
    fn op_ready_arm(&mut self, op: OpId) -> Ent {
        let Some(&var) = self.group_of.get(&op) else {
            return self.op(op);
        };
        let tails = self.groups[&var].tails.clone();
        let states: Vec<Ent> = tails.into_iter().map(|t| self.op(t)).collect();
        let nom = states.iter().map(|s| s.nom).max().unwrap_or(TimeNs::ZERO);
        let lo = states.iter().map(|s| s.lo).min().unwrap_or(TimeNs::ZERO);
        let hi = states.iter().map(|s| s.hi).max().unwrap_or(TimeNs::ZERO);
        // Conservative: any branch tail the family can silence makes the
        // merged arm possibly silent.
        let absent = states.iter().any(|s| s.absent);
        Ent {
            nom,
            lo,
            hi: hi.max(lo),
            absent,
        }
    }

    /// Latest computation slot before `op` on the same processor.
    fn prev_on_proc(&self, op: OpId) -> Option<OpId> {
        let slot = self.schedule.slot(op)?;
        self.schedule
            .proc_sequence(slot.proc)
            .iter()
            .filter(|s| s.start < slot.start)
            .max_by_key(|s| s.start)
            .map(|s| s.op)
    }

    /// The transfer delivering `src`'s data to `proc` in time for
    /// `before` — earliest qualifying slot (broadcast-aware), as in the
    /// delay-graph synthesis.
    fn delivering_comm(&self, src: OpId, proc: ProcId, before: TimeNs) -> Option<usize> {
        self.schedule
            .comms()
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.src_op == src
                    && c.end <= before
                    && self.arch.medium_procs(c.medium).contains(&proc)
            })
            .min_by_key(|(_, c)| c.end)
            .map(|(i, _)| i)
    }

    /// Abstract completion of transfer slot `i`.
    fn comm(&mut self, i: usize) -> Ent {
        if let Some(e) = self.comm_memo[i] {
            return e;
        }
        if !self.visiting.insert(key(KIND_COMM, i)) {
            return self.degenerate();
        }
        let c = self.schedule.comms()[i];
        let dur = c.end - c.start;
        let mut arms = vec![self.op_ready_arm(c.src_op)];
        let prev = self
            .schedule
            .comms()
            .iter()
            .enumerate()
            .filter(|(_, o)| o.medium == c.medium && o.start < c.start)
            .max_by_key(|(_, o)| o.start)
            .map(|(j, _)| j);
        arms.push(match prev {
            Some(j) => self.comm(j),
            None => Ent::clock(),
        });
        let j = self.forced_join(&arms);
        let stretch = if self.family.admits_retries() {
            let cost = self
                .schedule
                .comm_retry_cost(self.arch, i)
                .unwrap_or(TimeNs::ZERO);
            TimeNs::from_nanos(cost.as_nanos() * i64::from(self.family.max_retries))
        } else {
            TimeNs::ZERO
        };
        let ent = Ent {
            nom: j.nom + dur,
            lo: j.lo + dur,
            hi: j.hi + dur + stretch,
            absent: j.absent || self.family.admits_drops(),
        };
        self.visiting.remove(&key(KIND_COMM, i));
        self.comm_memo[i] = Some(ent);
        ent
    }

    /// Abstract activation of a conditioned group's `EventSelect`.
    fn group_join(&mut self, var: OpId) -> Ent {
        if let Some(&e) = self.join_memo.get(&var) {
            return e;
        }
        if !self.visiting.insert(key(KIND_GROUP, var.index())) {
            return self.degenerate();
        }
        let members = self.groups[&var].members.clone();
        let head = members[0];
        // Previous non-group operation on the processor, or the clock.
        let mut prev = self.prev_on_proc(head);
        while let Some(p) = prev {
            if members.contains(&p) {
                prev = self.prev_on_proc(p);
            } else {
                break;
            }
        }
        let reach = match prev {
            Some(p) => self.op_ready_arm(p),
            None => Ent::clock(),
        };
        let mut arms = Vec::new();
        // Comm arrivals needed by any member from outside the group.
        let group_proc = self.schedule.slot(head).map(|s| s.proc);
        let mut seen: Vec<usize> = Vec::new();
        for &m in &members {
            let Some(slot) = self.schedule.slot(m).copied() else {
                continue;
            };
            for e in self.alg.edges().iter().filter(|e| e.dst == m) {
                if members.contains(&e.src) {
                    continue;
                }
                let Some(pslot) = self.schedule.slot(e.src) else {
                    continue;
                };
                if Some(pslot.proc) != group_proc {
                    if let Some(ci) = self.delivering_comm(e.src, slot.proc, slot.start) {
                        if !seen.contains(&ci) {
                            seen.push(ci);
                        }
                    }
                }
            }
        }
        for ci in seen {
            let arm = self.comm(ci);
            arms.push(arm);
        }
        let j = self.gate_join(reach, &arms);
        self.visiting.remove(&key(KIND_GROUP, var.index()));
        self.join_memo.insert(var, j);
        j
    }

    /// Abstract completion of operation `op`'s delay block.
    fn op(&mut self, op: OpId) -> Ent {
        if let Some(&e) = self.op_memo.get(&op) {
            return e;
        }
        if !self.visiting.insert(key(KIND_OP, op.index())) {
            return self.degenerate();
        }
        let ent = self.op_uncached(op);
        self.visiting.remove(&key(KIND_OP, op.index()));
        self.op_memo.insert(op, ent);
        ent
    }

    fn op_uncached(&mut self, op: OpId) -> Ent {
        let Some(slot) = self.schedule.slot(op).copied() else {
            return self.degenerate();
        };
        let dur = slot.end - slot.start;
        if let Some(&var) = self.group_of.get(&op) {
            // Conditioned member: select fire, then the branch chain runs
            // in sequence up to this member. The branch may simply not be
            // selected, so the completion is never guaranteed.
            let j = self.group_join(var);
            let group = &self.groups[&var];
            let branch = group.branch_of[&op];
            let chain = group.chains[&branch].clone();
            let mut prefix = TimeNs::ZERO;
            for m in chain {
                let Some(s) = self.schedule.slot(m) else {
                    continue;
                };
                prefix += s.end - s.start;
                if m == op {
                    break;
                }
            }
            let mut ent = j.shift(prefix);
            ent.absent = true;
            return ent;
        }
        let reach = match self.prev_on_proc(op) {
            Some(p) => self.op_ready_arm(p),
            None => Ent::clock(),
        };
        let mut arms = Vec::new();
        let mut seen: Vec<usize> = Vec::new();
        for e in self.alg.edges().iter().filter(|e| e.dst == op) {
            let Some(pslot) = self.schedule.slot(e.src) else {
                continue;
            };
            if pslot.proc != slot.proc {
                if let Some(ci) = self.delivering_comm(e.src, slot.proc, slot.start) {
                    if !seen.contains(&ci) {
                        seen.push(ci);
                    }
                }
            }
        }
        for ci in seen {
            let arm = self.comm(ci);
            arms.push(arm);
        }
        let j = self.gate_join(reach, &arms);
        let mut ent = j.shift(dur);
        ent.absent = ent.absent || self.family.proc_dropout;
        ent
    }
}

/// Computes the sound completion envelope of every scheduled operation
/// under `family`, with the `Ls`/`La` envelopes broken out per sensor and
/// actuator. `budget`, when given, is the control design's end-to-end
/// actuation latency budget (EV404/EV405 fire against it).
pub fn fault_envelope(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    family: &FaultFamily,
    budget: Option<TimeNs>,
) -> EnvelopeReport {
    let mut eval = Eval::new(alg, arch, schedule, period, *family);
    let envelope_of = |eval: &mut Eval<'_>, op: OpId| {
        let e = eval.op(op);
        OpEnvelope {
            op,
            nominal: e.nom,
            completion: TimeInterval::new(e.lo.min(e.hi), e.hi),
            may_be_absent: e.absent,
        }
    };
    let ops: Vec<OpEnvelope> = schedule
        .ops()
        .iter()
        .map(|s| s.op)
        .collect::<Vec<_>>()
        .into_iter()
        .map(|op| envelope_of(&mut eval, op))
        .collect();
    let pick = |ids: Vec<OpId>| {
        ids.into_iter()
            .filter_map(|op| ops.iter().find(|e| e.op == op).copied())
            .collect::<Vec<_>>()
    };
    EnvelopeReport {
        period,
        budget,
        family: *family,
        sensors: pick(alg.sensors()),
        actuators: pick(alg.actuators()),
        ops,
    }
}

/// Translates an envelope report into EV4xx diagnostics.
pub fn envelope_diagnostics(alg: &AlgorithmGraph, report: &EnvelopeReport) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut lower_violation = false;
    for e in report.sensors.iter().chain(report.actuators.iter()) {
        if e.completion.lo() > report.period {
            lower_violation = true;
            diags.push(Diagnostic {
                code: "EV401",
                severity: Severity::Error,
                anchor: Anchor::op(alg, e.op),
                message: format!(
                    "completion envelope lower bound {} exceeds the period {}: every plan in \
                     the fault family overruns",
                    e.completion.lo(),
                    report.period
                ),
            });
        }
    }
    let worst_hi = report
        .sensors
        .iter()
        .chain(report.actuators.iter())
        .map(|e| e.completion.hi())
        .max()
        .unwrap_or(TimeNs::ZERO);
    if !lower_violation && worst_hi > report.period {
        diags.push(Diagnostic {
            code: "EV402",
            severity: Severity::Warn,
            anchor: Anchor::Model,
            message: format!(
                "completion envelope upper bound {} exceeds the period {}: some plan in the \
                 fault family may overrun",
                worst_hi, report.period
            ),
        });
    }
    if report.family.admits_drops() {
        diags.push(Diagnostic {
            code: "EV403",
            severity: Severity::Info,
            anchor: Anchor::Model,
            message: "fault family admits dropped transfers or dead processors: completions \
                      may be absent and rendezvous are deadline-forced"
                .to_string(),
        });
    }
    if let Some(budget) = report.budget {
        let mut budget_lower_violation = false;
        for e in &report.actuators {
            if e.completion.lo() > budget {
                budget_lower_violation = true;
                diags.push(Diagnostic {
                    code: "EV405",
                    severity: Severity::Error,
                    anchor: Anchor::op(alg, e.op),
                    message: format!(
                        "actuation envelope lower bound {} exceeds the latency budget {}: the \
                         control design's margin cannot be met by any plan in the family",
                        e.completion.lo(),
                        budget
                    ),
                });
            }
        }
        if !budget_lower_violation && report.max_actuation_hi() > budget {
            diags.push(Diagnostic {
                code: "EV404",
                severity: Severity::Warn,
                anchor: Anchor::Model,
                message: format!(
                    "actuation envelope upper bound {} exceeds the latency budget {}: some \
                     plan in the family may violate the control design's margin",
                    report.max_actuation_hi(),
                    budget
                ),
            });
        }
    }
    diags
}

/// The backward dependency cone of every operation: the set of transfer
/// slots its wait chains can pass through, following the same wiring the
/// graph-of-delays synthesis performs (previous slot on the processor,
/// delivering transfers, previous transfer on the medium, producer
/// completions, conditioned-group arms). Used by the per-operation retry
/// stretch of [`crate::latency_bounds`].
pub(crate) fn comm_cones(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
) -> HashMap<OpId, Vec<usize>> {
    // Reuse the interpreter's group decomposition and lookups; the cone
    // is plain reachability over the same arm structure.
    let eval = Eval::new(
        alg,
        arch,
        schedule,
        TimeNs::from_millis(1),
        FaultFamily::trivial(),
    );

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Node {
        Op(OpId),
        Comm(usize),
        Group(OpId),
    }

    let ready_nodes = |op: OpId| -> Vec<Node> {
        match eval.group_of.get(&op) {
            Some(var) => eval.groups[var]
                .tails
                .iter()
                .map(|&t| Node::Op(t))
                .collect(),
            None => vec![Node::Op(op)],
        }
    };
    let deps = |node: Node| -> Vec<Node> {
        let mut out = Vec::new();
        match node {
            Node::Op(op) => {
                if let Some(&var) = eval.group_of.get(&op) {
                    out.push(Node::Group(var));
                    // Earlier members of the branch chain feed this one.
                    let group = &eval.groups[&var];
                    let branch = group.branch_of[&op];
                    for &m in &group.chains[&branch] {
                        if m == op {
                            break;
                        }
                        out.push(Node::Op(m));
                    }
                    return out;
                }
                let Some(slot) = schedule.slot(op).copied() else {
                    return out;
                };
                if let Some(p) = eval.prev_on_proc(op) {
                    out.extend(ready_nodes(p));
                }
                for e in alg.edges().iter().filter(|e| e.dst == op) {
                    let Some(pslot) = schedule.slot(e.src) else {
                        continue;
                    };
                    if pslot.proc != slot.proc {
                        if let Some(ci) = eval.delivering_comm(e.src, slot.proc, slot.start) {
                            out.push(Node::Comm(ci));
                        }
                    }
                }
            }
            Node::Comm(i) => {
                let c = schedule.comms()[i];
                out.extend(ready_nodes(c.src_op));
                let prev = schedule
                    .comms()
                    .iter()
                    .enumerate()
                    .filter(|(_, o)| o.medium == c.medium && o.start < c.start)
                    .max_by_key(|(_, o)| o.start)
                    .map(|(j, _)| j);
                if let Some(j) = prev {
                    out.push(Node::Comm(j));
                }
            }
            Node::Group(var) => {
                let group = &eval.groups[&var];
                let head = group.members[0];
                let mut prev = eval.prev_on_proc(head);
                while let Some(p) = prev {
                    if group.members.contains(&p) {
                        prev = eval.prev_on_proc(p);
                    } else {
                        break;
                    }
                }
                if let Some(p) = prev {
                    out.extend(ready_nodes(p));
                }
                let group_proc = schedule.slot(head).map(|s| s.proc);
                for &m in &group.members {
                    let Some(slot) = schedule.slot(m).copied() else {
                        continue;
                    };
                    for e in alg.edges().iter().filter(|e| e.dst == m) {
                        if group.members.contains(&e.src) {
                            continue;
                        }
                        let Some(pslot) = schedule.slot(e.src) else {
                            continue;
                        };
                        if Some(pslot.proc) != group_proc {
                            if let Some(ci) = eval.delivering_comm(e.src, slot.proc, slot.start) {
                                out.push(Node::Comm(ci));
                            }
                        }
                    }
                }
            }
        }
        out
    };

    let mut cones = HashMap::new();
    for s in schedule.ops() {
        let mut cone: Vec<usize> = Vec::new();
        let mut seen: HashSet<Node> = HashSet::new();
        let mut stack = vec![Node::Op(s.op)];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            if let Node::Comm(i) = node {
                cone.push(i);
            }
            stack.extend(deps(node));
        }
        cone.sort_unstable();
        cones.insert(s.op, cone);
    }
    cones
}

//! Delay-graph lint (pass d).
//!
//! The graph-of-delays synthesis (`ecl-core::delays::build`) is a
//! deterministic function of the algorithm, the schedule, and the fault
//! plan; this pass lints the structure that synthesis *will* produce
//! without building a simulator model:
//!
//! * **EV301** — non-exhaustive condition mapping: the `EventSelect` of a
//!   condition variable is sized `max branch + 1`, so a gap in the used
//!   branch indices is an output that can be selected but activates
//!   nothing (the period produces no actuation).
//! * **EV302** — orphan delay block: a non-actuator operation with no
//!   successor; its completion event drives nothing.
//! * **EV303** — synchronization arms with no timeout: the rendezvous of
//!   a cross-processor arrival is only armed with a timeout when a
//!   non-trivial fault plan is supplied, so without one any dropped frame
//!   would deadlock the rendezvous forever.
//! * **EV304** — the schedule's makespan exceeds the period: the loop
//!   cannot sustain `Ts` (the synthesis rejects this outright).
//! * **EV305** — a drop-capable fault plan degrades a rendezvous through
//!   its timeout arm: completions are forced to the period boundary, the
//!   activation-jitter hazard the paper warns about.

use std::collections::BTreeMap;

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, OpId, OpKind, Schedule, TimeNs};
use ecl_core::faults::FaultPlan;

use crate::bounds::plan_is_drop_capable;
use crate::diag::{Anchor, Diagnostic, Severity};

/// Operations whose activation is a multi-source rendezvous: they have a
/// cross-processor predecessor delivered by a scheduled transfer, so the
/// synthesis joins the processor chain and the arrival in a
/// `Synchronization` block.
fn rendezvous_ops(alg: &AlgorithmGraph, schedule: &Schedule) -> Vec<OpId> {
    let mut out = Vec::new();
    for s in schedule.ops() {
        let cross = alg
            .edges()
            .iter()
            .any(|e| e.dst == s.op && schedule.slot(e.src).is_some_and(|ps| ps.proc != s.proc));
        if cross {
            out.push(s.op);
        }
    }
    out.sort();
    out
}

/// Runs the delay-graph lint over one schedule.
pub fn lint_delay_graph(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    schedule: &Schedule,
    period: TimeNs,
    faults: Option<&FaultPlan>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // EV304: the schedule must fit the period.
    if schedule.makespan() > period {
        out.push(Diagnostic {
            code: "EV304",
            severity: Severity::Error,
            anchor: Anchor::Model,
            message: format!(
                "makespan {} exceeds the period {}; activity spills into the next period",
                schedule.makespan(),
                period
            ),
        });
    }

    // EV301: branch-index gaps per condition variable.
    let mut branches: BTreeMap<OpId, Vec<usize>> = BTreeMap::new();
    for op in alg.ops() {
        if let Some(c) = alg.condition(op) {
            branches.entry(c.variable).or_default().push(c.branch);
        }
    }
    for (var, mut used) in branches {
        used.sort_unstable();
        used.dedup();
        let n = used.last().copied().unwrap_or(0) + 1;
        for k in 0..n {
            if !used.contains(&k) {
                out.push(Diagnostic {
                    code: "EV301",
                    severity: Severity::Warn,
                    anchor: Anchor::op(alg, var),
                    message: format!(
                        "condition mapping is not exhaustive: branch {k} of {n} selects no operation"
                    ),
                });
            }
        }
    }

    // EV302: orphan completion events.
    for op in alg.ops() {
        if alg.kind(op) != OpKind::Actuator && alg.succs(op).is_empty() {
            out.push(Diagnostic {
                code: "EV302",
                severity: Severity::Warn,
                anchor: Anchor::op(alg, op),
                message: "completion event drives nothing (orphan delay block)".to_string(),
            });
        }
    }

    // EV303 / EV305: timeout arming of the rendezvous barriers.
    let armed = faults.is_some_and(|p| !p.is_trivial());
    let drop_capable = faults
        .is_some_and(|p| plan_is_drop_capable(p, schedule.comms().len(), arch.num_processors()));
    for op in rendezvous_ops(alg, schedule) {
        if !armed {
            out.push(Diagnostic {
                code: "EV303",
                severity: Severity::Info,
                anchor: Anchor::op(alg, op),
                message: "rendezvous synchronization has no timeout arm; a dropped frame would \
                          deadlock it (arm a fault plan to synthesize timeouts)"
                    .to_string(),
            });
        } else if drop_capable {
            out.push(Diagnostic {
                code: "EV305",
                severity: Severity::Warn,
                anchor: Anchor::op(alg, op),
                message: "drop-capable fault plan: the rendezvous degrades through its timeout \
                          arm and is forced at the period boundary"
                    .to_string(),
            });
        }
    }

    out
}

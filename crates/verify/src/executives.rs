//! Executive happens-before analysis (pass c).
//!
//! A channel is identified by `(src_op, from, medium)` — exactly the key
//! the synchronization primitives match on. Program order within one
//! executive plus the posting-send / blocking-receive matching induce the
//! happens-before relation. The pass reuses [`check_deadlock_free`] for
//! the fixpoint over one period of the infinite loop and classifies:
//!
//! * **EV201** — a receive that blocks forever (cyclic wait, or a wait on
//!   a channel no executive ever posts).
//! * **EV202** — a blocked receive whose matching send *is* pending later
//!   in the sending executive: nothing orders the post before the
//!   receive, so in the looping executive the receive matches the
//!   *previous* period's generation — an unordered conflicting channel
//!   access (stale read / lost update).
//! * **EV203** — operations of the algorithm graph computed zero or
//!   multiple times across the executives (unreachable / duplicated).
//! * **EV204** — a posted channel no executive ever receives (dead
//!   transfer occupying a medium slot).

use std::collections::HashMap;

use ecl_aaa::codegen::{check_deadlock_free, DeadlockCheck, Executive, Instr};
use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, MediumId, OpId, ProcId};

use crate::diag::{Anchor, Diagnostic, Severity};

/// Runs the happens-before pass over a set of executives.
pub fn verify_executives(
    execs: &[Executive],
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let op_name = |op: OpId| {
        if op.index() < alg.len() {
            alg.name(op).to_string()
        } else {
            op.to_string()
        }
    };
    let proc_anchor = |p: ProcId| Anchor::Proc {
        index: p.index(),
        name: if p.index() < arch.num_processors() {
            arch.proc_name(p).to_string()
        } else {
            p.to_string()
        },
    };

    // EV201 / EV202: blocked receives from the one-period fixpoint. A
    // blocked receive whose matching send appears anywhere in the sending
    // executive is a cross-period race (the loop's previous generation
    // satisfies it, unordered with the current one); a receive with no
    // matching send at all is a hard deadlock.
    if let DeadlockCheck::Deadlocked { cycle, blocked } = check_deadlock_free(execs) {
        for b in &blocked {
            let send_pending = execs
                .iter()
                .find(|e| e.proc == b.from)
                .map(|e| {
                    e.instrs.iter().any(|i| {
                        matches!(*i, Instr::Send { src_op, medium, .. }
                            if src_op == b.src_op && medium == b.medium)
                    })
                })
                .unwrap_or(false);
            let on_cycle = cycle.iter().any(|c| c.proc == b.proc && c.instr == b.instr);
            if send_pending {
                out.push(Diagnostic {
                    code: "EV202",
                    severity: Severity::Error,
                    anchor: proc_anchor(b.proc),
                    message: format!(
                        "instruction {}: {} — the send is unordered with the receive, which \
                         matches the previous period's generation (stale read){}",
                        b.instr,
                        b,
                        if on_cycle { " (on a cyclic wait)" } else { "" }
                    ),
                });
            } else {
                out.push(Diagnostic {
                    code: "EV201",
                    severity: Severity::Error,
                    anchor: proc_anchor(b.proc),
                    message: format!(
                        "instruction {} blocks forever: {} (no executive posts the channel){}",
                        b.instr,
                        b,
                        if on_cycle { " (on a cyclic wait)" } else { "" }
                    ),
                });
            }
        }
    }

    // Channel access census: posts and receives per (src_op, from, medium).
    type Channel = (OpId, ProcId, MediumId);
    let mut posts: HashMap<Channel, usize> = HashMap::new();
    let mut recvs: HashMap<Channel, usize> = HashMap::new();
    let mut computed: HashMap<OpId, usize> = HashMap::new();
    for e in execs {
        for i in &e.instrs {
            match *i {
                Instr::Compute { op, .. } => *computed.entry(op).or_default() += 1,
                Instr::Send { src_op, medium, .. } => {
                    *posts.entry((src_op, e.proc, medium)).or_default() += 1;
                }
                Instr::Recv {
                    src_op,
                    medium,
                    from,
                } => *recvs.entry((src_op, from, medium)).or_default() += 1,
            }
        }
    }

    // EV203: every operation of the algorithm computed exactly once.
    for op in alg.ops() {
        let n = computed.get(&op).copied().unwrap_or(0);
        if n != 1 {
            out.push(Diagnostic {
                code: "EV203",
                severity: Severity::Error,
                anchor: Anchor::op(alg, op),
                message: if n == 0 {
                    "never computed by any executive (unreachable)".to_string()
                } else {
                    format!("computed {n} times across the executives")
                },
            });
        }
    }

    // EV204: posted channels nobody receives.
    let mut dead: Vec<Channel> = posts
        .keys()
        .filter(|k| !recvs.contains_key(*k))
        .copied()
        .collect();
    dead.sort();
    for (src_op, from, medium) in dead {
        out.push(Diagnostic {
            code: "EV204",
            severity: Severity::Warn,
            anchor: proc_anchor(from),
            message: format!(
                "posts '{}' on {} but no executive receives it (dead transfer)",
                op_name(src_op),
                medium
            ),
        });
    }

    out
}

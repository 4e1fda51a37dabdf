//! Schedule feasibility (pass a): coverage, slot sanity, per-processor
//! and per-medium non-overlap, causality, and WCET consistency between
//! the timing table and the slot durations.

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, Schedule, TimingDb};

use crate::diag::{Anchor, Diagnostic, Severity};

/// Runs the feasibility pass over one schedule.
pub fn verify_schedule(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    schedule: &Schedule,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut push = |code: &'static str, severity: Severity, anchor: Anchor, message: String| {
        out.push(Diagnostic {
            code,
            severity,
            anchor,
            message,
        })
    };

    // EV001: coverage and slot sanity.
    for op in alg.ops() {
        let count = schedule.ops().iter().filter(|s| s.op == op).count();
        if count != 1 {
            push(
                "EV001",
                Severity::Error,
                Anchor::op(alg, op),
                format!("operation scheduled {count} times (must be exactly once)"),
            );
        }
    }
    for s in schedule.ops() {
        if s.end < s.start {
            push(
                "EV001",
                Severity::Error,
                Anchor::op(alg, s.op),
                format!("slot ends ({}) before it starts ({})", s.end, s.start),
            );
        }
        if s.proc.index() >= arch.num_processors() {
            push(
                "EV001",
                Severity::Error,
                Anchor::op(alg, s.op),
                format!("slot placed on unknown processor {}", s.proc),
            );
        }
    }

    // EV002: per-processor non-overlap.
    for p in arch.processors() {
        let mut seq = schedule.proc_sequence(p);
        seq.sort_by_key(|s| s.start);
        for w in seq.windows(2) {
            if w[1].start < w[0].end {
                push(
                    "EV002",
                    Severity::Error,
                    Anchor::Proc {
                        index: p.index(),
                        name: arch.proc_name(p).to_string(),
                    },
                    format!(
                        "slots of '{}' and '{}' overlap ([{} .. {}] vs [{} .. {}])",
                        alg.name(w[0].op),
                        alg.name(w[1].op),
                        w[0].start,
                        w[0].end,
                        w[1].start,
                        w[1].end
                    ),
                );
            }
        }
    }

    // EV003: per-medium stored order, non-overlap, and routing sanity.
    for (i, c) in schedule.comms().iter().enumerate() {
        if c.medium.index() >= arch.num_media() {
            push(
                "EV003",
                Severity::Error,
                Anchor::Comm { index: i },
                format!("transfer uses unknown medium {}", c.medium),
            );
        } else if !arch.medium_procs(c.medium).contains(&c.from)
            || !arch.medium_procs(c.medium).contains(&c.to)
        {
            push(
                "EV003",
                Severity::Error,
                Anchor::Comm { index: i },
                format!(
                    "transfer endpoints {} -> {} are not both connected to {}",
                    c.from,
                    c.to,
                    arch.medium_name(c.medium)
                ),
            );
        }
    }
    for m in arch.media() {
        let anchor = || Anchor::Medium {
            index: m.index(),
            name: arch.medium_name(m).to_string(),
        };
        let seq = schedule.medium_sequence(m);
        for w in seq.windows(2) {
            if w[1].start < w[0].start {
                push(
                    "EV003",
                    Severity::Error,
                    anchor(),
                    format!(
                        "stored sequence is unsorted: transfer of '{}' precedes '{}' but starts later",
                        alg.name(w[0].src_op),
                        alg.name(w[1].src_op)
                    ),
                );
            } else if w[1].start < w[0].end {
                push(
                    "EV003",
                    Severity::Error,
                    anchor(),
                    format!(
                        "transfers of '{}' and '{}' overlap",
                        alg.name(w[0].src_op),
                        alg.name(w[1].src_op)
                    ),
                );
            }
        }
    }

    // EV004: causality — every consumer starts after producer completion
    // plus, across processors, a delivering transfer's arrival.
    for e in alg.edges() {
        let (Some(ps), Some(pd)) = (schedule.slot(e.src), schedule.slot(e.dst)) else {
            continue; // missing slots already reported by EV001
        };
        if ps.proc == pd.proc {
            if ps.end > pd.start {
                push(
                    "EV004",
                    Severity::Error,
                    Anchor::op(alg, e.dst),
                    format!(
                        "starts at {} before its predecessor '{}' completes at {}",
                        pd.start,
                        alg.name(e.src),
                        ps.end
                    ),
                );
            }
        } else {
            // A dedicated transfer to the consumer's processor, or a
            // broadcast on a medium reaching it, must fit in
            // [producer end, consumer start].
            let delivered = schedule.comms().iter().any(|c| {
                c.src_op == e.src
                    && c.start >= ps.end
                    && c.end <= pd.start
                    && c.medium.index() < arch.num_media()
                    && arch.medium_procs(c.medium).contains(&pd.proc)
            });
            if !delivered {
                push(
                    "EV004",
                    Severity::Error,
                    Anchor::op(alg, e.dst),
                    format!(
                        "no transfer delivers '{}' from {} to {} inside [{} .. {}]",
                        alg.name(e.src),
                        arch.proc_name(ps.proc),
                        arch.proc_name(pd.proc),
                        ps.end,
                        pd.start
                    ),
                );
            }
        }
    }

    // EV005: WCET consistency between the timing table and slot durations.
    for s in schedule.ops() {
        if s.proc.index() >= arch.num_processors() {
            continue; // EV001 already fired
        }
        match db.wcet(s.op, s.proc) {
            None => push(
                "EV005",
                Severity::Error,
                Anchor::op(alg, s.op),
                format!(
                    "scheduled on {} where the timing table forbids it",
                    arch.proc_name(s.proc)
                ),
            ),
            Some(w) => {
                let dur = s.end - s.start;
                if dur != w {
                    push(
                        "EV005",
                        Severity::Error,
                        Anchor::op(alg, s.op),
                        format!(
                            "slot duration {} differs from the WCET {} on {}",
                            dur,
                            w,
                            arch.proc_name(s.proc)
                        ),
                    );
                }
            }
        }
    }

    out
}

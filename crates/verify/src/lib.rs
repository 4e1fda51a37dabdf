//! `ecl-verify` — static verification of the four implementation
//! artifacts of the AAA flow (algorithm graph, architecture graph, static
//! schedule, generated executives) plus the structure of the synthesized
//! graph of delays.
//!
//! Everything the rest of the repo *measures* by running a co-simulation
//! or the virtual executive, this crate *proves* from the artifacts
//! alone, before anything runs:
//!
//! * pass (a) — [`verify_schedule`]: feasibility (coverage, non-overlap
//!   per processor and medium, causality, WCET consistency);
//! * pass (b) — [`latency_bounds`]: sound worst-case `Ls`/`La` per
//!   sensor/actuator (paper eq. 1/2), nominal and under bounded-retry
//!   fault plans;
//! * pass (c) — [`verify_executives`]: happens-before analysis of the
//!   generated executives (deadlocks, cross-period races, unreachable
//!   operations, dead transfers);
//! * pass (d) — [`lint_delay_graph`]: condition-mapping exhaustiveness,
//!   orphan delay blocks, unarmed synchronization timeouts, period
//!   overrun;
//! * pass (e) — [`fault_envelope`]: abstract interpretation of the
//!   graph-of-delays semantics over the interval domain, yielding sound
//!   `[lo, hi]` completion envelopes for an entire [`FaultFamily`] of
//!   plans (frame loss with bounded retransmission, link-outage windows,
//!   processor dropout) and a conclusive safe/unsafe/inconclusive
//!   verdict.
//!
//! All passes report through one diagnostics engine ([`Diagnostic`],
//! [`VerifyReport`]) with stable rule codes (`EV001`…, registry in
//! DESIGN.md §10), fixed severities, source-entity anchors, deterministic
//! ordering, and text + JSON renderers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod delay_lint;
mod diag;
mod envelope;
mod executives;
mod feasibility;

pub use bounds::{
    latency_bounds, per_cone_retry_stretch, plan_is_drop_capable, worst_retry_stretch,
    LatencyBound, LatencyBoundReport,
};
pub use delay_lint::lint_delay_graph;
pub use diag::{Anchor, Diagnostic, Severity, VerifyReport};
pub use envelope::{
    envelope_diagnostics, fault_envelope, EnvelopeReport, EnvelopeVerdict, OpEnvelope,
};
pub use executives::verify_executives;
pub use feasibility::verify_schedule;

use ecl_aaa::{codegen, AaaError, AlgorithmGraph, ArchitectureGraph, Schedule, TimeNs, TimingDb};
use ecl_core::faults::{FaultFamily, FaultPlan};

/// Runs every pass over one adequation result: feasibility, latency
/// bounds, executive generation + happens-before analysis, and the
/// delay-graph lint. The returned report carries the deterministic
/// diagnostics of all passes and the [`LatencyBoundReport`].
///
/// # Errors
///
/// Propagates cycle detection and unimplementable-operation errors from
/// the shared critical-path helper; structural defects are reported as
/// diagnostics, not errors.
pub fn verify(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    schedule: &Schedule,
    period: TimeNs,
    faults: Option<&FaultPlan>,
) -> Result<VerifyReport, AaaError> {
    let mut diagnostics = verify_schedule(alg, arch, db, schedule);

    let bounds = latency_bounds(alg, arch, schedule, db, period, faults)?;
    // EV101: the nominal bound of an I/O operation can never undercut its
    // critical-path chain — a violation means the slot durations and the
    // timing table disagree (EV005 pinpoints where).
    for b in bounds.sensors.iter().chain(bounds.actuators.iter()) {
        if b.nominal < b.chain {
            diagnostics.push(Diagnostic {
                code: "EV101",
                severity: Severity::Error,
                anchor: Anchor::Op {
                    index: b.op.index(),
                    name: alg.name(b.op).to_string(),
                },
                message: format!(
                    "static bound {} undercuts the critical-path lower bound {}",
                    b.nominal, b.chain
                ),
            });
        }
    }
    // EV102: a retry stretch that can push actuation past the period.
    if !bounds.drop_capable && bounds.max_actuation_bound() > period {
        diagnostics.push(Diagnostic {
            code: "EV102",
            severity: Severity::Warn,
            anchor: Anchor::Model,
            message: format!(
                "fault-aware actuation bound {} exceeds the period {} (possible overrun under \
                 retries)",
                bounds.max_actuation_bound(),
                period
            ),
        });
    }
    // EV103: drop-capable plans void the retry bounds.
    if bounds.drop_capable {
        diagnostics.push(Diagnostic {
            code: "EV103",
            severity: Severity::Info,
            anchor: Anchor::Model,
            message: "fault plan can drop frames or kill processors; retry bounds are not sound \
                      (degradation is deadline-forced)"
                .to_string(),
        });
    }

    match codegen::generate(schedule, alg, arch) {
        Ok(g) => diagnostics.extend(verify_executives(&g.executives, alg, arch)),
        Err(e) => diagnostics.push(Diagnostic {
            code: "EV201",
            severity: Severity::Error,
            anchor: Anchor::Model,
            message: format!("executive generation failed: {e}"),
        }),
    }

    diagnostics.extend(lint_delay_graph(alg, arch, schedule, period, faults));

    let mut report = VerifyReport::from_diagnostics(diagnostics);
    report.bounds = Some(bounds);
    Ok(report)
}

/// Runs every pass of [`verify`] plus the fault-envelope abstract
/// interpretation (pass e) over a whole [`FaultFamily`]: the returned
/// report additionally carries the [`EnvelopeReport`] and any EV4xx
/// diagnostics (period or latency-budget envelope violations).
///
/// # Errors
///
/// Propagates the same artifact errors as [`verify`].
pub fn verify_family(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    schedule: &Schedule,
    period: TimeNs,
    family: &FaultFamily,
    budget: Option<TimeNs>,
) -> Result<VerifyReport, AaaError> {
    let base = verify(alg, arch, db, schedule, period, None)?;
    let env = fault_envelope(alg, arch, schedule, period, family, budget);
    let mut diagnostics = base.diagnostics().to_vec();
    diagnostics.extend(envelope_diagnostics(alg, &env));
    let mut report = VerifyReport::from_diagnostics(diagnostics);
    report.bounds = base.bounds;
    report.envelope = Some(env);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::codegen::{Executive, Instr};
    use ecl_aaa::{
        adequation, AdequationOptions, MediumId, OpId, ProcId, ScheduledComm, ScheduledOp,
    };
    use ecl_core::faults::FaultConfig;

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    /// s on p0, f on p1, a on p0 over one bus — two transfers, a
    /// rendezvous on each side.
    fn distributed_case() -> (AlgorithmGraph, ArchitectureGraph, TimingDb, Schedule) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("sample");
        let f = alg.add_function("control");
        let a = alg.add_actuator("actuate");
        alg.add_edge(s, f, 2).unwrap();
        alg.add_edge(f, a, 2).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], us(10), us(5)).unwrap();
        let mut db = TimingDb::new();
        db.set(s, p0, us(50));
        db.set(f, p1, us(100));
        db.set(a, p0, us(50));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        (alg, arch, db, schedule)
    }

    fn period() -> TimeNs {
        TimeNs::from_millis(1)
    }

    #[test]
    fn clean_schedule_verifies_without_errors() {
        let (alg, arch, db, schedule) = distributed_case();
        let report = verify(&alg, &arch, &db, &schedule, period(), None).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.count(Severity::Error), 0);
        // The nominal rendezvous notes (EV303) are informational only.
        assert!(report.has_code("EV303"));
        assert!(report.bounds.is_some());
    }

    #[test]
    fn bounds_dominate_replay_instants() {
        let (alg, arch, db, schedule) = distributed_case();
        let report = verify(&alg, &arch, &db, &schedule, period(), None).unwrap();
        let bounds = report.bounds.as_ref().unwrap();
        let g = codegen::generate(&schedule, &alg, &arch).unwrap();
        let replay = codegen::replay(&g, &arch).unwrap();
        for (op, _, end) in &replay.op_end {
            if let Some(b) = bounds.bound_for(*op) {
                assert!(*end <= b.nominal, "op {op}: {} > {}", end, b.nominal);
                assert!(b.nominal >= b.chain);
            }
        }
    }

    #[test]
    fn retry_plan_widens_bounds_soundly() {
        let (alg, arch, db, schedule) = distributed_case();
        // Deterministic seed scan for a retries-only plan with activity.
        let plan = (0..4096u64)
            .find_map(|seed| {
                let cfg = FaultConfig {
                    seed,
                    frame_loss_rate: 0.2,
                    max_retries: 3,
                    ..Default::default()
                };
                let p = FaultPlan::generate(&cfg, &schedule, &arch, 8).unwrap();
                let drops = plan_is_drop_capable(&p, schedule.comms().len(), 2);
                (!p.is_trivial() && !drops).then_some(p)
            })
            .expect("a retries-only plan exists");
        let report = verify(&alg, &arch, &db, &schedule, period(), Some(&plan)).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        let bounds = report.bounds.as_ref().unwrap();
        assert!(!bounds.drop_capable);
        assert!(bounds.retry_stretch > TimeNs::ZERO);
        for b in bounds.sensors.iter().chain(bounds.actuators.iter()) {
            assert!(b.faulty >= b.nominal);
            assert!(b.faulty <= b.nominal + bounds.retry_stretch);
        }
        // Per-cone refinement: the sensor waits on no transfer, so its
        // bound stays exactly nominal; the actuator's wait chains cross
        // every transfer, so it absorbs the full per-period stretch.
        let s = &bounds.sensors[0];
        assert_eq!(s.faulty, s.nominal);
        let a = &bounds.actuators[0];
        assert_eq!(a.faulty, a.nominal + bounds.retry_stretch);
    }

    #[test]
    fn corrupted_schedule_overlap_triggers_ev002() {
        let (alg, arch, db, schedule) = distributed_case();
        // Pull the actuator's slot back so it overlaps the sensor's on p0.
        let ops = schedule
            .ops()
            .iter()
            .map(|s| {
                let mut s = *s;
                if alg.kind(s.op) == ecl_aaa::OpKind::Actuator {
                    s.start = us(10);
                    s.end = us(60);
                }
                s
            })
            .collect();
        let corrupted = Schedule::from_parts(ops, schedule.comms().to_vec());
        let report = verify(&alg, &arch, &db, &corrupted, period(), None).unwrap();
        assert!(!report.is_clean());
        assert!(report.has_code("EV002"), "{}", report.render());
        // Causality breaks too: the actuator now precedes its producer.
        assert!(report.has_code("EV004"));
    }

    #[test]
    fn overlapping_transfers_trigger_ev003() {
        let (alg, arch, db, schedule) = distributed_case();
        let mut comms = schedule.comms().to_vec();
        let mut extra = comms[0];
        extra.start += TimeNs::from_nanos(1);
        extra.end += TimeNs::from_nanos(1);
        comms.push(extra);
        let corrupted = Schedule::from_parts(schedule.ops().to_vec(), comms);
        let report = verify(&alg, &arch, &db, &corrupted, period(), None).unwrap();
        assert!(report.has_code("EV003"), "{}", report.render());
    }

    #[test]
    fn wcet_mismatch_triggers_ev005_and_ev101() {
        let (alg, arch, mut db, schedule) = distributed_case();
        // Claim the sensor is slower than its scheduled slot: the slot
        // duration disagrees (EV005) and the static bound undercuts the
        // new critical path (EV101).
        let s = alg.ops().next().unwrap();
        let p0 = arch.processors().next().unwrap();
        db.set(s, p0, us(500));
        let report = verify(&alg, &arch, &db, &schedule, period(), None).unwrap();
        assert!(report.has_code("EV005"), "{}", report.render());
        assert!(report.has_code("EV101"));
    }

    #[test]
    fn racy_executive_pair_triggers_ev202() {
        let (alg, arch, _, _) = distributed_case();
        let ops: Vec<OpId> = alg.ops().collect();
        let procs: Vec<ProcId> = arch.processors().collect();
        let m: MediumId = arch.media().next().unwrap();
        // Crossed receives: each processor consumes before the matching
        // send is posted — both reads race with the previous period.
        let e0 = Executive {
            proc: procs[0],
            instrs: vec![
                Instr::Recv {
                    src_op: ops[1],
                    medium: m,
                    from: procs[1],
                },
                Instr::Send {
                    src_op: ops[0],
                    medium: m,
                    to: procs[1],
                },
            ],
        };
        let e1 = Executive {
            proc: procs[1],
            instrs: vec![
                Instr::Recv {
                    src_op: ops[0],
                    medium: m,
                    from: procs[0],
                },
                Instr::Send {
                    src_op: ops[1],
                    medium: m,
                    to: procs[0],
                },
            ],
        };
        let diags = verify_executives(&[e0, e1], &alg, &arch);
        let races = diags.iter().filter(|d| d.code == "EV202").count();
        assert_eq!(races, 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code != "EV201"));
    }

    #[test]
    fn orphan_receive_triggers_ev201() {
        let (alg, arch, _, _) = distributed_case();
        let ops: Vec<OpId> = alg.ops().collect();
        let procs: Vec<ProcId> = arch.processors().collect();
        let m: MediumId = arch.media().next().unwrap();
        let e0 = Executive {
            proc: procs[0],
            instrs: vec![Instr::Recv {
                src_op: ops[1],
                medium: m,
                from: procs[1],
            }],
        };
        let e1 = Executive {
            proc: procs[1],
            instrs: vec![],
        };
        let diags = verify_executives(&[e0, e1], &alg, &arch);
        assert!(diags.iter().any(|d| d.code == "EV201"), "{diags:?}");
        // All three algorithm operations are unreachable here.
        assert_eq!(diags.iter().filter(|d| d.code == "EV203").count(), 3);
    }

    #[test]
    fn dead_transfer_triggers_ev204() {
        let (alg, arch, _, _) = distributed_case();
        let ops: Vec<OpId> = alg.ops().collect();
        let procs: Vec<ProcId> = arch.processors().collect();
        let m: MediumId = arch.media().next().unwrap();
        let execs = vec![
            Executive {
                proc: procs[0],
                instrs: vec![
                    Instr::Compute {
                        op: ops[0],
                        wcet: us(1),
                    },
                    Instr::Compute {
                        op: ops[1],
                        wcet: us(1),
                    },
                    Instr::Compute {
                        op: ops[2],
                        wcet: us(1),
                    },
                    Instr::Send {
                        src_op: ops[0],
                        medium: m,
                        to: procs[1],
                    },
                ],
            },
            Executive {
                proc: procs[1],
                instrs: vec![],
            },
        ];
        let diags = verify_executives(&execs, &alg, &arch);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "EV204" && d.severity == Severity::Warn),
            "{diags:?}"
        );
    }

    #[test]
    fn condition_gap_and_orphan_lint() {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let mode = alg.add_function("mode");
        let fast = alg.add_function("fast");
        let slow = alg.add_function("slow");
        let stray = alg.add_function("stray");
        let a = alg.add_actuator("a");
        alg.add_edge(s, mode, 1).unwrap();
        alg.add_edge(s, stray, 1).unwrap();
        // Branches 0 and 2: branch 1 selects nothing.
        alg.set_condition(fast, mode, 0).unwrap();
        alg.set_condition(slow, mode, 2).unwrap();
        alg.add_edge(fast, a, 1).unwrap();
        alg.add_edge(slow, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        for op in alg.ops() {
            db.set_default(op, us(10));
        }
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let diags = lint_delay_graph(&alg, &arch, &schedule, period(), None);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "EV301" && d.message.contains("branch 1")),
            "{diags:?}"
        );
        // 'stray' computes but feeds nothing.
        assert!(diags.iter().any(|d| d.code == "EV302"
            && matches!(&d.anchor, Anchor::Op { name, .. } if name == "stray")));
    }

    #[test]
    fn drop_capable_plan_flags_degradation() {
        let (alg, arch, db, schedule) = distributed_case();
        let plan = (0..4096u64)
            .find_map(|seed| {
                let cfg = FaultConfig {
                    seed,
                    frame_loss_rate: 0.9,
                    max_retries: 0,
                    ..Default::default()
                };
                let p = FaultPlan::generate(&cfg, &schedule, &arch, 4).unwrap();
                plan_is_drop_capable(&p, schedule.comms().len(), 2).then_some(p)
            })
            .expect("a drop-capable plan exists");
        let report = verify(&alg, &arch, &db, &schedule, period(), Some(&plan)).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.has_code("EV103"));
        assert!(report.has_code("EV305"));
        assert!(report.bounds.as_ref().unwrap().drop_capable);
    }

    #[test]
    fn trivial_family_envelope_is_exact_and_safe() {
        use ecl_core::interval::TimeInterval;
        let (alg, arch, _, schedule) = distributed_case();
        let env = fault_envelope(
            &alg,
            &arch,
            &schedule,
            period(),
            &FaultFamily::trivial(),
            None,
        );
        assert_eq!(env.verdict(), EnvelopeVerdict::Safe);
        for e in &env.ops {
            let slot = schedule.slot(e.op).unwrap();
            assert_eq!(
                e.nominal, slot.end,
                "nominal replay instant is the slot end"
            );
            assert_eq!(e.completion, TimeInterval::point(slot.end));
            assert!(!e.may_be_absent);
        }
        assert_eq!(env.sensors.len(), 1);
        assert_eq!(env.actuators.len(), 1);
        assert_eq!(env.max_actuation_hi(), env.actuators[0].nominal);
    }

    #[test]
    fn drop_family_envelope_caps_at_the_forced_deadline() {
        use ecl_core::interval::TimeInterval;
        let (alg, arch, db, schedule) = distributed_case();
        let fam = FaultFamily {
            frame_loss: true,
            max_retries: 3,
            link_outage: false,
            proc_dropout: false,
        };
        let env = fault_envelope(&alg, &arch, &schedule, period(), &fam, None);
        assert_eq!(env.verdict(), EnvelopeVerdict::Inconclusive);
        // The sensor waits on nothing: its envelope stays a point even
        // though the family is fault-active.
        let s = &env.sensors[0];
        assert_eq!(s.completion, TimeInterval::point(s.nominal));
        assert!(!s.may_be_absent);
        // Worst case for the actuator: its rendezvous is forced at
        // kP + (P - 1ns), then its own slot runs.
        let a = &env.actuators[0];
        let a_slot = schedule.slot(a.op).unwrap();
        let forced = period() - TimeNs::from_nanos(1) + (a_slot.end - a_slot.start);
        assert_eq!(a.completion.hi(), forced);
        assert!(a.completion.lo() <= a.nominal && a.nominal <= a.completion.hi());
        assert!(a.may_be_absent, "a dropped transfer can silence actuation");
        // verify_family surfaces the envelope as EV402 + EV403 without
        // making the schedule an error.
        let report = verify_family(&alg, &arch, &db, &schedule, period(), &fam, None).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.has_code("EV402"), "{}", report.render());
        assert!(report.has_code("EV403"));
        assert!(report.envelope.is_some());
    }

    #[test]
    fn infeasible_period_is_conclusively_unsafe() {
        let (alg, arch, db, schedule) = distributed_case();
        let env = fault_envelope(
            &alg,
            &arch,
            &schedule,
            us(100),
            &FaultFamily::trivial(),
            None,
        );
        assert_eq!(env.verdict(), EnvelopeVerdict::Unsafe);
        let report = verify_family(
            &alg,
            &arch,
            &db,
            &schedule,
            us(100),
            &FaultFamily::trivial(),
            None,
        )
        .unwrap();
        assert!(report.has_code("EV401"), "{}", report.render());
        assert!(!report.is_clean());
    }

    #[test]
    fn latency_budget_violations_are_typed() {
        let (alg, arch, db, schedule) = distributed_case();
        // The nominal actuation instant already exceeds a 200us budget:
        // conclusively infeasible.
        let tight = verify_family(
            &alg,
            &arch,
            &db,
            &schedule,
            period(),
            &FaultFamily::trivial(),
            Some(us(200)),
        )
        .unwrap();
        assert!(tight.has_code("EV405"), "{}", tight.render());
        assert!(!tight.is_clean());
        assert_eq!(
            tight.envelope.as_ref().unwrap().verdict(),
            EnvelopeVerdict::Unsafe
        );
        // A 300us budget fits the nominal instant but not the widened
        // envelope: possible violation only.
        let fam = FaultFamily {
            frame_loss: true,
            max_retries: 3,
            link_outage: false,
            proc_dropout: false,
        };
        let loose =
            verify_family(&alg, &arch, &db, &schedule, period(), &fam, Some(us(300))).unwrap();
        assert!(loose.has_code("EV404"), "{}", loose.render());
        assert!(!loose.has_code("EV405"));
        assert!(loose.is_clean());
    }

    #[test]
    fn family_report_rendering_is_deterministic_and_complete() {
        let (alg, arch, db, schedule) = distributed_case();
        let fam = FaultFamily {
            frame_loss: true,
            max_retries: 2,
            link_outage: true,
            proc_dropout: true,
        };
        let r1 = verify_family(&alg, &arch, &db, &schedule, period(), &fam, Some(us(500))).unwrap();
        let r2 = verify_family(&alg, &arch, &db, &schedule, period(), &fam, Some(us(500))).unwrap();
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.to_json(), r2.to_json());
        let text = r1.render();
        assert!(text.contains("### Static latency bounds"));
        assert!(text.contains("### Fault envelope"));
        assert!(text.contains("verdict:"));
        let json = r1.to_json();
        assert!(json.contains("\"bounds\""));
        assert!(json.contains("\"envelope\""));
        assert!(json.contains("\"verdict\""));
        assert!(json.ends_with("\n}\n"));
    }

    #[test]
    fn period_overrun_triggers_ev304() {
        let (alg, arch, db, schedule) = distributed_case();
        let report = verify(&alg, &arch, &db, &schedule, us(100), None).unwrap();
        assert!(report.has_code("EV304"), "{}", report.render());
        assert!(!report.is_clean());
    }

    #[test]
    fn report_rendering_is_deterministic_and_complete() {
        let (alg, arch, db, schedule) = distributed_case();
        let r1 = verify(&alg, &arch, &db, &schedule, period(), None).unwrap();
        let r2 = verify(&alg, &arch, &db, &schedule, period(), None).unwrap();
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.to_json(), r2.to_json());
        let text = r1.render();
        assert!(text.starts_with("## Static verification\n"));
        assert!(text.contains("### Static latency bounds"));
        let json = r1.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("\n}\n"));
        assert!(json.contains("\"bounds\""));
        assert!(json.contains("\"errors\": 0"));
    }

    #[test]
    fn diagnostics_order_errors_first() {
        let report = VerifyReport::from_diagnostics(vec![
            Diagnostic {
                code: "EV302",
                severity: Severity::Warn,
                anchor: Anchor::Op {
                    index: 3,
                    name: "x".into(),
                },
                message: "m".into(),
            },
            Diagnostic {
                code: "EV004",
                severity: Severity::Error,
                anchor: Anchor::Op {
                    index: 9,
                    name: "y".into(),
                },
                message: "m".into(),
            },
            Diagnostic {
                code: "EV303",
                severity: Severity::Info,
                anchor: Anchor::Model,
                message: "m".into(),
            },
        ]);
        let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["EV004", "EV302", "EV303"]);
        assert!(!report.is_clean());
        assert_eq!(report.count(Severity::Error), 1);
    }

    #[test]
    fn from_parts_schedule_with_hand_built_slots_verifies() {
        // The public surface is enough to build and verify a schedule
        // without the adequation.
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let a = alg.add_actuator("a");
        alg.add_edge(s, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let mut db = TimingDb::new();
        db.set(s, p0, us(10));
        db.set(a, p0, us(10));
        let schedule = Schedule::from_parts(
            vec![
                ScheduledOp {
                    op: s,
                    proc: p0,
                    start: TimeNs::ZERO,
                    end: us(10),
                },
                ScheduledOp {
                    op: a,
                    proc: p0,
                    start: us(10),
                    end: us(20),
                },
            ],
            Vec::<ScheduledComm>::new(),
        );
        let report = verify(&alg, &arch, &db, &schedule, period(), None).unwrap();
        assert!(report.is_clean(), "{}", report.render());
    }
}

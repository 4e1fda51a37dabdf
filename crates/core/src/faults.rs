//! Deterministic fault injection for the distributed implementation.
//!
//! The graph of delays (paper §3.2) replays the schedule's *nominal*
//! timing; this module perturbs that replay with the failure modes a real
//! networked embedded control system exhibits:
//!
//! * **Frame loss with bounded retransmission** — a communication slot's
//!   transfer is lost with probability `frame_loss_rate` per attempt and
//!   retransmitted up to `max_retries` times; `k` retransmissions stretch
//!   the slot's [`EventDelay`](ecl_blocks::EventDelay) by `k ·
//!   retry_cost`, feeding extra actuation latency `La_j(k)` into eq. (2).
//!   Exhausting the retry budget drops the frame for the period.
//! * **Transient link outage** — a medium goes down for `outage_periods`
//!   consecutive periods with per-period probability `link_outage_rate`;
//!   every transfer scheduled on it during the window is dropped.
//! * **Permanent processor dropout** — a processor dies with per-period
//!   hazard `proc_dropout_rate`; from its death period onward every
//!   computation it hosts is dropped (fail-silent node).
//!
//! A [`FaultPlan`] is generated *up front* from a [`FaultConfig`] by
//! counter-based hashing: every random draw is a pure function of
//! `(seed, fault class, entity index, period, attempt)` through a
//! splitmix64 finalizer. Generation is therefore independent of iteration
//! order, thread count, and machine — the same config and schedule shape
//! yield byte-identical plans on 1 or 64 fleet workers.
//!
//! The plan compiles, per delay block of the graph, into a sequence of
//! [`DelayAction`]s indexed by activation count. Downstream, dropped
//! activations become *skipped* events: the Sample/Hold keeps its last
//! value (graceful degradation instead of divergence) and
//! `Synchronization` timeout arms keep dead predecessors from
//! deadlocking the period.

use ecl_aaa::{ArchitectureGraph, Fnv1a, Schedule, TimeNs};
use ecl_blocks::DelayAction;
use ecl_sim::splitmix64;
use ecl_telemetry::Counts;

use crate::CoreError;

/// A uniform draw in `[0, 1)` from `(seed, class tag, entity, period,
/// attempt)` — order-independent by construction.
fn draw(seed: u64, tag: u64, entity: u64, period: u64, attempt: u64) -> f64 {
    let mut h = splitmix64(seed ^ splitmix64(tag));
    h = splitmix64(h ^ entity.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h = splitmix64(h ^ period.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    h = splitmix64(h ^ attempt.wrapping_mul(0x94d0_49bb_1331_11eb));
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const TAG_FRAME: u64 = 1;
const TAG_OUTAGE: u64 = 2;
const TAG_PROC: u64 = 3;

/// Fault-injection configuration: one scenario's rates and budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the plan's hash stream.
    pub seed: u64,
    /// Per-attempt probability that a communication transfer is lost.
    pub frame_loss_rate: f64,
    /// Retransmission budget per communication slot and period.
    pub max_retries: u32,
    /// Per-period probability that a medium starts an outage window.
    pub link_outage_rate: f64,
    /// Length of an outage window in periods.
    pub outage_periods: u32,
    /// Per-period hazard of a processor dying permanently.
    pub proc_dropout_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            frame_loss_rate: 0.0,
            max_retries: 3,
            link_outage_rate: 0.0,
            outage_periods: 2,
            proc_dropout_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// `true` if every rate is zero — the plan is guaranteed trivial.
    pub fn is_zero(&self) -> bool {
        self.frame_loss_rate == 0.0 && self.link_outage_rate == 0.0 && self.proc_dropout_rate == 0.0
    }

    fn validate(&self) -> Result<(), CoreError> {
        for (name, r) in [
            ("frame_loss_rate", self.frame_loss_rate),
            ("link_outage_rate", self.link_outage_rate),
            ("proc_dropout_rate", self.proc_dropout_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(CoreError::InvalidInput {
                    reason: format!("{name} = {r} is outside [0, 1]"),
                });
            }
        }
        Ok(())
    }
}

/// The *family* of fault plans a configuration can draw: which fault
/// classes are enabled at all, plus the retransmission budget.
///
/// The fault-envelope analysis (DESIGN.md §15) abstracts over every plan
/// [`FaultPlan::generate`] can emit for *any* seed under a given set of
/// rates — only whether a rate is non-zero matters for what a plan *can*
/// contain, so the family is the right index for a sound `[lo, hi]`
/// interval bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultFamily {
    /// `true` iff frames can be lost (some member plan draws retries, and
    /// drops once the retry budget is exhausted).
    pub frame_loss: bool,
    /// Retransmission budget per communication slot and period.
    pub max_retries: u32,
    /// `true` iff media can enter outage windows (member plans drop every
    /// transfer of an affected medium for whole periods).
    pub link_outage: bool,
    /// `true` iff processors can die permanently (member plans silence
    /// every operation of a dead processor from its death period on).
    pub proc_dropout: bool,
}

impl FaultFamily {
    /// The family containing only the trivial (fault-free) plan.
    pub fn trivial() -> FaultFamily {
        FaultFamily {
            frame_loss: false,
            max_retries: 0,
            link_outage: false,
            proc_dropout: false,
        }
    }

    /// The smallest family containing every plan `config` can generate,
    /// over all seeds.
    pub fn from_config(config: &FaultConfig) -> FaultFamily {
        FaultFamily {
            frame_loss: config.frame_loss_rate > 0.0,
            max_retries: config.max_retries,
            link_outage: config.link_outage_rate > 0.0,
            proc_dropout: config.proc_dropout_rate > 0.0,
        }
    }

    /// `true` iff the family contains only the trivial plan.
    pub fn is_trivial(&self) -> bool {
        !self.frame_loss && !self.link_outage && !self.proc_dropout
    }

    /// `true` iff some member plan can drop a transfer outright (budget
    /// exhaustion, outage window, or dead producer) — degradation is then
    /// deadline-forced rather than stretch-bounded.
    pub fn admits_drops(&self) -> bool {
        self.frame_loss || self.link_outage || self.proc_dropout
    }

    /// `true` iff some member plan can stretch a transfer by
    /// retransmissions.
    pub fn admits_retries(&self) -> bool {
        self.frame_loss && self.max_retries > 0
    }

    /// `true` iff every plan `config` can generate (any seed) is a member
    /// of this family.
    pub fn contains_config(&self, config: &FaultConfig) -> bool {
        (self.frame_loss || config.frame_loss_rate == 0.0)
            && (self.link_outage || config.link_outage_rate == 0.0)
            && (self.proc_dropout || config.proc_dropout_rate == 0.0)
            && (config.frame_loss_rate == 0.0 || config.max_retries <= self.max_retries)
    }
}

/// The fate of one communication slot in one period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommFault {
    /// Transfer succeeds at the first attempt.
    Ok,
    /// Transfer succeeds after this many retransmissions.
    Retry(u32),
    /// Transfer is lost for the period (retry budget exhausted, outage,
    /// or dead producer).
    Drop,
}

/// A pre-computed, deterministic per-period fault assignment for one
/// schedule replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    periods: u32,
    /// Per processor index: the period it dies at, if ever.
    proc_dead_from: Vec<Option<u32>>,
    /// Per medium index, per period: `true` during an outage window.
    outage: Vec<Vec<bool>>,
    /// Per communication-slot index, per period.
    comm_faults: Vec<Vec<CommFault>>,
    counts: Counts,
}

impl FaultPlan {
    /// Generates the plan for `periods` periods of `schedule` on `arch`.
    ///
    /// Every draw is a pure hash of `(seed, class, entity, period,
    /// attempt)`, so the result is independent of worker count and call
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if a rate is outside `[0, 1]`.
    pub fn generate(
        config: &FaultConfig,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        periods: u32,
    ) -> Result<FaultPlan, CoreError> {
        config.validate()?;
        let mut counts = Counts::new();

        // --- permanent processor dropout --------------------------------
        let mut proc_dead_from: Vec<Option<u32>> = vec![None; arch.num_processors()];
        if config.proc_dropout_rate > 0.0 {
            for p in arch.processors() {
                for k in 0..periods {
                    if draw(config.seed, TAG_PROC, p.index() as u64, u64::from(k), 0)
                        < config.proc_dropout_rate
                    {
                        proc_dead_from[p.index()] = Some(k);
                        counts.add("proc_dropouts", 1);
                        break;
                    }
                }
            }
        }

        // --- transient link outage windows ------------------------------
        let mut outage: Vec<Vec<bool>> = vec![vec![false; periods as usize]; arch.num_media()];
        if config.link_outage_rate > 0.0 && config.outage_periods > 0 {
            for m in arch.media() {
                let mut k = 0u32;
                while k < periods {
                    if draw(config.seed, TAG_OUTAGE, m.index() as u64, u64::from(k), 0)
                        < config.link_outage_rate
                    {
                        counts.add("outage_windows", 1);
                        let end = (k + config.outage_periods).min(periods);
                        for kk in k..end {
                            outage[m.index()][kk as usize] = true;
                        }
                        // The next window can start only after this one —
                        // draws inside the window are skipped, keeping one
                        // draw per (medium, period) outside windows.
                        k = end;
                    } else {
                        k += 1;
                    }
                }
            }
        }

        // --- per-slot frame loss with bounded retransmission ------------
        let mut comm_faults: Vec<Vec<CommFault>> = Vec::with_capacity(schedule.comms().len());
        for (i, c) in schedule.comms().iter().enumerate() {
            let mut per_period = Vec::with_capacity(periods as usize);
            for k in 0..periods {
                let producer_dead = proc_dead_from[c.from.index()].is_some_and(|d| k >= d);
                let fault = if producer_dead {
                    counts.add("dead_producer_drops", 1);
                    CommFault::Drop
                } else if outage[c.medium.index()][k as usize] {
                    counts.add("outage_drops", 1);
                    CommFault::Drop
                } else if config.frame_loss_rate > 0.0 {
                    // Attempt a = 0 is the scheduled transmission; each
                    // loss consumes one retransmission from the budget.
                    let mut lost = 0u32;
                    while lost <= config.max_retries
                        && draw(
                            config.seed,
                            TAG_FRAME,
                            i as u64,
                            u64::from(k),
                            u64::from(lost),
                        ) < config.frame_loss_rate
                    {
                        lost += 1;
                        counts.add("frames_lost", 1);
                    }
                    if lost == 0 {
                        CommFault::Ok
                    } else if lost <= config.max_retries {
                        counts.add("retransmissions", u64::from(lost));
                        CommFault::Retry(lost)
                    } else {
                        counts.add("retry_budget_drops", 1);
                        CommFault::Drop
                    }
                } else {
                    CommFault::Ok
                };
                per_period.push(fault);
            }
            comm_faults.push(per_period);
        }

        Ok(FaultPlan {
            periods,
            proc_dead_from,
            outage,
            comm_faults,
            counts,
        })
    }

    /// A plan that injects nothing (the identity replay).
    pub fn trivial(periods: u32) -> FaultPlan {
        FaultPlan {
            periods,
            proc_dead_from: Vec::new(),
            outage: Vec::new(),
            comm_faults: Vec::new(),
            counts: Counts::new(),
        }
    }

    /// Number of periods the plan covers.
    pub fn periods(&self) -> u32 {
        self.periods
    }

    /// `true` if the plan injects no fault anywhere — the replay is
    /// byte-identical to a fault-free one and the synthesis takes the
    /// exact nominal code path.
    pub fn is_trivial(&self) -> bool {
        self.proc_dead_from.iter().all(Option::is_none)
            && self
                .comm_faults
                .iter()
                .all(|p| p.iter().all(|f| *f == CommFault::Ok))
    }

    /// The period processor index `proc` dies at, if ever.
    pub fn proc_dead_from(&self, proc: usize) -> Option<u32> {
        self.proc_dead_from.get(proc).copied().flatten()
    }

    /// The fate of communication slot `i` in period `k`.
    pub fn comm_fault(&self, i: usize, k: u32) -> CommFault {
        self.comm_faults
            .get(i)
            .and_then(|p| p.get(k as usize))
            .copied()
            .unwrap_or(CommFault::Ok)
    }

    /// Per-class injected-fault tally (deterministic rendering).
    pub fn counts(&self) -> &Counts {
        &self.counts
    }

    /// Compiles the actions of the computation-slot delay block hosted on
    /// processor index `proc`: `Drop` from the processor's death period
    /// onward. `None` if the block never needs to deviate from `Pass`.
    pub fn op_delay_actions(&self, proc: usize) -> Option<Vec<DelayAction>> {
        let dead = self.proc_dead_from(proc)?;
        let mut actions = vec![DelayAction::Pass; self.periods as usize];
        for a in actions.iter_mut().skip(dead as usize) {
            *a = DelayAction::Drop;
        }
        Some(actions)
    }

    /// Compiles the actions of communication slot `i`'s delay block, with
    /// one retransmission costing `retry_cost`. `None` if the slot never
    /// deviates from `Pass`.
    pub fn comm_delay_actions(&self, i: usize, retry_cost: TimeNs) -> Option<Vec<DelayAction>> {
        let per_period = self.comm_faults.get(i)?;
        if per_period.iter().all(|f| *f == CommFault::Ok) {
            return None;
        }
        Some(
            per_period
                .iter()
                .map(|f| match f {
                    CommFault::Ok => DelayAction::Pass,
                    CommFault::Retry(r) => DelayAction::Stretch(retry_cost * i64::from(*r)),
                    CommFault::Drop => DelayAction::Drop,
                })
                .collect(),
        )
    }

    /// Stable FNV-1a digest of the full plan content — two plans with the
    /// same digest injected the same faults in the same periods. Built on
    /// the same [`Fnv1a`] family as `schedule_digest`/`loop_spec_digest`
    /// so memo keys composed from all three stay in one hash family.
    /// Every section is length-prefixed, so plans whose flattened streams
    /// coincide but whose shapes differ (e.g. an outage row moved into a
    /// comm-fault row) cannot alias.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(self.periods));
        h.write_u64(self.proc_dead_from.len() as u64);
        for d in &self.proc_dead_from {
            h.write_u64(match d {
                Some(k) => u64::from(*k) + 1,
                None => 0,
            });
        }
        h.write_u64(self.outage.len() as u64);
        for per_medium in &self.outage {
            h.write_u64(per_medium.len() as u64);
            for &o in per_medium {
                h.write_u64(u64::from(o));
            }
        }
        h.write_u64(self.comm_faults.len() as u64);
        for per_slot in &self.comm_faults {
            h.write_u64(per_slot.len() as u64);
            for f in per_slot {
                h.write_u64(match f {
                    CommFault::Ok => 0,
                    CommFault::Retry(r) => u64::from(*r) + 1,
                    CommFault::Drop => u64::MAX,
                });
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::{adequation, AdequationOptions, AlgorithmGraph, TimingDb};

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    /// Two processors + bus, one comm slot.
    fn distributed_fixture() -> (AlgorithmGraph, ArchitectureGraph, Schedule) {
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

    #[test]
    fn zero_rates_give_trivial_plan() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            seed: 42,
            ..FaultConfig::default()
        };
        assert!(cfg.is_zero());
        let plan = FaultPlan::generate(&cfg, &schedule, &arch, 50).unwrap();
        assert!(plan.is_trivial());
        assert!(plan.counts().is_empty());
        assert_eq!(plan.comm_delay_actions(0, us(20)), None);
        assert_eq!(plan.op_delay_actions(0), None);
        assert!(FaultPlan::trivial(50).is_trivial());
    }

    #[test]
    fn invalid_rate_rejected() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            frame_loss_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(FaultPlan::generate(&cfg, &schedule, &arch, 10).is_err());
    }

    #[test]
    fn generation_is_reproducible_and_seed_sensitive() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            seed: 7,
            frame_loss_rate: 0.3,
            link_outage_rate: 0.05,
            proc_dropout_rate: 0.02,
            ..FaultConfig::default()
        };
        let a = FaultPlan::generate(&cfg, &schedule, &arch, 200).unwrap();
        let b = FaultPlan::generate(&cfg, &schedule, &arch, 200).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let other =
            FaultPlan::generate(&FaultConfig { seed: 8, ..cfg }, &schedule, &arch, 200).unwrap();
        assert_ne!(a.digest(), other.digest());
    }

    /// Exhaustive digest sensitivity, mirroring
    /// `loop_spec_digest_flips_on_every_field`: flipping any single plan
    /// field — the period count, any processor's death period, any
    /// outage flag, any slot fate (including the retry count), or any
    /// section's shape — must change the digest, and no two flips may
    /// alias each other.
    #[test]
    fn fault_plan_digest_flips_on_every_field() {
        let base = || FaultPlan {
            periods: 4,
            proc_dead_from: vec![None, Some(2)],
            outage: vec![vec![false, true, false, false]],
            comm_faults: vec![vec![
                CommFault::Ok,
                CommFault::Retry(1),
                CommFault::Drop,
                CommFault::Ok,
            ]],
            counts: Counts::new(),
        };
        let mut digests = vec![("baseline", base().digest())];
        let mut check = |label: &'static str, plan: FaultPlan| {
            let d = plan.digest();
            for (prev, pd) in &digests {
                assert_ne!(*pd, d, "digest of '{label}' collides with '{prev}'");
            }
            digests.push((label, d));
        };

        check("periods", {
            let mut p = base();
            p.periods = 5;
            p
        });
        check("proc death appears", {
            let mut p = base();
            p.proc_dead_from[0] = Some(0);
            p
        });
        check("proc death period", {
            let mut p = base();
            p.proc_dead_from[1] = Some(3);
            p
        });
        check("proc death removed", {
            let mut p = base();
            p.proc_dead_from[1] = None;
            p
        });
        check("proc list grows", {
            let mut p = base();
            p.proc_dead_from.push(None);
            p
        });
        check("outage flag set", {
            let mut p = base();
            p.outage[0][0] = true;
            p
        });
        check("outage flag cleared", {
            let mut p = base();
            p.outage[0][1] = false;
            p
        });
        check("outage medium added", {
            let mut p = base();
            p.outage.push(vec![false; 4]);
            p
        });
        check("comm fault Ok -> Retry(0)", {
            let mut p = base();
            p.comm_faults[0][0] = CommFault::Retry(0);
            p
        });
        check("comm retry count", {
            let mut p = base();
            p.comm_faults[0][1] = CommFault::Retry(2);
            p
        });
        check("comm Drop -> Ok", {
            let mut p = base();
            p.comm_faults[0][2] = CommFault::Ok;
            p
        });
        check("comm slot added", {
            let mut p = base();
            p.comm_faults.push(vec![CommFault::Ok; 4]);
            p
        });

        // `counts` is derived from the injected content, not part of the
        // plan's identity: it must NOT perturb the digest.
        let mut with_counts = base();
        with_counts.counts.add("frames_lost", 3);
        assert_eq!(base().digest(), with_counts.digest());
    }

    #[test]
    fn frame_loss_rate_one_exhausts_retry_budget() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            frame_loss_rate: 1.0,
            max_retries: 2,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &schedule, &arch, 4).unwrap();
        for k in 0..4 {
            assert_eq!(plan.comm_fault(0, k), CommFault::Drop);
        }
        // 3 attempts lost per period (initial + 2 retries) × 4 periods.
        assert_eq!(plan.counts().get("frames_lost"), 12);
        assert_eq!(plan.counts().get("retry_budget_drops"), 4);
        let actions = plan.comm_delay_actions(0, us(20)).unwrap();
        assert_eq!(actions, vec![DelayAction::Drop; 4]);
    }

    #[test]
    fn dead_processor_drops_all_its_comms_and_ops() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            proc_dropout_rate: 1.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &schedule, &arch, 6).unwrap();
        // Hazard 1.0: both processors die in period 0.
        assert_eq!(plan.proc_dead_from(0), Some(0));
        assert_eq!(plan.proc_dead_from(1), Some(0));
        assert_eq!(plan.counts().get("proc_dropouts"), 2);
        assert_eq!(
            plan.op_delay_actions(0).unwrap(),
            vec![DelayAction::Drop; 6]
        );
        assert_eq!(plan.comm_fault(0, 3), CommFault::Drop);
        assert!(plan.counts().get("dead_producer_drops") > 0);
    }

    #[test]
    fn outage_windows_cover_consecutive_periods() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            link_outage_rate: 1.0,
            outage_periods: 3,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &schedule, &arch, 7).unwrap();
        // Rate 1.0: back-to-back windows cover every period.
        for k in 0..7 {
            assert_eq!(plan.comm_fault(0, k), CommFault::Drop, "period {k}");
        }
        // ceil(7 / 3) = 3 windows started.
        assert_eq!(plan.counts().get("outage_windows"), 3);
        assert_eq!(plan.counts().get("outage_drops"), 7);
    }

    #[test]
    fn retry_actions_stretch_by_multiples_of_cost() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            seed: 3,
            frame_loss_rate: 0.5,
            max_retries: 5,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, &schedule, &arch, 64).unwrap();
        let cost = schedule.comm_retry_cost(&arch, 0).unwrap();
        let actions = plan.comm_delay_actions(0, cost).unwrap();
        assert_eq!(actions.len(), 64);
        let mut seen_retry = false;
        for (k, a) in actions.iter().enumerate() {
            match (plan.comm_fault(0, k as u32), a) {
                (CommFault::Ok, DelayAction::Pass) => {}
                (CommFault::Retry(r), DelayAction::Stretch(extra)) => {
                    assert_eq!(*extra, cost * i64::from(r));
                    seen_retry = true;
                }
                (CommFault::Drop, DelayAction::Drop) => {}
                (f, a) => panic!("period {k}: fault {f:?} compiled to {a:?}"),
            }
        }
        assert!(
            seen_retry,
            "rate 0.5 over 64 periods must retry at least once"
        );
    }

    #[test]
    fn family_abstracts_configs_by_enabled_classes() {
        assert!(FaultFamily::trivial().is_trivial());
        assert!(!FaultFamily::trivial().admits_drops());
        let cfg = FaultConfig {
            frame_loss_rate: 0.2,
            max_retries: 3,
            ..FaultConfig::default()
        };
        let fam = FaultFamily::from_config(&cfg);
        assert!(!fam.is_trivial());
        assert!(fam.admits_drops(), "loss beyond the budget drops");
        assert!(fam.admits_retries());
        assert!(fam.contains_config(&cfg));
        assert!(fam.contains_config(&FaultConfig::default()));
        // A bigger retry budget escapes the family; so does a new class.
        assert!(!fam.contains_config(&FaultConfig {
            frame_loss_rate: 0.1,
            max_retries: 4,
            ..FaultConfig::default()
        }));
        assert!(!fam.contains_config(&FaultConfig {
            proc_dropout_rate: 0.1,
            ..FaultConfig::default()
        }));
        // Loss disabled: the retry budget is irrelevant.
        let quiet = FaultFamily {
            frame_loss: false,
            max_retries: 0,
            link_outage: true,
            proc_dropout: false,
        };
        assert!(!quiet.admits_retries());
        assert!(quiet.contains_config(&FaultConfig {
            link_outage_rate: 0.5,
            max_retries: 9,
            ..FaultConfig::default()
        }));
    }

    #[test]
    fn every_generated_plan_is_within_its_family() {
        let (_, arch, schedule) = distributed_fixture();
        let cfg = FaultConfig {
            seed: 11,
            frame_loss_rate: 0.3,
            max_retries: 2,
            link_outage_rate: 0.1,
            proc_dropout_rate: 0.05,
            ..FaultConfig::default()
        };
        let fam = FaultFamily::from_config(&cfg);
        for seed in 0..32 {
            let plan =
                FaultPlan::generate(&FaultConfig { seed, ..cfg }, &schedule, &arch, 16).unwrap();
            for i in 0..schedule.comms().len() {
                for k in 0..plan.periods() {
                    if let CommFault::Retry(r) = plan.comm_fault(i, k) {
                        assert!(fam.admits_retries() && r <= fam.max_retries);
                    }
                }
            }
        }
    }
}

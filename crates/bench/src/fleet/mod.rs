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
//!   the fold takes per-scenario results in index order, never in
//!   completion order.
//! * **No redundant work** — memo tables shared by all workers
//!   ([`SweepCaches`]) answer repeated adequations, ideal runs,
//!   co-simulations and latency extractions by content digest; scenarios
//!   draw their WCET jitter from a small set of quantized tables
//!   ([`SweepConfig::wcet_tables`]), so scenarios sharing a table and
//!   policy present identical inputs. Each worker looks up through its
//!   own [`Lane`], so the hot path of a memo-bound sweep takes no lock.
//!
//! One file per concern of a sweep's life: its configuration and
//! scenarios (`config`), the worker pools (`pool`), the shared memo
//! tables and keys and each worker's [`Lane`] (`lane`), one scenario's
//! pipeline as one function per stage ([`run_scenario`], `stages`), and
//! the one fold every sweep runs through ([`SweepFold`], `fold`).
#![deny(clippy::too_many_lines)]

mod config;
mod fold;
mod lane;
mod pool;
mod stages;

pub use config::{scenario_seed, FaultAxes, Scenario, SweepConfig};
pub use fold::{run_sweep, SweepFold, SweepOutput};
pub use lane::{
    envelope_digest, report_digest, EnvelopeCache, Lane, ReportCache, ReportEntry, SweepCaches,
    SweepKeys,
};
pub use pool::{map_indexed, map_indexed_with, FleetPool};
pub use stages::{run_scenario, RecordExtras, ScenarioRecord};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Instant;

    use super::lane::sweep_bound_ns;
    use super::*;
    use crate::{dc_motor_loop, standard_split, SplitScenario};
    use ecl_aaa::{AdequationOptions, ScheduleCache, ScheduleKey, TimeNs, TimingDb};
    use ecl_core::cosim::{self, IdealRunCache, LoopKey, LoopResult, LoopSpec, ScheduledRunCache};
    use ecl_core::faults::{FaultConfig, FaultFamily, FaultPlan};
    use ecl_core::CoreError;
    use ecl_telemetry::{Histogram, Phase, ProfileReport, WorkerProfile};
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
            assert!(results.eq((0..20).map(|i| i * 2)));
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
            // The per-phase percentiles are ordered and bounded by the
            // longest span.
            for s in &p.phases {
                assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
                assert!(s.max_ns <= s.total_ns);
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
            assert!(results.eq((0..20).map(|i| i * 2 + round)));
            assert_eq!(states.len(), 3);
            for (lane, state) in states.iter().enumerate() {
                assert_eq!(state.0, lane);
            }
            assert_eq!(states.iter().map(|s| s.1).sum::<usize>(), 20);
        }
        // An empty job completes without claiming anything.
        let (results, states) = pool.run_with(0, |lane| lane, |i, _s: &mut usize| i);
        assert_eq!(results.len(), 0);
        assert_eq!(states.len(), 1);
    }

    /// Every counter of a sweep's output but the interleaving-dependent
    /// `races` and `class_hits`.
    fn counters(out: &SweepOutput) -> [u64; 13] {
        let s = &out.summary;
        [
            s.cache_hits,
            s.cache_misses,
            out.ideal_hits,
            out.ideal_misses,
            out.scheduled_hits,
            out.scheduled_misses,
            out.report_hits,
            out.report_misses,
            out.envelope_hits,
            out.envelope_misses,
            out.fault_plans,
            out.trivial_plans,
            out.faulty_keys,
        ]
    }

    /// What a class-table differential compares: the summary's Markdown
    /// and JSON, the merged histogram and the [`counters`].
    type Folded = (String, String, Histogram, [u64; 13]);

    /// Folds the sweep of `config` through one [`SweepFold`] over fresh
    /// shared tables: in one pass on `config.workers` lanes, or, unless
    /// `one_pass`, as one-scenario passes, each on a fresh lane whose
    /// class table is empty — the reference the class table must match.
    /// Also returns the fold's class hits.
    fn class_fold(
        spec: &LoopSpec,
        base: &SplitScenario,
        config: &SweepConfig,
        one_pass: bool,
    ) -> (Folded, u64) {
        let caches = SweepCaches::default();
        let keys = SweepKeys::new(spec, base);
        let mut fold = SweepFold::new(spec, config, &caches);
        let f = |i, lane: &mut Lane| run_scenario(&keys, base, config, &caches, i, lane);
        if one_pass {
            fold.scoped(0..config.scenario_count, config.workers, f)
                .unwrap();
        } else {
            for i in 0..config.scenario_count {
                fold.scoped(i..i + 1, 1, f).unwrap();
            }
        }
        let out = fold.finish();
        let s = &out.summary;
        let folded = (s.render(), s.to_json(), out.actuation_hist.clone());
        (
            (folded.0, folded.1, folded.2, counters(&out)),
            out.class_hits,
        )
    }

    /// exp19's fault axes.
    fn exp19_faults() -> FaultAxes {
        FaultAxes {
            frame_loss_rates: vec![0.0, 0.25],
            link_outage_rates: vec![0.0, 0.10],
            proc_dropout_rates: vec![0.0, 0.05],
            ..FaultAxes::default()
        }
    }

    /// The class table changes no byte and no counter: each sweep folded
    /// in one pass at 1 and 4 workers equals the same sweep folded as
    /// one-scenario passes, whose fresh lanes never find a class —
    /// fault-free, on exp19's fault axes with pruning, with a `Random`
    /// policy, traced, validated and verified, and over more classes
    /// than the table holds, so that at 1 worker it settles, starts over
    /// and hits again.
    #[test]
    fn class_table_matches_fresh_lanes() {
        use super::lane::{ClassKey, CLASS_ENTRIES};
        use ecl_aaa::MappingPolicy;

        let base = small_base();
        let spec = dc_motor_loop(0.05).unwrap();
        let hot = SweepConfig {
            scenario_count: 160,
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        };
        let cases = [
            ("fault-free", hot.clone()),
            (
                "exp19 faults, pruned",
                SweepConfig {
                    prune_static: true,
                    faults: exp19_faults(),
                    ..hot.clone()
                },
            ),
            (
                "random policy",
                SweepConfig {
                    policies: vec![
                        MappingPolicy::Random { seed: 0 },
                        MappingPolicy::EarliestFinish,
                    ],
                    ..hot.clone()
                },
            ),
            (
                "traced, pruned",
                SweepConfig {
                    trace_scenarios: 24,
                    prune_static: true,
                    ..hot.clone()
                },
            ),
            (
                "validated and verified",
                SweepConfig {
                    scenario_count: 40,
                    validate_executive: true,
                    verify_static: true,
                    ..hot.clone()
                },
            ),
            (
                "past the bound",
                SweepConfig {
                    scenario_count: 2 * CLASS_ENTRIES,
                    wcet_tables: 400,
                    ..hot
                },
            ),
        ];
        let mut past_the_bound = 0;
        for (case, config) in cases {
            let (reference, fresh_hits) = class_fold(&spec, &base, &config, false);
            assert_eq!(fresh_hits, 0, "{case}: a fresh lane found a class");
            let n = config.scenario_count;
            let classes: std::collections::HashSet<_> = (0..n)
                .map(|i| ClassKey::new(&Scenario::derive(&config, &base, i)))
                .collect();
            let repeats = (n - classes.len()) as u64;
            past_the_bound += usize::from(classes.len() > CLASS_ENTRIES);
            for workers in [1, 4] {
                let config = SweepConfig {
                    workers,
                    ..config.clone()
                };
                let (folded, hits) = class_fold(&spec, &base, &config, true);
                assert!(hits > 0, "{case}, {workers} workers: no class hit");
                // A table that started over misses its classes again.
                if workers == 1 && classes.len() > CLASS_ENTRIES {
                    assert!(hits < repeats, "{case}: {hits} hits, {repeats} repeats");
                }
                assert_eq!(folded, reference, "{case}, {workers} workers");
            }
        }
        assert_eq!(past_the_bound, 1);
    }

    /// At 1 worker one pass claims its scenarios in index order on one
    /// lane, so every scenario but the first of its class finds it:
    /// `class_hits` is the scenario count minus the classes — here
    /// fewer than the table holds, so it never starts over.
    #[test]
    fn serial_class_hits_are_scenarios_minus_classes() {
        use super::lane::ClassKey;

        let (spec, base) = (dc_motor_loop(0.05).unwrap(), small_base());
        for config in [
            SweepConfig {
                scenario_count: 300,
                memoize_scheduled: true,
                memoize_reports: true,
                ..SweepConfig::default()
            },
            SweepConfig {
                scenario_count: 300,
                prune_static: true,
                faults: exp19_faults(),
                ..SweepConfig::default()
            },
        ] {
            let classes: std::collections::HashSet<ClassKey> = (0..config.scenario_count)
                .map(|i| ClassKey::new(&Scenario::derive(&config, &base, i)))
                .collect();
            let out = run_sweep(&spec, &base, &config).unwrap();
            assert!(classes.len() < config.scenario_count);
            assert_eq!(
                out.class_hits,
                (config.scenario_count - classes.len()) as u64
            );
        }
    }

    /// At 1 worker every scenario's profile spans are contiguous — each
    /// starts where the previous one ended — run in the order of its
    /// pipeline, and lie inside the scenario's task window: the task
    /// shares its clock reads with its phases, and a phase that stops
    /// recording leaves a gap or a missing step. A trivial fault plan's
    /// replay is its baseline, so its scenario has no replay span (the
    /// faulty pipeline's second co-simulation, at index 5).
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
            let caches = SweepCaches::default();
            let keys = SweepKeys::new(&spec, &base);
            let bound = sweep_bound_ns(&spec, &config);
            let mut lane = Lane::new(WorkerProfile::new(0, Instant::now(), true), bound, 1);
            for i in 0..config.scenario_count {
                let before = lane.profile.now_ns();
                let (busy, recorded) = (lane.profile.busy_ns(), lane.profile.spans().len());
                let record = lane
                    .task(|lane| run_scenario(&keys, &base, &config, &caches, i, lane))
                    .unwrap();
                let mut pipeline = pipeline.clone();
                if record.extras.is_some_and(|e| e.trivial_plan()) {
                    pipeline.remove(5);
                }
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
    /// single-pass digest functions the split keys replaced, so neither
    /// the memo keys nor the keys of persisted cache records can move.
    #[test]
    fn exp17_first_scenario_memo_keys_are_pinned() {
        let spec = dc_motor_loop(0.05).unwrap();
        let base = small_base();
        let config = SweepConfig {
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        };
        let caches = SweepCaches::default();
        let mut lane = Lane::new(
            WorkerProfile::new(0, Instant::now(), false),
            sweep_bound_ns(&spec, &config),
            1,
        );
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
    /// where each lane serves repeated classes from its class table and
    /// counts the lookups they skip, and equals the counts pinned from
    /// direct lookups in the shared tables.
    #[test]
    fn exp17_memo_counters_survive_class_tables_at_any_worker_count() {
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

    /// The resident-pool sharding a daemon uses — [`SweepFold::pooled`]
    /// over the public [`run_scenario`] — must reproduce [`run_sweep`]'s
    /// artifacts byte for byte, cold *and* warm: the second pass over the
    /// same shared [`SweepCaches`] answers from the memos (zero new
    /// co-simulations) yet yields the identical summary, because the fold
    /// derives its cache counters from the job's own digest multiset, not
    /// the global tables.
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
        let caches = Arc::new(SweepCaches::default());
        let base = Arc::new(small_base());
        let keys = Arc::new(SweepKeys::new(&spec, &base).into_owned());
        let config = Arc::new(config);
        let run_pass = || {
            let mut fold = SweepFold::new(&spec, &config, &caches);
            let f = {
                let (caches, keys) = (Arc::clone(&caches), Arc::clone(&keys));
                let (base, config) = (Arc::clone(&base), Arc::clone(&config));
                move |i, lane: &mut Lane| run_scenario(&keys, &base, &config, &caches, i, lane)
            };
            fold.pooled(&pool, 0..config.scenario_count, f).unwrap();
            let out = fold.finish();
            (out.summary, out.traces, out.actuation_hist)
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

    /// A sweep whose period-scale axis holds NaN: those scenarios keep a
    /// NaN period through adequation (no makespan exceeds it), so their
    /// ideal run fails `check_times`. One WCET table keeps the classes
    /// few, so every lane serves repeats from its class table.
    fn failing_config(workers: usize) -> SweepConfig {
        SweepConfig {
            scenario_count: 24,
            workers,
            wcet_tables: 1,
            period_scales: vec![1.0, f64::NAN],
            trace_scenarios: 0,
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        }
    }

    /// The fold's failure contract: a sweep returns its lowest-index
    /// scenario failure at any worker count and any split into passes,
    /// and every lane of the failing pass has finished into the shared
    /// tables first, so each table's lookups are exactly those the lanes
    /// made (a failed lookup caches nothing and counts nothing).
    #[test]
    fn failing_sweep_returns_lowest_index_error_after_every_lane_finishes() {
        let (spec, base) = (dc_motor_loop(0.3).unwrap(), small_base());
        let count = failing_config(1).scenario_count;
        let failing: Vec<usize> = (0..count)
            .filter(|&i| {
                Scenario::derive(&failing_config(1), &base, i)
                    .period_scale
                    .is_nan()
            })
            .collect();
        assert_eq!(failing[..2], [3, 4], "{failing:?}");
        // The trigger: a NaN period fails the ideal run's time check.
        let nan = LoopSpec {
            ts: f64::NAN,
            ..spec.clone()
        };
        let err = cosim::run_ideal(&nan).unwrap_err();
        assert!(err.to_string().contains("ts = NaN s"), "{err}");
        for workers in [1, 4] {
            let out = run_sweep(&spec, &base, &failing_config(workers));
            assert_eq!(out.unwrap_err(), err, "{workers} workers");
        }

        // Daemon-style passes on a resident pool, whole and in chunks of
        // 3 (the first failing pass is not the first pass, and holds two
        // failures), with each failure tagged by its scenario index.
        let tag = |i: usize, e: CoreError| CoreError::InvalidInput {
            reason: format!("scenario {i}: {e}"),
        };
        let keys = Arc::new(SweepKeys::new(&spec, &base).into_owned());
        let base = Arc::new(base);
        for (workers, chunk) in [(1, count), (4, count), (1, 3), (4, 3)] {
            let pool = FleetPool::new(workers);
            let caches = Arc::new(SweepCaches::default());
            let config = Arc::new(failing_config(workers));
            let mut fold = SweepFold::new(&spec, &config, &caches);
            let mut start = 0;
            let (error, end) = loop {
                let end = count.min(start + chunk);
                let f = {
                    let (keys, base) = (Arc::clone(&keys), Arc::clone(&base));
                    let (config, caches) = (Arc::clone(&config), Arc::clone(&caches));
                    move |i, lane: &mut Lane| {
                        run_scenario(&keys, &base, &config, &caches, i, lane).map_err(|e| tag(i, e))
                    }
                };
                match fold.pooled(&pool, start..end, f) {
                    Ok(()) => start = end,
                    Err(e) => break (e, end),
                }
            };
            let case = format!("{workers} workers, chunk {chunk}");
            assert_eq!(error, tag(failing[0], err.clone()), "{case}");
            // The failing pass ran to its end: one schedule lookup per
            // scenario, and one ideal, scheduled-run and report lookup
            // per scenario whose period is finite.
            let finite = (0..end).filter(|i| !failing.contains(i)).count() as u64;
            let lookups = [
                caches.schedule.lookups(),
                caches.ideal.lookups(),
                caches.scheduled.lookups(),
                caches.reports.lookups(),
            ];
            assert_eq!(lookups, [end as u64, finite, finite, finite], "{case}");
            assert!(
                caches.ideal.hits() > 0,
                "{case}: no ideal lookup answered by the memo"
            );
        }
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

    /// Degraded runs and their baselines are measured leniently; the
    /// report key marks the extraction mode, so memoized lenient entries
    /// can never answer a strict lookup (or vice versa) and fault-sweep
    /// artifacts stay identical.
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
        assert_eq!(on.fault_plans, 6, "every scenario is faulty");
        assert_eq!(
            on.report_hits + on.report_misses,
            2 * on.fault_plans - on.trivial_plans,
            "one report lookup per faulty run and one per distinct baseline"
        );
    }

    /// A lenient read of a run never answers a strict lookup of it: a
    /// nominal run whose strict extraction errs (its last sample is
    /// doctored one period late) still fails a fault-free scenario after
    /// a faulty twin of the same scenario read it leniently as its
    /// baseline, through the same shared tables.
    #[test]
    fn lenient_baseline_read_never_answers_a_strict_lookup() {
        let (spec, base) = (dc_motor_loop(0.3).unwrap(), small_base());
        let fault_free = SweepConfig {
            scenario_count: 1,
            workers: 1,
            trace_scenarios: 0,
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        };
        let faulty = SweepConfig {
            faults: FaultAxes {
                frame_loss_rates: vec![0.25],
                ..FaultAxes::default()
            },
            ..fault_free.clone()
        };
        let keys = SweepKeys::new(&spec, &base);
        let sweep = |caches: &SweepCaches, config: &SweepConfig| {
            let mut fold = SweepFold::new(&spec, config, caches);
            let f = |i, lane: &mut Lane| run_scenario(&keys, &base, config, caches, i, lane);
            fold.scoped(0..1, 1, f).map(|()| fold.finish())
        };
        // Scenario 0's nominal run, with its last sample one period late.
        let nominal = SweepCaches::default();
        sweep(&nominal, &fault_free).unwrap();
        let (key, run) = nominal.scheduled.snapshot().remove(0);
        let mut doctored = LoopResult::clone(&run);
        let late = doctored.sample_instants[0].last_mut().unwrap();
        *late += TimeNs::from_secs_f64(doctored.ts);
        assert!(doctored.latency_report().is_err());
        assert!(doctored.latency_report_lenient().is_ok());

        let caches = SweepCaches::default();
        caches
            .scheduled
            .set_source(move |digest| (digest == key).then(|| doctored.clone()));
        let twin = sweep(&caches, &faulty).unwrap();
        assert_eq!(twin.fault_plans, 1);
        let err = sweep(&caches, &fault_free).unwrap_err();
        assert!(err.to_string().contains("outside its period"), "{err}");
    }

    /// The scenario rows of a summary's two documents, paired by index:
    /// the Markdown rows after the table's rule, the JSON rows of the
    /// `scenarios` array, each with its newline.
    fn scenario_rows(summary: &ecl_core::report::SweepSummary) -> Vec<(String, String)> {
        let (md, json) = (summary.render(), summary.to_json());
        let md_rows = md
            .lines()
            .skip_while(|l| *l != "|---|---|---|---|---|---|---|---|")
            .skip(1);
        let json_rows = json
            .lines()
            .skip_while(|l| *l != "  \"scenarios\": [")
            .skip(1);
        md_rows
            .zip(json_rows)
            .take(summary.scenarios.len())
            .map(|(m, j)| (format!("{m}\n"), format!("{j}\n")))
            .collect()
    }

    /// Every row's interned label is the label `Scenario::label()`
    /// formats (plus the prune suffix of a pruned row) at 1 and 4
    /// workers: on a hot sweep, a faulty sweep with pruning, a sweep
    /// whose every scenario is faulty and a `MappingPolicy::Random`
    /// sweep. No label is shorter than the config's
    /// `shortest_label_len()`, which the shortest one equals where
    /// nothing is pruned, and every rendered row is at least the
    /// daemon's admission floor for its label.
    #[test]
    fn interned_labels_equal_formatted_labels() {
        use ecl_aaa::MappingPolicy;
        use ecl_core::report::SCENARIO_ROW_MIN_BYTES;

        let spec = dc_motor_loop(0.05).unwrap();
        let base = small_base();
        let hot = SweepConfig {
            scenario_count: 300,
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        };
        let faults = FaultAxes {
            frame_loss_rates: vec![0.0, 0.25],
            link_outage_rates: vec![0.0, 0.10],
            ..FaultAxes::default()
        };
        let pruned = SweepConfig {
            scenario_count: 96,
            prune_static: true,
            faults: faults.clone(),
            ..hot.clone()
        };
        let always_faulty = SweepConfig {
            scenario_count: 48,
            faults: FaultAxes {
                frame_loss_rates: vec![0.25],
                ..faults
            },
            ..hot.clone()
        };
        let random = SweepConfig {
            scenario_count: 48,
            policies: vec![
                MappingPolicy::Random { seed: 0 },
                MappingPolicy::EarliestFinish,
            ],
            ..hot.clone()
        };
        for config in [hot, pruned, always_faulty, random] {
            for workers in [1, 4] {
                let config = SweepConfig {
                    workers,
                    ..config.clone()
                };
                let summary = run_sweep(&spec, &base, &config).unwrap().summary;
                let mut suffixes = [0usize; 3];
                for row in &summary.scenarios {
                    let label = Scenario::derive(&config, &base, row.index).label();
                    let suffix = row.label.strip_prefix(label.as_str()).unwrap_or_else(|| {
                        panic!("#{}: {:?} is not {label:?}", row.index, row.label)
                    });
                    let kind = ["", " pruned:safe", " pruned:unsafe"]
                        .iter()
                        .position(|s| *s == suffix)
                        .unwrap_or_else(|| panic!("#{}: suffix {suffix:?}", row.index));
                    suffixes[kind] += 1;
                }
                let p = summary.prune.unwrap_or_default();
                assert_eq!(suffixes[1..], [p.pruned_safe, p.pruned_unsafe]);
                assert!(!config.prune_static || p.pruned_safe > 0);

                let shortest = config.shortest_label_len();
                // Pruning only lengthens labels: there the bound is not met.
                let labels = summary.scenarios.iter().map(|r| r.label.len());
                let tight = labels.min() == Some(shortest);
                assert!(tight || config.prune_static, "{:?}", config.policies);
                let rows = scenario_rows(&summary);
                assert_eq!(rows.len(), summary.scenarios.len());
                for ((md, json), row) in rows.iter().zip(&summary.scenarios) {
                    assert!(md.starts_with(&format!("| {} | 0x", row.index)), "{md}");
                    assert!(json.contains(&*row.label), "{json}");
                    let floor = SCENARIO_ROW_MIN_BYTES + 2 * row.label.len();
                    assert!(md.len() + json.len() >= floor, "{md}{json}");
                    assert!(row.label.len() >= shortest);
                }
            }
        }
    }

    /// One fold slot holds a scenario's `Result`: the rare payloads sit
    /// behind one box, so the slot stays within two cache lines.
    #[test]
    fn scenario_result_fits_two_cache_lines() {
        let size = std::mem::size_of::<Result<ScenarioRecord, CoreError>>();
        assert!(size <= 128, "{size} bytes");
    }

    /// The envelope memo's key is pinned, and every field of the fault
    /// family, the period and the schedule digest move it.
    #[test]
    fn envelope_digest_is_pinned_and_field_sensitive() {
        let family = FaultFamily {
            frame_loss: true,
            max_retries: 3,
            link_outage: false,
            proc_dropout: true,
        };
        let period = TimeNs::from_micros(1_980);
        const SCHEDULE: u64 = 0x6b1e_3df7_63d2_516f;
        let pinned = envelope_digest(SCHEDULE, period, &family);
        assert_eq!(pinned, 0x6fe4_b60f_8d73_700a, "{pinned:#018x}");
        let flips = [
            envelope_digest(SCHEDULE ^ 1, period, &family),
            envelope_digest(SCHEDULE, period + TimeNs::from_nanos(1), &family),
            envelope_digest(
                SCHEDULE,
                period,
                &FaultFamily {
                    frame_loss: false,
                    ..family
                },
            ),
            envelope_digest(
                SCHEDULE,
                period,
                &FaultFamily {
                    max_retries: 2,
                    ..family
                },
            ),
            envelope_digest(
                SCHEDULE,
                period,
                &FaultFamily {
                    link_outage: true,
                    ..family
                },
            ),
            envelope_digest(
                SCHEDULE,
                period,
                &FaultFamily {
                    proc_dropout: false,
                    ..family
                },
            ),
        ];
        let mut distinct = flips.to_vec();
        distinct.push(pinned);
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), flips.len() + 1, "{flips:x?}");
    }

    /// The reference for the envelope memo: every scenario of `config`
    /// run on its own fresh tables and lane, so each envelope is a
    /// direct [`ecl_verify::fault_envelope`] call. Returns the summary's
    /// Markdown and JSON and its prune counts.
    fn direct_envelope_sweep(
        spec: &LoopSpec,
        base: &SplitScenario,
        config: &SweepConfig,
    ) -> (String, String, ecl_core::report::PruneSummary) {
        let (caches, keys) = (SweepCaches::default(), SweepKeys::new(spec, base));
        let bound = sweep_bound_ns(spec, config);
        let mut fold = SweepFold::new(spec, config, &caches);
        let direct = |i, _: &mut Lane| {
            let fresh = SweepCaches::default();
            let mut lane = Lane::new(WorkerProfile::new(0, Instant::now(), false), bound, 1);
            let record = run_scenario(&keys, base, config, &fresh, i, &mut lane);
            assert_eq!(fresh.envelopes.computes(), 1, "scenario {i}");
            record
        };
        fold.scoped(0..config.scenario_count, 1, direct).unwrap();
        let out = fold.finish();
        let s = out.summary;
        (s.render(), s.to_json(), s.prune.expect("pruning ran"))
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
            let first = memo.get_or_run_at(key.at(spec.ts)).unwrap();
            let second = memo.get_or_run_at(key.at(spec.ts)).unwrap();
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

        /// A trivial plan injects nothing, so its replay equals the
        /// nominal run in every metric byte and cost bit — which is what
        /// lets a sweep serve a trivial plan's replay with the nominal
        /// run. The plan is the first trivial one the seeds from `seed`
        /// draw at the given rates.
        #[test]
        fn trivial_plan_replay_equals_nominal_run(
            seed in 0u64..(1u64 << 48),
            index in 0usize..64,
            rates in (0.0f64..0.3, 0.0f64..0.2, 0.0f64..0.1),
            scale in 0.3f64..3.0,
        ) {
            let base = small_base();
            let config = SweepConfig::default();
            let scenario = Scenario::derive(&config, &base, index);
            let options = AdequationOptions {
                policy: scenario.policy,
            };
            let (schedule, _) = ScheduleCache::new()
                .get_or_compute(
                    &ScheduleKey::new(&base.alg, &base.arch),
                    &scenario.jittered_db(&base),
                    options,
                )
                .unwrap();
            let mut spec = dc_motor_loop(0.05).unwrap();
            spec.ts = (spec.ts * scale).max(schedule.makespan().as_secs_f64() * 1.05);
            let periods = (spec.horizon / spec.ts).floor().max(1.0) as u32;
            let (frame_loss_rate, link_outage_rate, proc_dropout_rate) = rates;
            let plan = (seed..seed + 100_000)
                .map(|seed| {
                    let faults = FaultConfig {
                        seed,
                        frame_loss_rate,
                        link_outage_rate,
                        proc_dropout_rate,
                        ..FaultConfig::default()
                    };
                    FaultPlan::generate(&faults, &schedule, &base.arch, periods).unwrap()
                })
                .find(FaultPlan::is_trivial)
                .expect("a trivial plan within 100 000 seeds");
            let (alg, io, arch) = (&base.alg, &base.io, &base.arch);
            let nominal = cosim::run_scheduled(&spec, alg, io, &schedule, arch).unwrap();
            let replay = cosim::run_scheduled_faulty(&spec, alg, io, &schedule, arch, plan).unwrap();
            prop_assert_eq!(nominal.cost.to_bits(), replay.cost.to_bits());
            prop_assert_eq!(nominal.to_metric_bytes(), replay.to_metric_bytes());
        }

        /// A faulty, pruning sweep over random fault axes renders the
        /// same summary bytes and prune counts through the envelope memo,
        /// at 1 and 4 workers, as with a direct envelope per scenario.
        #[test]
        fn envelope_memo_matches_direct_envelopes(
            rates in (0.05f64..0.5, 0.0f64..0.3, 0.0f64..0.1),
            retries in 0u32..4,
        ) {
            let (spec, base) = (dc_motor_loop(0.05).unwrap(), small_base());
            let config = SweepConfig {
                scenario_count: 24,
                wcet_tables: 2,
                trace_scenarios: 0,
                prune_static: true,
                memoize_scheduled: true,
                memoize_reports: true,
                faults: FaultAxes {
                    frame_loss_rates: vec![0.0, rates.0],
                    link_outage_rates: vec![0.0, rates.1],
                    proc_dropout_rates: vec![0.0, rates.2],
                    max_retries: retries,
                    ..FaultAxes::default()
                },
                ..SweepConfig::default()
            };
            let (render, json, prune) = direct_envelope_sweep(&spec, &base, &config);
            for workers in [1, 4] {
                let out = run_sweep(&spec, &base, &SweepConfig { workers, ..config.clone() }).unwrap();
                prop_assert_eq!(out.summary.prune, Some(prune));
                prop_assert_eq!(out.summary.render(), render.clone());
                prop_assert_eq!(out.summary.to_json(), json.clone());
                prop_assert_eq!(out.envelope_hits + out.envelope_misses, 24);
                prop_assert!(out.envelope_hits > 0, "24 scenarios over few keys must hit");
                // One-period plans are often trivial: the nominal run
                // served those replays, and the bytes above still match.
                prop_assert!(out.trivial_plans > 0 && out.trivial_plans < out.fault_plans);
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

//! The daemon's sweep engine: deployments, resident caches, response
//! memo and disk warm-start.
//!
//! One [`Engine`] lives for the daemon's whole life. It owns the
//! persistent [`FleetPool`] every job shards across, the shared
//! [`SweepCaches`] (adequation schedules, ideal runs, scheduled runs,
//! latency reports) and a response memo keyed by
//! [`SweepRequest::digest`]. With a [`DiskStore`] attached, schedules,
//! memoized runs and finished response payloads are written through to
//! disk, and a freshly constructed engine seeds its tables from the
//! store — a restarted daemon answers known requests without computing
//! a single schedule.
//!
//! **Byte determinism.** A job is sharded into chunks of scenarios, each
//! chunk a [`FleetPool::run_with`] pass, but every scenario receives its
//! *global* index — seeds, labels and aggregation order derive from it —
//! and records are folded in index order by a job-local
//! [`SweepAccumulator`]. The accumulator also derives the summary's
//! cache counters from the job's own schedule-digest multiset, not from
//! the shared tables, so a response's payload is byte-identical whether
//! it was computed on a cold daemon, a warm one, after a restart, with
//! one pool worker or with sixteen, in one chunk or many.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ecl_aaa::{AdequationOptions, DigestMemo, Fnv1a, MappingPolicy, Schedule, TimeNs};
use ecl_bench::fleet::{
    run_scenario, sweep_bound_ns, FaultAxes, FleetPool, SweepAccumulator, SweepCaches, SweepConfig,
    SWEEP_BUCKETS,
};
use ecl_bench::{dc_motor_loop, split_scenario, SplitScenario};
use ecl_core::cosim::{LoopResult, LoopSpec};
use ecl_core::faults::FaultFamily;
use ecl_core::report::SweepSummary;
use ecl_core::CoreError;
use ecl_telemetry::{Histogram, WorkerProfile};

use crate::store::DiskStore;
use crate::wire::{Policy, RequestDefect, ResponseSource, SweepRequest};

/// Store kinds the engine persists under.
const KIND_SCHEDULES: &str = "schedules";
const KIND_IDEAL: &str = "ideal";
const KIND_SCHEDULED: &str = "scheduled";
const KIND_RESPONSES: &str = "responses";

/// One registered deployment case: the split architecture scenario and
/// the control loop swept over it.
struct Deployment {
    spec: LoopSpec,
    base: SplitScenario,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment").finish_non_exhaustive()
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Resident fleet-pool workers (clamped to at least 1).
    pub workers: usize,
    /// Root of the persistent cache; `None` disables persistence.
    pub store_dir: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            store_dir: None,
        }
    }
}

/// A finished (or memoized) response.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The request digest this answers.
    pub digest: u64,
    /// The deterministic report bytes.
    pub payload: Arc<Vec<u8>>,
    /// FNV-1a digest of `payload`.
    pub payload_digest: u64,
    /// Where the payload came from this time.
    pub source: ResponseSource,
    /// Schedules computed by this engine since construction (the
    /// schedule memo's [`ecl_aaa::DigestMemo::computes`]); stays 0 on a
    /// warm-started engine answering known requests.
    pub sched_computes: u64,
}

/// One memoized response.
#[derive(Debug)]
struct Response {
    payload: Arc<Vec<u8>>,
    payload_digest: u64,
    /// Seeded from disk at construction (reports as
    /// [`ResponseSource::Disk`]) vs computed this lifetime
    /// ([`ResponseSource::Memory`]).
    disk_seeded: bool,
}

impl Response {
    fn new(payload: Vec<u8>, disk_seeded: bool) -> Response {
        Response {
            payload_digest: payload_digest(&payload),
            payload: Arc::new(payload),
            disk_seeded,
        }
    }
}

/// Monotonic engine counters (wall-clock-free).
#[derive(Debug, Default)]
struct EngineMetrics {
    jobs: AtomicU64,
    computed: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    persist_errors: AtomicU64,
    rejected: AtomicU64,
}

/// The resident sweep engine. See the module docs for the determinism
/// contract.
#[derive(Debug)]
pub struct Engine {
    deployments: HashMap<String, Arc<Deployment>>,
    caches: Arc<SweepCaches>,
    pool: FleetPool,
    store: Option<DiskStore>,
    responses: DigestMemo<Response>,
    metrics: EngineMetrics,
}

/// FNV-1a digest of a payload.
fn payload_digest(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(payload);
    h.finish()
}

/// `axis` with an all-zero fallback: scenario derivation indexes the
/// fault axes unconditionally, so an empty wire list means "fault-free",
/// never "no list".
fn axis_or_zero(axis: &[f64]) -> Vec<f64> {
    if axis.is_empty() {
        vec![0.0]
    } else {
        axis.to_vec()
    }
}

impl Engine {
    /// Builds the engine: registers the deployment cases, spawns the
    /// resident pool and (with a store) warm-starts every memo table
    /// from disk.
    ///
    /// # Errors
    ///
    /// Propagates deployment construction and store-open failures (a
    /// defective *entry* in the store is a counted miss, not an error).
    pub fn new(config: EngineConfig) -> Result<Engine, CoreError> {
        let mut deployments = HashMap::new();
        deployments.insert(
            "dc_motor".to_string(),
            Arc::new(Deployment {
                spec: dc_motor_loop(0.3)?,
                base: split_scenario(
                    2,
                    1,
                    TimeNs::from_micros(200),
                    TimeNs::from_micros(50),
                    TimeNs::from_micros(500),
                )?,
            }),
        );
        let store = match &config.store_dir {
            Some(dir) => Some(DiskStore::open(dir).map_err(|e| CoreError::InvalidInput {
                reason: format!("cannot open cache store {}: {e}", dir.display()),
            })?),
            None => None,
        };
        let caches = Arc::new(SweepCaches::new());
        let responses = DigestMemo::new();
        if let Some(store) = &store {
            store.warm_start(KIND_SCHEDULES, &caches.schedule, |bytes| {
                Schedule::from_bytes(&bytes).ok()
            });
            store.warm_start(KIND_IDEAL, &caches.ideal, |bytes| {
                LoopResult::from_metric_bytes(&bytes).ok()
            });
            store.warm_start(KIND_SCHEDULED, &caches.scheduled, |bytes| {
                LoopResult::from_metric_bytes(&bytes).ok()
            });
            store.warm_start(KIND_RESPONSES, &responses, |payload| {
                Some(Response::new(payload, true))
            });
        }
        Ok(Engine {
            deployments,
            caches,
            pool: FleetPool::new(config.workers),
            store,
            responses,
            metrics: EngineMetrics::default(),
        })
    }

    /// Resident pool workers.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// `true` when `case` names a registered deployment.
    pub fn knows_case(&self, case: &str) -> bool {
        self.deployments.contains_key(case)
    }

    /// [`SweepRequest::validate`] plus the check that needs the request's
    /// deployment: every scaled period `ts × scale` must be a positive
    /// whole-nanosecond [`TimeNs`] no longer than the horizon. A longer
    /// period samples the loop at most once, and the sweep's histogram
    /// bounds (twice the period) would overflow long before `TimeNs`
    /// does. An unknown case adds no defect here (it is refused by name).
    pub fn validate(&self, req: &SweepRequest) -> Vec<RequestDefect> {
        let mut defects = req.validate();
        let Some(deployment) = self.deployments.get(&req.case) else {
            return defects;
        };
        let (ts, horizon) = (deployment.spec.ts, deployment.spec.horizon);
        let unfit = |scale: &f64| {
            TimeNs::checked_from_secs_f64(ts * scale).is_none_or(|period| {
                period <= TimeNs::ZERO || period > TimeNs::from_secs_f64(horizon)
            })
        };
        let flagged = defects.iter().any(|d| d.code == "bad_period_scales");
        if !flagged && req.period_scales.iter().any(unfit) {
            defects.push(RequestDefect {
                code: "bad_period_scales",
                detail: format!(
                    "every scaled period ts × scale (ts = {ts} s) must be a positive \
                     whole-nanosecond time no longer than the {horizon} s horizon"
                ),
            });
        }
        defects
    }

    /// Static admission control (DESIGN.md §15): evaluates the
    /// fault-envelope of the request's deployment at every requested
    /// `(policy, period_scale)` combination on the *unjittered*
    /// schedule, before anything is queued. A combination whose
    /// envelope is conclusively [`ecl_verify::EnvelopeVerdict::Unsafe`]
    /// — every plan in the requested fault family overruns the
    /// requested period — contributes its error-severity EV diagnostic
    /// codes to the result; a non-empty result means the request must
    /// be rejected without spending a single co-simulation. Jitter only
    /// lengthens slots, so an unjittered lower-bound violation is a
    /// fortiori one for every jittered sweep member: admission rejects
    /// only deployments no scenario could satisfy.
    ///
    /// Codes are sorted and deduplicated, so the reply bytes are a pure
    /// function of the request. The request must have passed
    /// [`Engine::validate`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] for an unregistered case; adequation
    /// failures propagate.
    pub fn admission_codes(&self, req: &SweepRequest) -> Result<Vec<String>, CoreError> {
        let deployment =
            self.deployments
                .get(&req.case)
                .ok_or_else(|| CoreError::InvalidInput {
                    reason: format!("unknown deployment case {:?}", req.case),
                })?;
        let family = FaultFamily {
            frame_loss: req.frame_loss.iter().any(|r| *r > 0.0),
            max_retries: req.max_retries,
            link_outage: req.link_outage.iter().any(|r| *r > 0.0),
            proc_dropout: req.proc_dropout.iter().any(|r| *r > 0.0),
        };
        let base = &deployment.base;
        let mut codes: Vec<String> = Vec::new();
        for policy in &req.policies {
            let options = AdequationOptions {
                policy: match policy {
                    Policy::Pressure => MappingPolicy::SchedulePressure,
                    Policy::Earliest => MappingPolicy::EarliestFinish,
                },
            };
            let (schedule, _digest, _hit) = self
                .caches
                .schedule
                .get_or_compute_traced(&base.alg, &base.arch, &base.db, options)?;
            for &scale in &req.period_scales {
                let period = TimeNs::from_secs_f64(deployment.spec.ts * scale);
                let report = ecl_verify::fault_envelope(
                    &base.alg, &base.arch, &schedule, period, &family, None,
                );
                if report.verdict() != ecl_verify::EnvelopeVerdict::Unsafe {
                    continue;
                }
                for d in ecl_verify::envelope_diagnostics(&base.alg, &report) {
                    if d.severity == ecl_verify::Severity::Error {
                        codes.push(d.code.to_string());
                    }
                }
            }
        }
        codes.sort();
        codes.dedup();
        Ok(codes)
    }

    /// Records one rejected submit (semantic defect or envelope
    /// admission refusal); shows up as `jobs_rejected` in
    /// [`stats`](Engine::stats).
    pub fn note_rejected(&self) {
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Maps a validated wire request onto the fleet sweep configuration.
    /// Memoization is always on — a resident daemon is exactly the
    /// consumer those caches exist for — and tracing is off, because the
    /// response payload must be derivable from metric-grade cache
    /// entries alone.
    fn config_for(&self, req: &SweepRequest) -> SweepConfig {
        SweepConfig {
            base_seed: req.seed,
            scenario_count: req.scenarios,
            workers: self.pool.workers(),
            wcet_jitter: req.wcet_jitter,
            wcet_tables: req.wcet_tables,
            period_scales: req.period_scales.clone(),
            policies: req
                .policies
                .iter()
                .map(|p| match p {
                    Policy::Pressure => MappingPolicy::SchedulePressure,
                    Policy::Earliest => MappingPolicy::EarliestFinish,
                })
                .collect(),
            trace_scenarios: 0,
            faults: FaultAxes {
                frame_loss_rates: axis_or_zero(&req.frame_loss),
                link_outage_rates: axis_or_zero(&req.link_outage),
                proc_dropout_rates: axis_or_zero(&req.proc_dropout),
                max_retries: req.max_retries,
                outage_periods: req.outage_periods,
            },
            memoize_scheduled: true,
            memoize_reports: true,
            ..SweepConfig::default()
        }
    }

    /// Renders the deterministic response payload: the Markdown summary,
    /// the JSON document and one actuation-histogram line. No wall-clock
    /// content — the bytes are a pure function of the request.
    fn render_payload(summary: &SweepSummary, hist: &Histogram) -> Vec<u8> {
        let mut s = summary.render();
        s.push('\n');
        s.push_str(&summary.to_json());
        s.push('\n');
        let h = hist.summary();
        s.push_str(&format!(
            "actuation_hist count={} min_ns={} max_ns={} mean_ns={:.3} \
             p50_ns={} p95_ns={} p99_ns={}\n",
            h.count, h.min_ns, h.max_ns, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns
        ));
        s.into_bytes()
    }

    /// Write-through persistence after a computed job: every memo entry
    /// (the new response included) not yet in the store. Entries seeded
    /// from disk or saved by an earlier job are skipped, so the cost
    /// tracks what the job added, not the daemon's lifetime. Saves are
    /// atomic. Best-effort: a failed save bumps `persist_errors` and
    /// leaves its entry unsaved for the next job to retry; it never
    /// fails a job that already has its answer.
    fn persist(&self) {
        let Some(store) = &self.store else {
            return;
        };
        let failed = store.write_back(KIND_RESPONSES, &self.responses, |r| r.payload.to_vec())
            + store.write_back(KIND_SCHEDULES, &self.caches.schedule, Schedule::to_bytes)
            + store.write_back(KIND_IDEAL, &self.caches.ideal, LoopResult::to_metric_bytes)
            + store.write_back(
                KIND_SCHEDULED,
                &self.caches.scheduled,
                LoopResult::to_metric_bytes,
            );
        self.metrics
            .persist_errors
            .fetch_add(failed, Ordering::Relaxed);
    }

    /// Answers `req`: from the response memo when known, otherwise by
    /// sharding the sweep across the resident pool in `req.chunk`-sized
    /// passes, calling `progress(done, total, worst_ns, overruns)` after
    /// each pass.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] for an unregistered case; otherwise
    /// the lowest-index scenario failure, if any.
    pub fn run_job<F>(&self, req: &SweepRequest, progress: F) -> Result<JobReport, CoreError>
    where
        F: FnMut(usize, usize, i64, u64),
    {
        self.metrics.jobs.fetch_add(1, Ordering::Relaxed);
        let digest = req.digest();
        let (response, hit) = self
            .responses
            .get_or_compute(digest, || self.compute(req, progress))?;
        let (source, counter) = match (hit, response.disk_seeded) {
            (false, _) => (ResponseSource::Computed, &self.metrics.computed),
            (true, true) => (ResponseSource::Disk, &self.metrics.disk_hits),
            (true, false) => (ResponseSource::Memory, &self.metrics.memory_hits),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if !hit {
            self.persist();
        }
        Ok(JobReport {
            digest,
            payload: Arc::clone(&response.payload),
            payload_digest: response.payload_digest,
            source,
            sched_computes: self.caches.schedule.computes(),
        })
    }

    /// Computes `req`'s response by sharding the sweep across the
    /// resident pool (see [`run_job`](Engine::run_job)).
    fn compute<F>(&self, req: &SweepRequest, mut progress: F) -> Result<Response, CoreError>
    where
        F: FnMut(usize, usize, i64, u64),
    {
        let deployment =
            self.deployments
                .get(&req.case)
                .ok_or_else(|| CoreError::InvalidInput {
                    reason: format!("unknown deployment case {:?}", req.case),
                })?;
        let config = Arc::new(self.config_for(req));
        let bound = sweep_bound_ns(&deployment.spec, &config);
        let total = config.scenario_count;
        let chunk = if req.chunk == 0 { total } else { req.chunk };
        let epoch = Instant::now();
        let mut acc = SweepAccumulator::new(&config);
        let mut merged = Histogram::new(bound, SWEEP_BUCKETS);
        let mut worst = 0i64;
        let mut overruns = 0u64;
        let mut start = 0usize;
        while start < total {
            let count = (total - start).min(chunk);
            let f = {
                let deployment = Arc::clone(deployment);
                let config = Arc::clone(&config);
                let caches = Arc::clone(&self.caches);
                move |i: usize, state: &mut (WorkerProfile, Histogram)| {
                    let (wp, scratch) = state;
                    // The *global* index drives seeds, labels and trace
                    // prefixes, so chunking cannot perturb a byte.
                    run_scenario(
                        &deployment.spec,
                        &deployment.base,
                        &config,
                        &caches,
                        start + i,
                        wp,
                        scratch,
                    )
                }
            };
            let (records, states) = self.pool.run_with(
                count,
                move |lane| {
                    (
                        WorkerProfile::new(lane, epoch, false),
                        Histogram::new(bound, SWEEP_BUCKETS),
                    )
                },
                f,
            );
            for record in records {
                let record = record?;
                worst = worst.max(record.outcome.worst_actuation_ns);
                overruns += record.outcome.overruns as u64;
                acc.push(record);
            }
            // Lane scratches merge in lane order; histogram merging is
            // commutative and associative, so chunk x lane slicing can
            // never show through the merged bytes.
            for (_, scratch) in states {
                merged.merge(&scratch);
            }
            start += count;
            progress(start, total, worst, overruns);
        }
        let (summary, _traces) = acc.finish();
        Ok(Response::new(
            Self::render_payload(&summary, &merged),
            false,
        ))
    }

    /// The counter sidecar, in fixed order. Every value is digest- or
    /// event-derived — no wall-clock content — but hit/miss splits still
    /// belong beside, never inside, byte-compared payloads.
    pub fn stats(&self) -> Vec<(String, u64)> {
        let caches = &self.caches;
        let mut out = vec![
            ("jobs".into(), self.metrics.jobs.load(Ordering::Relaxed)),
            (
                "jobs_computed".into(),
                self.metrics.computed.load(Ordering::Relaxed),
            ),
            (
                "jobs_rejected".into(),
                self.metrics.rejected.load(Ordering::Relaxed),
            ),
            (
                "response_memory_hits".into(),
                self.metrics.memory_hits.load(Ordering::Relaxed),
            ),
            (
                "response_disk_hits".into(),
                self.metrics.disk_hits.load(Ordering::Relaxed),
            ),
            ("responses_cached".into(), self.responses.len() as u64),
            ("schedule_computes".into(), caches.schedule.computes()),
            ("schedule_entries".into(), caches.schedule.len() as u64),
            ("ideal_entries".into(), caches.ideal.len() as u64),
            ("scheduled_entries".into(), caches.scheduled.len() as u64),
            ("report_entries".into(), caches.reports.len() as u64),
            (
                "persist_errors".into(),
                self.metrics.persist_errors.load(Ordering::Relaxed),
            ),
        ];
        if let Some(store) = &self.store {
            out.push(("store_corrupt".into(), store.corrupt_seen()));
        }
        out
    }
}

//! The daemon's sweep engine: deployments, resident caches, response
//! memo and the disk store behind them.
//!
//! One [`Engine`] lives for the daemon's whole life. It owns the
//! persistent [`FleetPool`] every job shards across, the shared
//! [`SweepCaches`] (adequation schedules, ideal runs, scheduled runs,
//! latency reports) and a response memo keyed by
//! [`SweepRequest::digest`]. With a [`DiskStore`] attached, schedules,
//! memoized runs and finished response payloads are written through to
//! disk, and the store backs those four memos: a miss loads its entry
//! from disk before anything is computed. A restarted daemon starts
//! without reading the store, answers known requests without computing
//! a single schedule, and decodes only the records its requests need.
//!
//! **Byte determinism.** A job is sharded into chunks of scenarios, each
//! chunk a [`SweepFold::pooled`] pass of one job-local [`SweepFold`] on
//! the resident pool, but every scenario receives its *global* index —
//! seeds, labels and aggregation order derive from it — and records are
//! folded in index order. The fold also derives the summary's cache
//! counters from the job's own schedule-digest multiset, not from the
//! shared tables, so a response's payload is byte-identical whether it
//! was computed on a cold daemon, a warm one, after a restart, with one
//! pool worker or with sixteen, in one chunk or many.

use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecl_aaa::{AdequationOptions, DigestMemo, Schedule, TimeNs};
use ecl_bench::fleet::{
    envelope_digest, run_scenario, FaultAxes, FleetPool, SweepCaches, SweepConfig, SweepFold,
    SweepKeys,
};
use ecl_bench::{dc_motor_loop, fnv64, standard_split, SplitScenario};
use ecl_core::cosim::{LoopResult, LoopSpec};
use ecl_core::faults::FaultFamily;
use ecl_core::report::{SweepSummary, SCENARIO_ROW_MIN_BYTES};
use ecl_core::CoreError;
use ecl_telemetry::Histogram;

use crate::store::DiskStore;
use crate::wire::{RequestDefect, ResponseSource, SweepRequest, MAX_FRAME};

/// Store kinds the engine persists under.
const KIND_SCHEDULES: &str = "schedules";
const KIND_IDEAL: &str = "ideal";
const KIND_SCHEDULED: &str = "scheduled";
const KIND_RESPONSES: &str = "responses";

/// One registered deployment case: the split architecture scenario and
/// the memo keys of the control loop swept over it, whose per-deployment
/// halves are hashed once at registration. The keys own their copies of
/// the loop spec and graphs: jobs run on the resident pool, which only
/// takes owned work.
struct Deployment {
    base: SplitScenario,
    keys: SweepKeys<'static>,
}

impl Deployment {
    fn new(spec: LoopSpec, base: SplitScenario) -> Deployment {
        let keys = SweepKeys::new(&spec, &base).into_owned();
        Deployment { base, keys }
    }

    /// The swept control loop.
    fn spec(&self) -> &LoopSpec {
        self.keys.spec.base()
    }
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
    /// restarted engine answering requests over known axes.
    pub sched_computes: u64,
}

/// One memoized response.
#[derive(Debug)]
struct Response {
    payload: Arc<Vec<u8>>,
    payload_digest: u64,
    /// Loaded from the store (reports as [`ResponseSource::Disk`]) vs
    /// computed this lifetime ([`ResponseSource::Memory`]).
    from_disk: bool,
}

impl Response {
    fn new(payload: Vec<u8>) -> Response {
        Response {
            payload_digest: fnv64(&payload),
            payload: Arc::new(payload),
            from_disk: false,
        }
    }

    /// The store record: the payload digest, little-endian, then the
    /// payload. The store checksums the whole record, so a load takes
    /// the digest from it instead of hashing the payload again.
    fn to_record(&self) -> Vec<u8> {
        let mut record = Vec::with_capacity(8 + self.payload.len());
        record.extend_from_slice(&self.payload_digest.to_le_bytes());
        record.extend_from_slice(&self.payload);
        record
    }

    /// Inverse of [`to_record`](Response::to_record); the one copy a
    /// load makes of a response.
    fn from_record(record: &[u8]) -> Option<Response> {
        let (digest, payload) = record.split_first_chunk::<8>()?;
        Some(Response {
            payload: Arc::new(payload.to_vec()),
            payload_digest: u64::from_le_bytes(*digest),
            from_disk: true,
        })
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
    store: Option<Arc<DiskStore>>,
    responses: DigestMemo<Response>,
    metrics: EngineMetrics,
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
    /// resident pool and (with a store) backs every persisted memo with
    /// the store. Nothing is read from disk until a lookup misses.
    ///
    /// # Errors
    ///
    /// Propagates deployment construction and store-open failures (a
    /// defective *entry* in the store is a counted miss, not an error).
    pub fn new(config: EngineConfig) -> Result<Engine, CoreError> {
        let mut deployments = HashMap::new();
        deployments.insert(
            "dc_motor".to_string(),
            Arc::new(Deployment::new(dc_motor_loop(0.3)?, standard_split()?)),
        );
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(DiskStore::open(dir).map_err(|e| {
                CoreError::InvalidInput {
                    reason: format!("cannot open cache store {}: {e}", dir.display()),
                }
            })?)),
            None => None,
        };
        let caches = Arc::new(SweepCaches::default());
        let responses = DigestMemo::new();
        if let Some(store) = &store {
            store.back(KIND_SCHEDULES, &caches.schedule, |bytes| {
                Schedule::from_bytes(bytes).ok()
            });
            store.back(KIND_IDEAL, &caches.ideal, |bytes| {
                LoopResult::from_metric_bytes(bytes).ok()
            });
            store.back(KIND_SCHEDULED, &caches.scheduled, |bytes| {
                LoopResult::from_metric_bytes(bytes).ok()
            });
            store.back(KIND_RESPONSES, &responses, Response::from_record);
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

    /// [`SweepRequest::validate`] plus two checks. A report that surely
    /// exceeds [`MAX_FRAME`] is a `report_too_large` defect: every
    /// scenario writes at least [`SCENARIO_ROW_MIN_BYTES`] plus twice
    /// the shortest label the request's axes allow
    /// ([`SweepConfig::shortest_label_len`]) into the payload, so such a
    /// request is refused before it computes anything. And, for a known
    /// deployment, every scaled period `ts × scale` must be a positive
    /// whole-nanosecond [`TimeNs`] no longer than the horizon. A longer
    /// period samples the loop at most once, and the sweep's histogram
    /// bounds (twice the period) would overflow long before `TimeNs`
    /// does. An unknown case adds no defect here (it is refused by name).
    pub fn validate(&self, req: &SweepRequest) -> Vec<RequestDefect> {
        let mut defects = req.validate();
        if !defects.iter().any(|d| d.code == "bad_scenarios") {
            let row = SCENARIO_ROW_MIN_BYTES + 2 * self.config_for(req).shortest_label_len();
            let floor = req.scenarios.saturating_mul(row);
            if floor > MAX_FRAME {
                defects.push(RequestDefect {
                    code: "report_too_large",
                    detail: format!(
                        "{} scenarios write at least {row} bytes each, {floor} in all, \
                         over the {MAX_FRAME}-byte frame cap",
                        req.scenarios
                    ),
                });
            }
        }
        let Some(deployment) = self.deployments.get(&req.case) else {
            return defects;
        };
        let (ts, horizon) = (deployment.spec().ts, deployment.spec().horizon);
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
    /// only deployments no scenario could satisfy. Each envelope is
    /// looked up in the shared envelope memo the sweeps prune with, so
    /// a repeated combination is not recomputed.
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
        for &policy in &req.policies {
            let options = AdequationOptions {
                policy: policy.into(),
            };
            let (schedule, digest) = self.caches.schedule.get_or_compute(
                &deployment.keys.schedule,
                &base.db,
                options,
            )?;
            for &scale in &req.period_scales {
                let period = TimeNs::from_secs_f64(deployment.spec().ts * scale);
                let key = envelope_digest(digest, period, &family);
                let Ok((report, _)) = self.caches.envelopes.get_or_compute(key, || {
                    Ok::<_, Infallible>(ecl_verify::fault_envelope(
                        &base.alg, &base.arch, &schedule, period, &family, None,
                    ))
                });
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
            wcet_jitter: req.wcet_jitter,
            wcet_tables: req.wcet_tables,
            period_scales: req.period_scales.clone(),
            policies: req.policies.iter().map(|&p| p.into()).collect(),
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
    /// the JSON document and one actuation-histogram line, each written
    /// into one string presized for all three. No wall-clock content —
    /// the bytes are a pure function of the request.
    fn render_payload(summary: &SweepSummary, hist: &Histogram) -> Vec<u8> {
        let mut s = String::with_capacity(summary.documents_capacity());
        summary.render_into(&mut s);
        s.push('\n');
        summary.to_json_into(&mut s);
        s.push('\n');
        let h = hist.summary();
        let _ = writeln!(
            s,
            "actuation_hist count={} min_ns={} max_ns={} mean_ns={:.3} \
             p50_ns={} p95_ns={} p99_ns={}",
            h.count, h.min_ns, h.max_ns, h.mean_ns, h.p50_ns, h.p95_ns, h.p99_ns
        );
        // The response memo keeps the payload for the daemon's life, so
        // it keeps no growth slack either: this is the payload's one copy.
        s.shrink_to_fit();
        s.into_bytes()
    }

    /// Write-through persistence after a computed job: every memo entry
    /// (the new response included) not yet in the store, each appended
    /// to its kind's segment as one record before the job returns.
    /// Entries loaded from disk or saved by an earlier job are skipped,
    /// and no saved record is ever rewritten, so the cost tracks what the
    /// job added, not the daemon's lifetime. Best-effort: a failed save
    /// bumps `persist_errors` and leaves its entry unsaved for the next
    /// job to retry; it never fails a job that already has its answer.
    fn persist(&self) {
        let Some(store) = &self.store else {
            return;
        };
        let failed = store.write_back(KIND_RESPONSES, &self.responses, Response::to_record)
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
        let (source, counter) = match (hit, response.from_disk) {
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
        let total = config.scenario_count;
        let chunk = if req.chunk == 0 { total } else { req.chunk };
        let mut fold = SweepFold::new(deployment.spec(), &config, &self.caches);
        let mut start = 0usize;
        while start < total {
            let end = start + (total - start).min(chunk);
            let f = {
                let deployment = Arc::clone(deployment);
                let config = Arc::clone(&config);
                let caches = Arc::clone(&self.caches);
                move |i, lane: &mut _| {
                    let (keys, base) = (&deployment.keys, &deployment.base);
                    run_scenario(keys, base, &config, &caches, i, lane)
                }
            };
            fold.pooled(&self.pool, start..end, f)?;
            let (worst, overruns) = fold.progress();
            progress(end, total, worst, overruns);
            start = end;
        }
        let out = fold.finish();
        Ok(Response::new(Self::render_payload(
            &out.summary,
            &out.actuation_hist,
        )))
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
            ("envelope_entries".into(), caches.envelopes.len() as u64),
            (
                "persist_errors".into(),
                self.metrics.persist_errors.load(Ordering::Relaxed),
            ),
        ];
        if let Some(store) = &self.store {
            out.push(("store_records_loaded".into(), store.records_loaded()));
            out.push(("store_corrupt".into(), store.corrupt_seen()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total lookups of each of the five shared tables, in
    /// [`SweepCaches`] field order.
    fn lookups(engine: &Engine) -> [u64; 5] {
        let caches = &engine.caches;
        [
            caches.schedule.lookups(),
            caches.ideal.lookups(),
            caches.scheduled.lookups(),
            caches.reports.lookups(),
            caches.envelopes.lookups(),
        ]
    }

    /// Sharding a job into 16-scenario chunks finishes a set of lanes
    /// per chunk, each settling its own class table; one unsharded pass
    /// finishes one set. Both leave the same payload bytes and the same
    /// lookup totals on every table.
    #[test]
    fn chunking_leaves_payload_and_table_lookups_unchanged() {
        let run = |chunk: usize| {
            let engine = Engine::new(EngineConfig {
                workers: 2,
                store_dir: None,
            })
            .unwrap();
            let req = SweepRequest {
                seed: 0xc4a_0016,
                scenarios: 64,
                chunk,
                period_scales: vec![1.0, 1.25],
                frame_loss: vec![0.0, 0.25],
                ..SweepRequest::default()
            };
            let report = engine.run_job(&req, |_, _, _, _| {}).unwrap();
            (report.payload, lookups(&engine))
        };
        let (chunked, chunked_lookups) = run(16);
        let (whole, whole_lookups) = run(0);
        assert_eq!(chunked, whole);
        assert_eq!(chunked_lookups, whole_lookups);
        // Every scenario looked the schedule, ideal-run, scheduled-run
        // and report tables up once; a faulty one with a non-trivial plan
        // looked up its replay and its baseline's lenient report too. A
        // job prunes nothing, so only admission reads envelopes.
        let [schedule, ideal, scheduled, reports, envelopes] = whole_lookups;
        assert_eq!([schedule, ideal, envelopes], [64, 64, 0]);
        assert!(scheduled > 64, "{whole_lookups:?}");
        assert_eq!(reports, scheduled, "{whole_lookups:?}");
    }

    /// The admission floor of a default request is 283 bytes a scenario
    /// (211 of row plus twice the 36-byte `EarliestFinish` label), so
    /// 3 705 scenarios fit under the frame cap and 3 706 are refused.
    /// When every scenario is faulty its label carries 32 bytes of fault
    /// rates, and the floor is 347 bytes.
    #[test]
    fn validate_refuses_a_report_whose_floor_exceeds_the_frame_cap() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            store_dir: None,
        })
        .unwrap();
        let codes = |scenarios: usize, frame_loss: &[f64]| {
            let req = SweepRequest {
                scenarios,
                frame_loss: frame_loss.to_vec(),
                ..SweepRequest::default()
            };
            let defects = engine.validate(&req);
            defects.iter().map(|d| d.code).collect::<Vec<_>>()
        };
        assert!(codes(3_705, &[]).is_empty());
        assert_eq!(codes(3_706, &[]), ["report_too_large"]);
        assert!(codes(3_021, &[0.25]).is_empty());
        assert_eq!(codes(3_022, &[0.25]), ["report_too_large"]);
        // A fault-free draw remains possible: the default floor holds.
        assert!(codes(3_705, &[0.0, 0.25]).is_empty());
        assert_eq!(codes(3_706, &[0.0, 0.25]), ["report_too_large"]);
        assert_eq!(engine.caches.schedule.computes(), 0, "validation is pure");
    }

    /// Admission looks each `(policy, period)` envelope up in the shared
    /// envelope memo: a repeated request computes no envelope and gets
    /// the same codes, and an infeasible period still carries EV401.
    #[test]
    fn admission_reads_envelopes_from_the_shared_memo() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            store_dir: None,
        })
        .unwrap();
        let req = SweepRequest {
            period_scales: vec![1e-3, 1.0],
            frame_loss: vec![0.25],
            ..SweepRequest::default()
        };
        let combinations = (req.policies.len() * req.period_scales.len()) as u64;
        let codes = engine.admission_codes(&req).unwrap();
        assert_eq!(codes, ["EV401"]);
        let envelopes = &engine.caches.envelopes;
        assert_eq!(envelopes.computes(), combinations);
        assert_eq!(engine.admission_codes(&req).unwrap(), codes);
        assert_eq!(envelopes.computes(), combinations);
        assert_eq!(
            (envelopes.hits(), envelopes.misses()),
            (combinations, combinations)
        );
    }
}

//! E18-SERVE — the resident sweep-as-a-service daemon end to end.
//!
//! Drives one daemon through its whole service lifecycle and checks the
//! claims that make a *resident* engine worth having over the one-shot
//! experiment binaries:
//!
//! * **Concurrent service** — four clients submit eight distinct sweep
//!   jobs over TCP; every job streams `Queued` → `Delta`* → `Report` →
//!   `Done` and completes (requests/sec and p99 job latency archived in
//!   `results/timing/BENCH_exp18.json`).
//! * **Response memoization** — resubmitting all eight requests is
//!   answered 100% from the response digest cache (`source=memory`),
//!   with payloads byte-identical to the cold run.
//! * **Restart warmth** — a new daemon on the same `results/cache/`
//!   store answers all eight from disk (`source=disk`), byte-identical
//!   again, with its lifetime schedule-compute counter still at zero.
//! * **Worker invariance** — in-process engines with 1 and 4 pool
//!   workers produce byte-identical payloads for the same request, and
//!   the whole lifecycle above, run once on a 1-worker daemon and once
//!   on a 4-worker one, yields the same digest report.
//! * **Admission control** — a bucket of capacity 2 with a negligible
//!   refill admits two rapid submits and rejects the third with a typed
//!   `rate_limited` error.
//!
//! Artifacts follow the E17 split: `results/exp18_serve.txt` is the
//! deterministic digest report (request digests, payload digests,
//! sources — no wall-clock content; `scripts/check.sh` diffs it against
//! the committed copy), `results/timing/BENCH_exp18.json` is the
//! untracked wall-clock sidecar of the 4-worker lifecycle.

use std::path::PathBuf;
use std::time::Instant;

use ecl_bench::{fnv64, worker_invariant, write_result, BenchResult};
use ecl_serve::wire::Policy;
use ecl_serve::{
    Client, ClientError, Engine, EngineConfig, JobOutcome, ResponseSource, Server, ServerConfig,
    SweepRequest,
};

/// Distinct jobs of the fleet phases.
const JOBS: usize = 8;

/// Concurrent client connections.
const CLIENTS: usize = 4;

/// The eight distinct requests: common axes, distinct seeds, the last
/// two with fault injection so the faulty pipeline is exercised through
/// the daemon too.
fn requests() -> Vec<SweepRequest> {
    (0..JOBS)
        .map(|i| SweepRequest {
            case: "dc_motor".into(),
            seed: 0xe18_0000 + i as u64 * 7919,
            scenarios: 16,
            priority: (i % 3) as u8,
            chunk: 8,
            wcet_jitter: 0.3,
            wcet_tables: 2,
            period_scales: vec![1.0, 1.25],
            policies: vec![Policy::Pressure, Policy::Earliest],
            frame_loss: if i >= JOBS - 2 { vec![0.2] } else { Vec::new() },
            link_outage: Vec::new(),
            proc_dropout: Vec::new(),
            max_retries: 3,
            outage_periods: 2,
        })
        .collect()
}

/// One phase: `CLIENTS` threads submit the requests round-robin and
/// return `(outcome, latency_ns)` in request order.
fn run_clients(
    addr: std::net::SocketAddr,
    reqs: &[SweepRequest],
) -> Result<Vec<(JobOutcome, u64)>, Box<dyn std::error::Error>> {
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<(usize, JobOutcome, u64)>, String> {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut out = Vec::new();
                    for (i, req) in reqs.iter().enumerate() {
                        if i % CLIENTS != c {
                            continue;
                        }
                        let t0 = Instant::now();
                        let outcome = client.submit(req).map_err(|e| format!("job {i}: {e}"))?;
                        out.push((i, outcome, t0.elapsed().as_nanos() as u64));
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().expect("client thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    let mut results = results;
    results.sort_by_key(|&(i, _, _)| i);
    Ok(results.into_iter().map(|(_, o, l)| (o, l)).collect())
}

/// Nearest-rank percentile of sorted latencies.
fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1]
}

/// The payload an in-process engine with `workers` pool workers derives
/// for the first request (no store, fresh caches).
fn engine_payload(workers: usize) -> BenchResult<Vec<u8>> {
    let engine = Engine::new(EngineConfig {
        workers,
        store_dir: None,
    })?;
    let report = engine.run_job(&requests()[0], |_, _, _, _| {})?;
    Ok(report.payload.as_ref().clone())
}

/// Asserts one phase's outcomes: expected source everywhere, complete
/// delta streams for computed jobs, and (against `reference`) identical
/// payload bytes.
fn check_phase(
    phase: &str,
    outcomes: &[(JobOutcome, u64)],
    expect: ResponseSource,
    reference: Option<&[(JobOutcome, u64)]>,
) {
    for (i, (outcome, _)) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.source, expect,
            "{phase}: job {i} answered from {:?}, expected {expect:?}",
            outcome.source
        );
        if expect == ResponseSource::Computed {
            let req = &requests()[i];
            let chunks = req.scenarios.div_ceil(req.chunk);
            assert_eq!(
                outcome.deltas.len(),
                chunks,
                "{phase}: job {i} must stream one delta per chunk"
            );
            let &(done, total, _, _) = outcome.deltas.last().expect("at least one delta");
            assert_eq!((done, total), (req.scenarios, req.scenarios));
        }
        if let Some(reference) = reference {
            assert_eq!(
                outcome.payload, reference[i].0.payload,
                "{phase}: job {i} payload must be byte-identical to the cold run"
            );
            assert_eq!(outcome.payload_digest, reference[i].0.payload_digest);
        }
    }
}

/// Rate-limit probe: capacity 2, effectively no refill — the third
/// rapid submit must be rejected with the typed `rate_limited` error.
fn rate_limit_probe() -> Result<bool, Box<dyn std::error::Error>> {
    let server = Server::start(ServerConfig {
        workers: 1,
        store_dir: None,
        rate_capacity: 2.0,
        rate_refill_per_sec: 0.001,
        ..ServerConfig::default()
    })?;
    let mut client = Client::connect(server.addr())?;
    let req = SweepRequest {
        scenarios: 4,
        chunk: 0,
        ..requests()[0].clone()
    };
    client.submit(&req)?;
    client.submit(&req)?;
    match client.submit(&req) {
        Err(ClientError::Server { code, .. }) if code == "rate_limited" => Ok(true),
        Ok(_) => Ok(false),
        Err(e) => Err(format!("expected rate_limited, got {e}").into()),
    }
}

/// What one daemon lifecycle observed: the outcomes and latencies of
/// its cold, warm and restart phases, and its timings.
struct Lifecycle {
    workers: usize,
    cold: Vec<(JobOutcome, u64)>,
    warm: Vec<(JobOutcome, u64)>,
    restart: Vec<(JobOutcome, u64)>,
    cold_wall_ns: u64,
    warm_wall_ns: u64,
}

/// Runs the cold → warm → restart lifecycle on daemons with `workers`
/// pool workers, over a fresh `results/cache/` store, asserting every
/// phase's sources and payload bytes.
fn lifecycle(workers: usize) -> BenchResult<Lifecycle> {
    let cache_dir = PathBuf::from("results/cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let config = || ServerConfig {
        workers,
        store_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    };
    let reqs = requests();

    // Phase A — cold: concurrent clients, distinct requests.
    let server = Server::start(config())?;
    let addr = server.addr();
    let t0 = Instant::now();
    let cold = run_clients(addr, &reqs)?;
    let cold_wall_ns = t0.elapsed().as_nanos() as u64;
    check_phase("cold", &cold, ResponseSource::Computed, None);
    println!(
        "{workers} worker(s), cold: {JOBS} jobs over {CLIENTS} clients in {:.2} s ({:.2} req/s)",
        cold_wall_ns as f64 / 1e9,
        JOBS as f64 / (cold_wall_ns as f64 / 1e9)
    );

    // Phase B — warm: identical requests, answered from the response
    // digest cache without touching the pool.
    let t1 = Instant::now();
    let warm = run_clients(addr, &reqs)?;
    let warm_wall_ns = t1.elapsed().as_nanos() as u64;
    check_phase("warm", &warm, ResponseSource::Memory, Some(&cold));
    println!(
        "{workers} worker(s), warm: {JOBS}/{JOBS} answered from memory in {:.3} s, \
         payloads byte-identical",
        warm_wall_ns as f64 / 1e9
    );
    drop(server);

    // Phase C — restart: a fresh daemon on the same store reads nothing
    // at start, then answers from disk, loading records as requests need
    // them, without recomputing a single schedule.
    let server = Server::start(config())?;
    let counter = |name: &str| -> BenchResult<Option<u64>> {
        let stats = Client::connect(server.addr())?.stats()?;
        Ok(stats
            .into_iter()
            .find(|(key, _)| key == name)
            .map(|(_, v)| v))
    };
    assert_eq!(
        counter("store_records_loaded")?,
        Some(0),
        "a restarted daemon loaded records before its first request"
    );
    let restart = run_clients(server.addr(), &reqs)?;
    check_phase("restart", &restart, ResponseSource::Disk, Some(&cold));
    assert!(
        counter("store_records_loaded")?.is_some_and(|loaded| loaded > 0),
        "the restarted daemon answered from disk without loading a record"
    );
    assert_eq!(
        counter("schedule_computes")?,
        Some(0),
        "restarted daemon computed schedules despite the warm store"
    );
    println!("{workers} worker(s), restart: {JOBS}/{JOBS} answered from disk, schedule computes 0");
    Ok(Lifecycle {
        workers,
        cold,
        warm,
        restart,
        cold_wall_ns,
        warm_wall_ns,
    })
}

/// The deterministic digest report (the same at any worker count).
/// Sources and digests only — no wall-clock content.
fn digest_report(run: &Lifecycle, invariant_payload_fnv: u64) -> String {
    let source_tag = |s: ResponseSource| match s {
        ResponseSource::Computed => "cold",
        ResponseSource::Memory => "memory",
        ResponseSource::Disk => "disk",
    };
    let mut s = String::from("E18-SERVE deterministic digest (identical at 1 and 4 workers)\n");
    s.push_str(&format!("jobs: {JOBS}\n"));
    let phases = run.cold.iter().zip(run.warm.iter().zip(&run.restart));
    for (i, ((c, _), ((w, _), (r, _)))) in phases.enumerate() {
        s.push_str(&format!(
            "job {i}: request={:#018x} payload={:#018x} phases={}/{}/{}\n",
            c.digest,
            c.payload_digest,
            source_tag(c.source),
            source_tag(w.source),
            source_tag(r.source),
        ));
    }
    s.push_str(&format!(
        "worker_invariant_payload_fnv64: {invariant_payload_fnv:#018x}\n"
    ));
    s
}

/// Wall-clock sidecar (never committed).
fn bench_json(run: &Lifecycle) -> String {
    let mut sorted: Vec<u64> = run.cold.iter().map(|&(_, l)| l).collect();
    sorted.sort_unstable();
    let requests_per_s = JOBS as f64 / (run.cold_wall_ns as f64 / 1e9);
    let warm_requests_per_s = JOBS as f64 / (run.warm_wall_ns as f64 / 1e9);
    format!(
        "{{\"experiment\":\"exp18_serve\",\
         \"workers\":{},\
         \"jobs\":{JOBS},\
         \"clients\":{CLIENTS},\
         \"cold_wall_ns\":{},\
         \"requests_per_s\":{requests_per_s:.2},\
         \"p50_job_latency_ns\":{},\
         \"p99_job_latency_ns\":{},\
         \"warm_wall_ns\":{},\
         \"warm_requests_per_s\":{warm_requests_per_s:.2}}}\n",
        run.workers,
        run.cold_wall_ns,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.99),
        run.warm_wall_ns,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E18-SERVE — resident sweep-as-a-service daemon\n");

    // Worker invariance, in-process: the same request through 1- and
    // 4-worker engines must yield byte-identical payloads.
    let (payload, _) = worker_invariant(engine_payload, Vec::clone)?;
    let invariant_fnv = fnv64(&payload);
    println!("payload bytes invariant across 1 vs 4 pool workers");

    // Admission control.
    let rate_limited = rate_limit_probe()?;
    assert!(rate_limited, "third rapid submit was not rate-limited");
    println!("rate limiter: burst of 2 admitted, third submit rejected");

    let (run, report) = worker_invariant(lifecycle, |run| digest_report(run, invariant_fnv))?;
    println!("1-worker vs 4-worker daemon lifecycle: digest reports byte-identical");

    let report_path = write_result("exp18_serve.txt", &report)?;
    let bench_path = write_result("timing/BENCH_exp18.json", &bench_json(&run))?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}

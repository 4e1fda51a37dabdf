//! End-to-end daemon tests over real TCP.
//!
//! The load-bearing property: one request yields byte-identical report
//! payloads whether the answer is computed cold, replayed from the
//! in-memory response cache, or replayed from the on-disk store after a
//! full daemon restart — and none of that depends on how many fleet
//! workers the pool runs.

use std::path::PathBuf;

use ecl_serve::{
    Client, ClientError, DiskStore, Engine, EngineConfig, ResponseSource, Server, ServerConfig,
    SweepRequest,
};

/// A per-test scratch directory under the OS temp root, removed on drop.
struct TempStore {
    dir: PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("ecl-serve-daemon-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempStore { dir }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn request() -> SweepRequest {
    SweepRequest {
        seed: 0xdae_0001,
        scenarios: 12,
        chunk: 5, // uneven on purpose: 12 scenarios / chunk 5 = 3 deltas
        period_scales: vec![1.0, 1.25],
        frame_loss: vec![0.25],
        ..SweepRequest::default()
    }
}

fn server(workers: usize, store: Option<&TempStore>) -> Server {
    Server::start(ServerConfig {
        workers,
        store_dir: store.map(|s| s.dir.clone()),
        ..ServerConfig::default()
    })
    .expect("server start")
}

fn counter(stats: &[(String, u64)], key: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing stats counter {key:?}"))
        .1
}

/// Cold, warm and post-restart answers are all byte-identical, for a
/// 1-worker and a 4-worker pool alike — and the two pool sizes agree
/// with each other.
#[test]
fn cold_warm_restart_payloads_are_byte_identical_across_worker_counts() {
    let mut per_workers = Vec::new();
    for workers in [1usize, 4] {
        let store = TempStore::new(&format!("cwr{workers}"));
        let srv = server(workers, Some(&store));
        let mut client = Client::connect(srv.addr()).expect("connect");

        let cold = client.submit(&request()).expect("cold submit");
        assert_eq!(cold.source, ResponseSource::Computed);
        assert_eq!(cold.deltas.len(), 3, "12 scenarios in chunks of 5");
        assert_eq!(cold.deltas.last().map(|d| (d.0, d.1)), Some((12, 12)));

        let warm = client.submit(&request()).expect("warm submit");
        assert_eq!(warm.source, ResponseSource::Memory);
        assert_eq!(warm.payload, cold.payload, "warm bytes drifted");
        assert_eq!(warm.payload_digest, cold.payload_digest);
        assert!(warm.deltas.is_empty(), "replayed answers stream no deltas");

        drop(client);
        drop(srv);

        let srv = server(workers, Some(&store));
        let mut client = Client::connect(srv.addr()).expect("reconnect");
        let restarted = client.submit(&request()).expect("restart submit");
        assert_eq!(restarted.source, ResponseSource::Disk);
        assert_eq!(restarted.payload, cold.payload, "restart bytes drifted");
        assert_eq!(restarted.sched_computes, 0, "restart recomputed schedules");

        per_workers.push(cold.payload);
    }
    assert_eq!(
        per_workers[0], per_workers[1],
        "1-worker and 4-worker payloads differ"
    );
}

/// A restarted daemon stays warm below the response layer too, and
/// loads on demand: it reads no record at start, and a *new* request
/// over the same schedule axes recomputes the sweep but loads every
/// schedule (and memoized run) it needs from disk, never more records
/// than its predecessor wrote.
#[test]
fn restart_serves_new_requests_without_recomputing_schedules() {
    let store = TempStore::new("axes");
    let srv = server(2, Some(&store));
    let mut client = Client::connect(srv.addr()).expect("connect");
    client.submit(&request()).expect("seed the store");
    let stats = client.stats().expect("stats before the restart");
    assert_eq!(counter(&stats, "persist_errors"), 0);
    let written: u64 = [
        "schedule_entries",
        "ideal_entries",
        "scheduled_entries",
        "responses_cached",
    ]
    .iter()
    .map(|key| counter(&stats, key))
    .sum();
    drop(client);
    drop(srv);

    let srv = server(2, Some(&store));
    let mut client = Client::connect(srv.addr()).expect("reconnect");
    let stats = client.stats().expect("stats after the restart");
    assert_eq!(counter(&stats, "store_records_loaded"), 0);
    assert_eq!(counter(&stats, "store_corrupt"), 0);
    let half = SweepRequest {
        scenarios: 6, // strict subset of the seeded 0..12 index range
        ..request()
    };
    let outcome = client.submit(&half).expect("half-size submit");
    assert_eq!(outcome.source, ResponseSource::Computed);
    let stats = client.stats().expect("stats");
    assert_eq!(
        counter(&stats, "schedule_computes"),
        0,
        "schedules should come from the disk-backed cache"
    );
    assert_eq!(counter(&stats, "response_disk_hits"), 0);
    assert_eq!(counter(&stats, "jobs_computed"), 1);
    let loaded = counter(&stats, "store_records_loaded");
    assert!(
        0 < loaded && loaded <= written,
        "loaded {loaded} of {written}"
    );
}

/// Every segment file of the store and its length.
fn segment_lengths(store: &TempStore) -> std::collections::BTreeMap<PathBuf, u64> {
    let mut out = std::collections::BTreeMap::new();
    for kind in std::fs::read_dir(&store.dir).expect("store root").flatten() {
        for file in std::fs::read_dir(kind.path()).expect("kind dir").flatten() {
            let len = file.metadata().expect("segment metadata").len();
            out.insert(file.path(), len);
        }
    }
    out
}

/// A record corrupted on disk after a restart, before the daemon first
/// reads it, is one counted miss: the response is recomputed from the
/// stored schedules and runs, byte-identical, and only it is appended
/// again. The next restart skips the defective copy and answers from
/// the new one.
#[test]
fn a_record_corrupted_before_its_first_use_is_one_counted_miss() {
    use std::io::{Seek, SeekFrom, Write};

    let store = TempStore::new("corrupt");
    let cold = {
        let srv = server(2, Some(&store));
        let mut client = Client::connect(srv.addr()).expect("connect");
        client.submit(&request()).expect("cold submit")
    };

    let srv = server(2, Some(&store));
    let responses = store.dir.join("responses").join("segment");
    let len = std::fs::metadata(&responses)
        .expect("responses segment")
        .len();
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .open(&responses)
        .expect("open the segment");
    file.seek(SeekFrom::Start(len / 2)).expect("seek");
    file.write_all(b"\xff").expect("flip a payload byte");
    drop(file);
    let before = segment_lengths(&store);

    let mut client = Client::connect(srv.addr()).expect("connect");
    let again = client.submit(&request()).expect("submit after the flip");
    assert_eq!(again.source, ResponseSource::Computed);
    assert_eq!(again.payload, cold.payload, "recomputed bytes drifted");
    assert_eq!(again.sched_computes, 0, "schedules come from disk");
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "store_corrupt"), 1);
    assert_eq!(counter(&stats, "persist_errors"), 0);
    let after = segment_lengths(&store);
    for (path, len) in &before {
        let grown = after[path] - len;
        if *path == responses {
            let payload = again.payload.len() as u64;
            assert!((payload..payload + 64).contains(&grown), "grew {grown} B");
        } else {
            assert_eq!(grown, 0, "{} grew", path.display());
        }
    }
    drop(client);
    drop(srv);

    let srv = server(1, Some(&store));
    let mut client = Client::connect(srv.addr()).expect("connect");
    let restarted = client.submit(&request()).expect("submit after a restart");
    assert_eq!(restarted.source, ResponseSource::Disk);
    assert_eq!(restarted.payload, cold.payload);
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "store_corrupt"), 1);
    // Admission reads one schedule per policy; the job, one response.
    let policies = request().policies.len() as u64;
    assert_eq!(counter(&stats, "store_records_loaded"), policies + 1);
}

/// Two daemons on one store: B, started while the store is empty,
/// answers from disk what A computes afterwards — into a segment B had
/// not opened yet, and again into one B has already indexed — without
/// computing a schedule.
#[test]
fn a_daemon_finds_records_another_appended_after_it_started() {
    let store = TempStore::new("shared");
    let b = server(1, Some(&store));
    let a = server(1, Some(&store));
    let mut client_a = Client::connect(a.addr()).expect("connect to a");
    let mut client_b = Client::connect(b.addr()).expect("connect to b");
    let half = SweepRequest {
        scenarios: 6,
        ..request()
    };
    for req in [request(), half] {
        let computed = client_a.submit(&req).expect("a computes");
        assert_eq!(computed.source, ResponseSource::Computed);
        let found = client_b.submit(&req).expect("b answers");
        assert_eq!(found.source, ResponseSource::Disk);
        assert_eq!(found.payload, computed.payload);
        assert_eq!(found.sched_computes, 0);
    }
    let stats = client_b.stats().expect("stats of b");
    assert_eq!(counter(&stats, "jobs_computed"), 0);
    assert_eq!(counter(&stats, "store_corrupt"), 0);
}

/// Persistence only appends: a second cold job that reuses the first
/// job's schedules leaves every segment the first job wrote as a byte
/// prefix of the segment after it, and appends the second response.
#[test]
fn persist_never_rewrites_saved_entries() {
    let store = TempStore::new("append");
    let engine = Engine::new(EngineConfig {
        workers: 2,
        store_dir: Some(store.dir.clone()),
    })
    .expect("engine");
    let segments = || {
        let mut out = std::collections::BTreeMap::new();
        for kind in std::fs::read_dir(&store.dir).expect("store root").flatten() {
            for file in std::fs::read_dir(kind.path()).expect("kind dir").flatten() {
                let bytes = std::fs::read(file.path()).expect("segment bytes");
                out.insert(file.path(), bytes);
            }
        }
        out
    };

    engine
        .run_job(&request(), |_, _, _, _| {})
        .expect("first job");
    let before = segments();
    assert_eq!(before.len(), 4, "one segment per kind: {:?}", before.keys());

    let half = SweepRequest {
        scenarios: 6, // strict subset of the first job's index range
        ..request()
    };
    let second = engine.run_job(&half, |_, _, _, _| {}).expect("second job");
    assert_eq!(second.source, ResponseSource::Computed);
    let after = segments();
    assert_eq!(after.len(), before.len(), "a segment appeared");
    let responses = store.dir.join("responses").join("segment");
    for (path, bytes) in &before {
        assert!(
            after[path].starts_with(bytes),
            "{} was rewritten",
            path.display()
        );
        // The second job adds no schedule or run, and nothing saved is
        // appended again: only the responses segment grows, by one
        // record (the payload plus a few dozen bytes of framing).
        let grown = after[path].len() - bytes.len();
        if *path == responses {
            let payload = second.payload.len();
            assert!((payload..payload + 64).contains(&grown), "grew {grown} B");
        } else {
            assert_eq!(grown, 0, "{} grew", path.display());
        }
    }
    let reader = DiskStore::open(&store.dir).expect("a second handle opens");
    assert_eq!(reader.load_all("responses").len(), 2);
    let record = reader
        .load("responses", second.digest)
        .expect("the second response was appended");
    assert!(record.ends_with(&second.payload));
    assert_eq!(reader.corrupt_seen(), 0);
}

/// A report over the frame cap is never sent. One that surely exceeds
/// it — 4 000 scenarios at no fewer than about 283 bytes each — is
/// refused at admission with `report_too_large`, before any schedule is
/// computed or any store segment written. One that only its finished
/// payload shows to be too large (3 500 scenarios, about 1.17 MB) ends
/// its job with the typed `report_too_large` error, not a `Done`
/// without a report; one under the cap (3 000 scenarios) is delivered,
/// and the same daemon goes on answering.
#[test]
fn an_undeliverable_report_is_a_typed_error() {
    let store = TempStore::new("too-large");
    let srv = server(2, Some(&store));
    let mut client = Client::connect(srv.addr()).expect("connect");
    let segment_sizes = || segment_lengths(&store);
    let sized = |scenarios: usize| SweepRequest {
        scenarios,
        chunk: 500,
        ..SweepRequest::default()
    };
    client
        .submit(&sized(2))
        .expect("a small job fills every segment");
    let before = segment_sizes();
    assert_eq!(before.len(), 4, "one segment per kind: {before:?}");
    let stats = client.stats().expect("stats");
    let computes = counter(&stats, "schedule_computes");
    let jobs = counter(&stats, "jobs");

    match client.submit(&sized(4_000)) {
        Err(ClientError::Rejected { codes, .. }) => assert_eq!(codes, ["report_too_large"]),
        other => panic!("expected a report_too_large rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats after the rejection");
    assert_eq!(counter(&stats, "schedule_computes"), computes);
    assert_eq!(
        counter(&stats, "jobs"),
        jobs,
        "a refused request must not run"
    );
    assert_eq!(counter(&stats, "jobs_rejected"), 1);
    assert_eq!(
        segment_sizes(),
        before,
        "a refused request must not persist"
    );

    match client.submit(&sized(3_500)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "report_too_large"),
        other => panic!("expected report_too_large, got {other:?}"),
    }
    let delivered = client
        .submit(&sized(3_000))
        .expect("a report under the cap is delivered");
    assert_eq!(delivered.source, ResponseSource::Computed);
    assert!(delivered.payload.len() <= ecl_serve::wire::MAX_FRAME);
}

/// `priority` and `chunk` steer scheduling only — two engines given the
/// same request with different knobs produce identical bytes and share
/// one request digest.
#[test]
fn scheduling_knobs_never_reach_the_report_bytes() {
    let a_engine = Engine::new(EngineConfig {
        workers: 3,
        store_dir: None,
    })
    .expect("engine a");
    let b_engine = Engine::new(EngineConfig {
        workers: 1,
        store_dir: None,
    })
    .expect("engine b");
    let a = a_engine
        .run_job(&request(), |_, _, _, _| {})
        .expect("job a");
    let b_req = SweepRequest {
        priority: 9,
        chunk: 1,
        ..request()
    };
    let b = b_engine.run_job(&b_req, |_, _, _, _| {}).expect("job b");
    assert_eq!(a.digest, b.digest, "digest must ignore priority/chunk");
    assert_eq!(*a.payload, *b.payload);
    assert_eq!(a.payload_digest, b.payload_digest);
}

/// Without a store, a fresh engine recomputes from scratch — restart
/// warmth is a property of the disk store, not an accident of state.
#[test]
fn no_store_means_no_restart_warmth() {
    let req = SweepRequest {
        scenarios: 4,
        ..request()
    };
    let engine = Engine::new(EngineConfig::default()).expect("engine");
    assert_eq!(
        engine.run_job(&req, |_, _, _, _| {}).unwrap().source,
        ResponseSource::Computed
    );
    assert_eq!(
        engine.run_job(&req, |_, _, _, _| {}).unwrap().source,
        ResponseSource::Memory
    );
    let fresh = Engine::new(EngineConfig::default()).expect("fresh engine");
    assert_eq!(
        fresh.run_job(&req, |_, _, _, _| {}).unwrap().source,
        ResponseSource::Computed
    );
}

/// An exhausted token bucket rejects with the typed `rate_limited` code
/// and the connection stays usable for non-submit traffic.
#[test]
fn rate_limited_submit_is_typed_and_survivable() {
    let srv = Server::start(ServerConfig {
        workers: 1,
        rate_capacity: 1.0,
        rate_refill_per_sec: 0.001,
        ..ServerConfig::default()
    })
    .expect("server start");
    let mut client = Client::connect(srv.addr()).expect("connect");
    let small = SweepRequest {
        scenarios: 2,
        ..request()
    };
    client.submit(&small).expect("first submit fits the bucket");
    match client.submit(&small) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "rate_limited"),
        other => panic!("expected rate_limited rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats after rejection");
    assert_eq!(counter(&stats, "jobs"), 1, "rejected submit must not run");
}

/// Unknown cases are rejected by name, before touching queue or bucket
/// bookkeeping of the job counters.
#[test]
fn unknown_case_is_rejected_by_name() {
    let srv = server(1, None);
    let mut client = Client::connect(srv.addr()).expect("connect");
    let bogus = SweepRequest {
        case: "no_such_plant".into(),
        ..request()
    };
    match client.submit(&bogus) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "unknown_case"),
        other => panic!("expected unknown_case rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "jobs"), 0);
}

/// A parseable but semantically out-of-range request is refused with a
/// typed `Rejected` reply listing every defect code — and the
/// connection stays usable for a corrected submit afterwards.
#[test]
fn semantic_defects_are_rejected_with_typed_codes() {
    let srv = server(1, None);
    let mut client = Client::connect(srv.addr()).expect("connect");
    let bad = SweepRequest {
        scenarios: 0,
        wcet_tables: 0,
        ..request()
    };
    match client.submit(&bad) {
        Err(ClientError::Rejected { codes, .. }) => {
            assert_eq!(codes, ["bad_scenarios", "bad_wcet_tables"]);
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats after rejection");
    assert_eq!(counter(&stats, "jobs"), 0, "rejected submit must not run");
    assert_eq!(counter(&stats, "jobs_rejected"), 1);
    let small = SweepRequest {
        scenarios: 2,
        ..request()
    };
    client
        .submit(&small)
        .expect("connection must survive a rejection");
}

/// Fault-envelope admission control: a deployment whose completion
/// envelope provably overruns a requested period is refused before
/// queueing, carrying the EV code that condemned it — no co-simulation
/// is spent on it.
#[test]
fn infeasible_period_is_rejected_by_envelope_admission() {
    let srv = server(1, None);
    let mut client = Client::connect(srv.addr()).expect("connect");
    // Fault-free family: the envelope is exact, so a period far below
    // the schedule makespan (50 ns) yields a conclusive lower-bound
    // violation.
    let infeasible = SweepRequest {
        period_scales: vec![1e-6],
        frame_loss: vec![],
        ..request()
    };
    match client.submit(&infeasible) {
        Err(ClientError::Rejected { codes, .. }) => assert_eq!(codes, ["EV401"]),
        other => panic!("expected EV401 admission rejection, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "jobs"), 0, "rejected job must not run");
    assert_eq!(counter(&stats, "jobs_rejected"), 1);
    // The same deployment at a sane period is admitted and completes.
    let sane = SweepRequest {
        scenarios: 2,
        frame_loss: vec![],
        ..request()
    };
    client.submit(&sane).expect("feasible request is admitted");
}

/// A scale whose scaled period no nanosecond time can hold — 0.05 s ×
/// 1e12 overflows `i64`, 0.05 s × 1e-12 rounds to 0 ns — or that
/// outlasts the horizon is a typed `bad_period_scales` rejection, and the
/// connection stays usable.
#[test]
fn unrepresentable_period_scale_is_rejected_with_a_typed_code() {
    let srv = server(1, None);
    let mut client = Client::connect(srv.addr()).expect("connect");
    for scale in [1e12, 1e-12, 1e11] {
        let bad = SweepRequest {
            period_scales: vec![1.0, scale],
            ..request()
        };
        match client.submit(&bad) {
            Err(ClientError::Rejected { codes, .. }) => assert_eq!(codes, ["bad_period_scales"]),
            other => panic!("scale {scale}: expected typed rejection, got {other:?}"),
        }
    }
    let stats = client.stats().expect("stats after rejection");
    assert_eq!(counter(&stats, "jobs"), 0, "rejected submit must not run");
    assert_eq!(counter(&stats, "jobs_rejected"), 3);
    let small = SweepRequest {
        scenarios: 2,
        ..request()
    };
    client
        .submit(&small)
        .expect("connection must survive a rejection");
}

/// Two clients sharing one daemon both get correct, digest-verified
/// answers; the second identical request is a memory hit even when it
/// arrives on a different connection.
#[test]
fn response_cache_is_shared_across_connections() {
    let srv = server(2, None);
    let mut first = Client::connect(srv.addr()).expect("connect first");
    let mut second = Client::connect(srv.addr()).expect("connect second");
    let cold = first.submit(&request()).expect("cold");
    let warm = second.submit(&request()).expect("warm via other conn");
    assert_eq!(cold.source, ResponseSource::Computed);
    assert_eq!(warm.source, ResponseSource::Memory);
    assert_eq!(warm.payload, cold.payload);
}

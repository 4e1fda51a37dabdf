//! The daemon workload, `serve_r20`.
//!
//! The timed open-loop load of [`loadgen`] runs on a daemon with two
//! pool workers and no store, warmed with a hot set of 32 requests.
//! Then a daemon with a store is warmed with the same hot set (each
//! request computed and persisted), must agree byte for byte, and is
//! restarted on that store: the restarts are the timed set-up. Finally a
//! restart must answer requests of the load byte-identically from disk.
//!
//! Why the load runs without a store: the store lives inside this
//! package (`out/`), on whatever disk holds the checkout, and the
//! daemon rewrites every stored entry after each computed job. On an
//! ext4 disk each rewrite flushes, so tail latency under load measured
//! the disk: with 10% fresh requests at 20 req/s the p95 ranged from
//! 80 to 236 ms over five seeds. Without the store it is the daemon's
//! own compute and queueing.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ecl_serve::wire::ServerMsg;
use ecl_serve::{
    Client, DiskStore, Engine, EngineConfig, ResponseSource, Server, ServerConfig, SweepRequest,
};
use ecl_telemetry::Event;

use crate::loadgen::{self, LoadRun, Mix, Sample, REQUEST_SCENARIOS};
use crate::report::Report;
use crate::stats::CENSOR_MS;
use crate::{layers, stats, Options, WORKERS};

/// Requests the daemon is warmed with.
const HOT_SET: usize = 32;

/// Requests per second of the open loop: below the daemon's knee.
const RATE: f64 = 20.0;

/// Share of the requests that are fresh, so the daemon computes them.
const FRESH_SHARE: f64 = 0.25;

/// Restarts per set-up burst.
const RESTARTS: usize = 3;

/// Set-up bursts per run.
const RESTART_BURSTS: usize = 10;

/// Pause before each set-up burst. A process's single-threaded timings
/// sit in one of two modes about 1.2x apart (10.5 or 12.7 ms for a
/// restart here); spacing the bursts lets one run see both.
const BURST_GAP: Duration = Duration::from_millis(100);

/// The tail percentile of request latency: a 20 s run sends 400
/// requests, so the p95 has at least ten beyond it.
const SERVE_TAIL: f64 = 0.95;

/// Latency limit of `serve.goodput_rps`, ms.
const GOODPUT_LIMIT_MS: f64 = 100.0;

/// A run whose generator sends later than this at p99 is invalid.
const MAX_LAG_MS: f64 = 5.0;

/// How long a warm-up batch may take.
const WARM_PATIENCE: Duration = Duration::from_secs(120);

/// A daemon with two pool workers and the rate limiter out of the way
/// (one connection carries the whole load), persisting to `store` if
/// given.
fn start(store: Option<&Path>) -> Server {
    Server::start(ServerConfig {
        workers: WORKERS,
        store_dir: store.map(Path::to_path_buf),
        rate_capacity: 1e9,
        rate_refill_per_sec: 1e9,
        ..ServerConfig::default()
    })
    .expect("the daemon starts")
}

/// The median CPU time of [`RESTARTS`] daemon starts on `store`, each
/// loading every cache kind from disk.
fn restart_burst(store: &Path) -> f64 {
    let times: Vec<f64> = (0..RESTARTS)
        .map(|_| {
            let cpu = crate::cpu_s();
            let server = start(Some(store));
            let elapsed = crate::cpu_s() - cpu;
            drop(server);
            elapsed
        })
        .collect();
    stats::median(&times).expect("a burst starts at least once")
}

/// Removes the store directory when the run ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sends the hot set as one batch and checks that every request was
/// computed.
fn warm_up(server: &Server, hot: &[SweepRequest], report: &mut Report) -> LoadRun {
    let run = loadgen::run(server.addr(), &loadgen::burst(hot), WARM_PATIENCE)
        .expect("the warm-up connects");
    for (i, s) in run.samples.iter().enumerate() {
        report.check(
            s.error.is_none() && s.source == Some(ResponseSource::Computed),
            format!("warm-up request {i}: {:?} {:?}", s.source, s.error),
        );
    }
    run
}

/// Runs the daemon workload.
///
/// The load's cost and the restarts are timed in CPU time, and
/// `setup_s` is the median of the spaced restart bursts, for the
/// reasons given at `sweep::run`. Latency stays on the wall
/// clock, which is what a client waits by, and is a per-layer metric:
/// see the README's "Why CPU time".
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    let store = TempDir(crate::out_dir().join(format!(
        "{}-{}.store",
        opts.workload.name(),
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&store.0);
    let hot = loadgen::hot_set(opts.seed, if opts.quick { 4 } else { HOT_SET });

    let server = start(None);
    let hot_run = warm_up(&server, &hot, &mut report);
    // Long enough for a fresh request, which the disk-replay gate needs.
    let seconds = opts.seconds.max(4.0 / RATE);
    let mix = loadgen::mix(opts.seed, &hot, RATE, seconds, FRESH_SHARE);
    let (t, cpu) = (Instant::now(), crate::cpu_s());
    let load = loadgen::run(
        server.addr(),
        &mix,
        Duration::from_millis(CENSOR_MS as u64 + 500),
    )
    .expect("the load generator connects");
    let (load_s, load_cpu_s) = (t.elapsed().as_secs_f64(), crate::cpu_s() - cpu);
    let peak_rss_mb = crate::peak_rss_mb();
    let lag_p99 = pct_ms(
        load.samples
            .iter()
            .filter_map(|s| Some(s.sent_ns? - s.due_ns)),
        0.99,
    );
    if lag_p99 > MAX_LAG_MS {
        eprintln!("warning: invalid run, the generator sent {lag_p99:.2} ms late at p99");
    }
    let engine_stats = server.engine().stats();
    drop(server);

    let wchar_before = opts.trace.then(io_wchar).flatten();
    let (warm, warm_stats) = {
        let server = start(Some(&store.0));
        let warm = warm_up(&server, &hot, &mut report);
        (warm, server.engine().stats())
    };
    let wchar_after = opts.trace.then(io_wchar).flatten();
    report.check(
        warm.payloads == hot_run.payloads,
        "a daemon with a store computed other bytes than one without",
    );
    let store_files = count_files(&store.0);
    let hot_payloads: Vec<Vec<u8>> = hot_run
        .payloads
        .iter()
        .map(|p| p.clone().unwrap_or_default())
        .collect();
    check_load(&mix, &load, &hot_payloads, &mut report);

    let (replayed, replay_failures) = replay(&store.0, &mix, &load, &mut report);
    let latencies: Vec<Option<f64>> = load.samples.iter().map(Sample::latency_ms).collect();
    report.attempted = latencies.len() as u64 + replayed;
    report.failed = latencies.iter().filter(|l| l.is_none()).count() as u64 + replay_failures;

    if opts.trace {
        let t = Instant::now();
        let (events, self_ms) = spans(&mix, &load);
        crate::write_trace(opts, &events, &self_ms);
        report.set("trace_overhead_frac", t.elapsed().as_secs_f64() / load_s);
        traced(&mix, &load, &engine_stats, &mut report);
        report.set("loadgen.lag_ms.p99", lag_p99);
        let persist = || {
            warm.samples
                .iter()
                .filter_map(|s| Some(s.report_ns? - s.last_delta_ns?))
        };
        report.set("serve.persist_ms.p50", pct_ms(persist(), 0.5));
        report.set("serve.persist_ms.p95", pct_ms(persist(), 0.95));
        report.set("engine.persist_errors", stat(&warm_stats, "persist_errors"));
        let written = match (wchar_before, wchar_after) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        let socket = warm.bytes_sent + warm.bytes_received;
        report.set(
            "store.write_bytes_per_cold_job",
            written.saturating_sub(socket) as f64 / hot.len() as f64,
        );
        report.set("store.files", store_files as f64);
        store_replay(&store.0, &hot_payloads[0], &mut report);
        wire_replay(&hot[0], &hot_payloads[0], &mut report);
        engine_replay(&hot[0], opts.seed, &mut report);
    } else {
        let bursts = if opts.quick { 2 } else { RESTART_BURSTS };
        let setups: Vec<f64> = (0..bursts)
            .map(|_| {
                std::thread::sleep(BURST_GAP);
                restart_burst(&store.0)
            })
            .collect();
        eprintln!(
            "restart burst medians: {:?} ms",
            setups
                .iter()
                .map(|t| (t * 1e4).round() / 10.0)
                .collect::<Vec<_>>()
        );
        report.set(
            "setup_s",
            stats::median(&setups).expect("the run restarted the daemon"),
        );
        // The process holds the daemon and the load generator, so this
        // is what both cost per scenario answered.
        let answered = latencies.iter().filter(|l| l.is_some()).count();
        report.set(
            "scenarios_per_cpu_s",
            (answered * REQUEST_SCENARIOS) as f64 / load_cpu_s,
        );
        report.set("peak_rss_mb", peak_rss_mb);
    }
    report
}

/// Every answer must match what the client re-derived, hot answers must
/// equal the warm-up payloads, and fresh requests must be computed.
fn check_load(mix: &Mix, load: &LoadRun, warm: &[Vec<u8>], report: &mut Report) {
    for (i, (arrival, sample)) in mix.arrivals.iter().zip(&load.samples).enumerate() {
        if let Some(e) = &sample.error {
            report.check(!sample.corrupt, format!("request {i}: {e}"));
            continue;
        }
        if arrival.fresh {
            report.check(
                sample.source == Some(ResponseSource::Computed),
                format!("fresh request {i} was not computed"),
            );
        } else {
            report.check(
                load.payloads[arrival.request].as_ref() == Some(&warm[arrival.request]),
                format!("hot request {i} differs from its warm-up payload"),
            );
        }
    }
    report.check(
        load.payload_mismatches == 0,
        format!("{} repeated answers changed bytes", load.payload_mismatches),
    );
}

/// The first answered request of the given class.
fn answered(mix: &Mix, load: &LoadRun, fresh: bool) -> Option<usize> {
    mix.arrivals
        .iter()
        .find(|a| a.fresh == fresh && load.payloads[a.request].is_some())
        .map(|a| a.request)
}

/// The disk path. After a restart on the store, a hot request of the
/// load must come back from disk, byte-identical to the load's answer.
/// When the load had fresh requests, a daemon on the store first
/// computes one of them, and the restart must answer it from disk too.
/// Returns the replayed requests and how many of them failed.
fn replay(store: &Path, mix: &Mix, load: &LoadRun, report: &mut Report) -> (u64, u64) {
    let has_fresh = mix.arrivals.iter().any(|a| a.fresh);
    let (hot, fresh) = (answered(mix, load, false), answered(mix, load, true));
    let Some(hot) = hot.filter(|_| fresh.is_some() || !has_fresh) else {
        report.check(false, "no answered request to replay");
        let planned = if has_fresh { 3 } else { 1 };
        return (planned, planned);
    };
    let (mut attempted, mut failures) = (0, 0);
    let mut submit = |server: &Server, r: usize, expect: ResponseSource, report: &mut Report| {
        attempted += 1;
        let outcome = Client::connect(server.addr())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.submit(&mix.requests[r]).map_err(|e| e.to_string()));
        match outcome {
            Ok(o) => {
                report.check(
                    o.source == expect,
                    format!(
                        "replayed request {r} came from {:?}, not {expect:?}",
                        o.source
                    ),
                );
                report.check(
                    load.payloads[r].as_ref() == Some(&o.payload),
                    format!("replayed request {r} changed bytes"),
                );
            }
            Err(e) => {
                report.check(false, format!("replaying request {r}: {e}"));
                failures += 1;
            }
        }
    };
    if let Some(fresh) = fresh {
        submit(&start(Some(store)), fresh, ResponseSource::Computed, report);
    }
    let server = start(Some(store));
    submit(&server, hot, ResponseSource::Disk, report);
    if let Some(fresh) = fresh {
        submit(&server, fresh, ResponseSource::Disk, report);
    }
    drop(server);
    (attempted, failures)
}

/// The request class, as trace tracks name it.
fn class(fresh: bool) -> &'static str {
    if fresh {
        "fresh"
    } else {
        "hot"
    }
}

/// Files under the store's kind directories.
fn count_files(store: &Path) -> usize {
    kinds(store)
        .iter()
        .map(|k| std::fs::read_dir(store.join(k)).map_or(0, |d| d.count()))
        .sum()
}

/// The store's kind directories.
fn kinds(store: &Path) -> Vec<String> {
    std::fs::read_dir(store)
        .map(|d| {
            d.flatten()
                .filter(|e| e.path().is_dir())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// Bytes this process has passed to `write` so far (`/proc/self/io`).
fn io_wchar() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The engine counter `name` of a `stats` reply (0 when absent).
fn stat(stats: &[(String, u64)], name: &str) -> f64 {
    stats
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// The instant job `i` started on the daemon's single executor: after
/// its acknowledgement and after the previous job finished.
fn job_starts(samples: &[Sample]) -> Vec<Option<u64>> {
    let mut previous_done = 0;
    samples
        .iter()
        .map(|s| {
            let start = s.queued_ns.map(|q| q.max(previous_done));
            if let Some(done) = s.done_ns {
                previous_done = done;
            }
            start
        })
        .collect()
}

/// The spans of each request, parent first: the request from its due
/// instant to `Done`, then generator lag, admission, queue wait,
/// compute, render-and-persist and transfer.
fn request_spans(s: &Sample, start: Option<u64>) -> Vec<(&'static str, u64, u64)> {
    let (Some(sent), Some(queued), Some(start), Some(report), Some(done)) =
        (s.sent_ns, s.queued_ns, start, s.report_ns, s.done_ns)
    else {
        return Vec::new();
    };
    let computed = s.last_delta_ns.unwrap_or(report);
    vec![
        ("request", s.due_ns, done),
        ("lag", s.due_ns, sent),
        ("admit", sent, queued),
        ("queue", queued, start),
        ("compute", start, computed),
        ("persist", computed, report),
        ("transfer", report, done),
    ]
}

/// A span's duration minus the part of it its children cover.
fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(parent.0), b.min(parent.1)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.1.saturating_sub(parent.0).saturating_sub(covered)
}

/// Chrome-trace events of every request (one track each) and the summed
/// self time of each span kind, in ms.
fn spans(mix: &Mix, load: &LoadRun) -> (Vec<Event>, Vec<(String, f64)>) {
    let starts = job_starts(&load.samples);
    let mut events = Vec::new();
    let mut self_ns: Vec<(&'static str, u64)> = Vec::new();
    for (i, (s, start)) in load.samples.iter().zip(starts).enumerate() {
        let spans = request_spans(s, start);
        let Some(&(_, root_start, root_end)) = spans.first() else {
            continue;
        };
        let class = class(mix.arrivals[i].fresh);
        let children: Vec<(u64, u64)> = spans[1..].iter().map(|&(_, a, b)| (a, b)).collect();
        let mut add =
            |name: &'static str, ns: u64| match self_ns.iter_mut().find(|(n, _)| *n == name) {
                Some(entry) => entry.1 += ns,
                None => self_ns.push((name, ns)),
            };
        add("request", self_time((root_start, root_end), &children));
        for &(name, a, b) in &spans[1..] {
            add(name, b.saturating_sub(a));
        }
        for (name, a, b) in spans {
            events.push(Event::Slice {
                track: format!("r{i} {class}"),
                name: format!("r{i} {name}"),
                start_ns: a as i64,
                end_ns: b.max(a) as i64,
            });
        }
    }
    let self_ms = self_ns
        .into_iter()
        .map(|(n, ns)| (n.to_string(), ns as f64 / 1e6))
        .collect();
    (events, self_ms)
}

/// `q` percentile, in ms, of nanosecond `values` (0 when there are none).
fn pct_ms(values: impl Iterator<Item = u64>, q: f64) -> f64 {
    let v: Vec<f64> = values.map(|ns| ns as f64 / 1e6).collect();
    stats::percentile(&v, q).unwrap_or(0.0)
}

/// Per-layer numbers of the load: client-side spans and the engine's
/// counters.
fn traced(mix: &Mix, load: &LoadRun, engine_stats: &[(String, u64)], report: &mut Report) {
    let samples = &load.samples;
    let starts = job_starts(samples);
    report.set(
        "serve.admit_ms.p50",
        pct_ms(
            samples
                .iter()
                .filter_map(|s| Some(s.queued_ns? - s.sent_ns?)),
            0.5,
        ),
    );
    report.set(
        "serve.queue_wait_ms.p95",
        pct_ms(
            samples
                .iter()
                .zip(&starts)
                .filter_map(|(s, start)| Some((*start)? - s.queued_ns?)),
            0.95,
        ),
    );
    report.set(
        "serve.compute_ms.p50",
        pct_ms(
            samples
                .iter()
                .zip(&starts)
                .filter_map(|(s, start)| Some(s.last_delta_ns.or(s.report_ns)? - (*start)?)),
            0.5,
        ),
    );
    let latencies: Vec<Option<f64>> = samples.iter().map(Sample::latency_ms).collect();
    let lat = stats::censored(&latencies);
    if !stats::percentile_is_supported(lat.len(), SERVE_TAIL) {
        eprintln!(
            "note: {} requests leave fewer than 10 beyond the tail",
            lat.len()
        );
    }
    report.set(
        "serve.latency_ms.p50",
        stats::percentile(&lat, 0.5).unwrap_or(0.0),
    );
    report.set(
        "serve.latency_ms.p95",
        stats::percentile(&lat, SERVE_TAIL).unwrap_or(0.0),
    );
    for (fresh, name) in [
        (false, "serve.hot.latency_ms.p95"),
        (true, "serve.fresh.latency_ms.p95"),
    ] {
        let lat: Vec<Option<f64>> = samples
            .iter()
            .zip(&mix.arrivals)
            .filter(|(_, a)| a.fresh == fresh)
            .map(|(s, _)| s.latency_ms())
            .collect();
        report.set(
            name,
            stats::percentile(&stats::censored(&lat), 0.95).unwrap_or(0.0),
        );
    }
    let mut edges: Vec<(u64, i64)> = samples
        .iter()
        .filter_map(|s| Some([(s.sent_ns?, 1), (s.done_ns.unwrap_or(u64::MAX), -1)]))
        .flatten()
        .collect();
    edges.sort_unstable();
    let mut open = 0i64;
    let mut backlog = 0i64;
    for (_, step) in edges {
        open += step;
        backlog = backlog.max(open);
    }
    report.set("serve.backlog.max", backlog as f64);
    let last_sent = samples.iter().filter_map(|s| s.sent_ns).max().unwrap_or(0);
    let last_done = samples.iter().filter_map(|s| s.done_ns).max().unwrap_or(0);
    report.set(
        "serve.drain_s",
        last_done.saturating_sub(last_sent) as f64 / 1e9,
    );
    let good = samples
        .iter()
        .filter(|s| s.latency_ms().is_some_and(|ms| ms <= GOODPUT_LIMIT_MS))
        .count();
    report.set(
        "serve.goodput_rps",
        good as f64 / (mix.span_ns as f64 / 1e9),
    );
    report.set(
        "wire.bytes_per_req",
        (load.bytes_sent + load.bytes_received) as f64 / samples.len().max(1) as f64,
    );
    for (metric, counter) in [
        ("engine.jobs_computed", "jobs_computed"),
        ("engine.memory_hits", "response_memory_hits"),
        ("engine.schedule_computes", "schedule_computes"),
    ] {
        report.set(metric, stat(engine_stats, counter));
    }
}

/// `DiskStore::load_all` over every kind of the warmed store, and
/// `save`/`load` of a real payload in a scratch store beside it.
fn store_replay(store: &Path, payload: &[u8], report: &mut Report) {
    let names = kinds(store);
    let disk = DiskStore::open(store).expect("the store opens");
    report.set(
        "store.load_all_ms",
        layers::time_us(|| names.iter().map(|k| disk.load_all(k).len()).sum::<usize>()) / 1e3,
    );
    let scratch = DiskStore::open(store.join("scratch")).expect("a scratch store opens");
    let mut key = 0u64;
    report.set(
        "store.save_us",
        layers::time_us(|| {
            key += 1;
            scratch
                .save("payloads", key, payload)
                .expect("a payload saves")
        }),
    );
    report.set(
        "store.load_us",
        layers::time_us(|| scratch.load("payloads", 1).expect("a saved payload loads")),
    );
}

/// `ServerMsg::encode` and `decode` of a report frame carrying a real
/// payload.
fn wire_replay(req: &SweepRequest, payload: &[u8], report: &mut Report) {
    let msg = ServerMsg::Report {
        digest: req.digest(),
        payload_digest: 0,
        source: ResponseSource::Disk,
        payload: payload.to_vec(),
    };
    let frame = msg.encode();
    report.set("wire.report_encode_us", layers::time_us(|| msg.encode()));
    report.set(
        "wire.report_decode_us",
        layers::time_us(|| ServerMsg::decode(&frame).expect("a report frame decodes")),
    );
}

/// `Engine::run_job` cold (a fresh request each call) and hot (a
/// repeated one) and `Engine::admission_codes`, on an engine without a
/// store.
fn engine_replay(hot: &SweepRequest, seed: u64, report: &mut Report) {
    let engine = Engine::new(EngineConfig {
        workers: WORKERS,
        store_dir: None,
    })
    .expect("the engine builds");
    let mut k = 0u64;
    let cold_us = layers::time_us(|| {
        k += 1;
        let req = loadgen::request(loadgen::splitmix(seed ^ 0xc01d, k), false);
        engine
            .run_job(&req, |_, _, _, _| {})
            .expect("a cold job runs")
    });
    report.set("engine.cold_job_ms", cold_us / 1e3);
    engine
        .run_job(hot, |_, _, _, _| {})
        .expect("the hot job runs");
    report.set(
        "engine.hot_job_us",
        layers::time_us(|| {
            engine
                .run_job(hot, |_, _, _, _| {})
                .expect("a hot job runs")
        }),
    );
    report.set(
        "engine.admission_us",
        layers::time_us(|| engine.admission_codes(hot).expect("admission runs")),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 40)]), 80);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 50), (40, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn jobs_start_after_ack_and_after_the_previous_job() {
        let s = |queued, done| Sample {
            queued_ns: Some(queued),
            done_ns: Some(done),
            ..Sample::default()
        };
        let samples = [s(10, 50), s(20, 60), s(70, 80)];
        assert_eq!(job_starts(&samples), vec![Some(10), Some(50), Some(70)]);
    }
}

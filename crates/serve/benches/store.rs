//! Criterion benches of a daemon restart on a warmed store: 32 requests
//! shaped like the `serve_r20` workload's hot set (64 scenarios in
//! chunks of 16, two WCET tables, two periods, both policies, every
//! fourth request losing frames), computed and persisted once, outside
//! the timed loops, by an engine with two pool workers.
//!
//! - `restart`: `Engine::new` on the store, and its drop;
//! - `restart_then_hot`: the same plus one known request, answered from
//!   disk;
//! - `restart_then_fresh`: the same plus one request the store has not
//!   seen, computed and persisted. Every run starts from the warmed
//!   store: the segments are cut back to their warmed lengths, untimed,
//!   before it.
//!
//! Run with `cargo bench --offline -p ecl-serve --bench store`.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ecl_serve::{Engine, EngineConfig, ResponseSource, SweepRequest};

/// Requests the store is warmed with.
const HOT_SET: u64 = 32;

/// Pool workers of every engine, as in `serve_r20`.
const WORKERS: usize = 2;

/// One request of the hot-set shape.
fn request(seed: u64, faulty: bool) -> SweepRequest {
    SweepRequest {
        seed,
        scenarios: 64,
        chunk: 16,
        frame_loss: if faulty { vec![0.2] } else { Vec::new() },
        ..SweepRequest::default()
    }
}

fn start(store: &Path) -> Engine {
    Engine::new(EngineConfig {
        workers: WORKERS,
        store_dir: Some(store.to_path_buf()),
    })
    .expect("the engine starts")
}

/// Every segment of the store and its length.
fn segments(store: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    for kind in std::fs::read_dir(store).expect("store root").flatten() {
        for file in std::fs::read_dir(kind.path()).expect("kind dir").flatten() {
            out.push((file.path(), file.metadata().expect("segment").len()));
        }
    }
    out
}

/// A stats counter of `engine`.
fn counter(engine: &Engine, name: &str) -> u64 {
    engine
        .stats()
        .into_iter()
        .find(|(key, _)| key == name)
        .map_or(0, |(_, v)| v)
}

fn bench_restart(c: &mut Criterion) {
    let store = std::env::temp_dir().join(format!("ecl-serve-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let hot: Vec<SweepRequest> = (0..HOT_SET)
        .map(|i| request(0x5e7e_0000 + i, i % 4 == 3))
        .collect();
    {
        let engine = start(&store);
        for req in &hot {
            engine
                .run_job(req, |_, _, _, _| {})
                .expect("a hot job runs");
        }
    }
    let warmed = segments(&store);
    {
        let engine = start(&store);
        let report = engine.run_job(&hot[0], |_, _, _, _| {}).expect("hot");
        assert_eq!(report.source, ResponseSource::Disk);
        eprintln!(
            "a restart answering one known request decodes {} records",
            counter(&engine, "store_records_loaded")
        );
    }

    let mut g = c.benchmark_group("store");
    g.bench_function("restart", |b| b.iter(|| start(&store)));
    g.bench_function("restart_then_hot", |b| {
        b.iter(|| {
            let engine = start(&store);
            engine.run_job(&hot[0], |_, _, _, _| {}).expect("hot");
            engine
        })
    });
    let mut fresh_seed = 0xf4e5_0000;
    g.bench_function("restart_then_fresh", |b| {
        b.iter_batched(
            || {
                for (path, len) in &warmed {
                    let file = OpenOptions::new().write(true).open(path).expect("segment");
                    file.set_len(*len).expect("cut back to the warmed length");
                }
                fresh_seed += 1;
                request(fresh_seed, false)
            },
            |req| {
                let engine = start(&store);
                let report = engine.run_job(&req, |_, _, _, _| {}).expect("fresh");
                assert_eq!(report.source, ResponseSource::Computed);
                engine
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&store);
}

criterion_group!(benches, bench_restart);
criterion_main!(benches);

//! `ecl-serve` — a resident sweep-as-a-service daemon.
//!
//! The experiment binaries in `ecl-bench` pay the whole pipeline on
//! every invocation: process start, thread-pool spawn, cold memo
//! tables. This crate keeps all of that *resident*: a daemon on local
//! TCP accepts sweep requests over a length-prefixed line protocol
//! ([`wire`]), admits them through a per-connection token bucket
//! ([`limiter`]), orders them in a priority queue ([`queue`]) and
//! shards each across one persistent [`ecl_bench::fleet::FleetPool`]
//! shared by every job, streaming progress deltas and finishing with a
//! digest-stamped report.
//!
//! Three properties carry over from the fleet engine and are pinned by
//! this crate's tests:
//!
//! 1. **Byte determinism** — a report's payload is byte-identical for
//!    any pool size, any chunking and any request interleaving, because
//!    scenario seeds derive from global indices and aggregation happens
//!    in index order ([`engine`]).
//! 2. **Warm answers** — responses are memoized by request digest;
//!    resubmitting a request returns the identical payload without
//!    touching the pool.
//! 3. **Restart warmth** — schedules, co-simulated runs and responses
//!    persist content-addressed on disk ([`store`]); a restarted daemon
//!    reads nothing at start, loads each stored entry the first time a
//!    request needs it and answers without recomputing a single
//!    schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod limiter;
pub mod queue;
pub mod server;
pub mod store;
pub mod wire;

pub use client::{Client, ClientError, JobOutcome};
pub use engine::{Engine, EngineConfig, JobReport};
pub use limiter::TokenBucket;
pub use queue::JobQueue;
pub use server::{Server, ServerConfig};
pub use store::DiskStore;
pub use wire::{ClientMsg, RequestDefect, ResponseSource, ServerMsg, SweepRequest, WireError};

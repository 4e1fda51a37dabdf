//! The resident daemon: TCP listener, per-connection admission, one
//! executor draining the priority queue onto the shared engine.
//!
//! Thread shape: one listener (accept loop), one reader thread per
//! connection, one executor. The executor is the only thread that
//! touches the fleet pool, which serializes sweep jobs — a deliberate
//! choice: jobs shard *internally* across the pool's workers, so
//! running two jobs at once would only interleave their lane tasks
//! without adding parallelism, while destroying the queue's priority
//! order.
//!
//! Each connection's replies go through an `Arc<Mutex<TcpStream>>`, so
//! a frame written by the executor (deltas, report) can never tear a
//! frame written by the reader thread (queued acks, errors). The reader
//! holds that lock across enqueue + `Queued` ack, so the ack always
//! precedes the job's first delta.
//!
//! Admission is three gates, each typed, each leaving the connection
//! usable: a per-connection [`TokenBucket`] (one token per submit,
//! stats and shutdown are free) rejects over-rate submits with
//! `rate_limited`; [`Engine::validate`] rejects semantically
//! out-of-range requests with [`ServerMsg::Rejected`] listing every
//! defect code; and the engine's fault-envelope admission control
//! ([`Engine::admission_codes`]) rejects deployments that are
//! statically infeasible at a requested period with the EV diagnostic
//! codes that condemned them — before the job spends a single
//! co-simulation.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ecl_core::CoreError;

use crate::engine::{Engine, EngineConfig};
use crate::limiter::TokenBucket;
use crate::queue::JobQueue;
use crate::wire::{
    read_frame_until, send_report, send_server, ClientMsg, ServerMsg, SweepRequest, WireError,
    MAX_FRAME,
};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`Server::addr`]).
    pub addr: String,
    /// Resident fleet-pool workers.
    pub workers: usize,
    /// Root of the persistent cache; `None` disables persistence.
    pub store_dir: Option<PathBuf>,
    /// Token-bucket capacity per connection (burst size).
    pub rate_capacity: f64,
    /// Token-bucket refill rate per connection, tokens per second.
    pub rate_refill_per_sec: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            store_dir: None,
            rate_capacity: 64.0,
            rate_refill_per_sec: 32.0,
        }
    }
}

/// One queued sweep job: the request plus the connection to answer on.
struct Job {
    req: SweepRequest,
    out: Arc<Mutex<TcpStream>>,
}

/// The queue and its wakeup signal.
struct QueueState {
    queue: Mutex<JobQueue<Job>>,
    available: Condvar,
}

impl QueueState {
    /// Raises `shutdown` and wakes the executor. The flag is set under
    /// the queue lock, under which the executor checks it before waiting,
    /// so the wake-up cannot land between that check and the wait.
    fn stop(&self, shutdown: &AtomicBool) {
        let guard = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        shutdown.store(true, Ordering::Relaxed);
        drop(guard);
        self.available.notify_all();
    }
}

/// A running daemon; dropping it shuts everything down and joins every
/// thread.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    queue: Arc<QueueState>,
    listener: Option<JoinHandle<()>>,
    executor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

/// One connection's read loop. Returns when the peer disconnects, the
/// framing becomes unrecoverable, or shutdown is requested.
fn serve_connection(
    mut reader: TcpStream,
    out: Arc<Mutex<TcpStream>>,
    engine: Arc<Engine>,
    queue: Arc<QueueState>,
    shutdown: Arc<AtomicBool>,
    epoch: Instant,
    mut bucket: TokenBucket,
) {
    let send = |msg: &ServerMsg| {
        let mut out = out.lock().expect("connection writer");
        send_server(&mut *out, msg).is_ok()
    };
    loop {
        let payload = match read_frame_until(&mut reader, || shutdown.load(Ordering::Relaxed)) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(WireError::Disconnected) => return,
            Err(WireError::Oversized { len }) => {
                // The oversized body was never consumed, so the frame
                // boundary is lost — reject and hang up.
                send(&ServerMsg::Err {
                    code: "oversized".into(),
                    msg: format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
                });
                return;
            }
            Err(_) => return,
        };
        // Frame boundaries survive a bad payload, so text-level defects
        // are answered and the connection stays usable.
        let msg = match ClientMsg::decode(&payload) {
            Ok(msg) => msg,
            Err(WireError::Malformed { reason }) => {
                if !send(&ServerMsg::Err {
                    code: "malformed".into(),
                    msg: reason,
                }) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        match msg {
            ClientMsg::Submit(req) => {
                let now_ns = epoch.elapsed().as_nanos() as u64;
                if !bucket.try_acquire(now_ns, 1.0) {
                    if !send(&ServerMsg::Err {
                        code: "rate_limited".into(),
                        msg: "per-connection request budget exhausted; retry later".into(),
                    }) {
                        return;
                    }
                    continue;
                }
                // Semantic validation: a parseable request with
                // out-of-range fields is *rejected* (typed, with every
                // defect code), not treated as a protocol error.
                let defects = engine.validate(&req);
                if !defects.is_empty() {
                    engine.note_rejected();
                    let codes = defects.iter().map(|d| d.code.to_string()).collect();
                    let msg = defects
                        .iter()
                        .map(|d| d.detail.as_str())
                        .collect::<Vec<_>>()
                        .join("; ");
                    if !send(&ServerMsg::Rejected { codes, msg }) {
                        return;
                    }
                    continue;
                }
                if !engine.knows_case(&req.case) {
                    if !send(&ServerMsg::Err {
                        code: "unknown_case".into(),
                        msg: format!("no deployment case {:?} is registered", req.case),
                    }) {
                        return;
                    }
                    continue;
                }
                // Envelope admission control: a deployment whose
                // completion envelope is conclusively infeasible at a
                // requested period is refused before queueing, carrying
                // the EV diagnostic codes that condemned it.
                match engine.admission_codes(&req) {
                    Ok(codes) if !codes.is_empty() => {
                        engine.note_rejected();
                        if !send(&ServerMsg::Rejected {
                            codes,
                            msg: "fault-envelope admission: every plan in the requested \
                                  fault family overruns a requested period"
                                .into(),
                        }) {
                            return;
                        }
                        continue;
                    }
                    Ok(_) => {}
                    Err(e) => {
                        if !send(&ServerMsg::Err {
                            code: "admission_failed".into(),
                            msg: e.to_string(),
                        }) {
                            return;
                        }
                        continue;
                    }
                }
                // Enqueue and ack under the write lock: the executor's
                // first delta must queue behind the `Queued` frame.
                let mut out_guard = out.lock().expect("connection writer");
                let (position, depth) = {
                    let mut q = queue.queue.lock().expect("job queue");
                    let position = q.push(
                        req.priority,
                        Job {
                            req,
                            out: Arc::clone(&out),
                        },
                    );
                    (position, q.len())
                };
                let acked =
                    send_server(&mut *out_guard, &ServerMsg::Queued { position, depth }).is_ok();
                drop(out_guard);
                queue.available.notify_all();
                if !acked {
                    return;
                }
            }
            ClientMsg::Stats => {
                if !send(&ServerMsg::Stats(engine.stats())) {
                    return;
                }
            }
            ClientMsg::Shutdown => {
                queue.stop(&shutdown);
                return;
            }
        }
    }
}

/// The executor loop: drains the priority queue onto the engine, one
/// job at a time, streaming deltas to the job's connection.
fn run_executor(engine: Arc<Engine>, queue: Arc<QueueState>, shutdown: Arc<AtomicBool>) {
    loop {
        let job = {
            let mut q = queue.queue.lock().expect("job queue");
            loop {
                if let Some(job) = q.pop() {
                    break Some(job);
                }
                if shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                q = queue.available.wait(q).expect("job queue");
            }
        };
        let Some(job) = job else { return };
        // A client that hung up mid-job must not take the daemon (or the
        // job's side effects — warm caches, persisted response) down with
        // it, so send failures never end the loop.
        let outcome = engine.run_job(&job.req, |done, total, worst_ns, overruns| {
            let mut out = job.out.lock().expect("connection writer");
            let _ = send_server(
                &mut *out,
                &ServerMsg::Delta {
                    done,
                    total,
                    worst_ns,
                    overruns,
                },
            );
        });
        let mut out = job.out.lock().expect("connection writer");
        match outcome {
            Ok(report) => {
                let sent = send_report(
                    &mut *out,
                    report.digest,
                    report.payload_digest,
                    report.source,
                    &report.payload,
                );
                // Every part of the report goes out under this one hold
                // of the connection's lock, so no other frame lands
                // between them. An undelivered report ends the job with a
                // typed error, never a `Done` the client cannot match to
                // a report.
                let reply = match sent {
                    Ok(()) => ServerMsg::Done {
                        sched_computes: report.sched_computes,
                    },
                    Err(WireError::Disconnected) => continue,
                    Err(e) => ServerMsg::Err {
                        code: "report_undeliverable".into(),
                        msg: e.to_string(),
                    },
                };
                let _ = send_server(&mut *out, &reply);
            }
            Err(e) => {
                let _ = send_server(
                    &mut *out,
                    &ServerMsg::Err {
                        code: "sweep_failed".into(),
                        msg: e.to_string(),
                    },
                );
            }
        }
    }
}

impl Server {
    /// Binds, spawns the listener and executor, and returns immediately.
    ///
    /// # Errors
    ///
    /// Engine construction failures and bind failures (as
    /// [`CoreError::InvalidInput`]).
    pub fn start(config: ServerConfig) -> Result<Server, CoreError> {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: config.workers,
            store_dir: config.store_dir.clone(),
        })?);
        let listener = TcpListener::bind(&config.addr).map_err(|e| CoreError::InvalidInput {
            reason: format!("cannot bind {}: {e}", config.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| CoreError::InvalidInput {
            reason: format!("cannot read bound address: {e}"),
        })?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(QueueState {
            queue: Mutex::new(JobQueue::new()),
            available: Condvar::new(),
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let epoch = Instant::now();

        let executor = {
            let (engine, queue, shutdown) = (
                Arc::clone(&engine),
                Arc::clone(&queue),
                Arc::clone(&shutdown),
            );
            std::thread::Builder::new()
                .name("serve-exec".into())
                .spawn(move || run_executor(engine, queue, shutdown))
                .expect("spawn executor")
        };

        let listener_handle = {
            let engine = Arc::clone(&engine);
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let (capacity, refill) = (config.rate_capacity, config.rate_refill_per_sec);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        // The poll timeout bounds how long a quiet or
                        // stalled connection can delay an orderly
                        // shutdown.
                        let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                        let _ = stream.set_nodelay(true);
                        let Ok(writer) = stream.try_clone() else {
                            continue;
                        };
                        let out = Arc::new(Mutex::new(writer));
                        let engine = Arc::clone(&engine);
                        let queue = Arc::clone(&queue);
                        let conn_shutdown = Arc::clone(&shutdown);
                        let bucket =
                            TokenBucket::new(capacity, refill, epoch.elapsed().as_nanos() as u64);
                        let handle = std::thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || {
                                serve_connection(
                                    stream,
                                    out,
                                    engine,
                                    queue,
                                    conn_shutdown,
                                    epoch,
                                    bucket,
                                )
                            })
                            .expect("spawn connection thread");
                        connections
                            .lock()
                            .expect("connection registry")
                            .push(handle);
                    }
                })
                .expect("spawn listener")
        };

        Ok(Server {
            addr,
            engine,
            shutdown,
            queue,
            listener: Some(listener_handle),
            executor: Some(executor),
            connections,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared engine (for in-process inspection in tests and
    /// experiments).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.queue.stop(&self.shutdown);
        // A throwaway connection unblocks the accept loop so it can
        // observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.executor.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self
            .connections
            .lock()
            .expect("connection registry")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

//! The daemon's open-loop load: a seeded request mix and arrival
//! schedule, and a one-connection client that sends on schedule whether
//! or not earlier requests have been answered.
//!
//! The generator uses two threads on one TCP connection: the caller's
//! thread reads replies while a sender thread writes each request at its
//! due instant. Replies carry no request id, but the daemon acknowledges
//! submits in the order they arrive on a connection and its single
//! executor runs equal-priority jobs first in, first out, so the k-th
//! acknowledgement answers the k-th submit and `Delta`/`Report`/`Done`
//! frames belong to the oldest acknowledged job still open.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ecl_serve::wire::{read_frame, write_frame, Policy};
use ecl_serve::{ClientMsg, ResponseSource, ServerMsg, SweepRequest};

use crate::stats::CENSOR_MS;

/// Scenarios per request.
pub const REQUEST_SCENARIOS: usize = 64;

/// Scenarios per progress delta.
pub const REQUEST_CHUNK: usize = 16;

/// Salts separating the hot-set and fresh-request seed streams.
const HOT_SALT: u64 = 0x4807_5e70_0000_0001;
const FRESH_SALT: u64 = 0xf4e5_4000_0000_0002;
const SCHEDULE_SALT: u64 = 0x5c4e_d01e_0000_0003;

/// The splitmix64 stream: element `index` of the stream seeded by `seed`.
pub fn splitmix(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a splitmix64 output.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One request of the E18 shape: 64 scenarios in chunks of 16 on the
/// `dc_motor` case, two WCET tables, two periods, both policies, and
/// frame loss if `faulty`.
pub fn request(seed: u64, faulty: bool) -> SweepRequest {
    SweepRequest {
        case: "dc_motor".into(),
        seed,
        scenarios: REQUEST_SCENARIOS,
        priority: 0,
        chunk: REQUEST_CHUNK,
        wcet_jitter: 0.3,
        wcet_tables: 2,
        period_scales: vec![1.0, 1.25],
        policies: vec![Policy::Pressure, Policy::Earliest],
        frame_loss: if faulty { vec![0.2] } else { Vec::new() },
        link_outage: Vec::new(),
        proc_dropout: Vec::new(),
        max_retries: 3,
        outage_periods: 2,
    }
}

/// The hot set: `size` distinct requests the daemon is warmed with.
/// Every fourth loses frames, as in E18, so the faulty pipeline runs
/// through the daemon too.
pub fn hot_set(seed: u64, size: usize) -> Vec<SweepRequest> {
    (0..size)
        .map(|i| request(splitmix(seed ^ HOT_SALT, i as u64), i % 4 == 3))
        .collect()
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When it is due, in ns after the schedule starts.
    pub due_ns: u64,
    /// Index into [`Mix::requests`].
    pub request: usize,
    /// `true` for a fresh request (never seen by the daemon).
    pub fresh: bool,
}

/// The requests and their arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// The hot set first, then one fresh request per fresh arrival.
    pub requests: Vec<SweepRequest>,
    /// Arrivals in due order.
    pub arrivals: Vec<Arrival>,
    /// Schedule length, ns.
    pub span_ns: u64,
}

/// The seeded open-loop mix: `rate · seconds` Poisson arrivals
/// conditioned on their count (sorted uniform instants over the
/// schedule), exactly `fresh_share` of them fresh, the rest drawn
/// uniformly from the hot set. Fresh requests are fault-free: a faulty
/// one costs several times more to compute, and a tail percentile
/// sitting on the border between two cost classes swings from run to
/// run.
pub fn mix(seed: u64, hot: &[SweepRequest], rate: f64, seconds: f64, fresh_share: f64) -> Mix {
    let n = ((rate * seconds).round() as usize).max(1);
    let span_ns = (seconds * 1e9) as u64;
    let s = seed ^ SCHEDULE_SALT;
    let mut due: Vec<u64> = (0..n)
        .map(|i| (unit(splitmix(s, i as u64)) * span_ns as f64) as u64)
        .collect();
    due.sort_unstable();
    // Exactly round(n/4) fresh positions: a partial Fisher-Yates shuffle.
    let fresh_count = (n as f64 * fresh_share).round() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..fresh_count {
        let j = i + (splitmix(s, (n + i) as u64) % (n - i) as u64) as usize;
        order.swap(i, j);
    }
    let mut fresh = vec![false; n];
    for &i in &order[..fresh_count] {
        fresh[i] = true;
    }
    let mut requests = hot.to_vec();
    let mut arrivals = Vec::with_capacity(n);
    for (i, &due_ns) in due.iter().enumerate() {
        let request = if fresh[i] {
            let k = requests.len() - hot.len();
            requests.push(request(splitmix(seed ^ FRESH_SALT, k as u64), false));
            requests.len() - 1
        } else {
            (splitmix(s, (2 * n + i) as u64) % hot.len() as u64) as usize
        };
        arrivals.push(Arrival {
            due_ns,
            request,
            fresh: fresh[i],
        });
    }
    Mix {
        requests,
        arrivals,
        span_ns,
    }
}

/// What the client observed for one arrival; instants are ns after the
/// schedule started.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Due instant.
    pub due_ns: u64,
    /// When the submit frame was written.
    pub sent_ns: Option<u64>,
    /// When the `Queued` acknowledgement arrived.
    pub queued_ns: Option<u64>,
    /// When the last progress `Delta` arrived (computed jobs only).
    pub last_delta_ns: Option<u64>,
    /// When the `Report` arrived.
    pub report_ns: Option<u64>,
    /// When `Done` arrived.
    pub done_ns: Option<u64>,
    /// Where the daemon got the payload.
    pub source: Option<ResponseSource>,
    /// Why the request failed, if it did.
    pub error: Option<String>,
    /// The answer broke the protocol or its integrity check, which a
    /// slow or refusing daemon never does.
    pub corrupt: bool,
}

impl Sample {
    /// Latency from the due instant, in ms, when answered in time.
    pub fn latency_ms(&self) -> Option<f64> {
        let done = self.done_ns?;
        if self.error.is_some() {
            return None;
        }
        let ms = done.saturating_sub(self.due_ns) as f64 / 1e6;
        (ms <= CENSOR_MS).then_some(ms)
    }
}

/// Everything one open-loop run observed.
#[derive(Debug)]
pub struct LoadRun {
    /// One sample per arrival, in due order.
    pub samples: Vec<Sample>,
    /// Payload bytes per request index (first answer seen).
    pub payloads: Vec<Option<Vec<u8>>>,
    /// Payloads that differed from an earlier answer to the same request.
    pub payload_mismatches: usize,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Bytes read from the socket.
    pub bytes_received: u64,
}

/// All of `requests` due at once, in order: a closed batch, such as the
/// warm-up of a daemon.
pub fn burst(requests: &[SweepRequest]) -> Mix {
    Mix {
        requests: requests.to_vec(),
        arrivals: (0..requests.len())
            .map(|request| Arrival {
                due_ns: 0,
                request,
                fresh: false,
            })
            .collect(),
        span_ns: 0,
    }
}

/// Sends `mix` to the daemon at `addr` on schedule and collects every
/// reply. Returns once each arrival is answered or `patience` has passed
/// since the last one was due.
///
/// # Errors
///
/// Connection failures.
pub fn run(addr: SocketAddr, mix: &Mix, patience: Duration) -> std::io::Result<LoadRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let frames: Vec<Vec<u8>> = mix
        .arrivals
        .iter()
        .map(|a| ClientMsg::Submit(mix.requests[a.request].clone()).encode())
        .collect();
    let last_due = mix.arrivals.last().map_or(0, |a| a.due_ns);
    let deadline = Duration::from_nanos(last_due) + patience;
    let (finished_tx, finished_rx) = mpsc::channel::<()>();
    let epoch = Instant::now();

    let frames = &frames;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut sent_ns = Vec::with_capacity(frames.len());
            let mut bytes = 0u64;
            for (arrival, frame) in mix.arrivals.iter().zip(frames) {
                let due = Duration::from_nanos(arrival.due_ns);
                if let Some(wait) = due.checked_sub(epoch.elapsed()) {
                    std::thread::sleep(wait);
                }
                sent_ns.push(epoch.elapsed().as_nanos() as u64);
                if write_frame(&mut writer, frame).is_err() {
                    break;
                }
                bytes += 4 + frame.len() as u64;
            }
            let _ = writer.flush();
            // Wait for the reader to finish, or cut the connection at the
            // deadline so it stops waiting for replies that never come.
            let left = deadline.saturating_sub(epoch.elapsed());
            if finished_rx.recv_timeout(left).is_err() {
                let _ = writer.shutdown(Shutdown::Both);
            }
            (sent_ns, bytes)
        });

        let received = receive(&stream, mix, epoch);
        let _ = finished_tx.send(());
        let (sent_ns, bytes_sent) = sender.join().expect("sender thread");
        let mut run = received;
        for (sample, sent) in run.samples.iter_mut().zip(sent_ns) {
            sample.sent_ns = Some(sent);
        }
        for sample in &mut run.samples {
            if sample.sent_ns.is_none() {
                sample.error.get_or_insert_with(|| "never sent".into());
            }
        }
        run.bytes_sent = bytes_sent;
        Ok(run)
    })
}

/// The reader half of [`run`].
fn receive(stream: &TcpStream, mix: &Mix, epoch: Instant) -> LoadRun {
    let n = mix.arrivals.len();
    let mut samples: Vec<Sample> = mix
        .arrivals
        .iter()
        .map(|a| Sample {
            due_ns: a.due_ns,
            ..Sample::default()
        })
        .collect();
    let mut payloads: Vec<Option<Vec<u8>>> = vec![None; mix.requests.len()];
    let mut mismatches = 0;
    let mut bytes = 0u64;
    let mut next_ack = 0usize;
    let mut open: VecDeque<usize> = VecDeque::new();
    let mut resolved = 0usize;
    let mut reader = stream;
    while resolved < n {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(_) => break,
        };
        let now = epoch.elapsed().as_nanos() as u64;
        bytes += 4 + frame.len() as u64;
        let msg = match ServerMsg::decode(&frame) {
            Ok(msg) => msg,
            Err(e) => {
                eprintln!("undecodable reply: {e}");
                break;
            }
        };
        let mut fail = |i: usize, why: String| {
            samples[i].error.get_or_insert(why);
            resolved += 1;
        };
        match msg {
            ServerMsg::Queued { .. } if next_ack < n => {
                samples[next_ack].queued_ns = Some(now);
                open.push_back(next_ack);
                next_ack += 1;
            }
            ServerMsg::Rejected { codes, msg } if next_ack < n => {
                fail(next_ack, format!("rejected [{}]: {msg}", codes.join(",")));
                next_ack += 1;
            }
            ServerMsg::Err { code, msg } if code != "sweep_failed" && next_ack < n => {
                fail(next_ack, format!("server error [{code}]: {msg}"));
                next_ack += 1;
            }
            ServerMsg::Err { code, msg } => match open.pop_front() {
                Some(i) => fail(i, format!("server error [{code}]: {msg}")),
                None => break,
            },
            ServerMsg::Delta { .. } => match open.front() {
                Some(&i) => samples[i].last_delta_ns = Some(now),
                None => break,
            },
            ServerMsg::Report {
                digest,
                payload_digest,
                source,
                payload,
            } => {
                let Some(&i) = open.front() else { break };
                let req = &mix.requests[mix.arrivals[i].request];
                let s = &mut samples[i];
                s.report_ns = Some(now);
                s.source = Some(source);
                if crate::fnv64(&payload) != payload_digest {
                    s.error = Some("payload does not match its stamped digest".into());
                    s.corrupt = true;
                } else if digest != req.digest() {
                    s.error = Some("report answers another request".into());
                    s.corrupt = true;
                }
                match &payloads[mix.arrivals[i].request] {
                    Some(seen) if *seen != payload => mismatches += 1,
                    Some(_) => {}
                    None => payloads[mix.arrivals[i].request] = Some(payload),
                }
            }
            ServerMsg::Done { .. } => match open.pop_front() {
                Some(i) => {
                    samples[i].done_ns = Some(now);
                    if samples[i].report_ns.is_none() {
                        samples[i].error = Some("done before report".into());
                        samples[i].corrupt = true;
                    }
                    resolved += 1;
                }
                None => break,
            },
            other => {
                eprintln!("unexpected reply {other:?}");
                break;
            }
        }
    }
    for s in &mut samples {
        if s.done_ns.is_none() {
            s.error.get_or_insert_with(|| "no answer".into());
        }
    }
    LoadRun {
        samples,
        payloads,
        payload_mismatches: mismatches,
        bytes_sent: 0,
        bytes_received: bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule_and_mix() {
        let hot = hot_set(7, 32);
        let a = mix(7, &hot, 20.0, 12.0, 0.25);
        let b = mix(7, &hot_set(7, 32), 20.0, 12.0, 0.25);
        assert_eq!(a, b);
        let encode = |m: &Mix| -> Vec<u8> {
            m.arrivals
                .iter()
                .flat_map(|x| {
                    let mut bytes = x.due_ns.to_le_bytes().to_vec();
                    bytes.extend(ClientMsg::Submit(m.requests[x.request].clone()).encode());
                    bytes
                })
                .collect()
        };
        assert_eq!(encode(&a), encode(&b), "byte-identical schedule");
        let c = mix(8, &hot_set(8, 32), 20.0, 12.0, 0.25);
        assert_ne!(a.arrivals, c.arrivals, "another seed, another schedule");
    }

    #[test]
    fn mix_has_the_stated_shape() {
        let hot = hot_set(3, 32);
        let m = mix(3, &hot, 20.0, 12.0, 0.25);
        assert_eq!(m.arrivals.len(), 240);
        let fresh = m.arrivals.iter().filter(|a| a.fresh).count();
        assert_eq!(fresh, 60, "exactly a quarter fresh");
        assert_eq!(m.requests.len(), 32 + 60);
        assert!(m.arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(m.arrivals.iter().all(|a| a.due_ns < m.span_ns));
        for a in &m.arrivals {
            assert_eq!(a.fresh, a.request >= hot.len());
        }
        let all_hot = mix(3, &hot, 100.0, 12.0, 0.0);
        assert_eq!(all_hot.arrivals.len(), 1200);
        assert!(all_hot
            .arrivals
            .iter()
            .all(|a| !a.fresh && a.request < hot.len()));
        // Every request is distinct, so fresh requests really are cold.
        let mut digests: Vec<u64> = m.requests.iter().map(SweepRequest::digest).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), m.requests.len());
        assert!(m.requests.iter().all(|r| r.validate().is_empty()));
    }

    #[test]
    fn late_answers_and_failures_have_no_latency() {
        let ok = Sample {
            due_ns: 1_000_000,
            done_ns: Some(3_500_000),
            ..Sample::default()
        };
        assert_eq!(ok.latency_ms(), Some(2.5));
        let late = Sample {
            done_ns: Some(6_000_000_000),
            ..Sample::default()
        };
        assert_eq!(late.latency_ms(), None);
        let failed = Sample {
            done_ns: Some(1),
            error: Some("x".into()),
            ..Sample::default()
        };
        assert_eq!(failed.latency_ms(), None);
    }
}

//! The `ecl-serve` wire protocol: length-prefixed, line-oriented frames.
//!
//! Every message travels as one frame — a little-endian `u32` byte length
//! followed by that many payload bytes ([`MAX_FRAME`] caps the length, so
//! a hostile peer cannot make the daemon allocate gigabytes). The payload
//! is UTF-8 text of `key value` lines, one message kind per frame; the
//! one exception is [`ServerMsg::Report`], whose header lines are
//! followed by a blank line and the raw report bytes.
//!
//! Numbers use Rust's shortest-roundtrip float formatting (`{:?}`), so a
//! request encodes to the same bytes on every platform and
//! [`SweepRequest::digest`] is stable across encode/decode round trips.
//! Lists are comma-joined; the `-` marker encodes an empty list so every
//! field is always present.
//!
//! Failures are *typed*: a peer hanging up is [`WireError::Disconnected`]
//! (mid-frame or between frames), an over-limit length prefix is
//! [`WireError::Oversized`], and any text-level violation — unknown
//! kind, missing or duplicate key, malformed number — is
//! [`WireError::Malformed`] with a reason naming the offending field.
//! *Semantic* violations (an out-of-range but parseable field) are not
//! wire errors at all: [`SweepRequest::validate`] collects them as
//! [`RequestDefect`]s and the server answers with
//! [`ServerMsg::Rejected`], keeping the connection usable.

use std::io::{ErrorKind, Read, Write};

use ecl_aaa::{Fnv1a, MappingPolicy};

/// Hard cap on one frame's payload bytes (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Hard cap on the scenario count of one request.
pub const MAX_SCENARIOS: usize = 1 << 20;

/// A typed wire failure.
#[derive(Debug)]
pub enum WireError {
    /// A length prefix (or an outgoing payload) exceeded [`MAX_FRAME`].
    Oversized {
        /// The declared or attempted payload length.
        len: usize,
    },
    /// The frame arrived but its text violates the protocol.
    Malformed {
        /// What was wrong, naming the offending field where possible.
        reason: String,
    },
    /// The peer hung up — between frames or mid-frame.
    Disconnected,
    /// A transport-level I/O failure other than EOF.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Malformed { reason } => write!(f, "malformed message: {reason}"),
            WireError::Disconnected => write!(f, "peer disconnected"),
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        reason: reason.into(),
    }
}

/// Reads exactly `buf.len()` bytes, mapping any EOF to
/// [`WireError::Disconnected`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Disconnected),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Err(WireError::Disconnected),
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Writes one frame: `u32` little-endian length, then the payload.
///
/// # Errors
///
/// [`WireError::Oversized`] when the payload exceeds [`MAX_FRAME`];
/// transport failures as [`WireError::Io`]/[`WireError::Disconnected`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversized { len: payload.len() });
    }
    let io = |e: std::io::Error| match e.kind() {
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
            WireError::Disconnected
        }
        _ => WireError::Io(e),
    };
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)?;
    Ok(())
}

/// Reads one frame's payload.
///
/// # Errors
///
/// [`WireError::Disconnected`] on EOF (clean or mid-frame),
/// [`WireError::Oversized`] when the declared length exceeds
/// [`MAX_FRAME`], and [`WireError::Io`] for other transport failures.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    read_full(r, &mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload)?;
    Ok(payload)
}

/// Mapping policy of a request, by wire name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// `pressure` — schedule-pressure mapping.
    Pressure,
    /// `earliest` — earliest-finish mapping.
    Earliest,
}

impl Policy {
    fn wire_name(self) -> &'static str {
        match self {
            Policy::Pressure => "pressure",
            Policy::Earliest => "earliest",
        }
    }

    fn from_wire(s: &str) -> Result<Policy, WireError> {
        match s {
            "pressure" => Ok(Policy::Pressure),
            "earliest" => Ok(Policy::Earliest),
            other => Err(malformed(format!("unknown policy {other:?}"))),
        }
    }
}

/// The adequation policy a request's policy names.
impl From<Policy> for MappingPolicy {
    fn from(policy: Policy) -> MappingPolicy {
        match policy {
            Policy::Pressure => MappingPolicy::SchedulePressure,
            Policy::Earliest => MappingPolicy::EarliestFinish,
        }
    }
}

/// Where a response payload came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseSource {
    /// Freshly swept by the fleet pool.
    Computed,
    /// Answered from the resident response memo.
    Memory,
    /// Answered from the on-disk response cache.
    Disk,
}

impl ResponseSource {
    fn wire_name(self) -> &'static str {
        match self {
            ResponseSource::Computed => "cold",
            ResponseSource::Memory => "memory",
            ResponseSource::Disk => "disk",
        }
    }

    fn from_wire(s: &str) -> Result<ResponseSource, WireError> {
        match s {
            "cold" => Ok(ResponseSource::Computed),
            "memory" => Ok(ResponseSource::Memory),
            "disk" => Ok(ResponseSource::Disk),
            other => Err(malformed(format!("unknown response source {other:?}"))),
        }
    }
}

/// One sweep job: the deployment case, the Monte-Carlo axes and the
/// scheduling knobs (`priority`, `chunk`) — the latter two deliberately
/// excluded from [`digest`](SweepRequest::digest), because they change
/// *when* and *in what slices* a job runs, never a byte of its report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Registered deployment case name (e.g. `dc_motor`).
    pub case: String,
    /// Sweep base seed.
    pub seed: u64,
    /// Number of scenarios (1..=[`MAX_SCENARIOS`]).
    pub scenarios: usize,
    /// Queue priority; higher pops first.
    pub priority: u8,
    /// Scenarios per pool pass between progress deltas (0 = whole job).
    pub chunk: usize,
    /// Maximum fractional WCET inflation.
    pub wcet_jitter: f64,
    /// Quantized WCET tables (at least 1).
    pub wcet_tables: usize,
    /// Sampling-period scales (non-empty, each finite and positive).
    pub period_scales: Vec<f64>,
    /// Mapping policies, round-robin by scenario index (non-empty).
    pub policies: Vec<Policy>,
    /// Frame-loss rate axis (may be empty = fault-free axis).
    pub frame_loss: Vec<f64>,
    /// Link-outage rate axis (may be empty).
    pub link_outage: Vec<f64>,
    /// Processor-dropout rate axis (may be empty).
    pub proc_dropout: Vec<f64>,
    /// Retransmission budget per frame.
    pub max_retries: u32,
    /// Link-outage window length, in periods.
    pub outage_periods: u32,
}

impl Default for SweepRequest {
    fn default() -> Self {
        SweepRequest {
            case: "dc_motor".into(),
            seed: 1,
            scenarios: 8,
            priority: 0,
            chunk: 0,
            wcet_jitter: 0.3,
            wcet_tables: 2,
            period_scales: vec![1.0, 1.25],
            policies: vec![Policy::Pressure, Policy::Earliest],
            frame_loss: Vec::new(),
            link_outage: Vec::new(),
            proc_dropout: Vec::new(),
            max_retries: 3,
            outage_periods: 2,
        }
    }
}

impl SweepRequest {
    /// Content digest of everything that can influence the report bytes.
    /// `priority` and `chunk` are excluded by design: they steer the
    /// queue and the delta cadence, and a response memo keyed on them
    /// would re-sweep identical jobs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.case);
        h.write_u64(self.seed);
        h.write_u64(self.scenarios as u64);
        h.write_f64(self.wcet_jitter);
        h.write_u64(self.wcet_tables as u64);
        let list = |h: &mut Fnv1a, values: &[f64]| {
            h.write_u64(values.len() as u64);
            for &v in values {
                h.write_f64(v);
            }
        };
        list(&mut h, &self.period_scales);
        h.write_u64(self.policies.len() as u64);
        for p in &self.policies {
            h.write_u64(match p {
                Policy::Pressure => 0,
                Policy::Earliest => 1,
            });
        }
        list(&mut h, &self.frame_loss);
        list(&mut h, &self.link_outage);
        list(&mut h, &self.proc_dropout);
        h.write_u64(u64::from(self.max_retries));
        h.write_u64(u64::from(self.outage_periods));
        h.finish()
    }

    /// Semantic validation of an already well-formed request: every
    /// violated range constraint becomes one [`RequestDefect`]. All
    /// defects are collected, not just the first, so a client gets the
    /// full list in a single [`ServerMsg::Rejected`] round trip. An
    /// empty vector means the request is semantically admissible.
    pub fn validate(&self) -> Vec<RequestDefect> {
        let mut defects = Vec::new();
        let mut defect = |code: &'static str, detail: String| {
            defects.push(RequestDefect { code, detail });
        };
        if self.case.is_empty()
            || !self
                .case
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            defect(
                "bad_case",
                format!(
                    "case must be a non-empty [A-Za-z0-9_-] token, got {:?}",
                    self.case
                ),
            );
        }
        if self.scenarios == 0 || self.scenarios > MAX_SCENARIOS {
            defect(
                "bad_scenarios",
                format!(
                    "scenarios must be in 1..={MAX_SCENARIOS}, got {}",
                    self.scenarios
                ),
            );
        }
        if self.wcet_tables == 0 {
            defect("bad_wcet_tables", "wcet_tables must be at least 1".into());
        }
        if !self.wcet_jitter.is_finite() || !(0.0..=10.0).contains(&self.wcet_jitter) {
            defect(
                "bad_wcet_jitter",
                format!(
                    "wcet_jitter must be finite in [0, 10], got {:?}",
                    self.wcet_jitter
                ),
            );
        }
        if self.period_scales.is_empty()
            || self
                .period_scales
                .iter()
                .any(|s| !s.is_finite() || *s <= 0.0)
        {
            defect(
                "bad_period_scales",
                "period_scales must be non-empty, finite and positive".into(),
            );
        }
        if self.policies.is_empty() {
            defect("bad_policies", "policies must be non-empty".into());
        }
        for (code, name, axis) in [
            ("bad_frame_loss", "frame_loss", &self.frame_loss),
            ("bad_link_outage", "link_outage", &self.link_outage),
            ("bad_proc_dropout", "proc_dropout", &self.proc_dropout),
        ] {
            if axis
                .iter()
                .any(|r| !r.is_finite() || !(0.0..=1.0).contains(r))
            {
                defect(code, format!("{name} rates must be finite in [0, 1]"));
            }
        }
        defects
    }
}

/// One semantic defect of an otherwise well-formed [`SweepRequest`]: the
/// frame parsed, but a field violates its documented range. Defects are
/// *rejections*, not protocol errors — the connection stays usable and
/// the server answers with [`ServerMsg::Rejected`] carrying every code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestDefect {
    /// Stable machine token naming the defective field (e.g.
    /// `bad_scenarios`). Tokens never contain spaces or commas.
    pub code: &'static str,
    /// Human-readable detail, single line.
    pub detail: String,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Submit one sweep job.
    Submit(SweepRequest),
    /// Ask for the daemon's counter sidecar.
    Stats,
    /// Ask the daemon to shut down.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The job was accepted at `position` in a queue of `depth`.
    Queued {
        /// 0-based position at enqueue time.
        position: usize,
        /// Queue depth right after enqueue.
        depth: usize,
    },
    /// Streaming progress: `done` of `total` scenarios swept so far,
    /// with the running worst actuation latency and overrun count.
    Delta {
        /// Scenarios completed so far.
        done: usize,
        /// Scenarios the job comprises.
        total: usize,
        /// Worst actuation latency seen so far, in ns.
        worst_ns: i64,
        /// Total period overruns seen so far.
        overruns: u64,
    },
    /// The final report for a request digest.
    Report {
        /// The [`SweepRequest::digest`] this answers.
        digest: u64,
        /// FNV-1a digest of `payload`.
        payload_digest: u64,
        /// Where the payload came from.
        source: ResponseSource,
        /// The report bytes (summary render, JSON, histogram summary).
        payload: Vec<u8>,
    },
    /// Job finished; `sched_computes` is the daemon's lifetime count of
    /// schedules actually computed (0 on a restarted daemon answering
    /// requests over known axes).
    Done {
        /// [`ecl_aaa::DigestMemo::computes`] of the schedule memo after this job.
        sched_computes: u64,
    },
    /// Counter sidecar, as `name value` pairs.
    Stats(Vec<(String, u64)>),
    /// The request was understood but refused before queueing: either a
    /// semantic defect ([`SweepRequest::validate`] codes like
    /// `bad_scenarios`) or static admission control (fault-envelope
    /// EV diagnostic codes like `EV401`). The connection stays usable.
    Rejected {
        /// Every rejection code, in deterministic order (defect codes
        /// in field order, EV codes sorted). Never empty.
        codes: Vec<String>,
        /// Human-readable detail (single line).
        msg: String,
    },
    /// The request failed; `code` is a stable machine token.
    Err {
        /// Stable error token (e.g. `rate_limited`, `unknown_case`).
        code: String,
        /// Human-readable detail (single line).
        msg: String,
    },
}

fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

fn fmt_list(values: &[f64]) -> String {
    if values.is_empty() {
        "-".into()
    } else {
        values
            .iter()
            .map(|v| fmt_f64(*v))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn parse_u64(key: &str, v: &str) -> Result<u64, WireError> {
    v.parse()
        .map_err(|_| malformed(format!("{key} must be an unsigned integer, got {v:?}")))
}

fn parse_usize(key: &str, v: &str) -> Result<usize, WireError> {
    v.parse()
        .map_err(|_| malformed(format!("{key} must be an unsigned integer, got {v:?}")))
}

fn parse_i64(key: &str, v: &str) -> Result<i64, WireError> {
    v.parse()
        .map_err(|_| malformed(format!("{key} must be an integer, got {v:?}")))
}

fn parse_f64(key: &str, v: &str) -> Result<f64, WireError> {
    v.parse()
        .map_err(|_| malformed(format!("{key} must be a float, got {v:?}")))
}

fn parse_list(key: &str, v: &str) -> Result<Vec<f64>, WireError> {
    if v == "-" {
        return Ok(Vec::new());
    }
    v.split(',').map(|item| parse_f64(key, item)).collect()
}

fn parse_hex64(key: &str, v: &str) -> Result<u64, WireError> {
    u64::from_str_radix(v, 16)
        .map_err(|_| malformed(format!("{key} must be a hex digest, got {v:?}")))
}

/// `key value` lines parsed into an ordered field list with
/// duplicate/unknown/missing detection.
struct Fields<'a> {
    pairs: Vec<(&'a str, &'a str)>,
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn parse(lines: &'a str) -> Result<Fields<'a>, WireError> {
        let mut pairs = Vec::new();
        for line in lines.lines() {
            if line.is_empty() {
                return Err(malformed("empty line inside message header"));
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| malformed(format!("line {line:?} is not `key value`")))?;
            if pairs.iter().any(|&(k, _)| k == key) {
                return Err(malformed(format!("duplicate key {key:?}")));
            }
            pairs.push((key, value));
        }
        let taken = vec![false; pairs.len()];
        Ok(Fields { pairs, taken })
    }

    fn take(&mut self, key: &str) -> Result<&'a str, WireError> {
        for (i, &(k, v)) in self.pairs.iter().enumerate() {
            if k == key {
                self.taken[i] = true;
                return Ok(v);
            }
        }
        Err(malformed(format!("missing key {key:?}")))
    }

    fn finish(self) -> Result<(), WireError> {
        for (i, &(k, _)) in self.pairs.iter().enumerate() {
            if !self.taken[i] {
                return Err(malformed(format!("unknown key {k:?}")));
            }
        }
        Ok(())
    }
}

impl ClientMsg {
    /// Encodes the message into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ClientMsg::Submit(req) => {
                let mut s = String::from("req sweep\n");
                s.push_str(&format!("case {}\n", req.case));
                s.push_str(&format!("seed {}\n", req.seed));
                s.push_str(&format!("scenarios {}\n", req.scenarios));
                s.push_str(&format!("priority {}\n", req.priority));
                s.push_str(&format!("chunk {}\n", req.chunk));
                s.push_str(&format!("wcet_jitter {}\n", fmt_f64(req.wcet_jitter)));
                s.push_str(&format!("wcet_tables {}\n", req.wcet_tables));
                s.push_str(&format!("period_scales {}\n", fmt_list(&req.period_scales)));
                let policies = req
                    .policies
                    .iter()
                    .map(|p| p.wire_name())
                    .collect::<Vec<_>>()
                    .join(",");
                s.push_str(&format!(
                    "policies {}\n",
                    if policies.is_empty() { "-" } else { &policies }
                ));
                s.push_str(&format!("frame_loss {}\n", fmt_list(&req.frame_loss)));
                s.push_str(&format!("link_outage {}\n", fmt_list(&req.link_outage)));
                s.push_str(&format!("proc_dropout {}\n", fmt_list(&req.proc_dropout)));
                s.push_str(&format!("max_retries {}\n", req.max_retries));
                s.push_str(&format!("outage_periods {}\n", req.outage_periods));
                s.into_bytes()
            }
            ClientMsg::Stats => b"req stats\n".to_vec(),
            ClientMsg::Shutdown => b"req shutdown\n".to_vec(),
        }
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on any textual or range violation.
    pub fn decode(payload: &[u8]) -> Result<ClientMsg, WireError> {
        let text = std::str::from_utf8(payload).map_err(|_| malformed("payload is not UTF-8"))?;
        let (kind, rest) = text
            .split_once('\n')
            .ok_or_else(|| malformed("missing kind line"))?;
        match kind {
            "req sweep" => {
                let mut f = Fields::parse(rest)?;
                let policies_raw = f.take("policies")?;
                let policies = if policies_raw == "-" {
                    Vec::new()
                } else {
                    policies_raw
                        .split(',')
                        .map(Policy::from_wire)
                        .collect::<Result<Vec<_>, _>>()?
                };
                let req = SweepRequest {
                    case: f.take("case")?.to_string(),
                    seed: parse_u64("seed", f.take("seed")?)?,
                    scenarios: parse_usize("scenarios", f.take("scenarios")?)?,
                    priority: parse_u64("priority", f.take("priority")?)?
                        .try_into()
                        .map_err(|_| malformed("priority must fit in u8"))?,
                    chunk: parse_usize("chunk", f.take("chunk")?)?,
                    wcet_jitter: parse_f64("wcet_jitter", f.take("wcet_jitter")?)?,
                    wcet_tables: parse_usize("wcet_tables", f.take("wcet_tables")?)?,
                    period_scales: parse_list("period_scales", f.take("period_scales")?)?,
                    policies,
                    frame_loss: parse_list("frame_loss", f.take("frame_loss")?)?,
                    link_outage: parse_list("link_outage", f.take("link_outage")?)?,
                    proc_dropout: parse_list("proc_dropout", f.take("proc_dropout")?)?,
                    max_retries: parse_u64("max_retries", f.take("max_retries")?)?
                        .try_into()
                        .map_err(|_| malformed("max_retries must fit in u32"))?,
                    outage_periods: parse_u64("outage_periods", f.take("outage_periods")?)?
                        .try_into()
                        .map_err(|_| malformed("outage_periods must fit in u32"))?,
                };
                f.finish()?;
                // Range checking is deliberately NOT part of decoding:
                // a parseable request with out-of-range fields reaches
                // the server, which answers with a typed
                // [`ServerMsg::Rejected`] listing every defect
                // ([`SweepRequest::validate`]) instead of a blanket
                // `malformed` error.
                Ok(ClientMsg::Submit(req))
            }
            "req stats" => {
                Fields::parse(rest)?.finish()?;
                Ok(ClientMsg::Stats)
            }
            "req shutdown" => {
                Fields::parse(rest)?.finish()?;
                Ok(ClientMsg::Shutdown)
            }
            other => Err(malformed(format!("unknown request kind {other:?}"))),
        }
    }
}

impl ServerMsg {
    /// Encodes the message into one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ServerMsg::Queued { position, depth } => {
                format!("rsp queued\nposition {position}\ndepth {depth}\n").into_bytes()
            }
            ServerMsg::Delta {
                done,
                total,
                worst_ns,
                overruns,
            } => format!(
                "rsp delta\ndone {done}\ntotal {total}\nworst_ns {worst_ns}\noverruns {overruns}\n"
            )
            .into_bytes(),
            ServerMsg::Report {
                digest,
                payload_digest,
                source,
                payload,
            } => {
                let mut bytes = format!(
                    "rsp report\ndigest {digest:016x}\npayload_digest {payload_digest:016x}\n\
                     source {}\nbytes {}\n\n",
                    source.wire_name(),
                    payload.len()
                )
                .into_bytes();
                bytes.extend_from_slice(payload);
                bytes
            }
            ServerMsg::Done { sched_computes } => {
                format!("rsp done\nsched_computes {sched_computes}\n").into_bytes()
            }
            ServerMsg::Stats(counters) => {
                let mut s = String::from("rsp stats\n");
                for (name, value) in counters {
                    s.push_str(&format!("{name} {value}\n"));
                }
                s.into_bytes()
            }
            ServerMsg::Rejected { codes, msg } => {
                let one_line: String = msg
                    .chars()
                    .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                    .collect();
                let joined = if codes.is_empty() {
                    "-".to_string()
                } else {
                    codes.join(",")
                };
                format!("rsp rejected\ncodes {joined}\nmsg {one_line}\n").into_bytes()
            }
            ServerMsg::Err { code, msg } => {
                let one_line: String = msg
                    .chars()
                    .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                    .collect();
                format!("rsp err\ncode {code}\nmsg {one_line}\n").into_bytes()
            }
        }
    }

    /// Decodes one frame payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] on any textual violation, including a
    /// [`ServerMsg::Report`] whose byte count disagrees with its payload.
    pub fn decode(payload: &[u8]) -> Result<ServerMsg, WireError> {
        // A report carries raw bytes after the first blank line; split
        // before insisting on UTF-8 so the header parses on its own.
        let header_end = payload
            .windows(2)
            .position(|w| w == b"\n\n")
            .map(|at| at + 1);
        let (header, body) = match header_end {
            Some(at) => (&payload[..at], &payload[at + 1..]),
            None => (payload, &payload[payload.len()..]),
        };
        let text = std::str::from_utf8(header).map_err(|_| malformed("header is not UTF-8"))?;
        let (kind, rest) = text
            .split_once('\n')
            .ok_or_else(|| malformed("missing kind line"))?;
        match kind {
            "rsp queued" => {
                let mut f = Fields::parse(rest)?;
                let msg = ServerMsg::Queued {
                    position: parse_usize("position", f.take("position")?)?,
                    depth: parse_usize("depth", f.take("depth")?)?,
                };
                f.finish()?;
                Ok(msg)
            }
            "rsp delta" => {
                let mut f = Fields::parse(rest)?;
                let msg = ServerMsg::Delta {
                    done: parse_usize("done", f.take("done")?)?,
                    total: parse_usize("total", f.take("total")?)?,
                    worst_ns: parse_i64("worst_ns", f.take("worst_ns")?)?,
                    overruns: parse_u64("overruns", f.take("overruns")?)?,
                };
                f.finish()?;
                Ok(msg)
            }
            "rsp report" => {
                let mut f = Fields::parse(rest)?;
                let digest = parse_hex64("digest", f.take("digest")?)?;
                let payload_digest = parse_hex64("payload_digest", f.take("payload_digest")?)?;
                let source = ResponseSource::from_wire(f.take("source")?)?;
                let bytes = parse_usize("bytes", f.take("bytes")?)?;
                f.finish()?;
                if body.len() != bytes {
                    return Err(malformed(format!(
                        "report declares {bytes} bytes but carries {}",
                        body.len()
                    )));
                }
                Ok(ServerMsg::Report {
                    digest,
                    payload_digest,
                    source,
                    payload: body.to_vec(),
                })
            }
            "rsp done" => {
                let mut f = Fields::parse(rest)?;
                let msg = ServerMsg::Done {
                    sched_computes: parse_u64("sched_computes", f.take("sched_computes")?)?,
                };
                f.finish()?;
                Ok(msg)
            }
            "rsp stats" => {
                let f = Fields::parse(rest)?;
                let counters = f
                    .pairs
                    .iter()
                    .map(|&(k, v)| Ok((k.to_string(), parse_u64(k, v)?)))
                    .collect::<Result<Vec<_>, WireError>>()?;
                Ok(ServerMsg::Stats(counters))
            }
            "rsp rejected" => {
                let mut f = Fields::parse(rest)?;
                let codes_raw = f.take("codes")?;
                let codes = if codes_raw == "-" {
                    Vec::new()
                } else {
                    codes_raw.split(',').map(str::to_string).collect()
                };
                let msg = ServerMsg::Rejected {
                    codes,
                    msg: f.take("msg")?.to_string(),
                };
                f.finish()?;
                Ok(msg)
            }
            "rsp err" => {
                let mut f = Fields::parse(rest)?;
                let msg = ServerMsg::Err {
                    code: f.take("code")?.to_string(),
                    msg: f.take("msg")?.to_string(),
                };
                f.finish()?;
                Ok(msg)
            }
            other => Err(malformed(format!("unknown response kind {other:?}"))),
        }
    }
}

/// Writes one client message as a frame.
///
/// # Errors
///
/// Propagates [`write_frame`] failures.
pub fn send_client<W: Write>(w: &mut W, msg: &ClientMsg) -> Result<(), WireError> {
    write_frame(w, &msg.encode())
}

/// Reads one client message from a frame.
///
/// # Errors
///
/// Propagates [`read_frame`] and [`ClientMsg::decode`] failures.
pub fn recv_client<R: Read>(r: &mut R) -> Result<ClientMsg, WireError> {
    ClientMsg::decode(&read_frame(r)?)
}

/// Writes one server message as a frame.
///
/// # Errors
///
/// Propagates [`write_frame`] failures.
pub fn send_server<W: Write>(w: &mut W, msg: &ServerMsg) -> Result<(), WireError> {
    write_frame(w, &msg.encode())
}

/// Reads one server message from a frame.
///
/// # Errors
///
/// Propagates [`read_frame`] and [`ServerMsg::decode`] failures.
pub fn recv_server<R: Read>(r: &mut R) -> Result<ServerMsg, WireError> {
    ServerMsg::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(matches!(read_frame(&mut r), Err(WireError::Disconnected)));

        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &big),
            Err(WireError::Oversized { .. })
        ));
        let mut huge = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn mid_frame_eof_is_disconnected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncate me").unwrap();
        for cut in [1, 3, 4, 7, buf.len() - 1] {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(WireError::Disconnected)),
                "cut at {cut} must read as a disconnect"
            );
        }
    }

    #[test]
    fn submit_round_trips_with_stable_digest() {
        let req = SweepRequest {
            frame_loss: vec![0.25, 0.5],
            priority: 7,
            chunk: 4,
            ..SweepRequest::default()
        };
        let decoded = ClientMsg::decode(&ClientMsg::Submit(req.clone()).encode()).unwrap();
        let ClientMsg::Submit(back) = decoded else {
            panic!("wrong kind");
        };
        assert_eq!(back, req);
        assert_eq!(back.digest(), req.digest());
        // Priority and chunk steer scheduling only — never the digest.
        let repositioned = SweepRequest {
            priority: 0,
            chunk: 999,
            ..req.clone()
        };
        assert_eq!(repositioned.digest(), req.digest());
        let different = SweepRequest {
            seed: req.seed + 1,
            ..req
        };
        assert_ne!(different.digest(), repositioned.digest());
    }

    #[test]
    fn report_frames_carry_raw_payload() {
        let msg = ServerMsg::Report {
            digest: 0xdead_beef,
            payload_digest: 42,
            source: ResponseSource::Disk,
            payload: b"line one\n\nline two after a blank".to_vec(),
        };
        let back = ServerMsg::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn rejected_round_trips_with_and_without_codes() {
        for codes in [
            vec!["bad_scenarios".to_string(), "EV401".to_string()],
            Vec::new(),
        ] {
            let msg = ServerMsg::Rejected {
                codes,
                msg: "nope".into(),
            };
            assert_eq!(ServerMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn validate_collects_every_defect_with_stable_codes() {
        assert!(SweepRequest::default().validate().is_empty());
        let bad = SweepRequest {
            case: "dc motor".into(),
            scenarios: 0,
            wcet_tables: 0,
            wcet_jitter: f64::NAN,
            period_scales: vec![-1.0],
            policies: Vec::new(),
            frame_loss: vec![1.5],
            ..SweepRequest::default()
        };
        let codes: Vec<&str> = bad.validate().iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            [
                "bad_case",
                "bad_scenarios",
                "bad_wcet_tables",
                "bad_wcet_jitter",
                "bad_period_scales",
                "bad_policies",
                "bad_frame_loss",
            ]
        );
        // Out-of-range fields still *decode*: rejection is the server's
        // business, not the codec's.
        let decoded = ClientMsg::decode(&ClientMsg::Submit(bad.clone()).encode());
        assert!(matches!(decoded, Ok(ClientMsg::Submit(_))));
    }

    #[test]
    fn malformed_messages_name_their_defect() {
        let cases: &[&[u8]] = &[
            b"req sweeep\n",
            b"req sweep\ncase dc motor\nseed 1\n",
            b"rsp done\n",
            b"rsp done\nsched_computes -3\n",
            b"rsp queued\nposition 1\nposition 2\ndepth 3\n",
            b"\xff\xfe",
        ];
        for payload in cases {
            let client = ClientMsg::decode(payload);
            let server = ServerMsg::decode(payload);
            assert!(
                matches!(client, Err(WireError::Malformed { .. }))
                    && matches!(server, Err(WireError::Malformed { .. })),
                "payload {payload:?} must be malformed on both sides"
            );
        }
    }
}

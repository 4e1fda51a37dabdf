//! `ecl-benchmark` — fleet sweeps and the `ecl-serve` daemon, measured
//! end to end and layer by layer. See `README.md` for the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! ecl-benchmark --workload W --seed N --seconds T --trace 0|1 [--quick]
//! ecl-benchmark run [--seed N] [--workload W]... [--seconds T] [--trace] [--out FILE] [--quick]
//! ecl-benchmark compare A.json... -- B.json...
//! ```
//!
//! The first form runs one workload in this process and prints one JSON
//! result line last. `run` runs each workload in a child process of its
//! own, prints `workload metric value unit` lines and writes every
//! result to one JSON file; `compare` reads such files.

mod compare;
mod layers;
mod loadgen;
mod report;
mod serve;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use ecl_telemetry::json::{self, Value};
use ecl_telemetry::Event;

use report::{Definition, Report};
use sweep::SweepKind;

/// Fleet and pool workers every workload runs with.
pub const WORKERS: usize = 2;

/// The seed `run` uses unless told otherwise; with it the sweeps must
/// reproduce the archived exp17/exp19 digests.
pub const DEFAULT_SEED: u64 = 0xec1_f1ee7;

/// Seconds one run measures unless told otherwise (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Chrome-trace events written per traced run, at most.
const TRACE_EVENTS: usize = 50_000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fault-free sweep whose memos answer nearly everything.
    SweepHot,
    /// Sweep whose working set exceeds every cache.
    SweepCold,
    /// Fault-injection sweep with static envelope pruning.
    SweepFaulty,
    /// Daemon under an open loop at 20 requests per second, a quarter
    /// of them fresh.
    ServeR20,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SweepHot,
        Workload::SweepCold,
        Workload::SweepFaulty,
        Workload::ServeR20,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepHot => "sweep_hot",
            Workload::SweepCold => "sweep_cold",
            Workload::SweepFaulty => "sweep_faulty",
            Workload::ServeR20 => "serve_r20",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn run(self, opts: &Options) -> Report {
        match self {
            Workload::SweepHot => sweep::run(SweepKind::Hot, opts),
            Workload::SweepCold => sweep::run(SweepKind::Cold, opts),
            Workload::SweepFaulty => sweep::run(SweepKind::Faulty, opts),
            Workload::ServeR20 => serve::run(opts),
        }
    }
}

/// How one workload run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, for the smoke test.
    pub quick: bool,
}

/// This package's output directory (`out/`, ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// FNV-1a digest of `bytes`, as the library stamps payloads and reports.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = ecl_aaa::Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// CPU time this process has used so far, in seconds: every thread,
/// running or ended (`CLOCK_PROCESS_CPUTIME_ID`, Linux). Time the
/// hypervisor steals from the VM is not CPU time, so on a shared host
/// this clock, unlike the wall clock, does not run on while a
/// neighbour holds the core.
pub fn cpu_s() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs
    // on Linux) for the whole call, and `clock_gettime` writes only
    // into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Writes the traced run's spans to `out/<workload>.trace.json`: a
/// Chrome trace (the first [`TRACE_EVENTS`] events) whose `otherData`
/// holds the summed self time of each span kind, in ms.
pub fn write_trace(opts: &Options, events: &[Event], self_ms: &[(String, f64)]) {
    let trace = ecl_telemetry::trace::chrome_trace(&events[..events.len().min(TRACE_EVENTS)]);
    let other: Vec<String> = self_ms
        .iter()
        .map(|(name, ms)| format!("\"self_ms.{name}\": {ms:?}"))
        .collect();
    let doc = format!(
        "{{\"traceEvents\": {trace}, \"otherData\": {{\"workload\": \"{}\", \"seed\": {}, \"events\": {}{}{}}}}}\n",
        opts.workload.name(),
        opts.seed,
        events.len(),
        if other.is_empty() { "" } else { ", " },
        other.join(", ")
    );
    let path = out_dir().join(format!("{}.trace.json", opts.workload.name()));
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => v.replace('_', "").parse(),
    };
    parsed.map_err(|_| format!("bad seed {v:?}"))
}

fn parse_seconds(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => Ok(s),
        _ => Err(format!("bad --seconds {v:?}")),
    }
}

/// Command-line flags shared by the single-workload form and `run`.
#[derive(Debug)]
struct Flags {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String], trace_takes_value: bool) -> Result<Flags, String> {
    let mut flags = Flags {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workloads.push(Workload::parse(value()?)?),
            "--seed" => flags.seed = parse_seed(value()?)?,
            "--seconds" => flags.seconds = parse_seconds(value()?)?,
            "--trace" if trace_takes_value => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--trace" => flags.trace = true,
            "--quick" => flags.quick = true,
            "--out" if !trace_takes_value => flags.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

/// One workload in this process; the last stdout line is the result.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, true)?;
    let [workload] = flags.workloads[..] else {
        return Err("give exactly one --workload".into());
    };
    let opts = Options {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        quick: flags.quick,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "{} seed={:#x} seconds={} trace={} nproc={nproc} workers={WORKERS}",
        workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace
    );
    let report = workload.run(&opts);
    println!("{}", report.to_json(&Definition::load(), opts.trace));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its result line,
/// raw and parsed.
fn child(workload: Workload, flags: &Flags, trace: bool) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if flags.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let value =
        json::parse(&line).map_err(|e| format!("{}: no result line ({e})", workload.name()))?;
    Ok((line, value))
}

/// `run`: every requested workload in its own process.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, false)?;
    let workloads = if flags.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        flags.workloads.clone()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("nproc={nproc} workers={WORKERS} seed={:#x}", flags.seed);
    let mut ok = true;
    let mut entries = Vec::new();
    for &w in &workloads {
        let mut modes = vec![false];
        if flags.trace {
            modes.push(true);
        }
        let mut results = Vec::new();
        for trace in modes {
            let (line, result) = child(w, &flags, trace)?;
            let correct = result.get("correct") == Some(&Value::Bool(true));
            let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
            ok &= correct && failed == 0.0;
            if let Some(Value::Object(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                    println!("{} {name} {value} {unit}", w.name());
                }
            }
            if !correct {
                println!("{} correct false", w.name());
            }
            results.push((if trace { "traced" } else { "untraced" }, line));
        }
        entries.push((w, results));
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(w, results)| {
            let parts: Vec<String> = results
                .iter()
                .map(|(mode, line)| format!("\"{mode}\": {line}"))
                .collect();
            format!("\"{}\": {{{}}}", w.name(), parts.join(", "))
        })
        .collect();
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {:?}, \"nproc\": {nproc}, \"workers\": {WORKERS}, \"quick\": {}, \"workloads\": {{{}}}}}\n",
        flags.seed,
        flags.seconds,
        flags.quick,
        body.join(", ")
    );
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("run-{}.json", flags.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => run_one(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ecl-benchmark: {e}");
        ExitCode::from(2)
    })
}

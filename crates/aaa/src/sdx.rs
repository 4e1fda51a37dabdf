//! A SynDEx-flavoured textual project format (`.sdx`).
//!
//! SynDEx stores algorithm graphs, architecture graphs and timing
//! characterizations as text files the designer edits and versions. This
//! module provides the same workflow: [`Project`] bundles the three
//! artifacts, [`to_sdx`] renders them to a line-oriented text form, and
//! [`from_sdx`] parses it back. Round-tripping is lossless (up to map
//! ordering).
//!
//! # Format
//!
//! ```text
//! # comment
//! algorithm
//!   sensor   in0
//!   function step
//!   actuator out0
//!   edge in0 -> step : 4
//!   edge step -> out0 : 4
//!   condition branch_a ? mode = 0
//! end
//!
//! architecture
//!   processor ecu0 : arm
//!   processor ecu1 : arm
//!   bus  can  : ecu0 ecu1 : latency 120us rate 8us
//!   link srio : ecu0 ecu1 : latency 5us   rate 1us
//! end
//!
//! timing
//!   default step = 300us
//!   wcet step @ ecu1 = 150us
//!   forbid in0 @ ecu1
//! end
//! ```
//!
//! Durations accept `ns`, `us`, `ms` and `s` suffixes (a bare integer is
//! nanoseconds). Operation and processor names must be unique within a
//! project file.

use std::collections::HashMap;
use std::fmt::Write as _;

use ecl_sim::TimeNs;

use crate::algorithm::{AlgorithmGraph, OpId, OpKind};
use crate::architecture::{ArchitectureGraph, MediumKind, ProcId};
use crate::timing::TimingDb;
use crate::AaaError;

/// A complete AAA project: the three artifacts the adequation consumes.
#[derive(Debug, Clone, Default)]
pub struct Project {
    /// The algorithm graph.
    pub algorithm: AlgorithmGraph,
    /// The architecture graph.
    pub architecture: ArchitectureGraph,
    /// The WCET characterization.
    pub timing: TimingDb,
}

fn fmt_duration(t: TimeNs) -> String {
    let ns = t.as_nanos();
    if ns == 0 {
        return "0".into();
    }
    if ns % 1_000_000_000 == 0 {
        format!("{}s", ns / 1_000_000_000)
    } else if ns % 1_000_000 == 0 {
        format!("{}ms", ns / 1_000_000)
    } else if ns % 1_000 == 0 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

fn parse_duration(s: &str, line: usize) -> Result<TimeNs, AaaError> {
    let err = |reason: String| AaaError::ParseSdx { line, reason };
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1i64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (s, 1)
    };
    let v: i64 = digits
        .trim()
        .parse()
        .map_err(|_| err(format!("invalid duration '{s}'")))?;
    Ok(TimeNs::from_nanos(v * mult))
}

/// Renders a project to the `.sdx` text form.
pub fn to_sdx(project: &Project) -> String {
    let alg = &project.algorithm;
    let arch = &project.architecture;
    let mut s = String::new();
    s.push_str("# eclipse-codesign project\nalgorithm\n");
    for op in alg.ops() {
        let kw = match alg.kind(op) {
            OpKind::Sensor => "sensor",
            OpKind::Function => "function",
            OpKind::Actuator => "actuator",
        };
        let _ = writeln!(s, "  {kw} {}", alg.name(op));
    }
    for e in alg.edges() {
        let _ = writeln!(
            s,
            "  edge {} -> {} : {}",
            alg.name(e.src),
            alg.name(e.dst),
            e.data_units
        );
    }
    for op in alg.ops() {
        if let Some(c) = alg.condition(op) {
            let _ = writeln!(
                s,
                "  condition {} ? {} = {}",
                alg.name(op),
                alg.name(c.variable),
                c.branch
            );
        }
    }
    s.push_str("end\n\narchitecture\n");
    for p in arch.processors() {
        let _ = writeln!(
            s,
            "  processor {} : {}",
            arch.proc_name(p),
            arch.proc_kind(p)
        );
    }
    for m in arch.media() {
        let kw = match arch.medium_kind(m) {
            MediumKind::Bus => "bus",
            MediumKind::PointToPoint => "link",
        };
        let procs: Vec<&str> = arch
            .medium_procs(m)
            .iter()
            .map(|&p| arch.proc_name(p))
            .collect();
        let _ = writeln!(
            s,
            "  {kw} {} : {} : latency {} rate {}",
            arch.medium_name(m),
            procs.join(" "),
            fmt_duration(arch.transfer_time(m, 0)),
            fmt_duration(arch.transfer_time(m, 1) - arch.transfer_time(m, 0)),
        );
    }
    s.push_str("end\n\ntiming\n");
    for (op, t) in project.timing.iter_defaults() {
        let _ = writeln!(s, "  default {} = {}", alg.name(op), fmt_duration(t));
    }
    for (op, proc, t) in project.timing.iter_specific() {
        let _ = writeln!(
            s,
            "  wcet {} @ {} = {}",
            alg.name(op),
            arch.proc_name(proc),
            fmt_duration(t)
        );
    }
    for (op, proc) in project.timing.iter_forbidden() {
        let _ = writeln!(s, "  forbid {} @ {}", alg.name(op), arch.proc_name(proc));
    }
    s.push_str("end\n");
    s
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Algorithm,
    Architecture,
    Timing,
}

/// Parses a project from the `.sdx` text form.
///
/// # Errors
///
/// Returns [`AaaError::ParseSdx`] with the offending line number for any
/// syntax or reference error (unknown name, duplicate name, bad duration).
pub fn from_sdx(text: &str) -> Result<Project, AaaError> {
    let mut project = Project::default();
    let mut ops: HashMap<String, OpId> = HashMap::new();
    let mut procs: HashMap<String, ProcId> = HashMap::new();
    let mut section = Section::None;

    let err = |line: usize, reason: String| AaaError::ParseSdx { line, reason };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match (section, tokens[0]) {
            (Section::None, "algorithm") => section = Section::Algorithm,
            (Section::None, "architecture") => section = Section::Architecture,
            (Section::None, "timing") => section = Section::Timing,
            (Section::None, other) => {
                return Err(err(
                    line_no,
                    format!("expected a section header, got '{other}'"),
                ))
            }
            (_, "end") => section = Section::None,

            (Section::Algorithm, kw @ ("sensor" | "function" | "actuator")) => {
                let name = *tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, format!("'{kw}' needs a name")))?;
                if ops.contains_key(name) {
                    return Err(err(line_no, format!("duplicate operation '{name}'")));
                }
                let id = match kw {
                    "sensor" => project.algorithm.add_sensor(name),
                    "actuator" => project.algorithm.add_actuator(name),
                    _ => project.algorithm.add_function(name),
                };
                ops.insert(name.to_string(), id);
            }
            (Section::Algorithm, "edge") => {
                // edge SRC -> DST : UNITS
                if tokens.len() != 6 || tokens[2] != "->" || tokens[4] != ":" {
                    return Err(err(line_no, "expected 'edge SRC -> DST : UNITS'".into()));
                }
                let src = *ops
                    .get(tokens[1])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[1])))?;
                let dst = *ops
                    .get(tokens[3])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[3])))?;
                let units: u32 = tokens[5]
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid data units '{}'", tokens[5])))?;
                project.algorithm.add_edge(src, dst, units)?;
            }
            (Section::Algorithm, "condition") => {
                // condition OP ? VAR = BRANCH
                if tokens.len() != 6 || tokens[2] != "?" || tokens[4] != "=" {
                    return Err(err(
                        line_no,
                        "expected 'condition OP ? VAR = BRANCH'".into(),
                    ));
                }
                let op = *ops
                    .get(tokens[1])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[1])))?;
                let var = *ops
                    .get(tokens[3])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[3])))?;
                let branch: usize = tokens[5]
                    .parse()
                    .map_err(|_| err(line_no, format!("invalid branch '{}'", tokens[5])))?;
                project.algorithm.set_condition(op, var, branch)?;
            }
            (Section::Algorithm, other) => {
                return Err(err(line_no, format!("unknown algorithm item '{other}'")))
            }

            (Section::Architecture, "processor") => {
                // processor NAME : KIND
                if tokens.len() != 4 || tokens[2] != ":" {
                    return Err(err(line_no, "expected 'processor NAME : KIND'".into()));
                }
                if procs.contains_key(tokens[1]) {
                    return Err(err(line_no, format!("duplicate processor '{}'", tokens[1])));
                }
                let id = project.architecture.add_processor(tokens[1], tokens[3]);
                procs.insert(tokens[1].to_string(), id);
            }
            (Section::Architecture, kw @ ("bus" | "link")) => {
                // bus NAME : P0 P1 ... : latency D rate D
                let name = *tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, format!("'{kw}' needs a name")))?;
                let rest = tokens[2..].join(" ");
                let parts: Vec<&str> = rest.split(':').map(str::trim).collect();
                if parts.len() != 3 || !parts[0].is_empty() {
                    return Err(err(
                        line_no,
                        format!("expected '{kw} NAME : PROCS : latency D rate D'"),
                    ));
                }
                let members: Result<Vec<ProcId>, AaaError> = parts[1]
                    .split_whitespace()
                    .map(|n| {
                        procs
                            .get(n)
                            .copied()
                            .ok_or_else(|| err(line_no, format!("unknown processor '{n}'")))
                    })
                    .collect();
                let members = members?;
                let tail: Vec<&str> = parts[2].split_whitespace().collect();
                if tail.len() != 4 || tail[0] != "latency" || tail[2] != "rate" {
                    return Err(err(line_no, "expected 'latency D rate D'".into()));
                }
                let latency = parse_duration(tail[1], line_no)?;
                let rate = parse_duration(tail[3], line_no)?;
                if kw == "bus" {
                    project
                        .architecture
                        .add_bus(name, &members, latency, rate)?;
                } else {
                    if members.len() != 2 {
                        return Err(err(
                            line_no,
                            "a link connects exactly two processors".into(),
                        ));
                    }
                    project
                        .architecture
                        .add_link(name, members[0], members[1], latency, rate)?;
                }
            }
            (Section::Architecture, other) => {
                return Err(err(line_no, format!("unknown architecture item '{other}'")))
            }

            (Section::Timing, "default") => {
                // default OP = D
                if tokens.len() != 4 || tokens[2] != "=" {
                    return Err(err(line_no, "expected 'default OP = DURATION'".into()));
                }
                let op = *ops
                    .get(tokens[1])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[1])))?;
                project
                    .timing
                    .set_default(op, parse_duration(tokens[3], line_no)?);
            }
            (Section::Timing, "wcet") => {
                // wcet OP @ PROC = D
                if tokens.len() != 6 || tokens[2] != "@" || tokens[4] != "=" {
                    return Err(err(line_no, "expected 'wcet OP @ PROC = DURATION'".into()));
                }
                let op = *ops
                    .get(tokens[1])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[1])))?;
                let proc = *procs
                    .get(tokens[3])
                    .ok_or_else(|| err(line_no, format!("unknown processor '{}'", tokens[3])))?;
                project
                    .timing
                    .set(op, proc, parse_duration(tokens[5], line_no)?);
            }
            (Section::Timing, "forbid") => {
                // forbid OP @ PROC
                if tokens.len() != 4 || tokens[2] != "@" {
                    return Err(err(line_no, "expected 'forbid OP @ PROC'".into()));
                }
                let op = *ops
                    .get(tokens[1])
                    .ok_or_else(|| err(line_no, format!("unknown operation '{}'", tokens[1])))?;
                let proc = *procs
                    .get(tokens[3])
                    .ok_or_else(|| err(line_no, format!("unknown processor '{}'", tokens[3])))?;
                project.timing.forbid(op, proc);
            }
            (Section::Timing, other) => {
                return Err(err(line_no, format!("unknown timing item '{other}'")))
            }
        }
    }
    if section != Section::None {
        return Err(AaaError::ParseSdx {
            line: text.lines().count(),
            reason: "unterminated section (missing 'end')".into(),
        });
    }
    Ok(project)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adequation::{adequation, AdequationOptions};

    const SAMPLE: &str = r"
# a distributed control law
algorithm
  sensor   in0
  sensor   in1
  function step
  actuator out0
  edge in0 -> step : 4
  edge in1 -> step : 4
  edge step -> out0 : 4
end

architecture
  processor ecu0 : arm
  processor ecu1 : dsp
  bus can : ecu0 ecu1 : latency 120us rate 8us
  link srio : ecu0 ecu1 : latency 5us rate 1us
end

timing
  default in0 = 80us
  default in1 = 80us
  default out0 = 80us
  default step = 600us
  wcet step @ ecu1 = 200us
  forbid in0 @ ecu1
end
";

    #[test]
    fn parse_sample_and_schedule() {
        let p = from_sdx(SAMPLE).unwrap();
        assert_eq!(p.algorithm.len(), 4);
        assert_eq!(p.architecture.num_processors(), 2);
        assert_eq!(p.architecture.num_media(), 2);
        let schedule = adequation(
            &p.algorithm,
            &p.architecture,
            &p.timing,
            AdequationOptions::default(),
        )
        .unwrap();
        schedule.validate(&p.algorithm, &p.architecture).unwrap();
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = from_sdx(SAMPLE).unwrap();
        let text = to_sdx(&p);
        let q = from_sdx(&text).unwrap();
        assert_eq!(p.algorithm.len(), q.algorithm.len());
        assert_eq!(p.algorithm.edges(), q.algorithm.edges());
        assert_eq!(p.architecture.num_media(), q.architecture.num_media());
        for op in p.algorithm.ops() {
            assert_eq!(p.algorithm.name(op), q.algorithm.name(op));
            assert_eq!(p.algorithm.kind(op), q.algorithm.kind(op));
        }
        // Timing survives: same wcet everywhere.
        for op in p.algorithm.ops() {
            for proc in p.architecture.processors() {
                assert_eq!(
                    p.timing.wcet(op, proc),
                    q.timing.wcet(op, proc),
                    "op {op} proc {proc}"
                );
            }
        }
    }

    #[test]
    fn conditions_roundtrip() {
        let mut alg = AlgorithmGraph::new();
        let mode = alg.add_function("mode");
        let f = alg.add_function("branchy");
        alg.set_condition(f, mode, 3).unwrap();
        let project = Project {
            algorithm: alg,
            ..Project::default()
        };
        let text = to_sdx(&project);
        assert!(text.contains("condition branchy ? mode = 3"));
        let q = from_sdx(&text).unwrap();
        let f2 = q.algorithm.ops().nth(1).unwrap();
        assert_eq!(q.algorithm.condition(f2).unwrap().branch, 3);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(parse_duration("5ns", 1).unwrap(), TimeNs::from_nanos(5));
        assert_eq!(parse_duration("5us", 1).unwrap(), TimeNs::from_micros(5));
        assert_eq!(parse_duration("5ms", 1).unwrap(), TimeNs::from_millis(5));
        assert_eq!(parse_duration("5s", 1).unwrap(), TimeNs::from_secs(5));
        assert_eq!(parse_duration("5", 1).unwrap(), TimeNs::from_nanos(5));
        assert!(parse_duration("abc", 1).is_err());
        assert_eq!(fmt_duration(TimeNs::from_millis(3)), "3ms");
        assert_eq!(fmt_duration(TimeNs::from_nanos(1500)), "1500ns");
        assert_eq!(fmt_duration(TimeNs::ZERO), "0");
        assert_eq!(fmt_duration(TimeNs::from_secs(2)), "2s");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "algorithm\n  sensor a\n  edge a -> ghost : 1\nend\n";
        match from_sdx(bad) {
            Err(AaaError::ParseSdx { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("ghost"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_sdx("nonsense\n").is_err());
        assert!(from_sdx("algorithm\n  widget w\nend\n").is_err());
        assert!(from_sdx("algorithm\n  sensor a\n").is_err()); // missing end
        assert!(from_sdx("algorithm\n  sensor a\n  sensor a\nend\n").is_err());
        assert!(from_sdx("architecture\n  bus b : p0 : latency 1 rate 1\nend\n").is_err());
        assert!(from_sdx("timing\n  default ghost = 1us\nend\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nalgorithm # trailing\n  sensor a # named a\nend\n";
        let p = from_sdx(text).unwrap();
        assert_eq!(p.algorithm.len(), 1);
    }
}

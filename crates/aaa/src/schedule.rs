//! The static, non-preemptive schedule produced by the adequation.

use ecl_sim::TimeNs;
use ecl_telemetry::bytes::{ByteReader, ByteWriter, CodecError};

use crate::algorithm::{AlgorithmGraph, OpId, OpKind};
use crate::architecture::{ArchitectureGraph, MediumId, ProcId};
use crate::AaaError;

/// Magic tag of the [`Schedule::to_bytes`] layout.
const SCHEDULE_MAGIC: &[u8] = b"ECLS";
/// Version of the [`Schedule::to_bytes`] layout; bump on any change.
const SCHEDULE_VERSION: u32 = 1;

/// One computation slot: operation `op` executes on `proc` during
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The scheduled operation.
    pub op: OpId,
    /// The processor executing it.
    pub proc: ProcId,
    /// Start instant (relative to the period origin).
    pub start: TimeNs,
    /// Completion instant.
    pub end: TimeNs,
}

/// One communication slot: the data produced by `src_op` moves from `from`
/// to `to` over `medium` during `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledComm {
    /// The operation whose output is transferred.
    pub src_op: OpId,
    /// Owning (sending) processor.
    pub from: ProcId,
    /// Requesting (receiving) processor.
    pub to: ProcId,
    /// The medium carrying the transfer.
    pub medium: MediumId,
    /// Transfer start instant.
    pub start: TimeNs,
    /// Transfer completion instant.
    pub end: TimeNs,
    /// Amount of data moved.
    pub data_units: u32,
}

impl ScheduledComm {
    /// Duration of the scheduled transfer slot.
    pub fn duration(&self) -> TimeNs {
        self.end - self.start
    }
}

/// A complete static schedule: one total order of computations per
/// processor and of communications per medium.
///
/// Produced by [`adequation`](crate::adequation); consumed by the paper's
/// graph-of-delays translation (`ecl-core`) and by
/// [`codegen`](crate::codegen).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    pub(crate) ops: Vec<ScheduledOp>,
    pub(crate) comms: Vec<ScheduledComm>,
}

impl Schedule {
    /// Creates a schedule from raw slots (mainly for tests; prefer
    /// [`adequation`](crate::adequation)).
    pub fn from_parts(ops: Vec<ScheduledOp>, comms: Vec<ScheduledComm>) -> Self {
        let mut s = Schedule { ops, comms };
        s.ops.sort_by_key(|o| (o.start, o.op));
        s.comms.sort_by_key(|c| (c.start, c.src_op, c.to));
        s
    }

    /// All computation slots, ordered by start instant.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// All communication slots, ordered by start instant.
    pub fn comms(&self) -> &[ScheduledComm] {
        &self.comms
    }

    /// The slot of operation `op`, if scheduled.
    pub fn slot(&self, op: OpId) -> Option<&ScheduledOp> {
        self.ops.iter().find(|s| s.op == op)
    }

    /// The computation sequence of processor `p`, in execution order.
    pub fn proc_sequence(&self, p: ProcId) -> Vec<&ScheduledOp> {
        self.ops.iter().filter(|s| s.proc == p).collect()
    }

    /// The transfer sequence of medium `m`, in execution order.
    pub fn medium_sequence(&self, m: MediumId) -> Vec<&ScheduledComm> {
        self.comms.iter().filter(|c| c.medium == m).collect()
    }

    /// Cost of one retransmission of communication slot `i`: the medium's
    /// transfer time for the slot's payload (latency + per-unit rate).
    /// `None` if `i` is out of range. Fault injection stretches the slot's
    /// delay by `k · comm_retry_cost` when `k` retransmissions are drawn.
    pub fn comm_retry_cost(&self, arch: &ArchitectureGraph, i: usize) -> Option<TimeNs> {
        let c = self.comms.get(i)?;
        Some(arch.transfer_time(c.medium, c.data_units))
    }

    /// The completion instant of the last computation or communication.
    pub fn makespan(&self) -> TimeNs {
        let op_end = self.ops.iter().map(|s| s.end).max().unwrap_or(TimeNs::ZERO);
        let comm_end = self
            .comms
            .iter()
            .map(|c| c.end)
            .max()
            .unwrap_or(TimeNs::ZERO);
        op_end.max(comm_end)
    }

    /// Fraction of the makespan during which processor `p` computes
    /// (`0.0` for an empty schedule).
    pub fn utilization(&self, p: ProcId) -> f64 {
        let total = self.makespan();
        if total <= TimeNs::ZERO {
            return 0.0;
        }
        let busy: TimeNs = self
            .ops
            .iter()
            .filter(|s| s.proc == p)
            .map(|s| s.end - s.start)
            .sum();
        busy.as_nanos() as f64 / total.as_nanos() as f64
    }

    /// Completion instants of the sensor operations — the per-input
    /// sampling latencies `Ls_j` of the paper's eq. (1) when the schedule
    /// starts at the period origin.
    pub fn sensor_instants(&self, alg: &AlgorithmGraph) -> Vec<(OpId, TimeNs)> {
        self.kind_instants(alg, OpKind::Sensor)
    }

    /// Completion instants of the actuator operations — the per-output
    /// actuation latencies `La_j` of the paper's eq. (2).
    pub fn actuator_instants(&self, alg: &AlgorithmGraph) -> Vec<(OpId, TimeNs)> {
        self.kind_instants(alg, OpKind::Actuator)
    }

    fn kind_instants(&self, alg: &AlgorithmGraph, kind: OpKind) -> Vec<(OpId, TimeNs)> {
        self.ops
            .iter()
            .filter(|s| alg.kind(s.op) == kind)
            .map(|s| (s.op, s.end))
            .collect()
    }

    /// Checks the structural soundness of the schedule against its
    /// algorithm and architecture:
    ///
    /// 1. every operation scheduled exactly once, with `start <= end`;
    /// 2. no overlap within a processor or a medium;
    /// 3. every data dependency satisfied — same-processor predecessors
    ///    complete before the consumer starts; cross-processor ones have a
    ///    communication slot that starts after the producer ends and
    ///    finishes before the consumer starts, on a medium connecting the
    ///    two processors.
    ///
    /// # Errors
    ///
    /// Returns [`AaaError::InvalidSchedule`] naming the violated property.
    pub fn validate(&self, alg: &AlgorithmGraph, arch: &ArchitectureGraph) -> Result<(), AaaError> {
        let bad = |reason: String| Err(AaaError::InvalidSchedule { reason });
        // 1. coverage and sanity
        for op in alg.ops() {
            let count = self.ops.iter().filter(|s| s.op == op).count();
            if count != 1 {
                return bad(format!(
                    "operation '{}' scheduled {count} times",
                    alg.name(op)
                ));
            }
        }
        for s in &self.ops {
            if s.end < s.start {
                return bad(format!(
                    "operation '{}' ends before it starts",
                    alg.name(s.op)
                ));
            }
            arch.check_proc(s.proc)
                .map_err(|_| AaaError::InvalidSchedule {
                    reason: format!("operation '{}' on unknown processor", alg.name(s.op)),
                })?;
        }
        // 2. non-overlap per processor
        for p in arch.processors() {
            let mut seq = self.proc_sequence(p);
            seq.sort_by_key(|s| s.start);
            for w in seq.windows(2) {
                if w[1].start < w[0].end {
                    return bad(format!(
                        "operations '{}' and '{}' overlap on {}",
                        alg.name(w[0].op),
                        alg.name(w[1].op),
                        arch.proc_name(p)
                    ));
                }
            }
        }
        // ... and per medium. The stored order is checked verbatim (not a
        // sorted copy): codegen and the executive VM both replay it as the
        // medium's transfer sequence, so an out-of-order sequence is a bug
        // even when a sorted view of it would be overlap-free.
        for m in arch.media() {
            let seq = self.medium_sequence(m);
            for w in seq.windows(2) {
                if w[1].start < w[0].start {
                    return Err(AaaError::CommConflict {
                        medium: arch.medium_name(m).to_string(),
                        reason: format!(
                            "transfer of '{}' is stored after '{}' but starts earlier",
                            alg.name(w[1].src_op),
                            alg.name(w[0].src_op)
                        ),
                    });
                }
                if w[1].start < w[0].end {
                    return Err(AaaError::CommConflict {
                        medium: arch.medium_name(m).to_string(),
                        reason: format!(
                            "transfers of '{}' and '{}' overlap",
                            alg.name(w[0].src_op),
                            alg.name(w[1].src_op)
                        ),
                    });
                }
            }
        }
        // 3. dependencies
        for e in alg.edges() {
            let ps = self.slot(e.src).expect("covered above");
            let pd = self.slot(e.dst).expect("covered above");
            if ps.proc == pd.proc {
                if ps.end > pd.start {
                    return bad(format!(
                        "'{}' starts before its predecessor '{}' completes",
                        alg.name(e.dst),
                        alg.name(e.src)
                    ));
                }
            } else {
                let ok = self.comms.iter().any(|c| {
                    c.src_op == e.src
                        && c.to == pd.proc
                        && c.start >= ps.end
                        && c.end <= pd.start
                        && arch.medium_procs(c.medium).contains(&c.from)
                        && arch.medium_procs(c.medium).contains(&c.to)
                });
                // A broadcast transfer to a third processor also delivers
                // the data here if the medium reaches pd.proc.
                let ok_broadcast = ok
                    || self.comms.iter().any(|c| {
                        c.src_op == e.src
                            && c.start >= ps.end
                            && c.end <= pd.start
                            && arch.medium_procs(c.medium).contains(&pd.proc)
                    });
                if !ok_broadcast {
                    return bad(format!(
                        "no communication delivers '{}' from {} to {} before '{}' starts",
                        alg.name(e.src),
                        arch.proc_name(ps.proc),
                        arch.proc_name(pd.proc),
                        alg.name(e.dst)
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes the schedule for the content-addressed on-disk cache
    /// (`results/cache/schedules/`): magic + version, then every slot
    /// field little-endian, hand-rolled on [`ecl_telemetry::bytes`].
    /// Invalidation is by digest: records are
    /// filed under [`schedule_digest`](crate::schedule_digest), so a cached
    /// schedule can never be served for changed scheduler inputs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(16 + self.ops.len() * 32 + self.comms.len() * 56);
        w.put_raw(SCHEDULE_MAGIC);
        w.put_u32(SCHEDULE_VERSION);
        w.put_seq_len(self.ops.len());
        for o in &self.ops {
            w.put_usize(o.op.index());
            w.put_usize(o.proc.index());
            w.put_i64(o.start.as_nanos());
            w.put_i64(o.end.as_nanos());
        }
        w.put_seq_len(self.comms.len());
        for c in &self.comms {
            w.put_usize(c.src_op.index());
            w.put_usize(c.from.index());
            w.put_usize(c.to.index());
            w.put_usize(c.medium.index());
            w.put_i64(c.start.as_nanos());
            w.put_i64(c.end.as_nanos());
            w.put_u32(c.data_units);
        }
        w.into_bytes()
    }

    /// Reconstructs a schedule serialized by [`to_bytes`], consuming the
    /// whole buffer. Corruption (bad magic, truncation, trailing bytes)
    /// decodes to a typed [`CodecError`], never a panic, so a damaged
    /// cache record is skipped rather than trusted.
    ///
    /// [`to_bytes`]: Schedule::to_bytes
    ///
    /// # Errors
    ///
    /// Returns the structural [`CodecError`] describing the corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<Schedule, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_magic(SCHEDULE_MAGIC)?;
        let version = r.get_u32()?;
        if version != SCHEDULE_VERSION {
            return Err(CodecError::BadMagic {
                expected: format!("schedule v{SCHEDULE_VERSION}"),
                found: format!("schedule v{version}"),
            });
        }
        let n_ops = r.get_seq_len()?;
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            ops.push(ScheduledOp {
                op: OpId(r.get_usize()?),
                proc: ProcId(r.get_usize()?),
                start: TimeNs::from_nanos(r.get_i64()?),
                end: TimeNs::from_nanos(r.get_i64()?),
            });
        }
        let n_comms = r.get_seq_len()?;
        let mut comms = Vec::with_capacity(n_comms);
        for _ in 0..n_comms {
            comms.push(ScheduledComm {
                src_op: OpId(r.get_usize()?),
                from: ProcId(r.get_usize()?),
                to: ProcId(r.get_usize()?),
                medium: MediumId(r.get_usize()?),
                start: TimeNs::from_nanos(r.get_i64()?),
                end: TimeNs::from_nanos(r.get_i64()?),
                data_units: r.get_u32()?,
            });
        }
        r.finish()?;
        // `from_parts` re-sorts, so even a hand-edited file decodes to a
        // schedule honoring the stored-order invariants.
        Ok(Schedule::from_parts(ops, comms))
    }

    /// Renders a human-readable Gantt-style listing of the schedule.
    pub fn render(&self, alg: &AlgorithmGraph, arch: &ArchitectureGraph) -> String {
        let mut s = String::new();
        for p in arch.processors() {
            s.push_str(&format!("processor {}:\n", arch.proc_name(p)));
            for slot in self.proc_sequence(p) {
                s.push_str(&format!(
                    "  [{} .. {}] {}\n",
                    slot.start,
                    slot.end,
                    alg.name(slot.op)
                ));
            }
        }
        for m in arch.media() {
            s.push_str(&format!("medium {}:\n", arch.medium_name(m)));
            for c in self.medium_sequence(m) {
                s.push_str(&format!(
                    "  [{} .. {}] {} : {} -> {}\n",
                    c.start,
                    c.end,
                    alg.name(c.src_op),
                    arch.proc_name(c.from),
                    arch.proc_name(c.to)
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (AlgorithmGraph, ArchitectureGraph) {
        let mut alg = AlgorithmGraph::new();
        let s = alg.add_sensor("s");
        let f = alg.add_function("f");
        let a = alg.add_actuator("a");
        alg.add_edge(s, f, 1).unwrap();
        alg.add_edge(f, a, 1).unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "arm");
        let p1 = arch.add_processor("p1", "arm");
        arch.add_bus(
            "bus",
            &[p0, p1],
            TimeNs::from_micros(10),
            TimeNs::from_micros(1),
        )
        .unwrap();
        (alg, arch)
    }

    fn ms(v: i64) -> TimeNs {
        TimeNs::from_millis(v)
    }

    fn valid_split_schedule() -> Schedule {
        // s,f on p0; a on p1 with a comm in between.
        Schedule::from_parts(
            vec![
                ScheduledOp {
                    op: OpId(0),
                    proc: ProcId(0),
                    start: ms(0),
                    end: ms(1),
                },
                ScheduledOp {
                    op: OpId(1),
                    proc: ProcId(0),
                    start: ms(1),
                    end: ms(3),
                },
                ScheduledOp {
                    op: OpId(2),
                    proc: ProcId(1),
                    start: ms(4),
                    end: ms(5),
                },
            ],
            vec![ScheduledComm {
                src_op: OpId(1),
                from: ProcId(0),
                to: ProcId(1),
                medium: MediumId(0),
                start: ms(3),
                end: ms(4),
                data_units: 1,
            }],
        )
    }

    #[test]
    fn valid_schedule_passes() {
        let (alg, arch) = toy();
        let s = valid_split_schedule();
        s.validate(&alg, &arch).unwrap();
        assert_eq!(s.makespan(), ms(5));
        assert_eq!(s.proc_sequence(ProcId(0)).len(), 2);
        assert_eq!(s.medium_sequence(MediumId(0)).len(), 1);
        assert!((s.utilization(ProcId(0)) - 0.6).abs() < 1e-12);
        assert!((s.utilization(ProcId(1)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn io_instants() {
        let (alg, _arch) = toy();
        let s = valid_split_schedule();
        assert_eq!(s.sensor_instants(&alg), vec![(OpId(0), ms(1))]);
        assert_eq!(s.actuator_instants(&alg), vec![(OpId(2), ms(5))]);
    }

    #[test]
    fn missing_op_rejected() {
        let (alg, arch) = toy();
        let mut s = valid_split_schedule();
        s.ops.pop();
        assert!(matches!(
            s.validate(&alg, &arch),
            Err(AaaError::InvalidSchedule { .. })
        ));
    }

    #[test]
    fn overlap_on_processor_rejected() {
        let (alg, arch) = toy();
        let mut s = valid_split_schedule();
        // Make f start before s ends on the same processor.
        s.ops[1].start = TimeNs::from_micros(500);
        assert!(s.validate(&alg, &arch).is_err());
    }

    #[test]
    fn missing_comm_rejected() {
        let (alg, arch) = toy();
        let mut s = valid_split_schedule();
        s.comms.clear();
        let err = s.validate(&alg, &arch).unwrap_err();
        assert!(err.to_string().contains("no communication"));
    }

    #[test]
    fn late_comm_rejected() {
        let (alg, arch) = toy();
        let mut s = valid_split_schedule();
        // Comm finishes after the consumer starts.
        s.comms[0].end = ms(4) + TimeNs::from_micros(1);
        assert!(s.validate(&alg, &arch).is_err());
    }

    #[test]
    fn dependency_order_on_same_proc_rejected() {
        let (alg, arch) = toy();
        let s = Schedule::from_parts(
            vec![
                ScheduledOp {
                    op: OpId(0),
                    proc: ProcId(0),
                    start: ms(2),
                    end: ms(3),
                },
                ScheduledOp {
                    op: OpId(1),
                    proc: ProcId(0),
                    start: ms(0),
                    end: ms(1),
                },
                ScheduledOp {
                    op: OpId(2),
                    proc: ProcId(0),
                    start: ms(4),
                    end: ms(5),
                },
            ],
            vec![],
        );
        assert!(s.validate(&alg, &arch).is_err());
    }

    #[test]
    fn render_lists_everything() {
        let (alg, arch) = toy();
        let s = valid_split_schedule();
        let text = s.render(&alg, &arch);
        assert!(text.contains("processor p0"));
        assert!(text.contains("medium bus"));
        assert!(text.contains("f"));
    }

    #[test]
    fn byte_codec_round_trips() {
        let s = valid_split_schedule();
        let bytes = s.to_bytes();
        let back = Schedule::from_bytes(&bytes).unwrap();
        assert_eq!(back.ops(), s.ops());
        assert_eq!(back.comms(), s.comms());
        // Encoding is canonical: re-encoding the decode is byte-identical.
        assert_eq!(back.to_bytes(), bytes);
        // The empty schedule round-trips too.
        let empty = Schedule::default();
        assert_eq!(
            Schedule::from_bytes(&empty.to_bytes()).unwrap().ops(),
            empty.ops()
        );
    }

    #[test]
    fn byte_codec_rejects_corruption() {
        let s = valid_split_schedule();
        let bytes = s.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Schedule::from_bytes(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        // Unknown version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            Schedule::from_bytes(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        // Truncation at every prefix length decodes to an error, never a
        // panic or a silently short schedule.
        for cut in 0..bytes.len() {
            assert!(Schedule::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is refused.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            Schedule::from_bytes(&long),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::default();
        assert_eq!(s.makespan(), TimeNs::ZERO);
        assert_eq!(s.utilization(ProcId(0)), 0.0);
        assert!(s.slot(OpId(0)).is_none());
    }

    #[test]
    fn zero_makespan_utilization_is_zero() {
        // Degenerate but non-empty: a zero-length slot at the origin must
        // not divide by a zero makespan.
        let s = Schedule::from_parts(
            vec![ScheduledOp {
                op: OpId(0),
                proc: ProcId(0),
                start: ms(0),
                end: ms(0),
            }],
            vec![],
        );
        assert_eq!(s.makespan(), TimeNs::ZERO);
        assert_eq!(s.utilization(ProcId(0)), 0.0);
    }

    #[test]
    fn overlapping_comms_on_medium_rejected() {
        let (alg, arch) = toy();
        let mut s = valid_split_schedule();
        // A second transfer on the bus that starts before the first ends.
        s.comms.push(ScheduledComm {
            src_op: OpId(0),
            from: ProcId(0),
            to: ProcId(1),
            medium: MediumId(0),
            start: ms(3) + TimeNs::from_micros(500),
            end: ms(4) + TimeNs::from_micros(500),
            data_units: 1,
        });
        let err = s.validate(&alg, &arch).unwrap_err();
        assert!(matches!(err, AaaError::CommConflict { ref medium, .. } if medium == "bus"));
        assert!(err.to_string().contains("overlap"));
    }

    #[test]
    fn unsorted_medium_sequence_rejected() {
        let (alg, arch) = toy();
        let mut s = valid_split_schedule();
        // A disjoint transfer appended out of order: sorted views of the
        // bus sequence are overlap-free, but the stored order is wrong.
        s.comms.push(ScheduledComm {
            src_op: OpId(0),
            from: ProcId(0),
            to: ProcId(1),
            medium: MediumId(0),
            start: ms(1),
            end: ms(2),
            data_units: 1,
        });
        let err = s.validate(&alg, &arch).unwrap_err();
        assert!(matches!(err, AaaError::CommConflict { ref medium, .. } if medium == "bus"));
        assert!(err.to_string().contains("starts earlier"));
    }
}

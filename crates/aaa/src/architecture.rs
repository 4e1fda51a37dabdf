//! The SynDEx architecture graph: processors and communication media.

use std::fmt;

use ecl_sim::TimeNs;

use crate::AaaError;

/// Handle to a processor of an [`ArchitectureGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// The raw index of this processor.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Handle to a communication medium of an [`ArchitectureGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MediumId(pub(crate) usize);

impl MediumId {
    /// The raw index of this medium.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MediumId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The sharing semantics of a medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumKind {
    /// A broadcast bus (CAN-like): one transfer at a time, every connected
    /// processor observes the data.
    Bus,
    /// A point-to-point link between exactly two processors.
    PointToPoint,
}

#[derive(Debug, Clone)]
pub(crate) struct Processor {
    pub(crate) name: String,
    pub(crate) kind: String,
}

#[derive(Debug, Clone)]
pub(crate) struct Medium {
    pub(crate) name: String,
    pub(crate) kind: MediumKind,
    pub(crate) connected: Vec<ProcId>,
    /// Fixed per-transfer latency (arbitration, framing).
    pub(crate) latency: TimeNs,
    /// Transfer time per data unit.
    pub(crate) per_unit: TimeNs,
    /// Data units per frame for framed media (CAN-like): a transfer of
    /// `u` units pays `latency` once per `ceil(u / payload)` frame
    /// instead of once per transfer. `None` keeps the affine tariff.
    pub(crate) frame_payload: Option<u32>,
}

/// The distributed architecture: heterogeneous processors plus buses and
/// point-to-point links with worst-case communication timing.
///
/// # Examples
///
/// ```
/// use ecl_aaa::{ArchitectureGraph, TimeNs};
/// # fn main() -> Result<(), ecl_aaa::AaaError> {
/// let mut arch = ArchitectureGraph::new();
/// let ecu0 = arch.add_processor("ecu0", "arm");
/// let ecu1 = arch.add_processor("ecu1", "dsp");
/// arch.add_bus("can", &[ecu0, ecu1], TimeNs::from_micros(120), TimeNs::from_micros(8))?;
/// assert_eq!(arch.media_between(ecu0, ecu1).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArchitectureGraph {
    pub(crate) procs: Vec<Processor>,
    pub(crate) media: Vec<Medium>,
}

impl ArchitectureGraph {
    /// Creates an empty architecture.
    pub fn new() -> Self {
        ArchitectureGraph::default()
    }

    /// Adds a processor of the given `kind` (used for WCET grouping in
    /// heterogeneous architectures).
    pub fn add_processor(&mut self, name: impl Into<String>, kind: impl Into<String>) -> ProcId {
        self.procs.push(Processor {
            name: name.into(),
            kind: kind.into(),
        });
        ProcId(self.procs.len() - 1)
    }

    /// Adds a broadcast bus connecting `procs`, with a fixed per-transfer
    /// `latency` and a `per_unit` transfer time.
    ///
    /// # Errors
    ///
    /// * [`AaaError::UnknownProcessor`] for a foreign id.
    /// * [`AaaError::InvalidGraph`] if fewer than two processors are
    ///   connected or one appears twice.
    /// * [`AaaError::InvalidTiming`] for negative timing values.
    pub fn add_bus(
        &mut self,
        name: impl Into<String>,
        procs: &[ProcId],
        latency: TimeNs,
        per_unit: TimeNs,
    ) -> Result<MediumId, AaaError> {
        self.add_medium(name.into(), MediumKind::Bus, procs, latency, per_unit, None)
    }

    /// Adds a framed broadcast bus (CAN-like): a transfer of `u` data
    /// units is segmented into `ceil(u / frame_payload)` frames (at
    /// least one), each paying the fixed `latency` (arbitration +
    /// framing overhead), on top of `per_unit` per data unit. With
    /// `frame_payload` at least the largest transfer, this degenerates
    /// to the affine [`add_bus`](ArchitectureGraph::add_bus) tariff.
    ///
    /// # Errors
    ///
    /// Same as [`ArchitectureGraph::add_bus`], plus
    /// [`AaaError::InvalidGraph`] for a zero `frame_payload`.
    pub fn add_framed_bus(
        &mut self,
        name: impl Into<String>,
        procs: &[ProcId],
        latency: TimeNs,
        per_unit: TimeNs,
        frame_payload: u32,
    ) -> Result<MediumId, AaaError> {
        let name = name.into();
        if frame_payload == 0 {
            return Err(AaaError::InvalidGraph {
                reason: format!("medium '{name}' frame payload must be positive"),
            });
        }
        self.add_medium(
            name,
            MediumKind::Bus,
            procs,
            latency,
            per_unit,
            Some(frame_payload),
        )
    }

    /// Adds a point-to-point link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Same as [`ArchitectureGraph::add_bus`].
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        a: ProcId,
        b: ProcId,
        latency: TimeNs,
        per_unit: TimeNs,
    ) -> Result<MediumId, AaaError> {
        self.add_medium(
            name.into(),
            MediumKind::PointToPoint,
            &[a, b],
            latency,
            per_unit,
            None,
        )
    }

    fn add_medium(
        &mut self,
        name: String,
        kind: MediumKind,
        procs: &[ProcId],
        latency: TimeNs,
        per_unit: TimeNs,
        frame_payload: Option<u32>,
    ) -> Result<MediumId, AaaError> {
        for &p in procs {
            self.check_proc(p)?;
        }
        if procs.len() < 2 {
            return Err(AaaError::InvalidGraph {
                reason: format!("medium '{name}' must connect at least two processors"),
            });
        }
        let mut sorted: Vec<_> = procs.to_vec();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != procs.len() {
            return Err(AaaError::InvalidGraph {
                reason: format!("medium '{name}' connects a processor twice"),
            });
        }
        for t in [latency, per_unit] {
            if t.is_negative() {
                return Err(AaaError::InvalidTiming {
                    reason: "medium timing must be non-negative".into(),
                    value: t,
                });
            }
        }
        self.media.push(Medium {
            name,
            kind,
            connected: procs.to_vec(),
            latency,
            per_unit,
            frame_payload,
        });
        Ok(MediumId(self.media.len() - 1))
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.procs.len()
    }

    /// Number of media.
    pub fn num_media(&self) -> usize {
        self.media.len()
    }

    /// Iterates over all processor ids.
    pub fn processors(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.procs.len()).map(ProcId)
    }

    /// Iterates over all medium ids.
    pub fn media(&self) -> impl Iterator<Item = MediumId> + '_ {
        (0..self.media.len()).map(MediumId)
    }

    /// A processor's name.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn proc_name(&self, p: ProcId) -> &str {
        &self.procs[p.0].name
    }

    /// A processor's kind string.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn proc_kind(&self, p: ProcId) -> &str {
        &self.procs[p.0].kind
    }

    /// A medium's name.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn medium_name(&self, m: MediumId) -> &str {
        &self.media[m.0].name
    }

    /// A medium's sharing kind.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn medium_kind(&self, m: MediumId) -> MediumKind {
        self.media[m.0].kind
    }

    /// The processors connected to a medium.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn medium_procs(&self, m: MediumId) -> &[ProcId] {
        &self.media[m.0].connected
    }

    /// Worst-case duration of transferring `data_units` on medium `m`.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn transfer_time(&self, m: MediumId, data_units: u32) -> TimeNs {
        let md = &self.media[m.0];
        let frames = match md.frame_payload {
            None => 1,
            Some(payload) => {
                // ceil(u / payload), at least one frame even for a
                // zero-unit transfer (the frame header still goes out).
                u64::from(data_units).div_ceil(u64::from(payload)).max(1) as i64
            }
        };
        md.latency * frames + md.per_unit * i64::from(data_units)
    }

    /// The media connecting `a` and `b` (both endpoints attached).
    pub fn media_between(&self, a: ProcId, b: ProcId) -> Vec<MediumId> {
        self.media()
            .filter(|&m| {
                let c = &self.media[m.0].connected;
                c.contains(&a) && c.contains(&b)
            })
            .collect()
    }

    /// `true` if every pair of processors shares at least one medium
    /// (single-hop routing, the SynDEx default route model used here).
    pub fn fully_routed(&self) -> bool {
        let ids: Vec<ProcId> = self.processors().collect();
        ids.iter().enumerate().all(|(i, &a)| {
            ids[i + 1..]
                .iter()
                .all(|&b| !self.media_between(a, b).is_empty())
        })
    }

    pub(crate) fn check_proc(&self, p: ProcId) -> Result<(), AaaError> {
        if p.0 < self.procs.len() {
            Ok(())
        } else {
            Err(AaaError::UnknownProcessor { index: p.0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_ecus() -> (ArchitectureGraph, ProcId, ProcId) {
        let mut arch = ArchitectureGraph::new();
        let a = arch.add_processor("ecu0", "arm");
        let b = arch.add_processor("ecu1", "arm");
        (arch, a, b)
    }

    #[test]
    fn bus_connects_processors() {
        let (mut arch, a, b) = two_ecus();
        let bus = arch
            .add_bus(
                "can",
                &[a, b],
                TimeNs::from_micros(100),
                TimeNs::from_micros(10),
            )
            .unwrap();
        assert_eq!(arch.media_between(a, b), vec![bus]);
        assert_eq!(arch.medium_kind(bus), MediumKind::Bus);
        assert_eq!(arch.medium_name(bus), "can");
        assert_eq!(arch.medium_procs(bus), &[a, b]);
        assert!(arch.fully_routed());
    }

    #[test]
    fn transfer_time_formula() {
        let (mut arch, a, b) = two_ecus();
        let bus = arch
            .add_bus(
                "can",
                &[a, b],
                TimeNs::from_micros(100),
                TimeNs::from_micros(10),
            )
            .unwrap();
        assert_eq!(arch.transfer_time(bus, 0), TimeNs::from_micros(100));
        assert_eq!(arch.transfer_time(bus, 5), TimeNs::from_micros(150));
    }

    #[test]
    fn framed_bus_pays_latency_per_frame() {
        let (mut arch, a, b) = two_ecus();
        let bus = arch
            .add_framed_bus(
                "can",
                &[a, b],
                TimeNs::from_micros(100),
                TimeNs::from_micros(10),
                4,
            )
            .unwrap();
        // Zero units still costs one frame header.
        assert_eq!(arch.transfer_time(bus, 0), TimeNs::from_micros(100));
        // One frame up to the payload size — affine within a frame.
        assert_eq!(arch.transfer_time(bus, 1), TimeNs::from_micros(110));
        assert_eq!(arch.transfer_time(bus, 4), TimeNs::from_micros(140));
        // Crossing the payload boundary adds a second frame header.
        assert_eq!(arch.transfer_time(bus, 5), TimeNs::from_micros(250));
        assert_eq!(arch.transfer_time(bus, 8), TimeNs::from_micros(280));
        assert_eq!(arch.transfer_time(bus, 9), TimeNs::from_micros(390));
    }

    #[test]
    fn framed_bus_with_large_payload_matches_affine_bus() {
        let (mut arch, a, b) = two_ecus();
        let plain = arch
            .add_bus(
                "plain",
                &[a, b],
                TimeNs::from_micros(100),
                TimeNs::from_micros(10),
            )
            .unwrap();
        let framed = arch
            .add_framed_bus(
                "framed",
                &[a, b],
                TimeNs::from_micros(100),
                TimeNs::from_micros(10),
                u32::MAX,
            )
            .unwrap();
        for u in [0, 1, 7, 1000] {
            assert_eq!(arch.transfer_time(plain, u), arch.transfer_time(framed, u));
        }
    }

    #[test]
    fn framed_bus_rejects_zero_payload() {
        let (mut arch, a, b) = two_ecus();
        assert!(arch
            .add_framed_bus("bad", &[a, b], TimeNs::ZERO, TimeNs::ZERO, 0)
            .is_err());
    }

    #[test]
    fn link_is_point_to_point() {
        let (mut arch, a, b) = two_ecus();
        let l = arch
            .add_link("spi", a, b, TimeNs::ZERO, TimeNs::from_micros(1))
            .unwrap();
        assert_eq!(arch.medium_kind(l), MediumKind::PointToPoint);
    }

    #[test]
    fn medium_validation() {
        let (mut arch, a, _b) = two_ecus();
        assert!(arch
            .add_bus("solo", &[a], TimeNs::ZERO, TimeNs::ZERO)
            .is_err());
        assert!(arch
            .add_bus("dup", &[a, a], TimeNs::ZERO, TimeNs::ZERO)
            .is_err());
        assert!(arch
            .add_bus("neg", &[a, ProcId(1)], TimeNs::from_nanos(-1), TimeNs::ZERO)
            .is_err());
        assert!(arch
            .add_bus("ghost", &[a, ProcId(9)], TimeNs::ZERO, TimeNs::ZERO)
            .is_err());
    }

    #[test]
    fn not_fully_routed_without_media() {
        let (arch, _a, _b) = two_ecus();
        assert!(!arch.fully_routed());
        // Single processor is trivially routed.
        let mut solo = ArchitectureGraph::new();
        solo.add_processor("only", "arm");
        assert!(solo.fully_routed());
    }

    #[test]
    fn names_and_kinds() {
        let (arch, a, b) = two_ecus();
        assert_eq!(arch.proc_name(a), "ecu0");
        assert_eq!(arch.proc_kind(b), "arm");
        assert_eq!(arch.num_processors(), 2);
        assert_eq!(arch.num_media(), 0);
    }
}

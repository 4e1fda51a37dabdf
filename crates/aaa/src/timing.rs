//! Worst-case execution time characterization.

use std::collections::{BTreeMap, BTreeSet};

use ecl_sim::TimeNs;

use crate::algorithm::OpId;
use crate::architecture::ProcId;
use crate::AaaError;

/// The WCET table: worst-case execution time of each operation on each
/// processor.
///
/// Lookups fall back from the `(op, processor)`-specific entry to the
/// operation's default; an operation with neither on a given processor
/// *cannot execute there* (heterogeneity / placement constraints).
///
/// Every section is kept in key order, so the iterators walk it in a
/// canonical order and a digest of the table needs no sorted copy.
///
/// # Examples
///
/// ```
/// use ecl_aaa::{AlgorithmGraph, ArchitectureGraph, TimeNs, TimingDb};
/// let mut alg = AlgorithmGraph::new();
/// let f = alg.add_function("fft");
/// let mut arch = ArchitectureGraph::new();
/// let arm = arch.add_processor("ecu", "arm");
/// let dsp = arch.add_processor("dsp", "c6x");
/// let mut db = TimingDb::new();
/// db.set_default(f, TimeNs::from_micros(900));
/// db.set(f, dsp, TimeNs::from_micros(100)); // much faster on the DSP
/// assert_eq!(db.wcet(f, arm), Some(TimeNs::from_micros(900)));
/// assert_eq!(db.wcet(f, dsp), Some(TimeNs::from_micros(100)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimingDb {
    specific: BTreeMap<(OpId, ProcId), TimeNs>,
    default: BTreeMap<OpId, TimeNs>,
    /// Processors on which an operation is explicitly forbidden.
    forbidden: BTreeSet<(OpId, ProcId)>,
}

impl TimingDb {
    /// Creates an empty table.
    pub fn new() -> Self {
        TimingDb::default()
    }

    /// Sets the default WCET of `op` on every processor.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is negative (a WCET is a duration).
    pub fn set_default(&mut self, op: OpId, wcet: TimeNs) {
        assert!(!wcet.is_negative(), "WCET must be non-negative");
        self.default.insert(op, wcet);
    }

    /// Sets the WCET of `op` on one specific processor, overriding the
    /// default.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is negative.
    pub fn set(&mut self, op: OpId, proc: ProcId, wcet: TimeNs) {
        assert!(!wcet.is_negative(), "WCET must be non-negative");
        self.specific.insert((op, proc), wcet);
        self.forbidden.remove(&(op, proc));
    }

    /// Forbids executing `op` on `proc` (placement constraint), regardless
    /// of defaults.
    pub fn forbid(&mut self, op: OpId, proc: ProcId) {
        self.forbidden.insert((op, proc));
        self.specific.remove(&(op, proc));
    }

    /// The WCET of `op` on `proc`, or `None` if the operation cannot
    /// execute there.
    pub fn wcet(&self, op: OpId, proc: ProcId) -> Option<TimeNs> {
        if self.forbidden.contains(&(op, proc)) {
            return None;
        }
        self.specific
            .get(&(op, proc))
            .or_else(|| self.default.get(&op))
            .copied()
    }

    /// Iterates over the per-`(op, processor)` overrides, in ascending
    /// `(op, processor)` order.
    pub fn iter_specific(&self) -> impl Iterator<Item = (OpId, ProcId, TimeNs)> + '_ {
        self.specific.iter().map(|(&(o, p), &t)| (o, p, t))
    }

    /// Iterates over the per-operation defaults, in ascending op order.
    pub fn iter_defaults(&self) -> impl Iterator<Item = (OpId, TimeNs)> + '_ {
        self.default.iter().map(|(&o, &t)| (o, t))
    }

    /// Iterates over the forbidden `(op, processor)` placements, in
    /// ascending `(op, processor)` order.
    pub fn iter_forbidden(&self) -> impl Iterator<Item = (OpId, ProcId)> + '_ {
        self.forbidden.iter().copied()
    }

    /// The smallest WCET of `op` over the given processors, or an error if
    /// no processor can execute it.
    ///
    /// # Errors
    ///
    /// Returns [`AaaError::Unimplementable`] when every processor is
    /// excluded.
    pub fn min_wcet(
        &self,
        op: OpId,
        procs: impl IntoIterator<Item = ProcId>,
        op_name: &str,
    ) -> Result<TimeNs, AaaError> {
        procs
            .into_iter()
            .filter_map(|p| self.wcet(op, p))
            .min()
            .ok_or_else(|| AaaError::Unimplementable {
                op: op_name.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::AlgorithmGraph;
    use crate::architecture::ArchitectureGraph;

    fn ids() -> (OpId, ProcId, ProcId) {
        let mut alg = AlgorithmGraph::new();
        let op = alg.add_function("f");
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("p0", "a");
        let p1 = arch.add_processor("p1", "b");
        (op, p0, p1)
    }

    #[test]
    fn default_and_specific_lookup() {
        let (op, p0, p1) = ids();
        let mut db = TimingDb::new();
        assert_eq!(db.wcet(op, p0), None);
        db.set_default(op, TimeNs::from_micros(10));
        assert_eq!(db.wcet(op, p0), Some(TimeNs::from_micros(10)));
        db.set(op, p1, TimeNs::from_micros(3));
        assert_eq!(db.wcet(op, p1), Some(TimeNs::from_micros(3)));
        assert_eq!(db.wcet(op, p0), Some(TimeNs::from_micros(10)));
    }

    #[test]
    fn forbid_overrides_default() {
        let (op, p0, p1) = ids();
        let mut db = TimingDb::new();
        db.set_default(op, TimeNs::from_micros(10));
        db.forbid(op, p0);
        assert_eq!(db.wcet(op, p0), None);
        assert!(db.wcet(op, p1).is_some());
        // Setting a specific value lifts the interdiction.
        db.set(op, p0, TimeNs::from_micros(5));
        assert_eq!(db.wcet(op, p0), Some(TimeNs::from_micros(5)));
    }

    #[test]
    fn min_wcet_over_processors() {
        let (op, p0, p1) = ids();
        let mut db = TimingDb::new();
        db.set(op, p1, TimeNs::from_micros(7));
        assert_eq!(
            db.min_wcet(op, [p0, p1], "f").unwrap(),
            TimeNs::from_micros(7)
        );
        let empty = TimingDb::new();
        assert!(matches!(
            empty.min_wcet(op, [p0, p1], "f"),
            Err(AaaError::Unimplementable { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_wcet_panics() {
        let (op, p0, _) = ids();
        let mut db = TimingDb::new();
        db.set(op, p0, TimeNs::from_nanos(-1));
    }
}

//! Hot-loop execution counters exposed by the engine.

use crate::model::BlockId;

/// Counters from the ODE integrator.
///
/// Maintained by [`crate::ode::integrate`] and accumulated across spans by
/// the engine. All counters are exact and deterministic for a given model
/// and horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OdeStepStats {
    /// Steps whose error estimate met the tolerance (every RK4 step
    /// counts as accepted).
    pub steps_accepted: u64,
    /// Adaptive steps rejected and retried with a smaller `h` (always 0
    /// for fixed-step RK4).
    pub steps_rejected: u64,
    /// Right-hand-side evaluations actually made: 4 per RK4 step; 6 per
    /// RK45 attempt, plus 1 whenever its first stage cannot be reused — at
    /// the start of a span, and after an accepted step whose last-stage
    /// input differs from the accepted state in any bit.
    pub rhs_evals: u64,
}

impl OdeStepStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: OdeStepStats) {
        self.steps_accepted += other.steps_accepted;
        self.steps_rejected += other.steps_rejected;
        self.rhs_evals += other.rhs_evals;
    }
}

/// Execution counters for one [`crate::Simulator`], accumulated across
/// `run` calls.
///
/// Everything here is a plain integer updated inline in the hot loops —
/// no allocation, no wall clock — so the counters are always on and
/// byte-identical across identical runs. (The kernel schedules all
/// discrete activity on the integer-nanosecond calendar and has no
/// zero-crossing root finder, so there is no zero-crossing iteration
/// count to report.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Event deliveries per block, indexed by `BlockId` index.
    activations: Vec<u64>,
    /// Total event deliveries across all blocks.
    pub events_delivered: u64,
    /// Distinct event instants processed.
    pub event_instants: u64,
    /// Largest number of pending events observed in the calendar.
    pub calendar_peak: usize,
    /// Largest same-instant delivery cascade (bounded by
    /// [`crate::SimOptions::cascade_limit`]).
    pub max_cascade: usize,
    /// Continuous spans handed to the ODE integrator.
    pub integration_spans: u64,
    /// Heap allocations observed on the hot paths — growths of the
    /// engine's reusable scratch buffers: the per-delivery emission queue
    /// and the ODE workspace every integrated span runs on. The kernel
    /// pre-sizes those buffers, so this stays 0 in steady state; a nonzero
    /// delta between identical runs is an allocation regression and is
    /// asserted against in tests and by `exp17_scale`, whose probe
    /// prints it in the `kernel_work:` line of the E16 and E17 goldens.
    pub hot_allocs: u64,
    /// Accumulated integrator counters.
    pub ode: OdeStepStats,
}

impl EngineStats {
    pub(crate) fn new(n_blocks: usize) -> Self {
        EngineStats {
            activations: vec![0; n_blocks],
            ..EngineStats::default()
        }
    }

    pub(crate) fn count_activation(&mut self, block_index: usize) {
        self.activations[block_index] += 1;
        self.events_delivered += 1;
    }

    /// Event deliveries to `block`.
    pub fn activations(&self, block: BlockId) -> u64 {
        self.activations.get(block.index()).copied().unwrap_or(0)
    }

    /// Per-block delivery counts, indexed by `BlockId` index.
    pub fn activation_counts(&self) -> &[u64] {
        &self.activations
    }

    /// These counters without the per-block delivery counts: every
    /// [`activations`](Self::activations) query then reads 0.
    pub fn without_activations(self) -> EngineStats {
        EngineStats {
            activations: Vec::new(),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = OdeStepStats {
            steps_accepted: 1,
            steps_rejected: 2,
            rhs_evals: 7,
        };
        a.merge(OdeStepStats {
            steps_accepted: 10,
            steps_rejected: 0,
            rhs_evals: 70,
        });
        assert_eq!(a.steps_accepted, 11);
        assert_eq!(a.steps_rejected, 2);
        assert_eq!(a.rhs_evals, 77);
    }

    #[test]
    fn activations_out_of_range_are_zero() {
        let s = EngineStats::new(2);
        assert_eq!(s.activations(BlockId::from_index(5)), 0);
        assert_eq!(s.activation_counts(), &[0, 0]);
    }

    #[test]
    fn without_activations_keeps_the_totals() {
        let mut s = EngineStats::new(2);
        s.count_activation(1);
        s.ode.rhs_evals = 7;
        let t = s.clone().without_activations();
        assert!(t.activation_counts().is_empty());
        assert_eq!(t.activations(BlockId::from_index(1)), 0);
        assert_eq!((t.events_delivered, t.ode), (1, s.ode));
    }
}

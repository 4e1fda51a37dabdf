//! Sampling and actuation latency analysis — the paper's equations (1)
//! and (2).
//!
//! Given the activation instants of an input Sample/Hold (its `I_j(k)`) or
//! an output hold (`O_j(k)`), [`latencies`] computes the per-period
//! latency series `L_j(k) = t_j(k) − k·Ts` and [`LatencySeries::stats`]
//! summarizes it (mean, extremes, jitter).

use ecl_sim::TimeNs;

use crate::CoreError;

/// A per-period latency series `L_j(k)`, `k = 0..`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySeries {
    values: Vec<TimeNs>,
    overruns: usize,
}

/// Summary statistics of a latency series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Smallest latency observed.
    pub min: TimeNs,
    /// Largest latency observed.
    pub max: TimeNs,
    /// Mean latency (integer nanoseconds, rounded down).
    pub mean: TimeNs,
    /// Jitter `max − min`.
    pub jitter: TimeNs,
}

impl LatencySeries {
    /// The per-period latency values.
    pub fn values(&self) -> &[TimeNs] {
        &self.values
    }

    /// Number of recorded periods.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no period was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of periods whose latency reached or exceeded the sampling
    /// period — actuations completing in a later period (eq. 2 under
    /// heavy communication load). Always `0` for a series built by
    /// [`latencies_strict`].
    pub fn overruns(&self) -> usize {
        self.overruns
    }

    /// Summary statistics, or `None` for an empty series.
    ///
    /// The mean is accumulated in `i128`, so it cannot overflow no
    /// matter how many periods were recorded (an `i64`-nanosecond sum
    /// wraps after ~107 days of accumulated latency). Should the `i128`
    /// mean itself exceed the `i64` range — impossible when every value
    /// is an `i64` — it saturates rather than wraps.
    pub fn stats(&self) -> Option<LatencyStats> {
        if self.values.is_empty() {
            return None;
        }
        let min = *self.values.iter().min().expect("non-empty");
        let max = *self.values.iter().max().expect("non-empty");
        let sum: i128 = self.values.iter().map(|t| i128::from(t.as_nanos())).sum();
        let mean_ns = sum / self.values.len() as i128;
        let mean = TimeNs::from_nanos(i64::try_from(mean_ns).unwrap_or(if mean_ns > 0 {
            i64::MAX
        } else {
            i64::MIN
        }));
        Some(LatencyStats {
            min,
            max,
            mean,
            jitter: max - min,
        })
    }
}

/// Computes the latency series from one activation instant per period.
///
/// The `k`-th activation is matched against the grid instant `k·Ts`
/// (eq. 1–2 of the paper). The activations must be complete — one per
/// period, in order — which is what the graph of delays produces.
///
/// Latencies at or beyond `Ts` are **accepted**: eq. 2 actuation
/// latencies `La_j(k)` legitimately reach or exceed the period under
/// heavy communication load (the actuation completes in the next
/// period). Such periods are counted by [`LatencySeries::overruns`]. Use
/// [`latencies_strict`] where the one-activation-per-period invariant
/// genuinely bounds the latency, i.e. the sampling side.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] if `period` is non-positive or an
/// activation precedes its grid instant `k·Ts` (a negative latency is
/// causally impossible) or precedes the previous activation (unsorted
/// series).
pub fn latencies(activations: &[TimeNs], period: TimeNs) -> Result<LatencySeries, CoreError> {
    latencies_impl(activations, period, false)
}

/// Like [`latencies`], but additionally rejects any latency at or beyond
/// the period — the strict one-activation-per-`[k·Ts, (k+1)·Ts)` check
/// that holds for sampling latencies `Ls_j(k)` (eq. 1), where a sample
/// landing in the next period means the schedule does not sustain `Ts`.
///
/// # Errors
///
/// Everything [`latencies`] rejects, plus any activation at or after
/// `(k+1)·Ts`.
pub fn latencies_strict(
    activations: &[TimeNs],
    period: TimeNs,
) -> Result<LatencySeries, CoreError> {
    latencies_impl(activations, period, true)
}

/// The grid instant `k·Ts`, guarded so it cannot silently wrap in
/// release at huge horizons.
pub(crate) fn period_origin(period: TimeNs, k: usize) -> Result<TimeNs, CoreError> {
    period
        .checked_mul(k as i64)
        .ok_or_else(|| CoreError::InvalidInput {
            reason: format!("period origin {k}·{period} overflows the i64 nanosecond range"),
        })
}

fn latencies_impl(
    activations: &[TimeNs],
    period: TimeNs,
    strict: bool,
) -> Result<LatencySeries, CoreError> {
    if period <= TimeNs::ZERO {
        return Err(CoreError::InvalidInput {
            reason: format!("period must be positive, got {period}"),
        });
    }
    let mut values = Vec::with_capacity(activations.len());
    let mut overruns = 0usize;
    let mut prev = None;
    for (k, &t) in activations.iter().enumerate() {
        if prev.is_some_and(|p| t < p) {
            return Err(CoreError::InvalidInput {
                reason: format!("activation {k} at {t} precedes its predecessor (unsorted)"),
            });
        }
        prev = Some(t);
        let origin = period_origin(period, k)?;
        let lat = t - origin;
        if lat.is_negative() {
            return Err(CoreError::InvalidInput {
                reason: format!("activation {k} at {t} precedes its period origin {origin}"),
            });
        }
        if lat >= period {
            if strict {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "activation {k} at {t} is outside its period [{origin}, {})",
                        origin + period
                    ),
                });
            }
            overruns += 1;
        }
        values.push(lat);
    }
    Ok(LatencySeries { values, overruns })
}

/// Latency report for a whole loop: one series per controller input and
/// output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// `Ls_j(k)` per controller input `j` (paper eq. 1).
    pub sampling: Vec<LatencySeries>,
    /// `La_j(k)` per controller output `j` (paper eq. 2).
    pub actuation: Vec<LatencySeries>,
}

impl LatencyReport {
    /// Mean actuation latency across outputs and periods — the `τ` fed to
    /// the calibration redesign. `TimeNs::ZERO` when nothing was recorded.
    ///
    /// Accumulates in `i128` (see [`LatencySeries::stats`] for the
    /// saturation policy).
    pub fn mean_actuation(&self) -> TimeNs {
        let (mut sum, mut n) = (0i128, 0i128);
        for s in &self.actuation {
            for v in s.values() {
                sum += i128::from(v.as_nanos());
                n += 1;
            }
        }
        if n == 0 {
            TimeNs::ZERO
        } else {
            let mean = sum / n;
            TimeNs::from_nanos(i64::try_from(mean).unwrap_or(if mean > 0 {
                i64::MAX
            } else {
                i64::MIN
            }))
        }
    }

    /// Mean sampling latency across inputs and periods — the `Ls_j(k)`
    /// counterpart of [`mean_actuation`](Self::mean_actuation).
    /// `TimeNs::ZERO` when nothing was recorded.
    pub fn mean_sampling(&self) -> TimeNs {
        let (mut sum, mut n) = (0i128, 0i128);
        for s in &self.sampling {
            for v in s.values() {
                sum += i128::from(v.as_nanos());
                n += 1;
            }
        }
        if n == 0 {
            TimeNs::ZERO
        } else {
            let mean = sum / n;
            TimeNs::from_nanos(i64::try_from(mean).unwrap_or(if mean > 0 {
                i64::MAX
            } else {
                i64::MIN
            }))
        }
    }

    /// Total period overruns across all series — periods whose actuation
    /// completed at or after the next grid instant.
    pub fn total_overruns(&self) -> usize {
        self.sampling
            .iter()
            .chain(&self.actuation)
            .map(LatencySeries::overruns)
            .sum()
    }

    /// Largest jitter over all sampling and actuation series.
    pub fn worst_jitter(&self) -> TimeNs {
        self.sampling
            .iter()
            .chain(&self.actuation)
            .filter_map(|s| s.stats())
            .map(|st| st.jitter)
            .max()
            .unwrap_or(TimeNs::ZERO)
    }

    /// Renders the report as an aligned text table (one row per I/O).
    pub fn render(&self) -> String {
        let mut s = String::from("io        |      min |      max |     mean |   jitter\n");
        s.push_str("----------+----------+----------+----------+---------\n");
        let mut row = |label: String, st: Option<LatencyStats>| {
            if let Some(st) = st {
                s.push_str(&format!(
                    "{label:<10}| {:>8} | {:>8} | {:>8} | {:>8}\n",
                    st.min.to_string(),
                    st.max.to_string(),
                    st.mean.to_string(),
                    st.jitter.to_string()
                ));
            }
        };
        for (j, series) in self.sampling.iter().enumerate() {
            row(format!("Ls[{j}]"), series.stats());
        }
        for (j, series) in self.actuation.iter().enumerate() {
            row(format!("La[{j}]"), series.stats());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    #[test]
    fn constant_latency_series() {
        let period = TimeNs::from_millis(1);
        let acts: Vec<TimeNs> = (0..5).map(|k| period * k + us(120)).collect();
        let s = latencies(&acts, period).unwrap();
        assert_eq!(s.len(), 5);
        assert!(s.values().iter().all(|&v| v == us(120)));
        let st = s.stats().unwrap();
        assert_eq!(st.min, us(120));
        assert_eq!(st.max, us(120));
        assert_eq!(st.mean, us(120));
        assert_eq!(st.jitter, TimeNs::ZERO);
    }

    #[test]
    fn jitter_captured() {
        let period = TimeNs::from_millis(1);
        let lats = [us(100), us(300), us(100), us(500)];
        let acts: Vec<TimeNs> = lats
            .iter()
            .enumerate()
            .map(|(k, &l)| period * k as i64 + l)
            .collect();
        let st = latencies(&acts, period).unwrap().stats().unwrap();
        assert_eq!(st.min, us(100));
        assert_eq!(st.max, us(500));
        assert_eq!(st.jitter, us(400));
        assert_eq!(st.mean, us(250));
    }

    #[test]
    fn cross_period_actuation_accepted_and_counted() {
        let period = TimeNs::from_millis(1);
        // Second activation completes in period 2 instead of 1 (heavy
        // comm load): La_1 = 1.1 ms >= Ts, a legitimate eq. 2 latency.
        let acts = [us(100), TimeNs::from_millis(2) + us(100)];
        let s = latencies(&acts, period).expect("cross-period actuation is legal");
        assert_eq!(s.overruns(), 1);
        assert_eq!(s.values()[1], TimeNs::from_millis(1) + us(100));
        let st = s.stats().unwrap();
        assert_eq!(st.max, TimeNs::from_millis(1) + us(100));
        // The strict (sampling-side) check still rejects it.
        assert!(latencies_strict(&acts, period).is_err());
        // In-period series report zero overruns under both modes.
        let aligned = [us(100), period + us(100)];
        assert_eq!(latencies(&aligned, period).unwrap().overruns(), 0);
        assert!(latencies_strict(&aligned, period).is_ok());
    }

    #[test]
    fn negative_and_unsorted_rejected_in_both_modes() {
        let period = TimeNs::from_millis(1);
        // Negative latency impossible.
        assert!(latencies(&[-us(1)], period).is_err());
        assert!(latencies_strict(&[-us(1)], period).is_err());
        // Unsorted activations: the second precedes the first.
        let acts = [TimeNs::from_millis(2) + us(100), us(100)];
        assert!(latencies(&acts, period).is_err());
        // An activation before its own period origin is negative latency.
        let acts = [us(100), us(200)];
        assert!(latencies(&acts, period).is_err());
        assert!(latencies(&[], TimeNs::ZERO).is_err());
    }

    #[test]
    fn period_origin_overflow_is_an_error_not_a_wrap() {
        // With a period of i64::MAX/2 ns (~146 years), activation k = 2
        // sits at origin 2·period, past i64::MAX: the multiplication must
        // surface as an error instead of wrapping negative (a wrapped
        // origin makes the latency positive-looking garbage in release).
        let period = TimeNs::from_nanos(i64::MAX / 2 + 1);
        let acts = [
            TimeNs::from_nanos(1),
            TimeNs::from_nanos(i64::MAX / 2 + 2),
            TimeNs::from_nanos(i64::MAX - 1),
        ];
        let err = latencies(&acts, period).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }));
        assert!(err.to_string().contains("overflows"));
        // Two activations (k = 0, 1) still fit and succeed.
        let ok = latencies(&acts[..2], period).unwrap();
        assert_eq!(ok.len(), 2);
        assert!(latencies_strict(&acts, period).is_err());
    }

    #[test]
    fn empty_series() {
        let s = latencies(&[], TimeNs::from_millis(1)).unwrap();
        assert!(s.is_empty());
        assert!(s.stats().is_none());
    }

    #[test]
    fn stats_survive_sums_beyond_i64() {
        // Two near-`i64::MAX` values: a naive `i64` sum would wrap
        // negative; the `i128` accumulator keeps the mean exact.
        let s = LatencySeries {
            values: vec![
                TimeNs::from_nanos(i64::MAX - 1),
                TimeNs::from_nanos(i64::MAX - 3),
            ],
            overruns: 0,
        };
        let st = s.stats().unwrap();
        assert_eq!(st.mean, TimeNs::from_nanos(i64::MAX - 2));
        assert_eq!(st.min, TimeNs::from_nanos(i64::MAX - 3));
        assert_eq!(st.jitter, TimeNs::from_nanos(2));
        let rep = LatencyReport {
            sampling: vec![],
            actuation: vec![s],
        };
        assert_eq!(rep.mean_actuation(), TimeNs::from_nanos(i64::MAX - 2));
    }

    #[test]
    fn report_aggregates() {
        let period = TimeNs::from_millis(1);
        let mk = |lat: i64| {
            let acts: Vec<TimeNs> = (0..3).map(|k| period * k + us(lat)).collect();
            latencies(&acts, period).unwrap()
        };
        let rep = LatencyReport {
            sampling: vec![mk(50)],
            actuation: vec![mk(200), mk(400)],
        };
        assert_eq!(rep.mean_actuation(), us(300));
        assert_eq!(rep.worst_jitter(), TimeNs::ZERO);
        let text = rep.render();
        assert!(text.contains("Ls[0]"));
        assert!(text.contains("La[1]"));
        assert_eq!(LatencyReport::default().mean_actuation(), TimeNs::ZERO);
    }
}

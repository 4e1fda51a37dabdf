//! Simulation outputs: recorded signals and the event log.

use std::fmt;

use crate::model::BlockId;
use crate::time::TimeNs;

/// Handle to a probe registered with [`Model::probe`](crate::Model::probe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeId(usize);

impl ProbeId {
    /// Creates a `ProbeId` from a raw index (mainly useful in tests).
    pub const fn from_index(index: usize) -> Self {
        ProbeId(index)
    }

    /// The raw index of this probe.
    pub const fn index(self) -> usize {
        self.0
    }
}

/// A recorded scalar signal: parallel `(time, value)` samples, sorted by
/// time (ties allowed — discontinuities at event instants record both the
/// pre- and post-event value).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Signal {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl Signal {
    /// Creates an empty signal.
    pub fn new() -> Self {
        Signal::default()
    }

    /// Builds a signal from parallel sample vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors disagree in length.
    pub fn from_samples(times: Vec<f64>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "sample vectors disagree");
        Signal { times, values }
    }

    /// Appends one sample. Time must be non-decreasing (debug-asserted).
    pub fn push(&mut self, t: f64, v: f64) {
        debug_assert!(
            self.times.last().is_none_or(|&last| t >= last),
            "samples must be time-ordered"
        );
        self.times.push(t);
        self.values.push(v);
    }

    /// Makes room for `additional` more samples.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.times.reserve(additional);
        self.values.reserve(additional);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The last sample, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Linear interpolation at time `t`; clamps outside the recorded range.
    ///
    /// Returns `None` if the signal is empty.
    pub fn sample(&self, t: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        if t <= self.times[0] {
            return Some(self.values[0]);
        }
        if t >= *self.times.last().expect("non-empty") {
            return Some(*self.values.last().expect("non-empty"));
        }
        // Binary search for the bracketing interval.
        let idx = self.times.partition_point(|&x| x <= t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        if t1 == t0 {
            return Some(v1);
        }
        Some(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Minimum value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Renders the signal as two-column CSV (`t,value` with a header).
    pub fn to_csv(&self, name: &str) -> String {
        let mut s = format!("t,{name}\n");
        for (t, v) in self.iter() {
            s.push_str(&format!("{t:.9},{v:.9}\n"));
        }
        s
    }
}

/// One delivered activation: at `time`, `emitter`'s event output `out_port`
/// activated event input `port` of block `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Delivery instant.
    pub time: TimeNs,
    /// Block whose emission fired.
    pub emitter: BlockId,
    /// Event-output port of the emitter.
    pub out_port: usize,
    /// Activated block.
    pub target: BlockId,
    /// Event-input port of the target that received the activation.
    pub port: usize,
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}.{} -> {}.{}",
            self.time, self.emitter, self.out_port, self.target, self.port
        )
    }
}

/// Everything a simulation run produced: probe recordings and the event
/// log.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    pub(crate) signals: Vec<(String, Signal)>,
    pub(crate) events: Vec<EventRecord>,
    pub(crate) end_time: TimeNs,
}

impl SimResult {
    /// The recording of the probe registered under `name`, if any.
    pub fn signal(&self, name: &str) -> Option<&Signal> {
        self.signals.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// All `(name, signal)` recordings.
    pub fn signals(&self) -> impl Iterator<Item = (&str, &Signal)> {
        self.signals.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// The full event log, in delivery order.
    pub fn event_log(&self) -> &[EventRecord] {
        &self.events
    }

    /// Delivery instants of activations received by `target` (optionally on
    /// one specific event-input `port`).
    pub fn activation_times(&self, target: BlockId, port: Option<usize>) -> Vec<TimeNs> {
        self.events
            .iter()
            .filter(|e| e.target == target && port.is_none_or(|p| e.port == p))
            .map(|e| e.time)
            .collect()
    }

    /// The instant at which the run stopped.
    pub fn end_time(&self) -> TimeNs {
        self.end_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_push_and_iter() {
        let mut s = Signal::new();
        s.push(0.0, 1.0);
        s.push(1.0, 3.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((1.0, 3.0)));
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(pairs, vec![(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.min(), Some(1.0));
    }

    #[test]
    fn sample_interpolates_and_clamps() {
        let s = Signal::from_samples(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 0.0]);
        assert_eq!(s.sample(0.5), Some(5.0));
        assert_eq!(s.sample(1.5), Some(5.0));
        assert_eq!(s.sample(-1.0), Some(0.0));
        assert_eq!(s.sample(9.0), Some(0.0));
        assert_eq!(Signal::new().sample(0.0), None);
    }

    #[test]
    fn sample_handles_duplicate_times() {
        // A discontinuity recorded as two samples at the same instant.
        let s = Signal::from_samples(vec![0.0, 1.0, 1.0, 2.0], vec![0.0, 0.0, 5.0, 5.0]);
        assert_eq!(s.sample(1.0), Some(5.0));
        assert_eq!(s.sample(0.5), Some(0.0));
        assert_eq!(s.sample(1.5), Some(5.0));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = Signal::from_samples(vec![0.0], vec![2.0]);
        let csv = s.to_csv("y");
        assert!(csv.starts_with("t,y\n"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn result_signal_lookup() {
        let mut r = SimResult::default();
        r.signals.push(("y".into(), Signal::new()));
        assert!(r.signal("y").is_some());
        assert!(r.signal("z").is_none());
        assert_eq!(r.signals().count(), 1);
    }

    #[test]
    fn activation_times_filters() {
        let mut r = SimResult::default();
        let a = BlockId::from_index(0);
        let b = BlockId::from_index(1);
        for (i, tgt) in [(0, a), (1, b), (2, a)] {
            r.events.push(EventRecord {
                time: TimeNs::from_millis(i),
                emitter: b,
                out_port: 0,
                target: tgt,
                port: (i % 2) as usize,
            });
        }
        assert_eq!(r.activation_times(a, None).len(), 2);
        assert_eq!(r.activation_times(a, Some(0)).len(), 2);
        assert_eq!(r.activation_times(b, Some(1)).len(), 1);
    }

    #[test]
    fn event_record_display() {
        let e = EventRecord {
            time: TimeNs::from_millis(1),
            emitter: BlockId::from_index(0),
            out_port: 0,
            target: BlockId::from_index(1),
            port: 2,
        };
        assert_eq!(e.to_string(), "1.000ms: #0.0 -> #1.2");
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn from_samples_checks_lengths() {
        let _ = Signal::from_samples(vec![0.0], vec![]);
    }
}

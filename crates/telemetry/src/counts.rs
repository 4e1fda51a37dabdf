//! Deterministic named counters.
//!
//! A [`Counts`] is a sorted map from counter name to a `u64` count. Fault
//! injection uses it to tally injected faults per class (frames lost,
//! retransmissions, outage drops, dead-processor drops); the sorted
//! rendering makes the tally byte-comparable across runs and mergeable
//! across fleet workers in index order.

use std::collections::BTreeMap;
use std::fmt;

/// A deterministic bag of named `u64` counters.
///
/// Iteration and rendering order is the lexicographic order of the names
/// (the `BTreeMap` invariant), so two `Counts` built from the same
/// increments in any order compare and render identically.
///
/// # Examples
///
/// ```
/// use ecl_telemetry::Counts;
///
/// let mut c = Counts::new();
/// c.add("frames_lost", 2);
/// c.add("retries", 5);
/// c.add("frames_lost", 1);
/// assert_eq!(c.get("frames_lost"), 3);
/// assert_eq!(c.to_string(), "frames_lost=3 retries=5");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    counters: BTreeMap<String, u64>,
}

impl Counts {
    /// Creates an empty counter bag.
    pub fn new() -> Self {
        Counts::default()
    }

    /// Adds `n` to counter `name`, creating it at zero first if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `true` if no counter was ever incremented (all-zero bags with
    /// registered names are *not* empty).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Sum of all counter values.
    pub fn total(&self) -> u64 {
        self.counters.values().sum()
    }

    /// Folds `other` into `self`, adding matching counters.
    pub fn merge(&mut self, other: &Counts) {
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
    }

    /// Iterates `(name, value)` in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Length in bytes of the `Display` text, computed without writing
    /// it.
    pub fn rendered_len(&self) -> usize {
        let pairs: usize = self
            .iter()
            .map(|(name, v)| name.len() + 1 + v.checked_ilog10().map_or(1, |d| d as usize + 1))
            .sum();
        pairs + self.counters.len().saturating_sub(1)
    }
}

/// `name=value` pairs separated by single spaces, in lexicographic name
/// order — byte-deterministic, written straight into the formatter.
impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, (name, v)) in self.iter().enumerate() {
            if k > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{name}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_total() {
        let mut c = Counts::new();
        assert!(c.is_empty());
        assert_eq!(c.get("x"), 0);
        c.add("x", 3);
        c.add("y", 1);
        c.add("x", 2);
        assert!(!c.is_empty());
        assert_eq!(c.get("x"), 5);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn render_is_sorted_and_deterministic() {
        let mut a = Counts::new();
        a.add("zeta", 1);
        a.add("alpha", 2);
        let mut b = Counts::new();
        b.add("alpha", 2);
        b.add("zeta", 1);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "alpha=2 zeta=1");
        assert_eq!(format!("{b}"), "alpha=2 zeta=1");
    }

    #[test]
    fn rendered_len_matches_display() {
        let mut c = Counts::new();
        assert_eq!(c.rendered_len(), 0);
        for (name, n) in [
            ("a", 0),
            ("frames_lost", 9),
            ("retries", 10),
            ("z", u64::MAX),
        ] {
            c.add(name, n);
            assert_eq!(c.rendered_len(), c.to_string().len(), "{c}");
        }
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Counts::new();
        a.add("lost", 1);
        let mut b = Counts::new();
        b.add("lost", 2);
        b.add("retries", 4);
        a.merge(&b);
        assert_eq!(a.get("lost"), 3);
        assert_eq!(a.get("retries"), 4);
        assert_eq!(a.to_string(), "lost=3 retries=4");
    }
}

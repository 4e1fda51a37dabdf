use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Simulation time as a signed integer nanosecond count.
///
/// All event instants — activation clocks, SynDEx schedule start/end times,
/// graph-of-delays emissions — are integer nanoseconds, giving a totally
/// ordered, drift-free event calendar. Differences of instants (latencies,
/// durations) use the same type; negative values are legal and represent
/// instants before the simulation origin or negative offsets.
///
/// Conversion to `f64` seconds ([`TimeNs::as_secs_f64`]) happens only at the
/// boundary with the continuous-time ODE solver.
///
/// # Examples
///
/// ```
/// use ecl_sim::TimeNs;
///
/// let period = TimeNs::from_millis(10);
/// let third_tick = period * 3;
/// assert_eq!(third_tick.as_nanos(), 30_000_000);
/// assert!(period < third_tick);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(i64);

impl TimeNs {
    /// The zero instant (simulation origin).
    pub const ZERO: TimeNs = TimeNs(0);
    /// The largest representable instant.
    pub const MAX: TimeNs = TimeNs(i64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: i64) -> Self {
        TimeNs(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: i64) -> Self {
        TimeNs(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        TimeNs(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        TimeNs(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not finite or overflows the `i64` nanosecond range
    /// (≈ ±292 years).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite(), "time must be finite, got {s}");
        let ns = (s * 1e9).round();
        assert!(
            ns >= i64::MIN as f64 && ns <= i64::MAX as f64,
            "time {s} s overflows the nanosecond range"
        );
        TimeNs(ns as i64)
    }

    /// Like [`from_secs_f64`](Self::from_secs_f64), but `None` where that
    /// panics: `s` is not finite or overflows the nanosecond range.
    pub fn checked_from_secs_f64(s: f64) -> Option<Self> {
        let ns = (s * 1e9).round();
        (ns >= i64::MIN as f64 && ns <= i64::MAX as f64).then_some(TimeNs(ns as i64))
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// This instant in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// `true` if this is the zero instant.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition (clamps at the representable range).
    pub const fn saturating_add(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_add(other.0))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, other: TimeNs) -> Option<TimeNs> {
        match self.0.checked_add(other.0) {
            Some(v) => Some(TimeNs(v)),
            None => None,
        }
    }

    /// Checked multiplication by an integer factor; `None` on overflow.
    pub const fn checked_mul(self, k: i64) -> Option<TimeNs> {
        match self.0.checked_mul(k) {
            Some(v) => Some(TimeNs(v)),
            None => None,
        }
    }

    /// The larger of two instants.
    pub fn max(self, other: TimeNs) -> TimeNs {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two instants.
    pub fn min(self, other: TimeNs) -> TimeNs {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Absolute value of this duration.
    pub const fn abs(self) -> TimeNs {
        TimeNs(self.0.abs())
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;
    fn sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl SubAssign for TimeNs {
    fn sub_assign(&mut self, rhs: TimeNs) {
        self.0 -= rhs.0;
    }
}

impl Neg for TimeNs {
    type Output = TimeNs;
    fn neg(self) -> TimeNs {
        TimeNs(-self.0)
    }
}

impl Mul<i64> for TimeNs {
    type Output = TimeNs;
    fn mul(self, rhs: i64) -> TimeNs {
        TimeNs(self.0 * rhs)
    }
}

impl Div<i64> for TimeNs {
    type Output = TimeNs;
    fn div(self, rhs: i64) -> TimeNs {
        TimeNs(self.0 / rhs)
    }
}

impl Sum for TimeNs {
    fn sum<I: Iterator<Item = TimeNs>>(iter: I) -> TimeNs {
        TimeNs(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        let abs = ns.unsigned_abs();
        if abs >= 1_000_000_000 && abs.is_multiple_of(1_000_000) {
            write!(f, "{:.3}s", ns as f64 * 1e-9)
        } else if abs >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 * 1e-6)
        } else if abs >= 1_000 {
            write!(f, "{:.3}us", ns as f64 * 1e-3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(TimeNs::from_secs(1), TimeNs::from_millis(1000));
        assert_eq!(TimeNs::from_millis(1), TimeNs::from_micros(1000));
        assert_eq!(TimeNs::from_micros(1), TimeNs::from_nanos(1000));
        assert_eq!(TimeNs::from_secs_f64(0.25), TimeNs::from_millis(250));
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = TimeNs::from_secs_f64(1.234_567_891);
        assert!((t.as_secs_f64() - 1.234_567_891).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = TimeNs::from_millis(30);
        let b = TimeNs::from_millis(10);
        assert_eq!(a - b, TimeNs::from_millis(20));
        assert_eq!(a + b, TimeNs::from_millis(40));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(-b, TimeNs::from_millis(-10));
        assert_eq!((-b).abs(), b);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn ordering_and_sign() {
        assert!(TimeNs::ZERO.is_zero());
        assert!(TimeNs::from_nanos(-1).is_negative());
        assert!(TimeNs::from_nanos(1) > TimeNs::ZERO);
        assert_eq!(
            TimeNs::from_nanos(5).max(TimeNs::from_nanos(3)),
            TimeNs::from_nanos(5)
        );
        assert_eq!(
            TimeNs::from_nanos(5).min(TimeNs::from_nanos(3)),
            TimeNs::from_nanos(3)
        );
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(
            TimeNs::MAX.saturating_add(TimeNs::from_nanos(1)),
            TimeNs::MAX
        );
        assert_eq!(TimeNs::MAX.checked_add(TimeNs::from_nanos(1)), None);
        assert_eq!(
            TimeNs::ZERO.checked_add(TimeNs::from_nanos(7)),
            Some(TimeNs::from_nanos(7))
        );
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(TimeNs::from_nanos(500).to_string(), "500ns");
        assert_eq!(TimeNs::from_micros(5).to_string(), "5.000us");
        assert_eq!(TimeNs::from_millis(5).to_string(), "5.000ms");
        assert_eq!(TimeNs::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: TimeNs = [TimeNs::from_millis(1), TimeNs::from_millis(2)]
            .into_iter()
            .sum();
        assert_eq!(total, TimeNs::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_nan() {
        let _ = TimeNs::from_secs_f64(f64::NAN);
    }

    #[test]
    fn checked_from_secs_f64_refuses_what_from_secs_f64_panics_on() {
        assert_eq!(
            TimeNs::checked_from_secs_f64(0.05),
            Some(TimeNs::from_millis(50))
        );
        for s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e10, -1e10] {
            assert_eq!(TimeNs::checked_from_secs_f64(s), None, "{s}");
        }
    }
}

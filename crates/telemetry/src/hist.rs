//! Streaming fixed-bucket histograms for latency series.

use crate::bytes::{ByteReader, ByteWriter, CodecError};

/// A streaming histogram over integer-nanosecond values with fixed-width
/// buckets on `[0, upper_bound_ns)` plus underflow/overflow buckets.
///
/// `count`, `min`, `max` and the running sum are exact; percentiles are
/// bucket-resolution estimates **clamped to `[min, max]`**, so they can
/// never contradict the exact extrema (and are exact for constant
/// series). The sum accumulates in `i128`, which cannot overflow before
/// `count` itself wraps, so long co-simulations never wrap the mean.
///
/// # Examples
///
/// ```
/// use ecl_telemetry::Histogram;
///
/// let mut h = Histogram::new(1_000_000, 64);
/// for v in [250_000i64, 250_000, 250_000] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 3);
/// assert_eq!(s.p50_ns, 250_000); // clamped to the exact extrema
/// assert_eq!(s.min_ns, s.max_ns);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    upper_bound: i64,
    bucket_width: i64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: i128,
    min: i64,
    max: i64,
}

impl Histogram {
    /// A histogram with `buckets` equal-width buckets spanning
    /// `[0, upper_bound_ns)`.
    ///
    /// The bucket width is `upper_bound_ns / buckets` rounded up, so the
    /// last bucket may nominally extend past the bound; [`record`]
    /// nevertheless routes every `value_ns >= upper_bound_ns` to the
    /// overflow bucket, keeping the in-range buckets exactly on
    /// `[0, upper_bound_ns)`.
    ///
    /// # Panics
    ///
    /// Panics if `upper_bound_ns <= 0` or `buckets == 0`.
    ///
    /// [`record`]: Histogram::record
    pub fn new(upper_bound_ns: i64, buckets: usize) -> Self {
        assert!(upper_bound_ns > 0, "histogram needs a positive bound");
        assert!(buckets > 0, "histogram needs at least one bucket");
        let bucket_width = (upper_bound_ns + buckets as i64 - 1) / buckets as i64;
        Histogram {
            upper_bound: upper_bound_ns,
            bucket_width: bucket_width.max(1),
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Records one value (negative values land in the underflow bucket,
    /// values at or above the bound in the overflow bucket).
    pub fn record(&mut self, value_ns: i64) {
        self.count += 1;
        self.sum += i128::from(value_ns);
        self.min = self.min.min(value_ns);
        self.max = self.max.max(value_ns);
        if value_ns < 0 {
            self.underflow += 1;
        } else if value_ns >= self.upper_bound {
            // The ceil-rounded bucket width would otherwise count values
            // in [upper_bound, buckets·width) in the last bucket.
            self.overflow += 1;
        } else {
            let idx = (value_ns / self.bucket_width) as usize;
            match self.buckets.get_mut(idx) {
                Some(b) => *b += 1,
                None => self.overflow += 1,
            }
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exclusive upper bound of the in-range buckets.
    pub fn upper_bound(&self) -> i64 {
        self.upper_bound
    }

    /// Number of recorded negative values.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of recorded values at or above the bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The per-bucket counts over `[0, upper_bound_ns)`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Merges another histogram recorded with the same bound and bucket
    /// count into this one, as if every value had been recorded here —
    /// the sweep aggregator's fold over per-scenario histograms.
    ///
    /// # Panics
    ///
    /// Panics if the bound or bucket count differ.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_times(other, 1);
    }

    /// Merges `other` into this histogram `times` times, as `times`
    /// calls of [`merge`](Histogram::merge) would: every count is
    /// integral, so the scaled merge is exact.
    ///
    /// # Panics
    ///
    /// Panics if the bound or bucket count differ.
    pub fn merge_times(&mut self, other: &Histogram, times: u64) {
        assert_eq!(
            (self.upper_bound, self.buckets.len()),
            (other.upper_bound, other.buckets.len()),
            "histograms must share bound and bucket count to merge"
        );
        if times == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o * times;
        }
        self.underflow += other.underflow * times;
        self.overflow += other.overflow * times;
        self.count += other.count * times;
        self.sum += other.sum * i128::from(times);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<i64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<i64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (the `i128` running sum divided by the count), or
    /// `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimated `q`-quantile (`0 < q <= 1`), clamped to `[min, max]`;
    /// `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<i64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = self.underflow;
        if rank <= cumulative {
            return Some(self.min);
        }
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if rank <= cumulative {
                // Upper edge of the bucket — the last in-range bucket's
                // edge is the bound itself (in-range values are strictly
                // below it) — clamped to the exact extrema.
                let edge = ((i as i64 + 1) * self.bucket_width).min(self.upper_bound) - 1;
                return Some(edge.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Appends the histogram's full state to a [`ByteWriter`] (the
    /// content-addressed cache layer's layout; see [`decode_from`]).
    ///
    /// [`decode_from`]: Histogram::decode_from
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_i64(self.upper_bound);
        w.put_seq_len(self.buckets.len());
        for &b in &self.buckets {
            w.put_u64(b);
        }
        w.put_u64(self.underflow);
        w.put_u64(self.overflow);
        w.put_u64(self.count);
        w.put_i128(self.sum);
        w.put_i64(self.min);
        w.put_i64(self.max);
    }

    /// Reconstructs a histogram written by [`encode_into`], revalidating
    /// the structural invariants (`bucket_width` is re-derived from the
    /// bound exactly as [`new`] does, and the total count must equal the
    /// routed counts) so a corrupt cache record decodes to a typed error,
    /// never a histogram that lies.
    ///
    /// [`encode_into`]: Histogram::encode_into
    /// [`new`]: Histogram::new
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Histogram, CodecError> {
        let upper_bound = r.get_i64()?;
        if upper_bound <= 0 {
            return Err(CodecError::Invalid {
                reason: format!("histogram bound {upper_bound} must be positive"),
            });
        }
        let n = r.get_seq_len()?;
        if n == 0 {
            return Err(CodecError::Invalid {
                reason: "histogram needs buckets".into(),
            });
        }
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(r.get_u64()?);
        }
        let underflow = r.get_u64()?;
        let overflow = r.get_u64()?;
        let count = r.get_u64()?;
        let sum = r.get_i128()?;
        let min = r.get_i64()?;
        let max = r.get_i64()?;
        let routed = buckets
            .iter()
            .try_fold(underflow + overflow, |acc, &b| acc.checked_add(b))
            .ok_or_else(|| CodecError::Invalid {
                reason: "histogram counts overflow".into(),
            })?;
        if routed != count {
            return Err(CodecError::Invalid {
                reason: format!("histogram count {count} != routed {routed}"),
            });
        }
        let bucket_width = ((upper_bound + n as i64 - 1) / n as i64).max(1);
        Ok(Histogram {
            upper_bound,
            bucket_width,
            buckets,
            underflow,
            overflow,
            count,
            sum,
            min,
            max,
        })
    }

    /// The standard summary (count, exact extrema/mean, p50/p95/p99).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            min_ns: self.min().unwrap_or(0),
            max_ns: self.max().unwrap_or(0),
            mean_ns: self.mean().unwrap_or(0.0),
            p50_ns: self.percentile(0.50).unwrap_or(0),
            p95_ns: self.percentile(0.95).unwrap_or(0),
            p99_ns: self.percentile(0.99).unwrap_or(0),
        }
    }
}

/// Point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of recorded values.
    pub count: u64,
    /// Exact minimum (0 when empty).
    pub min_ns: i64,
    /// Exact maximum (0 when empty).
    pub max_ns: i64,
    /// Exact mean (0 when empty).
    pub mean_ns: f64,
    /// Estimated median, clamped to `[min, max]`.
    pub p50_ns: i64,
    /// Estimated 95th percentile, clamped to `[min, max]`.
    pub p95_ns: i64,
    /// Estimated 99th percentile, clamped to `[min, max]`.
    pub p99_ns: i64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_is_exact() {
        let mut h = Histogram::new(1_000, 10);
        for _ in 0..100 {
            h.record(137);
        }
        let s = h.summary();
        assert_eq!((s.min_ns, s.max_ns), (137, 137));
        assert_eq!((s.p50_ns, s.p95_ns, s.p99_ns), (137, 137, 137));
        assert!((s.mean_ns - 137.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = Histogram::new(10_000, 16);
        for v in 0..1_000i64 {
            h.record(v * 7 % 10_000);
        }
        let s = h.summary();
        assert!(s.min_ns <= s.p50_ns);
        assert!(s.p50_ns <= s.p95_ns);
        assert!(s.p95_ns <= s.p99_ns);
        assert!(s.p99_ns <= s.max_ns);
    }

    #[test]
    fn underflow_and_overflow_hit_exact_extrema() {
        let mut h = Histogram::new(100, 4);
        h.record(-50);
        h.record(1_000_000);
        assert_eq!(h.percentile(0.01), Some(-50));
        assert_eq!(h.percentile(1.0), Some(1_000_000));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn boundary_values_route_to_overflow() {
        // 1000/64 ceil-rounds to width 16, so buckets nominally span
        // [0, 1024): values in [1000, 1024) used to land in the last
        // bucket instead of overflow.
        let mut h = Histogram::new(1_000, 64);
        h.record(1_000); // exactly the bound
        h.record(1_023); // inside the rounding slack
        h.record(999); // last in-range value
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 1);
        assert_eq!(h.upper_bound(), 1_000);
    }

    #[test]
    fn percentile_edge_clamped_to_bound() {
        // Many values in the last in-range bucket: the estimated edge must
        // stay below the bound even though the rounded bucket extends to
        // 1024.
        let mut h = Histogram::new(1_000, 64);
        for _ in 0..100 {
            h.record(995);
        }
        // A wide-max series so the extrema clamp is not what saves us.
        h.record(5_000);
        let p50 = h.percentile(0.5).unwrap();
        assert!(p50 < 1_000, "p50 {p50} must stay below the bound");
    }

    #[test]
    fn percentile_with_non_empty_overflow() {
        let mut h = Histogram::new(100, 4);
        for _ in 0..10 {
            h.record(24); // upper edge of bucket 0 (width 25)
        }
        for _ in 0..10 {
            h.record(100); // all overflow
        }
        assert_eq!(h.overflow(), 10);
        // The upper half of the distribution is the exact max.
        assert_eq!(h.percentile(0.99), Some(100));
        assert_eq!(h.percentile(0.25), Some(24));
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new(1_000, 8);
        let mut b = Histogram::new(1_000, 8);
        a.record(-5);
        a.record(100);
        b.record(999);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.min(), Some(-5));
        assert_eq!(a.max(), Some(1_000));
        assert_eq!(
            a.count(),
            a.underflow() + a.bucket_counts().iter().sum::<u64>() + a.overflow()
        );
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&Histogram::new(1_000, 8));
        assert_eq!(a, before);
    }

    #[test]
    fn merge_times_equals_repeated_merges() {
        let mut other = Histogram::new(1_000, 8);
        for v in [-5, 0, 7, 500, 999, 1_000, 4_000] {
            other.record(v);
        }
        for times in [0, 1, 3, 17] {
            let mut base = Histogram::new(1_000, 8);
            base.record(250);
            let mut repeated = base.clone();
            for _ in 0..times {
                repeated.merge(&other);
            }
            base.merge_times(&other, times);
            assert_eq!(base, repeated, "{times} times");
        }
    }

    #[test]
    #[should_panic(expected = "share bound")]
    fn merge_rejects_mismatched_shape() {
        let mut a = Histogram::new(1_000, 8);
        a.merge(&Histogram::new(500, 8));
    }

    #[test]
    fn codec_round_trips_exactly() {
        let mut h = Histogram::new(1_000, 64);
        for v in [-3i64, 0, 999, 1_000, 5_000, 137, 137] {
            h.record(v);
        }
        let mut w = ByteWriter::new();
        h.encode_into(&mut w);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        let back = Histogram::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, h);
        // An empty histogram round-trips too.
        let empty = Histogram::new(17, 3);
        let mut w = ByteWriter::new();
        empty.encode_into(&mut w);
        let buf = w.into_bytes();
        assert_eq!(
            Histogram::decode_from(&mut ByteReader::new(&buf)).unwrap(),
            empty
        );
    }

    #[test]
    fn codec_rejects_corrupt_counts() {
        let mut h = Histogram::new(1_000, 4);
        h.record(10);
        let mut w = ByteWriter::new();
        h.encode_into(&mut w);
        let mut buf = w.into_bytes();
        // Flip the total-count field (after bound + len + 4 buckets +
        // under/overflow = 8 + 4 + 32 + 16 bytes).
        buf[60] ^= 0xff;
        assert!(matches!(
            Histogram::decode_from(&mut ByteReader::new(&buf)),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new(100, 4);
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.summary().count, 0);
    }
}

//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// A length specification for [`vec()`]: a fixed length or a half-open range.
#[derive(Clone, Debug)]
pub struct SizeRange {
    start: usize,
    end: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            start: n,
            end: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange {
            start: r.start,
            end: r.end,
        }
    }
}

/// Samples `Vec`s whose elements come from `element` and whose length is
/// drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

//! The workspace's one SplitMix64 generator.
//!
//! Every seeded stream of the reproduction — sampled noise sources,
//! fleet scenario draws, counter-based fault draws — is built on the
//! SplitMix64 finalizer, so its bits are fixed by the seed and nothing
//! else: no registry dependency, no platform-dependent state.

/// The SplitMix64 increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 hash: `z` advanced by one increment, then the
/// bijective avalanche mix. `splitmix64(s)` is the first output of a
/// [`SplitMix64`] seeded with `s`, so a counter-based draw and a stream
/// share one definition.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
///
/// # Examples
///
/// ```
/// use ecl_sim::{splitmix64, SplitMix64};
/// let mut rng = SplitMix64::new(0);
/// assert_eq!(rng.next_u64(), splitmix64(0));
/// assert!((0.0..1.0).contains(&rng.next_f64()));
/// assert!(rng.below(6) < 6);
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = self.state;
        self.state = z.wrapping_add(GAMMA);
        splitmix64(z)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)` by rejection sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample from an empty range");
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streams every seeded artifact derives from: these literals
    /// were taken from the generators this one replaced, so a change to
    /// any output moves every golden and must fail here first.
    #[test]
    fn first_outputs_are_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        let mut rng = SplitMix64::new(42);
        let words = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(
            words,
            [
                0xbdd7_3226_2feb_6e95,
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52
            ]
        );
        assert_eq!(
            SplitMix64::new(7).next_f64().to_bits(),
            0x3fd8_f2f8_7916_4c82
        );
        let mut rng = SplitMix64::new(42);
        let draws = [rng.below(10), rng.below(10), rng.below(3), rng.below(1000)];
        assert_eq!(draws, [3, 1, 0, 764]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_rejects_an_empty_range() {
        SplitMix64::new(1).below(0);
    }
}

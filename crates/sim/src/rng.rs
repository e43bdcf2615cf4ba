//! A tiny deterministic RNG.

use crate::{ContainerError, Snapshot, StateReader, StateWriter};

/// SplitMix64: a fast, high-quality 64-bit PRNG with a single `u64` of
/// state.
///
/// Used for deterministic stimulus generation and for the rare randomized
/// hardware policies (e.g. TAGE's pseudo-random allocation victim choice,
/// which real implementations drive from an LFSR).
///
/// # Examples
///
/// ```
/// use cobra_sim::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        crate::bits::mix64(self.state)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Multiply-shift bounded sampling; the bias is negligible for
        // simulation bounds (≤ 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A biased coin: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

impl Snapshot for SplitMix64 {
    fn save_state(&self, w: &mut StateWriter) {
        w.write_u64(self.state);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), ContainerError> {
        self.state = r.read_u64("rng state")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_roughly_calibrated() {
        let mut r = SplitMix64::new(42);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2500..3500).contains(&hits), "got {hits} hits for p=0.3");
    }
}

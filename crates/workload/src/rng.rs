//! A small, fast, seedable PRNG for deterministic workload generation.
//!
//! All experiment inputs — graph topology, initial weights, traffic evolution, query
//! endpoints — are derived from a [`Xoshiro256`] seeded explicitly, so any experiment
//! in the README's "Experiments" section can be regenerated exactly. The implementation
//! follows the public domain reference of SplitMix64 (for seeding) and Xoshiro256**
//! (for the stream).

/// SplitMix64 step; used to expand a single `u64` seed into the Xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Xoshiro256** pseudo random number generator.
///
/// Deterministic, portable and fast; not cryptographically secure (and does not need
/// to be — it only drives experiment input generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Xoshiro256 { s }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection-free mapping is fine here; the slight
        // modulo bias of a plain remainder would be irrelevant for workload generation
        // but the widening multiply is also faster.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniformly distributed integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn next_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        lo + self.next_bounded((hi - lo) as u64 + 1) as u32
    }

    /// Returns a uniformly distributed `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid range [{lo}, {hi})");
        lo + self.next_f64() * (hi - lo)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_bounded(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Samples `count` distinct indices from `0..n` (reservoir-free partial shuffle).
    ///
    /// If `count >= n`, returns all indices in random order.
    pub fn sample_indices(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        let take = count.min(n);
        for i in 0..take {
            let j = i + self.next_bounded((n - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(take);
        all
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Used to decouple e.g. topology generation from traffic generation so that
    /// changing one parameter does not perturb unrelated random choices.
    pub fn fork(&mut self, stream: u64) -> Xoshiro256 {
        let base = self.next_u64();
        Xoshiro256::seed_from_u64(base ^ stream.wrapping_mul(0x9E3779B97F4A7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bounded_stays_in_bounds_and_covers_values() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.next_bounded(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_range_u32_is_inclusive() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..2000 {
            let x = rng.next_range_u32(5, 8);
            assert!((5..=8).contains(&x));
            saw_lo |= x == 5;
            saw_hi |= x == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_returns_distinct_values() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let sample = rng.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let mut unique = sample.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 20);
        assert!(sample.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_caps_at_population_size() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let sample = rng.sample_indices(5, 50);
        assert_eq!(sample.len(), 5);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = Xoshiro256::seed_from_u64(1234);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let equal = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(equal < 2);
    }

    #[test]
    fn mean_of_uniform_draws_is_about_half() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn next_bool_respects_probability() {
        let mut rng = Xoshiro256::seed_from_u64(77);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "rate was {rate}");
    }
}

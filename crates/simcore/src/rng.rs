//! Deterministic pseudo-random numbers.
//!
//! Every simulation run must be a pure function of `(config, seed)` so that
//! the paper-claim tests and the figure records are reproducible. We use
//! xoshiro256** seeded through SplitMix64 — the standard pairing recommended
//! by the xoshiro authors — implemented here directly (≈40 lines) rather
//! than pulling in another dependency.

/// A small, fast, deterministic RNG (xoshiro256**, SplitMix64-seeded).
///
/// Not cryptographically secure; it drives workload synthesis only.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { state }
    }

    /// Derives an independent child stream; used to give each simulator
    /// component (arrivals, templates, …) its own stream so adding
    /// draws in one component never perturbs another.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]` — safe to feed into `ln()`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0) is meaningless");
        // Rejection loop terminates with overwhelming probability.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let m = (r as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "inverted range [{lo}, {hi})");
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.next_below(xs.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.next_f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn next_below_is_in_bounds_and_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow generous 10% slack.
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn gen_range_endpoints() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.gen_range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(99);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(5);
        let mut parent2 = SimRng::new(5);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = SimRng::new(5).fork(2);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::new(1);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = SimRng::new(8);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "p=0.25 hits {hits}");
    }
}

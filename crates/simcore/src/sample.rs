//! Distribution samplers used by the workload generator.
//!
//! The paper's workload (Section VII-A) simulates "the query evolution of a
//! million SDSS-like queries": skewed data-access locality and temporal
//! locality. We implement the needed distributions directly on top of
//! [`crate::rng::SimRng`]:
//!
//! * [`Exponential`] — Poisson inter-arrival gaps.
//! * [`Zipf`] — skewed popularity of data regions / templates (exact
//!   cumulative-table sampler, O(log n) per draw).
//! * [`Discrete`] — weighted template choice (alias-free cumulative search;
//!   the distributions have ≤ a few dozen outcomes).
//! * [`BoundedPareto`] — heavy-tailed result sizes.

use crate::rng::SimRng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential sampler.
    ///
    /// # Panics
    /// Panics unless `lambda > 0` and finite.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }

    /// Draws a sample (inverse-CDF method).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.next_f64_open().ln() / self.lambda
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s > 0`:
/// `P(k) ∝ k^{-s}`.
///
/// Construction precomputes the cumulative mass table (O(n) memory,
/// O(log n) per draw). The workload generator uses at most a few tens of
/// thousands of ranks (data regions / templates), so the exact table is both
/// fast enough and trivially correct — preferable to a rejection scheme for
/// a simulator whose results must be auditable.
#[derive(Debug, Clone)]
pub struct Zipf {
    s: f64,
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf sampler over `1..=n` with exponent `s`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not positive/finite.
    #[must_use]
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s > 0.0,
            "Zipf exponent must be > 0, got {s}"
        );
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cumulative.push(acc);
        }
        Zipf { s, cumulative }
    }

    /// Number of ranks.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.cumulative.len() as u64
    }

    /// Exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Probability mass of rank `k` (1-based).
    ///
    /// # Panics
    /// Panics if `k` is out of `1..=n`.
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        assert!(k >= 1 && k <= self.n(), "rank {k} out of range");
        let total = *self.cumulative.last().expect("non-empty");
        (k as f64).powf(-self.s) / total
    }

    /// Draws a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.next_f64() * total;
        let idx = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        (idx.min(self.cumulative.len() - 1) + 1) as u64
    }
}

/// Discrete distribution over `0..weights.len()` proportional to the weights.
#[derive(Debug, Clone)]
pub struct Discrete {
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Builds a sampler from non-negative weights (not all zero).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        let mut d = Discrete {
            cumulative: Vec::with_capacity(weights.len()),
        };
        d.reweight(weights);
        d
    }

    /// Rebuilds the sampler over new weights in place, reusing its
    /// allocation; the result equals [`Self::new`] of the same weights.
    ///
    /// # Panics
    /// As [`Self::new`].
    pub fn reweight(&mut self, weights: &[f64]) {
        assert!(!weights.is_empty(), "Discrete needs at least one weight");
        self.cumulative.clear();
        let mut acc = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            acc += w;
            self.cumulative.push(acc);
        }
        assert!(acc > 0.0, "weights sum to zero");
    }

    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True if there are no outcomes (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws an outcome index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.next_f64() * total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
///
/// Used for heavy-tailed synthetic result sizes ("result heavy" queries,
/// Section VI of the paper).
#[derive(Debug, Clone, Copy)]
pub struct BoundedPareto {
    lo: f64,
    hi: f64,
    alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto sampler.
    ///
    /// # Panics
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi, got [{lo}, {hi}]");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be > 0");
        BoundedPareto { lo, hi, alpha }
    }

    /// Draws a sample via inverse CDF.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.next_f64();
        let la = self.lo.powf(self.alpha);
        let ha = self.hi.powf(self.alpha);
        let x = -(u * ha - u * la - ha) / (ha * la);
        x.powf(-1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::new(0.5); // mean 2.0
        let mut rng = SimRng::new(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| exp.sample(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert_eq!(exp.mean(), 2.0);
    }

    #[test]
    fn exponential_is_positive() {
        let exp = Exponential::new(10.0);
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert!(exp.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn zipf_ranks_in_range() {
        let z = Zipf::new(100, 1.1);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=100).contains(&k));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let top10 = (0..n).filter(|_| z.sample(&mut rng) <= 10).count();
        // For s=1, n=1000 the top-10 mass is ~ H(10)/H(1000) ≈ 0.39.
        let frac = top10 as f64 / n as f64;
        assert!(frac > 0.3 && frac < 0.5, "top-10 fraction {frac}");
    }

    #[test]
    fn zipf_handles_s_not_one() {
        for s in [0.5, 0.8, 1.5, 2.0] {
            let z = Zipf::new(50, s);
            let mut rng = SimRng::new(4);
            let mut counts = vec![0u32; 51];
            for _ in 0..20_000 {
                counts[z.sample(&mut rng) as usize] += 1;
            }
            // Rank 1 must be the strict mode.
            let max_rank = counts
                .iter()
                .enumerate()
                .skip(1)
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(max_rank, 1, "s={s}: mode at rank {max_rank}");
        }
    }

    #[test]
    fn zipf_single_rank_degenerates() {
        let z = Zipf::new(1, 1.0);
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[1.0, 0.0, 3.0]);
        let mut rng = SimRng::new(6);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight outcome drawn");
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn discrete_single_outcome() {
        let d = Discrete::new(&[0.7]);
        let mut rng = SimRng::new(7);
        for _ in 0..50 {
            assert_eq!(d.sample(&mut rng), 0);
        }
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn discrete_reweight_equals_a_fresh_build() {
        let mut d = Discrete::new(&[0.25, 0.5, 0.25]);
        let weights = [0.1, 0.0, 0.6, 0.3];
        d.reweight(&weights);
        let fresh = Discrete::new(&weights);
        assert_eq!(d.cumulative, fresh.cumulative);
        let (mut a, mut b) = (SimRng::new(9), SimRng::new(9));
        for _ in 0..1_000 {
            assert_eq!(d.sample(&mut a), fresh.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn discrete_rejects_all_zero() {
        let _ = Discrete::new(&[0.0, 0.0]);
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let p = BoundedPareto::new(1.0, 1000.0, 1.2);
        let mut rng = SimRng::new(8);
        for _ in 0..10_000 {
            let x = p.sample(&mut rng);
            assert!((1.0..=1000.0 + 1e-9).contains(&x), "sample {x}");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        let p = BoundedPareto::new(1.0, 10_000.0, 1.1);
        let mut rng = SimRng::new(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| p.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[n / 2];
        assert!(mean > 2.0 * median, "mean {mean} vs median {median}");
    }
}

//! Distribution samplers used by the arrival processes and the workload
//! generator.
//!
//! The paper's workload (Section VII-A) simulates "the query evolution of a
//! million SDSS-like queries". We implement the needed distributions
//! directly on top of [`crate::rng::SimRng`]:
//!
//! * [`Exponential`] — Poisson inter-arrival gaps.
//! * [`Discrete`] — weighted template choice (alias-free cumulative search;
//!   the distributions have ≤ a few dozen outcomes).

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
}

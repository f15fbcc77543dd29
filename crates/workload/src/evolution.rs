//! Query evolution: drifting template popularity.
//!
//! The paper's workload "simulates the query evolution of a million
//! SDSS-like queries" and its Section VII-B explains the 60-second result
//! with it: *"the evolution of the workload leads econ-cheap to evict
//! indexes already built in the cache, before being able to exploit them
//! sufficiently."*
//!
//! We model evolution as a bounded random walk over the template-popularity
//! simplex: every `epoch_len` queries each template weight is multiplied by
//! a log-normal-ish shock and renormalised. Shocks are drawn from the
//! generator's dedicated RNG stream, so evolution is deterministic per seed.

use simcore::sample::Discrete;
use simcore::SimRng;

/// A drifting categorical distribution over templates.
#[derive(Debug, Clone)]
pub struct PopularityDrift {
    weights: Vec<f64>,
    epoch_len: u64,
    drift: f64,
    queries_seen: u64,
    dist: Discrete,
}

impl PopularityDrift {
    /// Creates a drift process over `n` templates.
    ///
    /// * `epoch_len` — queries between weight shocks (0 disables drift);
    /// * `drift` — shock magnitude in `[0, 1)`: each epoch a weight is
    ///   scaled by `exp(u · drift)` with `u ~ U(-1, 1)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `drift` is not in `[0, 1)`.
    #[must_use]
    pub fn new(n: usize, epoch_len: u64, drift: f64) -> Self {
        assert!(n > 0, "need at least one template");
        assert!((0.0..1.0).contains(&drift), "drift {drift} out of [0,1)");
        let weights = vec![1.0 / n as f64; n];
        let dist = Discrete::new(&weights);
        PopularityDrift {
            weights,
            epoch_len,
            drift,
            queries_seen: 0,
            dist,
        }
    }

    /// Current template weights (normalised).
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Draws the template for the next query, advancing the epoch clock.
    pub fn next_template(&mut self, rng: &mut SimRng) -> usize {
        if self.epoch_len > 0
            && self.queries_seen > 0
            && self.queries_seen.is_multiple_of(self.epoch_len)
        {
            self.shock(rng);
        }
        self.queries_seen += 1;
        self.dist.sample(rng)
    }

    fn shock(&mut self, rng: &mut SimRng) {
        if self.drift == 0.0 {
            return;
        }
        let mut total = 0.0;
        for w in &mut self.weights {
            let u = rng.gen_range_f64(-1.0, 1.0);
            *w *= (u * 4.0 * self.drift).exp();
            // Keep every template reachable: floor at 0.1% pre-normalise.
            *w = w.max(1e-3);
            total += *w;
        }
        for w in &mut self.weights {
            *w /= total;
        }
        self.dist.reweight(&self.weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_uniform() {
        let d = PopularityDrift::new(7, 100, 0.2);
        for &w in d.weights() {
            assert!((w - 1.0 / 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_drift_never_changes_weights() {
        let mut d = PopularityDrift::new(4, 10, 0.0);
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            d.next_template(&mut rng);
        }
        for &w in d.weights() {
            assert!((w - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn drift_changes_weights_but_keeps_simplex() {
        let mut d = PopularityDrift::new(7, 50, 0.3);
        let mut rng = SimRng::new(2);
        for _ in 0..5000 {
            d.next_template(&mut rng);
        }
        let sum: f64 = d.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum {sum}");
        let uniform = 1.0 / 7.0;
        assert!(
            d.weights().iter().any(|&w| (w - uniform).abs() > 0.02),
            "weights never drifted: {:?}",
            d.weights()
        );
        assert!(d.weights().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn epoch_zero_disables_drift() {
        let mut d = PopularityDrift::new(3, 0, 0.5);
        let mut rng = SimRng::new(3);
        for _ in 0..500 {
            d.next_template(&mut rng);
        }
        for &w in d.weights() {
            assert!((w - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn draws_cover_all_templates() {
        let mut d = PopularityDrift::new(7, 1000, 0.1);
        let mut rng = SimRng::new(4);
        let mut seen = [false; 7];
        for _ in 0..2000 {
            seen[d.next_template(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen {seen:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut d = PopularityDrift::new(5, 20, 0.2);
            let mut rng = SimRng::new(seed);
            (0..200)
                .map(|_| d.next_template(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}

//! Single-pass mean statistics (Welford's running mean).

use serde::Serialize;

/// Streaming count and mean over `f64` observations.
///
/// Welford's running-mean update is numerically stable over millions of
/// samples — a naive running sum loses precision exactly in the regime
/// the Fig. 5 harness runs in.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
}

impl Default for StreamingStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
        }
    }

    /// Records an observation.
    ///
    /// # Panics
    /// Panics on NaN — a NaN observation means an upstream model bug.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Merges another accumulator into this one (parallel sweeps).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = self.count as f64 + n2;
        self.mean += delta * n2 / total;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroish() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn mean_matches_closed_form() {
        let mut s = StreamingStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..300] {
            a.record(x);
        }
        for &x in &xs[300..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingStats::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&StreamingStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut empty = StreamingStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        StreamingStats::new().record(f64::NAN);
    }

    #[test]
    fn stable_over_many_samples() {
        let mut s = StreamingStats::new();
        for _ in 0..1_000_000 {
            s.record(1e9 + 1.0);
        }
        assert!((s.mean() - (1e9 + 1.0)).abs() < 1e-3);
    }
}

//! Log-bucketed histogram with percentile queries.

use serde::{Deserialize, Serialize};

/// A histogram with logarithmically spaced buckets, suitable for latencies
/// spanning milliseconds to hours.
///
/// Buckets cover `[min_value, max_value)` with `buckets_per_decade` buckets
/// per factor of 10; values outside the range clamp to the edge buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    min_value: f64,
    buckets_per_decade: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
}

impl LogHistogram {
    /// Creates a histogram covering `[min_value, max_value)`.
    ///
    /// # Panics
    /// Panics unless `0 < min_value < max_value` and
    /// `buckets_per_decade > 0`.
    #[must_use]
    pub fn new(min_value: f64, max_value: f64, buckets_per_decade: u32) -> Self {
        assert!(
            min_value > 0.0 && max_value > min_value,
            "need 0 < min < max, got [{min_value}, {max_value})"
        );
        assert!(
            buckets_per_decade > 0,
            "need at least one bucket per decade"
        );
        let decades = (max_value / min_value).log10();
        let n = (decades * f64::from(buckets_per_decade)).ceil() as usize + 1;
        LogHistogram {
            min_value,
            buckets_per_decade: f64::from(buckets_per_decade),
            counts: vec![0; n],
            total: 0,
            underflow: 0,
        }
    }

    /// Default latency histogram: 1 ms .. 10⁵ s, 20 buckets per decade.
    #[must_use]
    pub fn latency() -> Self {
        Self::new(1e-3, 1e5, 20)
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < self.min_value {
            return None;
        }
        let idx = ((x / self.min_value).log10() * self.buckets_per_decade) as usize;
        Some(idx.min(self.counts.len() - 1))
    }

    /// Records an observation.
    ///
    /// # Panics
    /// Panics on NaN or negative values.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite() && x >= 0.0, "bad observation {x}");
        self.total += 1;
        match self.bucket_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate `q`-quantile (`q ∈ [0, 1]`); `None` if empty.
    ///
    /// Returns the geometric midpoint of the bucket containing the
    /// quantile, so the error is bounded by the bucket width.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.min_value / 2.0);
        }
        let mut last_occupied = None;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 {
                last_occupied = Some(i);
            }
            if seen >= target {
                return Some(self.bucket_midpoint(i));
            }
        }
        // Unreachable while counts are consistent with `total` (the scan
        // accumulates every observation), but stay well-defined: report
        // the highest occupied bucket's midpoint, never a value beyond
        // the histogram's range.
        Some(self.bucket_midpoint(last_occupied.unwrap_or(0)))
    }

    /// Geometric midpoint of bucket `i` — the value every quantile query
    /// resolving to that bucket reports.
    fn bucket_midpoint(&self, i: usize) -> f64 {
        let lo = self.min_value * 10f64.powf(i as f64 / self.buckets_per_decade);
        let hi = self.min_value * 10f64.powf((i + 1) as f64 / self.buckets_per_decade);
        (lo * hi).sqrt()
    }

    /// Median shorthand.
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Count-weighted p50 — [`Self::quantile`] at 0.5. `None` when
    /// empty; with a single sample every percentile reports that
    /// sample's bucket midpoint (see `quantile`'s ceil-target rule).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Count-weighted p99 — [`Self::quantile`] at 0.99. Same edge
    /// behavior as [`Self::p50`]: `None` when empty, the lone bucket
    /// midpoint for a single sample.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// How many observations fell in buckets whose entire range lies at
    /// or above `threshold` (underflow never counts). Bucket-granular by
    /// construction: observations in the bucket *containing* the
    /// threshold are not counted, so the answer is a lower bound on
    /// `#{x ≥ threshold}` with error bounded by one bucket's count.
    #[must_use]
    pub fn count_at_or_above(&self, threshold: f64) -> u64 {
        assert!(
            threshold.is_finite() && threshold >= 0.0,
            "bad threshold {threshold}"
        );
        let Some(cut) = self.bucket_of(threshold) else {
            // Threshold below range: every in-range observation counts.
            return self.total - self.underflow;
        };
        // Whole buckets strictly above the one holding the threshold.
        self.counts[cut + 1..].iter().sum()
    }

    /// Merges another histogram with identical geometry.
    ///
    /// # Panics
    /// Panics if geometries differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.min_value, other.min_value, "geometry mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "geometry mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.underflow += other.underflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = LogHistogram::new(0.01, 1000.0, 40);
        for i in 1..=1000 {
            h.record(f64::from(i) / 10.0); // 0.1 .. 100.0 uniformly
        }
        assert_eq!(h.count(), 1000);
        let med = h.median().unwrap();
        assert!((40.0..63.0).contains(&med), "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((90.0..110.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn empty_has_no_quantiles() {
        let h = LogHistogram::latency();
        assert!(h.median().is_none());
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn extremes_clamp_without_losing_counts() {
        let mut h = LogHistogram::new(1.0, 10.0, 10);
        h.record(0.0001); // underflow
        h.record(1e9); // clamps into top bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.01).unwrap() < 1.0);
        assert!(h.quantile(1.0).unwrap() >= 10.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_none_at_every_pin() {
        let h = LogHistogram::latency();
        for q in [0.0, 0.5, 1.0] {
            assert!(h.quantile(q).is_none(), "empty p{} must be None", q * 100.0);
        }
    }

    #[test]
    fn single_sample_pins_p0_p50_p100_to_its_bucket_midpoint() {
        let mut h = LogHistogram::latency();
        h.record(2.0);
        let p0 = h.quantile(0.0).unwrap();
        let p50 = h.quantile(0.5).unwrap();
        let p100 = h.quantile(1.0).unwrap();
        // All three quantiles of a one-sample histogram are the same
        // bucket midpoint, and that midpoint brackets the sample within
        // one bucket width (a factor of 10^(1/20) here).
        assert_eq!(p0.to_bits(), p50.to_bits());
        assert_eq!(p50.to_bits(), p100.to_bits());
        let width = 10f64.powf(1.0 / 20.0);
        assert!(p50 >= 2.0 / width && p50 <= 2.0 * width, "p50 {p50}");
    }

    #[test]
    fn single_underflow_sample_reports_below_range_consistently() {
        let mut h = LogHistogram::new(1.0, 10.0, 10);
        h.record(0.001);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(0.5), "p{}", q * 100.0);
        }
    }

    #[test]
    fn quantiles_never_exceed_top_bucket_midpoint() {
        let mut h = LogHistogram::new(1.0, 10.0, 10);
        h.record(1e9); // clamps into the top bucket
        let top = h.quantile(1.0).unwrap();
        // The report stays within the histogram's range convention: the
        // top bucket's midpoint, not an edge beyond it.
        assert!(top < 10.0 * 10f64.powf(0.1), "top {top}");
        assert_eq!(h.quantile(0.0).unwrap().to_bits(), top.to_bits());
    }

    #[test]
    fn named_percentiles_delegate_to_quantile() {
        let mut h = LogHistogram::new(0.01, 1000.0, 40);
        for i in 1..=1000 {
            h.record(f64::from(i) / 10.0);
        }
        assert_eq!(
            h.p50().unwrap().to_bits(),
            h.quantile(0.50).unwrap().to_bits()
        );
        assert_eq!(
            h.p99().unwrap().to_bits(),
            h.quantile(0.99).unwrap().to_bits()
        );
        assert!(h.p50() < h.p99());
    }

    #[test]
    fn named_percentiles_share_quantile_edge_behavior() {
        let empty = LogHistogram::latency();
        assert!(empty.p50().is_none() && empty.p99().is_none());
        let mut one = LogHistogram::latency();
        one.record(2.0);
        // A single sample pins every named percentile to the same bucket
        // midpoint.
        let p50 = one.p50().unwrap();
        assert_eq!(p50.to_bits(), one.p99().unwrap().to_bits());
    }

    #[test]
    fn count_at_or_above_is_bucket_granular() {
        let mut h = LogHistogram::new(1.0, 1000.0, 10);
        h.record(0.1); // underflow — never counted
        h.record(2.0);
        h.record(50.0);
        h.record(500.0);
        assert_eq!(h.count_at_or_above(0.001), 3, "below range counts all");
        assert_eq!(h.count_at_or_above(10.0), 2);
        assert_eq!(h.count_at_or_above(100.0), 1);
        assert_eq!(h.count_at_or_above(1e9), 0, "above the top bucket");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LogHistogram::new(0.1, 100.0, 10);
        let mut b = LogHistogram::new(0.1, 100.0, 10);
        for _ in 0..100 {
            a.record(1.0);
            b.record(10.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        let med = a.median().unwrap();
        assert!((0.5..15.0).contains(&med));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn merge_rejects_different_geometry() {
        let mut a = LogHistogram::new(0.1, 100.0, 10);
        let b = LogHistogram::new(1.0, 100.0, 10);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "bad observation")]
    fn negative_rejected() {
        LogHistogram::latency().record(-1.0);
    }
}

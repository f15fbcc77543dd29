//! Multi-node query scaling.
//!
//! Section VII-A of the paper: *"Query execution scaling to multiple CPU
//! nodes follows the scaling property of a prototypical SDSS query: a
//! query can be sped up 2× using only 25 % extra CPU overhead using 3 CPU
//! nodes in parallel."*
//!
//! We model this with the two standard laws and calibrate both constants
//! to that single published point:
//!
//! * wall-clock follows Amdahl's law, `time(k) = t₁ · ((1−p) + p/k)`;
//!   `time(3) = t₁/2` gives the parallel fraction `p = 0.75`;
//! * total CPU work grows linearly with extra nodes,
//!   `work(k) = w₁ · (1 + α(k−1))`; `work(3) = 1.25 · w₁` gives the
//!   coordination overhead `α = 0.125`.

use serde::Serialize;

/// Calibrated parallel-execution model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ParallelModel {
    /// Amdahl parallel fraction `p ∈ [0, 1]`.
    pub parallel_fraction: f64,
    /// Per-extra-node CPU overhead `α ≥ 0`.
    pub overhead_per_node: f64,
}

impl Default for ParallelModel {
    fn default() -> Self {
        Self::paper_sdss()
    }
}

impl ParallelModel {
    /// The paper's SDSS calibration (`p = 0.75`, `α = 0.125`).
    #[must_use]
    pub fn paper_sdss() -> Self {
        ParallelModel {
            parallel_fraction: 0.75,
            overhead_per_node: 0.125,
        }
    }

    /// Creates a model, validating parameter ranges.
    ///
    /// # Panics
    /// Panics if `p ∉ [0, 1]` or `α < 0`.
    #[must_use]
    pub fn new(parallel_fraction: f64, overhead_per_node: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&parallel_fraction),
            "parallel fraction {parallel_fraction} out of [0,1]"
        );
        assert!(
            overhead_per_node.is_finite() && overhead_per_node >= 0.0,
            "overhead must be non-negative"
        );
        ParallelModel {
            parallel_fraction,
            overhead_per_node,
        }
    }

    /// Wall-clock multiplier for `k` nodes (≤ 1, monotone non-increasing).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn time_factor(&self, k: u32) -> f64 {
        assert!(k >= 1, "need at least one node");
        let p = self.parallel_fraction;
        (1.0 - p) + p / f64::from(k)
    }

    /// Total-CPU-work multiplier for `k` nodes (≥ 1, monotone).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn work_factor(&self, k: u32) -> f64 {
        assert!(k >= 1, "need at least one node");
        1.0 + self.overhead_per_node * f64::from(k - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_is_reproduced_exactly() {
        let m = ParallelModel::paper_sdss();
        assert!((m.time_factor(3) - 0.5).abs() < 1e-12, "2x at 3 nodes");
        assert!((m.work_factor(3) - 1.25).abs() < 1e-12, "25% overhead");
    }

    #[test]
    fn single_node_is_identity() {
        let m = ParallelModel::paper_sdss();
        assert_eq!(m.time_factor(1), 1.0);
        assert_eq!(m.work_factor(1), 1.0);
    }

    #[test]
    fn time_monotone_decreasing_work_monotone_increasing() {
        let m = ParallelModel::paper_sdss();
        for k in 1..20 {
            assert!(m.time_factor(k + 1) < m.time_factor(k));
            assert!(m.work_factor(k + 1) > m.work_factor(k));
        }
    }

    #[test]
    fn amdahl_asymptote() {
        let m = ParallelModel::paper_sdss();
        // With p = 0.75 the best possible speedup is 4x.
        assert!(m.time_factor(10_000) > 0.25);
        assert!(m.time_factor(10_000) < 1.0 / 3.9);
    }

    #[test]
    fn fully_serial_never_speeds_up() {
        let m = ParallelModel::new(0.0, 0.1);
        assert_eq!(m.time_factor(8), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ParallelModel::paper_sdss().time_factor(0);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_fraction_rejected() {
        let _ = ParallelModel::new(1.5, 0.0);
    }
}

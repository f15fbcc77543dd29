//! Per-column statistics.
//!
//! The planner's cost estimator plays the role of the paper's DBMS
//! optimizer: it turns a plan into `q_tot` (total work units) and `io_tot`
//! (logical I/Os). Both need cardinality estimates, which come from these
//! statistics.

use serde::Serialize;

/// Statistics the selectivity model keeps per column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct: u64,
    /// Fraction of rows that are NULL (TPC-H has none, SDSS does).
    pub null_fraction: f64,
    /// Skew of the value distribution: 0 = uniform, larger = more skewed
    /// (used as a Zipf-like exponent by the selectivity model).
    pub skew: f64,
}

impl ColumnStats {
    /// Uniformly distributed column with `distinct` values, no NULLs.
    #[must_use]
    pub fn uniform(distinct: u64) -> Self {
        ColumnStats {
            distinct: distinct.max(1),
            null_fraction: 0.0,
            skew: 0.0,
        }
    }

    /// Skewed column.
    #[must_use]
    pub fn skewed(distinct: u64, skew: f64) -> Self {
        assert!(skew.is_finite() && skew >= 0.0, "skew must be >= 0");
        ColumnStats {
            distinct: distinct.max(1),
            null_fraction: 0.0,
            skew,
        }
    }

    /// Selectivity of an equality predicate `col = const` under the
    /// uniform-distinct assumption.
    #[must_use]
    pub fn equality_selectivity(&self) -> f64 {
        (1.0 - self.null_fraction) / self.distinct as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_has_no_nulls() {
        let s = ColumnStats::uniform(10);
        assert_eq!(s.distinct, 10);
        assert_eq!(s.null_fraction, 0.0);
        assert!((s.equality_selectivity() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_distinct_clamped_to_one() {
        let s = ColumnStats::uniform(0);
        assert_eq!(s.distinct, 1);
        assert_eq!(s.equality_selectivity(), 1.0);
    }

    #[test]
    fn nulls_reduce_equality_selectivity() {
        let s = ColumnStats {
            distinct: 4,
            null_fraction: 0.5,
            skew: 0.0,
        };
        assert!((s.equality_selectivity() - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = ">= 0")]
    fn negative_skew_rejected() {
        let _ = ColumnStats::skewed(10, -1.0);
    }
}

//! Selectivity estimation for predicates.
//!
//! Plays the role of the paper's DBMS optimizer cardinality model: the
//! planner multiplies per-predicate selectivities (independence assumption,
//! the standard System-R simplification) to size intermediate results,
//! which feed `q_tot` / `io_tot` in eq. 8 and the result size `S(Q)` in
//! eq. 9.

use crate::column::Column;
use serde::Serialize;

/// A predicate's shape, as far as cardinality estimation cares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum PredicateKind {
    /// `col = const`.
    Equality,
    /// `col < const` / `col > const` / `BETWEEN` covering the given
    /// fraction of the value domain.
    Range {
        /// Fraction of the domain the range covers, in `[0, 1]`.
        fraction: f64,
    },
    /// `col IN (k values)`.
    InList {
        /// Number of list items.
        items: u32,
    },
    /// `col LIKE 'prefix%'` — fixed heuristic selectivity.
    PrefixMatch,
}

/// Default selectivity for prefix matches (System-R style magic constant).
pub const PREFIX_MATCH_SELECTIVITY: f64 = 0.05;

/// Estimates the selectivity of a predicate over `column`.
///
/// Returns a value in `(0, 1]`; estimates are floored at `1 / rows`-ish
/// scale via the distinct count so downstream sizes never hit exactly zero
/// (zero-size results would make eq. 9 degenerate).
#[must_use]
pub fn estimate(column: &Column, kind: PredicateKind) -> f64 {
    let sel = match kind {
        PredicateKind::Equality => column.stats.equality_selectivity(),
        PredicateKind::Range { fraction } => {
            assert!(
                (0.0..=1.0).contains(&fraction),
                "range fraction {fraction} out of [0,1]"
            );
            fraction * (1.0 - column.stats.null_fraction)
        }
        PredicateKind::InList { items } => {
            (f64::from(items) * column.stats.equality_selectivity()).min(1.0)
        }
        PredicateKind::PrefixMatch => PREFIX_MATCH_SELECTIVITY,
    };
    sel.clamp(1e-9, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ColumnId, TableId};
    use crate::stats::ColumnStats;
    use crate::types::DataType;

    fn col(distinct: u64) -> Column {
        Column {
            id: ColumnId(0),
            table: TableId(0),
            name: "x".into(),
            ty: DataType::Int32,
            stats: ColumnStats::uniform(distinct),
        }
    }

    #[test]
    fn equality_is_one_over_distinct() {
        let c = col(1000);
        assert!((estimate(&c, PredicateKind::Equality) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn range_is_domain_fraction() {
        let c = col(100);
        let s = estimate(&c, PredicateKind::Range { fraction: 0.25 });
        assert!((s - 0.25).abs() < 1e-12);
    }

    #[test]
    fn in_list_scales_with_items_and_caps_at_one() {
        let c = col(10);
        let s = estimate(&c, PredicateKind::InList { items: 3 });
        assert!((s - 0.3).abs() < 1e-12);
        let s = estimate(&c, PredicateKind::InList { items: 100 });
        assert_eq!(s, 1.0);
    }

    #[test]
    fn prefix_match_uses_magic_constant() {
        let c = col(10);
        assert_eq!(
            estimate(&c, PredicateKind::PrefixMatch),
            PREFIX_MATCH_SELECTIVITY
        );
    }

    #[test]
    fn estimates_never_zero() {
        let c = col(u64::MAX);
        assert!(estimate(&c, PredicateKind::Equality) > 0.0);
        assert!(estimate(&c, PredicateKind::Range { fraction: 0.0 }) > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_range_fraction_panics() {
        let c = col(10);
        let _ = estimate(&c, PredicateKind::Range { fraction: 1.5 });
    }
}

//! The query model the planner and the economy consume.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use catalog::{ColumnId, TableId};
use serde::Serialize;

use crate::templates::TemplateId;

/// Workload-wide query sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct QueryId(pub u64);

/// Most table accesses one template may declare: a query carries its
/// per-access selectivities inline, in an array of this capacity.
pub const MAX_ACCESSES: usize = 8;

/// One table touched by a query: which columns it reads and which of them
/// carry sargable predicates. Fixed by the query's `(template, mask)`; the
/// access's selectivity lives in [`Query::selectivities`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableAccess {
    /// The table.
    pub table: TableId,
    /// Columns read (projection + predicate columns).
    pub columns: Vec<ColumnId>,
    /// Columns with sargable predicates — candidates for index access.
    pub predicate_columns: Vec<ColumnId>,
}

/// The lists of a query: every list `(template, mask)` fixes. The
/// generator interns one per key and every query of the key shares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLists {
    /// Tables accessed; the first entry is the *driving* table (largest,
    /// cost-dominant — `lineitem` for most TPC-H templates).
    pub accesses: Vec<TableAccess>,
    /// ORDER BY / GROUP BY columns — what a covering index would sort by.
    pub sort_columns: Vec<ColumnId>,
}

/// Per-access selectivities, inline: at most [`MAX_ACCESSES`], each the
/// combined selectivity of one access's local predicates, in `(0, 1]`.
/// Dereferences to the slice of the present entries; equality and
/// `Debug` see only those.
#[derive(Clone, Copy)]
pub struct Selectivities {
    len: usize,
    values: [f64; MAX_ACCESSES],
}

impl Selectivities {
    /// No selectivities.
    pub const EMPTY: Selectivities = Selectivities {
        len: 0,
        values: [0.0; MAX_ACCESSES],
    };

    /// Copies `values`.
    ///
    /// # Panics
    /// Panics if `values` holds more than [`MAX_ACCESSES`] entries.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut out = Selectivities::EMPTY;
        for &v in values {
            out.push(v);
        }
        out
    }

    /// Appends one access's selectivity.
    ///
    /// # Panics
    /// Panics if [`MAX_ACCESSES`] are already present.
    pub fn push(&mut self, selectivity: f64) {
        assert!(
            self.len < MAX_ACCESSES,
            "a query holds at most {MAX_ACCESSES} accesses"
        );
        self.values[self.len] = selectivity;
        self.len += 1;
    }
}

impl Deref for Selectivities {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

impl PartialEq for Selectivities {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Selectivities {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A concrete query instance produced by the workload generator.
///
/// The simulator never parses SQL: a query is exactly the information the
/// cost model needs — which columns it touches, how selective it is, and
/// how big its result is (`S(Q)` in eq. 9 of the paper). It is a shape
/// plus numbers: `(template, mask)` fixes the [`QueryLists`], which the
/// query holds by a shared [`Arc`], and only the selectivities, the result
/// size and the budget vary per instance. Cloning a query
/// copies the numbers and bumps the lists' reference count.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Sequence number.
    pub id: QueryId,
    /// Which of the 7 templates produced it.
    pub template: TemplateId,
    /// Which of the template's optional columns this instance drew: bit
    /// `i` is set when the `i`-th optional column of the template, in
    /// access order, was projected. `(template, mask)` fixes
    /// [`Self::lists`]; only the numbers vary within it.
    pub mask: u32,
    /// The table accesses and sort columns, shared by every query of the
    /// same `(template, mask)`.
    pub lists: Arc<QueryLists>,
    /// Per access of [`Self::lists`], in order, its selectivity.
    pub selectivities: Selectivities,
    /// Estimated result cardinality.
    pub result_rows: u64,
    /// Estimated result size in bytes — `S(Q)` of eq. 9.
    pub result_bytes: u64,
    /// The user's willingness to pay, as a multiplier over the price of
    /// backend execution (the paper's users "accept query execution in the
    /// back-end", so their budget always covers at least that).
    pub budget_scale: f64,
}

impl Query {
    /// Each table access with its selectivity, in query order.
    ///
    /// # Panics
    /// Debug builds panic if the lists and selectivities differ in length.
    pub fn accesses(&self) -> impl ExactSizeIterator<Item = (&TableAccess, f64)> + '_ {
        debug_assert_eq!(
            self.lists.accesses.len(),
            self.selectivities.len(),
            "one selectivity per access"
        );
        self.lists
            .accesses
            .iter()
            .zip(self.selectivities.iter().copied())
    }

    /// The driving (cost-dominant) table access.
    ///
    /// # Panics
    /// Panics if the query has no accesses — the generator never emits one.
    #[must_use]
    pub fn driving(&self) -> &TableAccess {
        self.lists
            .accesses
            .first()
            .expect("query accesses no table")
    }

    /// Every column the query touches, across all tables.
    pub fn all_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.lists
            .accesses
            .iter()
            .flat_map(|a| a.columns.iter().copied())
    }

    /// Number of columns touched, summed over the accesses.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.lists.accesses.iter().map(|a| a.columns.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Query {
        Query {
            id: QueryId(7),
            template: TemplateId(0),
            mask: 0,
            lists: Arc::new(QueryLists {
                accesses: vec![
                    TableAccess {
                        table: TableId(0),
                        columns: vec![ColumnId(1), ColumnId(2)],
                        predicate_columns: vec![ColumnId(1)],
                    },
                    TableAccess {
                        table: TableId(1),
                        columns: vec![ColumnId(9)],
                        predicate_columns: vec![],
                    },
                ],
                sort_columns: vec![ColumnId(2)],
            }),
            selectivities: Selectivities::from_slice(&[0.01, 1.0]),
            result_rows: 1000,
            result_bytes: 50_000,
            budget_scale: 1.2,
        }
    }

    #[test]
    fn driving_is_first_access() {
        assert_eq!(q().driving().table, TableId(0));
        let pairs: Vec<(TableId, f64)> = q().accesses().map(|(a, s)| (a.table, s)).collect();
        assert_eq!(pairs, vec![(TableId(0), 0.01), (TableId(1), 1.0)]);
    }

    #[test]
    fn selectivities_compare_and_print_only_present_entries() {
        let mut a = Selectivities::from_slice(&[0.5, 0.25]);
        let b = Selectivities::from_slice(&[0.5, 0.25, 0.125]);
        assert_ne!(a, b);
        assert_eq!(*a, [0.5, 0.25]);
        a.push(0.125);
        assert_eq!(a, b);
        assert_eq!(format!("{b:?}"), "[0.5, 0.25, 0.125]");
    }

    #[test]
    #[should_panic(expected = "at most 8 accesses")]
    fn selectivities_are_bounded() {
        let _ = Selectivities::from_slice(&[1.0; MAX_ACCESSES + 1]);
    }

    #[test]
    fn clones_share_the_lists() {
        let a = q();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.lists, &b.lists));
        assert_eq!(a, b);
    }

    #[test]
    fn all_columns_spans_tables() {
        let cols: Vec<ColumnId> = q().all_columns().collect();
        assert_eq!(cols, vec![ColumnId(1), ColumnId(2), ColumnId(9)]);
        assert_eq!(q().column_count(), 3);
    }
}

//! The query model the planner and the economy consume.

use catalog::{ColumnId, TableId};
use serde::{Deserialize, Serialize};

use crate::templates::TemplateId;

/// Workload-wide query sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QueryId(pub u64);

/// One table touched by a query: which columns it reads and how selective
/// its local predicates are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableAccess {
    /// The table.
    pub table: TableId,
    /// Columns read (projection + predicate columns).
    pub columns: Vec<ColumnId>,
    /// Columns with sargable predicates — candidates for index access.
    pub predicate_columns: Vec<ColumnId>,
    /// Combined selectivity of the local predicates, in `(0, 1]`.
    pub selectivity: f64,
}

/// A concrete query instance produced by the workload generator.
///
/// The simulator never parses SQL: a query is exactly the information the
/// cost model needs — which columns it touches, how selective it is, and
/// how big its result is (`S(Q)` in eq. 9 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Sequence number.
    pub id: QueryId,
    /// Which of the 7 templates produced it.
    pub template: TemplateId,
    /// Which of the template's optional columns this instance drew: bit
    /// `i` is set when the `i`-th optional column of the template, in
    /// access order, was projected. `(template, mask)` fixes every
    /// access's table, column list and predicate list, and the sort
    /// columns; only selectivities and result size vary within it.
    pub mask: u32,
    /// Tables accessed; the first entry is the *driving* table (largest,
    /// cost-dominant — `lineitem` for most TPC-H templates).
    pub accesses: Vec<TableAccess>,
    /// ORDER BY / GROUP BY columns — what a covering index would sort by.
    pub sort_columns: Vec<ColumnId>,
    /// Estimated result cardinality.
    pub result_rows: u64,
    /// Estimated result size in bytes — `S(Q)` of eq. 9.
    pub result_bytes: u64,
    /// The user's willingness to pay, as a multiplier over the price of
    /// backend execution (the paper's users "accept query execution in the
    /// back-end", so their budget always covers at least that).
    pub budget_scale: f64,
    /// Data-region tag (locality bookkeeping; regions share cache content
    /// because caching is column-granular, but the tag drives future
    /// partial-column extensions and diagnostics).
    pub region: u32,
}

impl Query {
    /// The driving (cost-dominant) table access.
    ///
    /// # Panics
    /// Panics if the query has no accesses — the generator never emits one.
    #[must_use]
    pub fn driving(&self) -> &TableAccess {
        self.accesses.first().expect("query accesses no table")
    }

    /// Every column the query touches, across all tables.
    pub fn all_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.accesses.iter().flat_map(|a| a.columns.iter().copied())
    }

    /// Number of distinct columns touched.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.accesses.iter().map(|a| a.columns.len()).sum()
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
            accesses: vec![
                TableAccess {
                    table: TableId(0),
                    columns: vec![ColumnId(1), ColumnId(2)],
                    predicate_columns: vec![ColumnId(1)],
                    selectivity: 0.01,
                },
                TableAccess {
                    table: TableId(1),
                    columns: vec![ColumnId(9)],
                    predicate_columns: vec![],
                    selectivity: 1.0,
                },
            ],
            sort_columns: vec![ColumnId(2)],
            result_rows: 1000,
            result_bytes: 50_000,
            budget_scale: 1.2,
            region: 3,
        }
    }

    #[test]
    fn driving_is_first_access() {
        assert_eq!(q().driving().table, TableId(0));
    }

    #[test]
    fn all_columns_spans_tables() {
        let cols: Vec<ColumnId> = q().all_columns().collect();
        assert_eq!(cols, vec![ColumnId(1), ColumnId(2), ColumnId(9)]);
        assert_eq!(q().column_count(), 3);
    }
}

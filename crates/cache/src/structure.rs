//! Cache structure identities and index definitions.

use catalog::{ColumnId, Schema, TableId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a candidate index in the candidate registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IndexId(pub u32);

impl IndexId {
    /// The id as a dense vector index.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IndexId {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// Identity of a cache structure — the paper's `S ∈ {N, T, I}`.
///
/// The regret array (`regretS`), the investment rule (eq. 3), amortisation
/// and maintenance accounting all key by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum StructureKey {
    /// The `ordinal`-th *extra* CPU node (beyond the always-on base node).
    Node(u32),
    /// A cached table column.
    Column(ColumnId),
    /// A built index (id into the candidate registry).
    Index(IndexId),
}

impl StructureKey {
    /// True for structures that occupy cache disk (columns and indexes).
    #[must_use]
    #[inline]
    pub fn occupies_disk(self) -> bool {
        !matches!(self, StructureKey::Node(_))
    }
}

impl fmt::Display for StructureKey {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureKey::Node(n) => write!(f, "node#{n}"),
            StructureKey::Column(c) => write!(f, "col:{c}"),
            StructureKey::Index(i) => write!(f, "idx:{i}"),
        }
    }
}

/// A candidate index definition.
///
/// Indexes are B-tree-like structures over `key_columns` of one table;
/// building one costs a sort of the keyed data plus fetching any key
/// column absent from the cache (eq. 14 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexDef {
    /// Registry id.
    pub id: IndexId,
    /// Indexed table.
    pub table: TableId,
    /// Key columns, most-significant first (prefix rules apply).
    pub key_columns: Vec<ColumnId>,
}

/// Bytes of the row locator stored per index entry.
pub const ROW_LOCATOR_BYTES: u64 = 8;

impl IndexDef {
    /// Index size: one entry per row, each entry holding the key columns
    /// plus a row locator (eq. 15 charges `size(I) · c_d` maintenance).
    #[must_use]
    #[inline]
    pub fn size_bytes(&self, schema: &Schema) -> u64 {
        let rows = schema.table(self.table).row_count;
        let entry: u64 = self
            .key_columns
            .iter()
            .map(|&c| schema.column(c).byte_width())
            .sum::<u64>()
            + ROW_LOCATOR_BYTES;
        rows.saturating_mul(entry)
    }

    /// True if this index can serve a predicate on `column` (leading-prefix
    /// rule: only the first key column is sargable on its own).
    #[must_use]
    #[inline]
    pub fn serves_predicate(&self, column: ColumnId) -> bool {
        self.key_columns.first() == Some(&column)
    }

    /// True if the index key covers all of `columns` (an index-only plan
    /// needs no base column fetch for covered columns).
    #[must_use]
    #[inline]
    pub fn covers(&self, columns: &[ColumnId]) -> bool {
        columns.iter().all(|c| self.key_columns.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};

    #[test]
    fn structure_keys_are_distinct_and_displayable() {
        let n = StructureKey::Node(2);
        let c = StructureKey::Column(ColumnId(2));
        let i = StructureKey::Index(IndexId(2));
        assert_ne!(n, c);
        assert_ne!(c, i);
        assert_eq!(n.to_string(), "node#2");
        assert_eq!(c.to_string(), "col:C2");
        assert_eq!(i.to_string(), "idx:I2");
    }

    #[test]
    fn only_disk_structures_occupy_disk() {
        assert!(!StructureKey::Node(0).occupies_disk());
        assert!(StructureKey::Column(ColumnId(0)).occupies_disk());
        assert!(StructureKey::Index(IndexId(0)).occupies_disk());
    }

    #[test]
    fn index_size_counts_keys_and_locator() {
        let schema = tpch_schema(ScaleFactor(1.0));
        let shipdate = schema.column_by_name("lineitem.l_shipdate").unwrap();
        let idx = IndexDef {
            id: IndexId(0),
            table: shipdate.table,
            key_columns: vec![shipdate.id],
        };
        let rows = schema.table(shipdate.table).row_count;
        assert_eq!(idx.size_bytes(&schema), rows * (4 + ROW_LOCATOR_BYTES));
    }

    #[test]
    fn prefix_rule_for_predicates() {
        let idx = IndexDef {
            id: IndexId(1),
            table: TableId(0),
            key_columns: vec![ColumnId(5), ColumnId(6)],
        };
        assert!(idx.serves_predicate(ColumnId(5)));
        assert!(!idx.serves_predicate(ColumnId(6)), "non-leading key");
        assert!(!idx.serves_predicate(ColumnId(7)));
    }

    #[test]
    fn covering_check() {
        let idx = IndexDef {
            id: IndexId(2),
            table: TableId(0),
            key_columns: vec![ColumnId(1), ColumnId(2), ColumnId(3)],
        };
        assert!(idx.covers(&[ColumnId(2), ColumnId(1)]));
        assert!(!idx.covers(&[ColumnId(1), ColumnId(9)]));
        assert!(idx.covers(&[]));
    }
}

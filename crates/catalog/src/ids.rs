//! Newtype identifiers for catalog entities.
//!
//! Plain `u32` indices wrapped so that a table id can never be confused
//! with a column id at a call site. Ids are dense (assigned in schema
//! declaration order), which lets downstream crates use them as `Vec`
//! indices — the regret array of the paper (`regretS`) indexes by
//! structure, which indexes by column id.

use serde::Serialize;
use std::fmt;

/// Identifier of a table within a [`Schema`](crate::Schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct TableId(pub u32);

/// Identifier of a column, unique across the whole schema (not per-table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct ColumnId(pub u32);

impl TableId {
    /// The id as a dense vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ColumnId {
    /// The id as a dense vector index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(TableId(1) < TableId(2));
        assert!(ColumnId(5) > ColumnId(4));
        assert_eq!(TableId(3).to_string(), "T3");
        assert_eq!(ColumnId(7).to_string(), "C7");
        assert_eq!(ColumnId(7).index(), 7);
        assert_eq!(TableId(2).index(), 2);
    }
}

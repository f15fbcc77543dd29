//! Column metadata.

use crate::ids::{ColumnId, TableId};
use crate::stats::ColumnStats;
use crate::types::DataType;
use serde::Serialize;

/// A column of a back-end table.
///
/// Columns are the unit of caching in the paper's infrastructure
/// ("the columns of the original tables in the back-end databases are
/// cached, in order to facilitate a comparison with [bypass-yield]",
/// Section V-C), so each column carries everything the cost model needs:
/// its byte width, its row count (via the owning table) and statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Column {
    /// Schema-wide unique id.
    pub id: ColumnId,
    /// Owning table.
    pub table: TableId,
    /// Column name, e.g. `"l_shipdate"`.
    pub name: String,
    /// Storage type.
    pub ty: DataType,
    /// Statistics for selectivity estimation.
    pub stats: ColumnStats,
}

impl Column {
    /// Bytes one row of this column occupies.
    #[must_use]
    pub fn byte_width(&self) -> u64 {
        self.ty.byte_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_delegates_to_type() {
        let c = Column {
            id: ColumnId(0),
            table: TableId(0),
            name: "x".into(),
            ty: DataType::Char(10),
            stats: ColumnStats::uniform(100),
        };
        assert_eq!(c.byte_width(), 10);
    }
}

//! Schema: the set of back-end tables and their columns.

use crate::column::Column;
use crate::ids::{ColumnId, TableId};
use crate::stats::ColumnStats;
use crate::types::DataType;
use serde::Serialize;

/// A back-end table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table {
    /// Schema-wide id.
    pub id: TableId,
    /// Table name, e.g. `"lineitem"`.
    pub name: String,
    /// Number of rows.
    pub row_count: u64,
    /// Ids of this table's columns (in declaration order).
    pub columns: Vec<ColumnId>,
}

/// The full relational catalog the cloud serves.
///
/// Construction goes through [`SchemaBuilder`], which assigns dense ids,
/// so lookups by id are `Vec` indexing. Lookups by name scan: a table
/// name over the tables, a column name over its table's columns (TPC-H
/// has 8 tables of at most 16 columns).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Schema {
    tables: Vec<Table>,
    columns: Vec<Column>,
}

impl Schema {
    /// Starts building a schema.
    #[must_use]
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// All tables in declaration order.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All columns in declaration order (dense by [`ColumnId`]).
    #[must_use]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Looks up a table by id.
    ///
    /// # Panics
    /// Panics on an id from a different schema.
    #[must_use]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Looks up a column by id.
    ///
    /// # Panics
    /// Panics on an id from a different schema.
    #[must_use]
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.index()]
    }

    /// Looks up a table by name.
    #[must_use]
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Looks up a column by its qualified `"table.column"` name.
    #[must_use]
    pub fn column_by_name(&self, qualified: &str) -> Option<&Column> {
        let (table, column) = qualified.split_once('.')?;
        self.table_by_name(table)?
            .columns
            .iter()
            .map(|&id| self.column(id))
            .find(|c| c.name == column)
    }

    /// Total bytes of one column across all rows — the `size(T)` of
    /// eqs. 12/13 in the paper.
    #[must_use]
    pub fn column_bytes(&self, id: ColumnId) -> u64 {
        let col = self.column(id);
        let rows = self.table(col.table).row_count;
        rows.saturating_mul(col.byte_width())
    }

    /// Total bytes of a table (sum of its column sizes).
    #[must_use]
    pub fn table_bytes(&self, id: TableId) -> u64 {
        self.table(id)
            .columns
            .iter()
            .map(|&c| self.column_bytes(c))
            .sum()
    }

    /// Total bytes of the whole database.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| self.table_bytes(t.id)).sum()
    }

    /// Number of columns.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }
}

/// Incremental schema builder; assigns dense ids in declaration order.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    tables: Vec<Table>,
    columns: Vec<Column>,
}

impl SchemaBuilder {
    /// Declares a table and its columns; returns the new table's id.
    ///
    /// # Panics
    /// Panics on duplicate table or column names, and on a name holding
    /// a `.`, which would make a qualified `"table.column"` name
    /// ambiguous.
    pub fn table(
        &mut self,
        name: &str,
        row_count: u64,
        columns: &[(&str, DataType, ColumnStats)],
    ) -> TableId {
        let table_id = TableId(self.tables.len() as u32);
        assert!(!name.contains('.'), "table name `{name}` contains a `.`");
        assert!(
            self.tables.iter().all(|t| t.name != name),
            "duplicate table `{name}`"
        );
        let mut ids = Vec::with_capacity(columns.len());
        for (i, (col_name, ty, stats)) in columns.iter().enumerate() {
            let col_id = ColumnId(self.columns.len() as u32);
            assert!(
                !col_name.contains('.'),
                "column name `{name}.{col_name}` contains a `.`"
            );
            assert!(
                columns[..i].iter().all(|(prior, _, _)| prior != col_name),
                "duplicate column `{name}.{col_name}`"
            );
            self.columns.push(Column {
                id: col_id,
                table: table_id,
                name: (*col_name).to_owned(),
                ty: *ty,
                stats: *stats,
            });
            ids.push(col_id);
        }
        self.tables.push(Table {
            id: table_id,
            name: name.to_owned(),
            row_count,
            columns: ids,
        });
        table_id
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Schema {
        Schema {
            tables: self.tables,
            columns: self.columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Schema {
        let mut b = Schema::builder();
        b.table(
            "t1",
            100,
            &[
                ("a", DataType::Int32, ColumnStats::uniform(100)),
                ("b", DataType::Char(10), ColumnStats::uniform(5)),
            ],
        );
        b.table(
            "t2",
            10,
            &[("c", DataType::Int64, ColumnStats::uniform(10))],
        );
        b.build()
    }

    #[test]
    fn dense_ids_in_declaration_order() {
        let s = tiny();
        assert_eq!(s.tables().len(), 2);
        assert_eq!(s.column_count(), 3);
        assert_eq!(s.columns()[0].name, "a");
        assert_eq!(s.columns()[2].name, "c");
        assert_eq!(s.columns()[2].table, TableId(1));
    }

    #[test]
    fn lookups_by_name() {
        let s = tiny();
        assert_eq!(s.table_by_name("t1").unwrap().row_count, 100);
        assert!(s.table_by_name("nope").is_none());
        let b = s.column_by_name("t1.b").unwrap();
        assert_eq!(b.ty, DataType::Char(10));
        assert!(s.column_by_name("t1.c").is_none(), "c belongs to t2");
    }

    #[test]
    fn sizes_are_rows_times_width() {
        let s = tiny();
        let a = s.column_by_name("t1.a").unwrap().id;
        let b = s.column_by_name("t1.b").unwrap().id;
        assert_eq!(s.column_bytes(a), 400);
        assert_eq!(s.column_bytes(b), 1000);
        assert_eq!(s.table_bytes(TableId(0)), 1400);
        assert_eq!(s.total_bytes(), 1400 + 80);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_rejected() {
        let mut b = Schema::builder();
        b.table("t", 1, &[]);
        b.table("t", 1, &[]);
    }

    #[test]
    #[should_panic(expected = "column name `t.a.b` contains a `.`")]
    fn dotted_name_rejected() {
        let mut b = Schema::builder();
        b.table("t", 1, &[("a.b", DataType::Int32, ColumnStats::uniform(1))]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_rejected() {
        let mut b = Schema::builder();
        b.table(
            "t",
            1,
            &[
                ("a", DataType::Int32, ColumnStats::uniform(1)),
                ("a", DataType::Int32, ColumnStats::uniform(1)),
            ],
        );
    }
}

//! Compiled query shapes: the schema- and candidate-dependent terms of a
//! query, computed once per `(template, optional-column mask)`.
//!
//! A generated query is fully described by its template, the mask of
//! optional columns it drew ([`workload::Query::mask`]) and its
//! per-access selectivities plus result size. The first two fix the
//! query's lists ([`workload::QueryLists`]): every access's table, column
//! list and predicate list. So everything enumeration derives from those
//! lists alone is the same for every query of one key: each access's row
//! count, its accessed-column width,
//! the backend row-store width, the best candidate index and the bytes
//! read per picked row through it, and the deduplicated column list.
//! A [`QueryShape`] holds exactly those terms, and fresh enumeration and
//! [`crate::ExecRows::fill`] do only the per-query selectivity
//! arithmetic on top of it.
//!
//! **The index pick is selectivity-free.** The registry-order scorer
//! ranks candidates by `rows · sel · (entry + uncovered)`: every
//! candidate's score is scaled by the same positive `rows · sel`, so the
//! argmin does not depend on the selectivity. The shape runs the scorer
//! once at unit selectivity, with the same tie rule (the lowest registry
//! position wins among equal scores).
//!
//! Shapes compile lazily, on the first query of each key, into a table
//! owned by the [`CandidateIndex`] — the schema- and candidate-derived
//! view every planning call already shares — so building a planner
//! context costs nothing extra. The estimator-dependent build quotes
//! (eq. 12 per column, eq. 14's sort term per candidate) are compiled
//! too, but into the [`crate::Estimator`], which owns the prices: see
//! [`crate::Estimator::column_quote`]. Only the selectivity arithmetic
//! and the cache-dependent terms stay per query. Debug builds check on
//! every lookup that the query's lists ([`workload::QueryLists`]) are the
//! ones the shape was compiled from.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use cache::{IndexDef, ROW_LOCATOR_BYTES};
use catalog::{ColumnId, Schema, TableId};
use workload::{Query, TableAccess, TemplateId};

use crate::candidates::{CandidateIndex, TableCandidate};

/// The best candidate index of one table access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPick {
    /// Position in the candidate slice the index was built over.
    pub pos: u32,
    /// Bytes read per picked row through the index: entry width plus the
    /// accessed columns the key does not cover.
    pub width: u32,
}

/// The compiled terms of one table access. Widths are whole bytes per
/// row; every one converts to `f64` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessShape {
    /// The table's row count, as the estimator reads it.
    pub rows: f64,
    /// The table.
    pub table: TableId,
    /// Bytes per row of the accessed columns (a column scan).
    pub scan_width: u32,
    /// Bytes per row the backend row store reads: the full row plus
    /// [`ROW_LOCATOR_BYTES`].
    pub backend_width: u32,
    /// The best serving candidate, if any candidate serves a predicate.
    pub pick: Option<IndexPick>,
}

/// The compiled terms of every query of one `(template, mask)`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct QueryShape {
    /// The template.
    pub template: TemplateId,
    /// The optional-column mask.
    pub mask: u32,
    /// Per table access, in query order.
    pub accesses: Box<[AccessShape]>,
    /// Every accessed column, deduplicated in first-seen order.
    pub columns: Box<[ColumnId]>,
    /// True if some access has a serving candidate, i.e. the best-index
    /// variant exists.
    pub indexed: bool,
    /// The lists the shape was compiled from, for the debug-build lookup
    /// check.
    #[cfg(debug_assertions)]
    lists: Arc<workload::QueryLists>,
}

impl QueryShape {
    /// Compiles the shape of `query`'s key from its own lists.
    fn compile(
        schema: &Schema,
        candidates: &[IndexDef],
        index: &CandidateIndex,
        query: &Query,
    ) -> QueryShape {
        let width = |cols: &[ColumnId]| -> u64 {
            cols.iter().map(|&c| schema.column(c).byte_width()).sum()
        };
        let mut columns = Vec::new();
        let accesses: Box<[AccessShape]> = query
            .lists
            .accesses
            .iter()
            .map(|access| {
                for &c in &access.columns {
                    if !columns.contains(&c) {
                        columns.push(c);
                    }
                }
                let table = schema.table(access.table);
                let rows = table.row_count as f64;
                AccessShape {
                    rows,
                    table: access.table,
                    scan_width: row_bytes(width(&access.columns)),
                    backend_width: row_bytes(width(&table.columns) + ROW_LOCATOR_BYTES),
                    pick: best_index(
                        schema,
                        candidates,
                        index.for_table(access.table),
                        rows,
                        access,
                    ),
                }
            })
            .collect();
        QueryShape {
            template: query.template,
            mask: query.mask,
            indexed: accesses.iter().any(|a| a.pick.is_some()),
            accesses,
            columns: columns.into_boxed_slice(),
            #[cfg(debug_assertions)]
            lists: Arc::clone(&query.lists),
        }
    }

    /// Per-access best candidate positions — the best-index variant's
    /// assignment.
    pub fn picks(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        self.accesses.iter().map(|a| a.pick.map(|p| p.pos as usize))
    }

    /// Asserts the shape was compiled from lists equal to `query`'s own:
    /// the very same interned lists, or equal ones.
    #[cfg(debug_assertions)]
    fn check(&self, query: &Query) {
        assert_eq!(
            (self.template, self.mask, self.accesses.len()),
            (query.template, query.mask, query.selectivities.len()),
            "query {:?} does not match its compiled shape",
            query.id
        );
        assert!(
            Arc::ptr_eq(&self.lists, &query.lists) || self.lists == query.lists,
            "query {:?} (template {}, mask {:#x}) differs from its compiled shape",
            query.id,
            query.template.0,
            query.mask
        );
    }
}

/// The registry-order scorer at unit selectivity: the serving candidate
/// reading the fewest bytes, the lowest registry position among equals.
fn best_index(
    schema: &Schema,
    candidates: &[IndexDef],
    table: &[TableCandidate],
    rows: f64,
    access: &TableAccess,
) -> Option<IndexPick> {
    let mut best: Option<(f64, IndexPick)> = None;
    for tc in table {
        let idx = &candidates[tc.pos];
        if !access
            .predicate_columns
            .iter()
            .any(|&p| idx.serves_predicate(p))
        {
            continue;
        }
        // Score: bytes read through this index (entry + uncovered fetch).
        let uncovered: u64 = access
            .columns
            .iter()
            .filter(|c| !idx.key_columns.contains(c))
            .map(|&c| schema.column(c).byte_width())
            .sum();
        let bytes = rows * (tc.entry_bytes + uncovered) as f64;
        match best {
            Some((b, _)) if b <= bytes => {}
            _ => {
                let pos = u32::try_from(tc.pos).expect("candidate position fits u32");
                let width = row_bytes(tc.entry_bytes + uncovered);
                best = Some((bytes, IndexPick { pos, width }));
            }
        }
    }
    best.map(|(_, pick)| pick)
}

/// A per-row byte width as stored in a shape.
fn row_bytes(width: u64) -> u32 {
    u32::try_from(width).expect("row width fits u32")
}

/// The lazily filled `(template, mask)` → [`QueryShape`] table of a
/// [`CandidateIndex`]. Shared read-only by every planning call; a miss
/// compiles outside the lock, and racing compilers produce equal shapes,
/// so keeping either is correct.
#[derive(Debug, Default)]
pub(crate) struct ShapeTable {
    map: RwLock<HashMap<(TemplateId, u32), Arc<QueryShape>>>,
}

impl ShapeTable {
    /// The shape of `query`, compiled on its key's first sighting.
    pub(crate) fn get(
        &self,
        schema: &Schema,
        candidates: &[IndexDef],
        index: &CandidateIndex,
        query: &Query,
    ) -> Arc<QueryShape> {
        let key = (query.template, query.mask);
        let hit = self
            .map
            .read()
            .expect("shape table poisoned")
            .get(&key)
            .map(Arc::clone);
        let shape = hit.unwrap_or_else(|| {
            let compiled = Arc::new(QueryShape::compile(schema, candidates, index, query));
            let mut map = self.map.write().expect("shape table poisoned");
            Arc::clone(map.entry(key).or_insert(compiled))
        });
        #[cfg(debug_assertions)]
        shape.check(query);
        shape
    }

    /// Number of compiled shapes.
    pub(crate) fn len(&self) -> usize {
        self.map.read().expect("shape table poisoned").len()
    }
}

impl Clone for ShapeTable {
    fn clone(&self) -> Self {
        ShapeTable {
            map: RwLock::new(self.map.read().expect("shape table poisoned").clone()),
        }
    }
}

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

#[cfg(debug_assertions)]
use std::sync::Arc;
use std::sync::OnceLock;

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

/// Slots per block of a [`ShapeTable`].
const BLOCK: usize = 32;

/// Where a compiled shape lives in its [`ShapeTable`]: a stable slot,
/// so an [`crate::ExecRows`] can name its shape without owning it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShapeId(u32);

/// The lazily filled `(template, mask)` → [`QueryShape`] table of a
/// [`CandidateIndex`]: an open-addressed hash table of write-once slots,
/// chained into a further block when a block's probe sequence is full.
/// A lookup is a multiplicative hash and a few atomic loads — no lock,
/// no SipHash and no reference count — and a shape never moves once
/// written, so [`Self::at`] hands out plain references.
///
/// A miss compiles the shape inside its slot's initializer; a racing
/// lookup of another key that lands on the same slot waits for it and
/// probes on. Slots are never emptied, so a key is always found before
/// the first empty slot of its probe sequence.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShapeTable {
    slots: [OnceLock<Box<QueryShape>>; BLOCK],
    next: OnceLock<Box<ShapeTable>>,
}

impl ShapeTable {
    /// The shape of `query` and its slot, compiled on its key's first
    /// sighting.
    pub(crate) fn get(
        &self,
        schema: &Schema,
        candidates: &[IndexDef],
        index: &CandidateIndex,
        query: &Query,
    ) -> (ShapeId, &QueryShape) {
        let key = (query.template, query.mask);
        let mixed = ((query.template.0 as u64) << 32 | u64::from(query.mask))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let start = (mixed >> (64 - BLOCK.trailing_zeros())) as usize;
        let mut block = self;
        let mut base = 0;
        loop {
            for probe in 0..BLOCK {
                let at = (start + probe) % BLOCK;
                let shape = block.slots[at].get_or_init(|| {
                    Box::new(QueryShape::compile(schema, candidates, index, query))
                });
                if (shape.template, shape.mask) == key {
                    #[cfg(debug_assertions)]
                    shape.check(query);
                    let id = u32::try_from(base + at).expect("shape slot fits u32");
                    return (ShapeId(id), shape);
                }
            }
            block = block.next.get_or_init(Box::default);
            base += BLOCK;
        }
    }

    /// The shape in slot `id`.
    ///
    /// # Panics
    /// Panics if slot `id` holds no shape.
    pub(crate) fn at(&self, id: ShapeId) -> &QueryShape {
        let mut block = self;
        let mut at = id.0 as usize;
        while at >= BLOCK {
            block = block.next.get().expect("shape slot out of range");
            at -= BLOCK;
        }
        block.slots[at].get().expect("shape slot is empty")
    }

    /// Number of compiled shapes.
    pub(crate) fn len(&self) -> usize {
        let here = self.slots.iter().filter(|s| s.get().is_some()).count();
        here + self.next.get().map_or(0, |next| next.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_candidates;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use std::sync::Arc;
    use workload::{paper_templates, TemplateId, WorkloadConfig, WorkloadGenerator};

    /// More keys than one block holds chain into further blocks: every
    /// key compiles once, keeps its slot, and reads back through it.
    #[test]
    fn keys_beyond_one_block_chain_into_further_blocks() {
        let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
        let candidates = generate_candidates(&schema, &paper_templates(&schema), 65);
        let index = CandidateIndex::build(&schema, &candidates);
        let query =
            WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 1).next_query();
        // One list set under many keys: shapes compile from the query's
        // own lists, so each key's debug check holds.
        let keyed = |t: usize, mask: u32| Query {
            template: TemplateId(t),
            mask,
            ..query.clone()
        };
        let keys: Vec<(usize, u32)> = (0..5).flat_map(|t| (0..30).map(move |m| (t, m))).collect();
        let mut slots = Vec::new();
        for &(t, m) in &keys {
            let (id, shape) = index.shape(&schema, &candidates, &keyed(t, m));
            assert_eq!((shape.template, shape.mask), (TemplateId(t), m));
            slots.push(id);
        }
        assert_eq!(index.compiled_shapes(), keys.len());
        for (&(t, m), &id) in keys.iter().zip(&slots) {
            let (again, shape) = index.shape(&schema, &candidates, &keyed(t, m));
            assert_eq!(again, id, "key ({t}, {m}) moved");
            assert!(std::ptr::eq(shape, index.shape_at(id)));
        }
        assert_eq!(
            index.compiled_shapes(),
            keys.len(),
            "a hit compiles nothing"
        );
    }
}

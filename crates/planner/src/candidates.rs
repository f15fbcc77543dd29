//! Candidate index generation — the stand-in for DB2's advisor.
//!
//! Section VII-A of the paper: *"We use 65 potentially useful indexes from
//! DB2's 'recommend indexes' mode recommendations."* DB2's advisor derives
//! candidates from the workload's predicates, sort orders and projections;
//! we do the same from the resolved templates:
//!
//! 1. a single-column index on every sargable predicate column;
//! 2. predicate + second predicate composites (multi-predicate templates);
//! 3. predicate + sort-column composites (order-by-piggyback);
//! 4. covering indexes (predicate + every projected column of the access)
//!    when the key stays reasonably narrow;
//! 5. two-column composites of a predicate column with each projected
//!    column (partial covering).
//!
//! Candidates are deduplicated by key-column list and capped (default 65,
//! matching the paper) in generation-priority order — single-column and
//! sort composites first, wide covering sets last.

use cache::{IndexDef, IndexId, ROW_LOCATOR_BYTES};
use catalog::{ColumnId, Schema, TableId};
use std::collections::HashSet;
use workload::{Query, ResolvedTemplate};

use crate::shapes::{QueryShape, ShapeId, ShapeTable};

/// Maximum key width (bytes per entry) for generated covering candidates.
const MAX_COVERING_ENTRY_BYTES: u64 = 64;

/// The paper's candidate budget.
pub const PAPER_CANDIDATE_CAP: usize = 65;

/// Generates up to `cap` candidate indexes for the template set.
///
/// Deterministic: depends only on schema and template order.
#[must_use]
pub fn generate_candidates(
    schema: &Schema,
    templates: &[ResolvedTemplate],
    cap: usize,
) -> Vec<IndexDef> {
    let mut seen: HashSet<Vec<ColumnId>> = HashSet::new();
    let mut out: Vec<IndexDef> = Vec::new();
    let push =
        |out: &mut Vec<IndexDef>, seen: &mut HashSet<Vec<ColumnId>>, table, keys: Vec<ColumnId>| {
            if keys.is_empty() || out.len() >= cap {
                return;
            }
            if seen.insert(keys.clone()) {
                out.push(IndexDef {
                    id: IndexId(out.len() as u32),
                    table,
                    key_columns: keys,
                });
            }
        };

    // Pass 1: single-column predicate indexes (most reusable).
    for t in templates {
        for a in &t.accesses {
            for &p in &a.predicates {
                push(&mut out, &mut seen, a.table, vec![p]);
            }
        }
    }
    // Pass 2: predicate + predicate composites.
    for t in templates {
        for a in &t.accesses {
            for &p1 in &a.predicates {
                for &p2 in &a.predicates {
                    if p1 != p2 {
                        push(&mut out, &mut seen, a.table, vec![p1, p2]);
                    }
                }
            }
        }
    }
    // Pass 3: predicate + sort-column composites (same table only).
    for t in templates {
        for a in &t.accesses {
            let table_sorts: Vec<ColumnId> = t
                .sort_columns
                .iter()
                .copied()
                .filter(|&s| schema.column(s).table == a.table)
                .collect();
            for &p in &a.predicates {
                for &s in &table_sorts {
                    if s != p {
                        push(&mut out, &mut seen, a.table, vec![p, s]);
                    }
                }
                if table_sorts.len() > 1 {
                    let mut keys = vec![p];
                    keys.extend(table_sorts.iter().copied().filter(|&s| s != p));
                    push(&mut out, &mut seen, a.table, keys);
                }
            }
        }
    }
    // Pass 4: covering indexes (predicate first, then every projected
    // column), kept only when the entry stays narrow.
    for t in templates {
        for a in &t.accesses {
            for &p in &a.predicates {
                let mut keys = vec![p];
                for &c in a.required.iter().chain(a.optional.iter()) {
                    if !keys.contains(&c) {
                        keys.push(c);
                    }
                }
                let entry: u64 = keys.iter().map(|&c| schema.column(c).byte_width()).sum();
                if entry <= MAX_COVERING_ENTRY_BYTES {
                    push(&mut out, &mut seen, a.table, keys);
                }
            }
        }
    }
    // Pass 5: predicate × projected-column pairs (partial covering).
    for t in templates {
        for a in &t.accesses {
            for &p in &a.predicates {
                for &c in a.required.iter().chain(a.optional.iter()) {
                    if c != p {
                        push(&mut out, &mut seen, a.table, vec![p, c]);
                    }
                }
            }
        }
    }
    // Pass 6: single-column indexes on sort columns (ORDER BY piggyback
    // without a predicate — DB2 recommends these for sort elimination).
    for t in templates {
        for &s in &t.sort_columns {
            push(&mut out, &mut seen, schema.column(s).table, vec![s]);
        }
    }
    // Pass 7: single-column indexes on every projected column (join keys
    // and fetch acceleration — the long tail of advisor output).
    for t in templates {
        for a in &t.accesses {
            for &c in a.required.iter().chain(a.optional.iter()) {
                push(&mut out, &mut seen, a.table, vec![c]);
            }
        }
    }
    // Pass 8: predicate + two projected columns (three-column partial
    // covering composites).
    for t in templates {
        for a in &t.accesses {
            let proj: Vec<ColumnId> = a
                .required
                .iter()
                .chain(a.optional.iter())
                .copied()
                .collect();
            for &p in &a.predicates {
                for (i, &c1) in proj.iter().enumerate() {
                    for &c2 in proj.iter().skip(i + 1) {
                        if c1 != p && c2 != p {
                            push(&mut out, &mut seen, a.table, vec![p, c1, c2]);
                        }
                    }
                }
            }
        }
    }
    out
}

/// One candidate as seen through the per-table index: its position in the
/// candidate registry plus the precomputed index-entry width (key columns
/// + row locator) the scorer needs.
#[derive(Debug, Clone, Copy)]
pub struct TableCandidate {
    /// Position in the candidate slice the index was built over.
    pub pos: usize,
    /// Bytes per index entry: Σ key-column widths + [`ROW_LOCATOR_BYTES`].
    pub entry_bytes: u64,
}

/// A prebuilt table → candidates index.
///
/// The enumerator scores candidate indexes per table access; scanning the
/// full 65-candidate registry per access (the seed behaviour) wastes most
/// of the scan on other tables and recomputes every candidate's entry
/// width from the schema each time. This index is built once next to the
/// candidate registry and shared read-only by every planning call.
///
/// Candidate order *within a table* preserves registry order, so scoring
/// ties break identically to a full registry scan.
///
/// The index also owns the lazily filled table of compiled query shapes
/// ([`crate::shapes`]), which depend on the schema and the candidates
/// alone.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    by_table: Vec<Vec<TableCandidate>>,
    shapes: ShapeTable,
}

impl CandidateIndex {
    /// Builds the index over `candidates` (pair it with the exact slice
    /// handed to the planner context).
    #[must_use]
    pub fn build(schema: &Schema, candidates: &[IndexDef]) -> Self {
        let mut by_table: Vec<Vec<TableCandidate>> = Vec::new();
        for (pos, def) in candidates.iter().enumerate() {
            let t = def.table.0 as usize;
            if t >= by_table.len() {
                by_table.resize_with(t + 1, Vec::new);
            }
            let entry_bytes: u64 = def
                .key_columns
                .iter()
                .map(|&c| schema.column(c).byte_width())
                .sum::<u64>()
                + ROW_LOCATOR_BYTES;
            by_table[t].push(TableCandidate { pos, entry_bytes });
        }
        CandidateIndex {
            by_table,
            shapes: ShapeTable::default(),
        }
    }

    /// The compiled shape of `query` over `schema` and `candidates` (the
    /// slice the index was built over) and its slot; see
    /// [`crate::PlannerContext::shape`].
    pub(crate) fn shape(
        &self,
        schema: &Schema,
        candidates: &[IndexDef],
        query: &Query,
    ) -> (ShapeId, &QueryShape) {
        self.shapes.get(schema, candidates, self, query)
    }

    /// The compiled shape in slot `id`.
    pub(crate) fn shape_at(&self, id: ShapeId) -> &QueryShape {
        self.shapes.at(id)
    }

    /// Number of query shapes compiled so far.
    #[must_use]
    pub fn compiled_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// Candidates on `table`, in registry order.
    #[must_use]
    pub fn for_table(&self, table: TableId) -> &[TableCandidate] {
        self.by_table
            .get(table.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Total candidates indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_table.iter().map(Vec::len).sum()
    }

    /// True if no candidates are indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use workload::paper_templates;

    fn candidates(cap: usize) -> (Schema, Vec<IndexDef>) {
        let schema = tpch_schema(ScaleFactor(1.0));
        let templates = paper_templates(&schema);
        let c = generate_candidates(&schema, &templates, cap);
        (schema, c)
    }

    #[test]
    fn generates_the_paper_cap_of_65() {
        let (_, c) = candidates(PAPER_CANDIDATE_CAP);
        assert_eq!(c.len(), 65, "workload must yield ≥ 65 candidates");
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let (_, c) = candidates(65);
        for (i, idx) in c.iter().enumerate() {
            assert_eq!(idx.id, IndexId(i as u32));
        }
    }

    #[test]
    fn no_duplicate_key_lists() {
        let (_, c) = candidates(65);
        let mut keys: Vec<&Vec<ColumnId>> = c.iter().map(|i| &i.key_columns).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), c.len());
    }

    #[test]
    fn keys_belong_to_the_index_table() {
        let (schema, c) = candidates(65);
        for idx in &c {
            for &k in &idx.key_columns {
                assert_eq!(
                    schema.column(k).table,
                    idx.table,
                    "{} key {k} from wrong table",
                    idx.id
                );
            }
        }
    }

    #[test]
    fn every_sargable_predicate_gets_a_single_column_index() {
        let schema = tpch_schema(ScaleFactor(1.0));
        let templates = paper_templates(&schema);
        let c = generate_candidates(&schema, &templates, 65);
        for t in &templates {
            for a in &t.accesses {
                for &p in &a.predicates {
                    assert!(
                        c.iter().any(|i| i.serves_predicate(p)),
                        "no candidate serves predicate {p} of {}",
                        t.name
                    );
                }
            }
        }
    }

    #[test]
    fn cap_is_respected() {
        let (_, c) = candidates(10);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn candidate_index_partitions_the_registry_in_order() {
        let (schema, c) = candidates(65);
        let index = CandidateIndex::build(&schema, &c);
        assert_eq!(index.len(), c.len());
        assert!(!index.is_empty());
        let mut seen = 0;
        for table in 0..schema.tables().len() as u32 {
            let slice = index.for_table(TableId(table));
            for tc in slice {
                assert_eq!(c[tc.pos].table, TableId(table));
                let expected: u64 = c[tc.pos]
                    .key_columns
                    .iter()
                    .map(|&k| schema.column(k).byte_width())
                    .sum::<u64>()
                    + ROW_LOCATOR_BYTES;
                assert_eq!(tc.entry_bytes, expected);
            }
            assert!(
                slice.windows(2).all(|w| w[0].pos < w[1].pos),
                "registry order preserved"
            );
            seen += slice.len();
        }
        assert_eq!(seen, c.len());
    }

    #[test]
    fn singles_come_before_composites() {
        let (_, c) = candidates(65);
        let first_composite = c.iter().position(|i| i.key_columns.len() > 1).unwrap();
        assert!(
            c[..first_composite]
                .iter()
                .all(|i| i.key_columns.len() == 1),
            "pass-1 singles must lead"
        );
        assert!(first_composite >= 5, "several sargable predicates exist");
    }
}

//! The cache-independent half of plan enumeration, for batched quote
//! rounds.
//!
//! In a fleet quote round every node bidding on the same query plans the
//! same query — yet most of that work (backend estimate, candidate index
//! choice, per-variant execution volumes, build-cost shapes) reads only
//! the [`PlannerContext`] and the query, never a node's cache state. A
//! [`PlanSkeleton`] captures exactly that half, so a batched round
//! computes it **once** and binds it against every bidding node's cache
//! in one structure-major sweep ([`crate::batch`]): which structures
//! exist, which are still building, and what amortisation/maintenance
//! dues they carry.
//!
//! The split is exact: for any cache state, clock and enumeration
//! options, a node's batched bid rows are **bit-identical** to the hot
//! rows of fused enumeration ([`crate::bind_plans_into`]) against that
//! node's cache — same order, same times, prices and existing flags.
//! `tests/batch_completion.rs` pins the property over random cache
//! histories; the fleet's routing determinism rests on it. Planning for
//! one node (a serve or a per-node quote) binds the query's rows to its
//! cache directly, so a skeleton exists only inside a batched round.
//!
//! The skeleton is a *superset*: it is built with every plan family
//! enabled (indexes and extra nodes), and binding filters by each node's
//! [`crate::EnumerationOptions`]. One skeleton therefore serves
//! heterogeneous nodes (econ-cheap, econ-fast, econ-col) in the same
//! quote round. Hot per-(variant, node-count) execution fields are stored
//! in struct-of-arrays form ([`ExecCells`]), matching the SoA selection
//! scans in [`crate::soa`].
//!
//! [`ExecRows`] is the execution-row half on its own: the backend row
//! and every variant's cells, a pure function of the planner context and
//! the query. A fleet arrival fills them once, and its budget-decided
//! bids, its skeleton ([`PlanSkeleton::from_rows`]), its per-node bids
//! and the winner's serve all read that one fill.

use std::sync::Arc;

use cache::StructureKey;
use catalog::ColumnId;
use metrics::CostBreakdown;
use pricing::Money;
use simcore::SimDuration;
use workload::Query;

use crate::enumerate::PlannerContext;
use crate::shapes::QueryShape;

/// One key column's standalone fetch quote (eq. 12), charged at
/// completion time only when the column is neither cached nor already
/// among the plan's missing columns.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyFetch {
    /// The key column.
    pub column: ColumnId,
    /// Transfer cost if the fetch is charged.
    pub cost: Money,
}

/// The cache-independent build-cost shape of one structure in a variant's
/// `uses` list. Bids read build costs only (through first installments),
/// never build times.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildShape {
    /// Column transfer from the back-end (eq. 12): the full quote.
    Column {
        /// Build cost.
        cost: Money,
    },
    /// Index build (eq. 14), decomposed: the sort plan over the keyed
    /// data (always charged) plus per-key-column fetches (conditionally
    /// charged — a key column already cached, or being built by the same
    /// plan, is not fetched twice).
    Index {
        /// Sort-plan cost (CPU + I/O), fetches excluded.
        sort_cost: Money,
        /// Conditional fetch quotes, in key-column order.
        keys: Vec<KeyFetch>,
    },
}

/// Per-(node-count) execution cells of one index variant, struct-of-arrays:
/// the skyline/selection hot fields live in parallel slices instead of
/// being scattered across plan structs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecCells {
    /// Total CPU nodes employed per cell (mirrors
    /// `CostParams::node_options` order).
    pub nodes: Vec<u32>,
    /// Wall-clock execution time per cell.
    pub time: Vec<SimDuration>,
    /// Execution cost `Ce` per cell.
    pub cost: Vec<Money>,
    /// Per-resource split of the execution cost per cell.
    pub breakdown: Vec<CostBreakdown>,
}

impl ExecCells {
    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no cells are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.time.clear();
        self.cost.clear();
        self.breakdown.clear();
    }

    fn push(&mut self, nodes: u32, time: SimDuration, cost: Money, breakdown: CostBreakdown) {
        self.nodes.push(nodes);
        self.time.push(time);
        self.cost.push(cost);
        self.breakdown.push(breakdown);
    }
}

/// One index-assignment variant of the skeleton: the scan-only variant,
/// or the best-index variant when any access has a serving candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSkeleton {
    /// True for the indexed variant — skipped at completion when the
    /// policy forbids index plans.
    pub uses_indexes: bool,
    /// Data structures the variant employs: accessed columns in
    /// first-seen order, then the assigned indexes. Extra CPU nodes are
    /// appended per node count at completion.
    pub uses: Vec<StructureKey>,
    /// Build-cost shape per entry of `uses` (parallel).
    pub builds: Vec<BuildShape>,
    /// Execution estimates at every node count (SoA).
    pub cells: ExecCells,
}

/// The deduplicated cache-probe table of a skeleton: the union of every
/// variant's `uses` plus index key-fetch columns, with per-variant
/// position maps back into it.
///
/// A pure function of the variants, computed once in
/// [`PlanSkeleton::build`], so a batched completion round
/// ([`planner::batch`](crate::batch)) reads the table instead of
/// re-deduplicating per gather.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTable {
    /// Distinct structures, first-seen order: each is probed once per
    /// node per gather, however many variants reference it.
    pub keys: Vec<StructureKey>,
    /// Per entry of `keys`: whether some variant *uses* the structure
    /// (amortisation/maintenance lanes needed) or it is referenced only
    /// for key-fetch presence.
    pub priced: Vec<bool>,
    /// Flat per-variant maps of `uses` position → index into `keys`;
    /// variant `vi` owns `uses_map[uses_off[vi]..uses_off[vi + 1]]`.
    uses_map: Vec<u32>,
    /// Variant offsets into `uses_map` (and, position-wise, `key_off`).
    uses_off: Vec<u32>,
    /// Flat key-fetch resolutions `(in_variant, index into keys)` of
    /// every index build, in variant-then-position order. `in_variant`
    /// is the node-independent half of the coverage rule: a variant-used
    /// key column is either present or built alongside the index, so it
    /// is never fetched standalone.
    key_map: Vec<(bool, u32)>,
    /// Per global `uses` position (`uses_off[vi] + pos`): offsets into
    /// `key_map` — an empty span for column builds.
    key_off: Vec<u32>,
}

impl ProbeTable {
    /// Variant `vi`'s `uses` position → probe-table index map.
    #[must_use]
    pub fn uses_probe(&self, vi: usize) -> &[u32] {
        &self.uses_map[self.uses_off[vi] as usize..self.uses_off[vi + 1] as usize]
    }

    /// Variant `vi`'s position-`pos` index build, resolved per key
    /// column to `(in_variant, probe-table index)` — empty for column
    /// builds.
    #[must_use]
    pub fn key_probe(&self, vi: usize, pos: usize) -> &[(bool, u32)] {
        let g = self.uses_off[vi] as usize + pos;
        &self.key_map[self.key_off[g] as usize..self.key_off[g + 1] as usize]
    }

    fn build(variants: &[VariantSkeleton]) -> ProbeTable {
        let mut t = ProbeTable::default();
        t.uses_off.push(0);
        t.key_off.push(0);
        for variant in variants {
            for &key in &variant.uses {
                let u = match t.keys.iter().position(|&k| k == key) {
                    Some(u) => {
                        t.priced[u] = true;
                        u
                    }
                    None => {
                        t.keys.push(key);
                        t.priced.push(true);
                        t.keys.len() - 1
                    }
                };
                t.uses_map.push(u as u32);
            }
            t.uses_off.push(t.uses_map.len() as u32);
            for build in &variant.builds {
                if let BuildShape::Index { keys, .. } = build {
                    for kf in keys {
                        let col = StructureKey::Column(kf.column);
                        let in_variant = variant.uses.contains(&col);
                        let u = match t.keys.iter().position(|&k| k == col) {
                            Some(u) => u,
                            None => {
                                t.keys.push(col);
                                t.priced.push(false);
                                t.keys.len() - 1
                            }
                        };
                        t.key_map.push((in_variant, u as u32));
                    }
                }
                t.key_off.push(t.key_map.len() as u32);
            }
        }
        t
    }
}

/// Everything about a query's plan set that does not depend on any node's
/// cache state — computed once per query, shared across every node that
/// bids on it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSkeleton {
    /// Backend execution time (eq. 9).
    pub backend_time: SimDuration,
    /// Backend execution cost.
    pub backend_cost: Money,
    /// Extra-CPU-node build cost (eq. 10).
    pub node_build_cost: Money,
    /// Index variants: scan-only first, then the best-index variant when
    /// one exists.
    pub variants: Vec<VariantSkeleton>,
    /// The variants' deduplicated probe table, for batched completion.
    pub probe: ProbeTable,
}

/// Kept only because the repository benchmark names it; inert; removed
/// by ROADMAP item 5. The counters of [`SkeletonCache`]: always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SkeletonCacheCounters {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
    /// Always 0.
    pub admissions: u64,
}

/// Kept only because the repository benchmark names it; inert; removed
/// by ROADMAP item 5. It caches nothing: a batched quote round builds
/// its query's [`PlanSkeleton`] itself.
#[derive(Debug, Default)]
pub struct SkeletonCache;

impl SkeletonCache {
    /// The inert cache.
    #[must_use]
    pub fn new() -> Self {
        SkeletonCache
    }

    /// All zeros.
    #[must_use]
    pub fn counters(&self) -> SkeletonCacheCounters {
        SkeletonCacheCounters::default()
    }
}

/// The cache-independent execution rows of a query's plan set: the
/// backend estimate (eq. 9) and, per index variant, the execution cells
/// at every node count (eq. 8 under the scaling law). Every plan any
/// planner emits takes its `(exec_time, exec_cost)` from one of these
/// rows. Only the installments and maintenance a plan adds to its price
/// depend on the cache.
///
/// The rows are a pure function of `(PlannerContext, query)`, and they
/// never read the query's `budget_scale`. So one fill serves every
/// consumer of an arrival: a budget-decided bid, a batched round's
/// [`PlanSkeleton`] ([`PlanSkeleton::from_rows`]), each per-node bid and
/// the winner's serve ([`crate::bind_plans_into`]), a budget-decayed
/// retry included. [`Self::fill`] refills the storage in place, so a
/// long-lived `ExecRows` performs no steady-state allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecRows {
    /// The query's compiled shape; `None` until the first fill.
    shape: Option<Arc<QueryShape>>,
    /// Backend execution time.
    pub backend_time: SimDuration,
    /// Backend execution cost.
    pub backend_cost: Money,
    /// Backend per-resource cost split.
    pub backend_breakdown: CostBreakdown,
    /// The scan variant's cells, then the best-index variant's (empty
    /// unless the shape is indexed).
    cells: [ExecCells; 2],
}

impl ExecRows {
    /// Empty rows, to be [filled](Self::fill).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Estimates and prices every execution row of `query`, with every
    /// plan family enabled and no cache state consulted.
    #[must_use]
    pub fn build(ctx: &PlannerContext<'_>, query: &Query) -> ExecRows {
        let mut rows = ExecRows::new();
        rows.fill(ctx, query);
        rows
    }

    /// Refills the rows with `query`'s, reusing their storage.
    pub fn fill(&mut self, ctx: &PlannerContext<'_>, query: &Query) {
        let shape = ctx.shape(query);
        let backend = ctx.estimator.backend_execution_shaped(&shape, query);
        (self.backend_cost, self.backend_breakdown) = ctx.estimator.price_execution(&backend);
        self.backend_time = backend.time;
        let [scan, indexed] = &mut self.cells;
        fill_cells(ctx, query, &shape, false, scan);
        if shape.indexed {
            fill_cells(ctx, query, &shape, true, indexed);
        } else {
            indexed.clear();
        }
        self.shape = Some(shape);
    }

    /// The compiled shape of the query the rows were filled from.
    ///
    /// # Panics
    /// Panics if the rows were never filled.
    #[must_use]
    pub fn shape(&self) -> &QueryShape {
        self.shape
            .as_deref()
            .expect("execution rows read before a fill")
    }

    /// Number of index variants: the scan variant, plus the best-index
    /// variant when any access has a serving candidate.
    ///
    /// # Panics
    /// Panics if the rows were never filled.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        1 + usize::from(self.shape().indexed)
    }

    /// Variant `vi`'s cells: 0 is the scan variant, 1 the best-index
    /// variant.
    ///
    /// # Panics
    /// Panics if `vi` is not below [`Self::variant_count`].
    #[must_use]
    pub fn cells(&self, vi: usize) -> &ExecCells {
        assert!(vi < self.variant_count(), "variant {vi} out of range");
        &self.cells[vi]
    }

    /// Every row's `(time, cost)`: the backend first, then each
    /// variant's cells in order.
    ///
    /// # Panics
    /// Panics if the rows were never filled.
    pub fn rows(&self) -> impl Iterator<Item = (SimDuration, Money)> + '_ {
        std::iter::once((self.backend_time, self.backend_cost)).chain(
            self.cells[..self.variant_count()]
                .iter()
                .flat_map(|cells| cells.time.iter().copied().zip(cells.cost.iter().copied())),
        )
    }
}

/// Refills `cells` with one index variant's execution cells (eq. 8
/// under the scaling law) at every configured node count. The variant
/// is the shape's scan variant, or its best-index variant when
/// `indexed`. [`ExecRows::fill`] is the only caller.
fn fill_cells(
    ctx: &PlannerContext<'_>,
    query: &Query,
    shape: &QueryShape,
    indexed: bool,
    cells: &mut ExecCells,
) {
    // Node-count-independent execution volumes (eq. 8's q_tot / io_tot).
    let base = ctx
        .estimator
        .cache_execution_base_shaped(shape, query, indexed);
    cells.clear();
    for &k in &ctx.estimator.params().node_options {
        let est = ctx.estimator.scale_cache_execution(&base, k);
        let (cost, breakdown) = ctx.estimator.price_execution(&est);
        cells.push(k, est.time, cost, breakdown);
    }
}

impl PlanSkeleton {
    /// The most extra CPU nodes any cell employs (its node count − 1).
    pub(crate) fn max_extra_nodes(&self) -> u32 {
        self.variants
            .iter()
            .flat_map(|v| v.cells.nodes.iter())
            .max()
            .map_or(0, |k| k.saturating_sub(1))
    }

    /// Builds the skeleton for `query`: every plan family enabled, no
    /// cache state consulted. Deterministic — two builds from the same
    /// context and query are identical.
    #[must_use]
    pub fn build(ctx: &PlannerContext<'_>, query: &Query) -> PlanSkeleton {
        Self::from_rows(ctx, &ExecRows::build(ctx, query))
    }

    /// Builds the skeleton of the query `rows` were filled from, taking
    /// its backend row and cells from them instead of recomputing them.
    ///
    /// # Panics
    /// Panics if `rows` were never filled.
    #[must_use]
    pub fn from_rows(ctx: &PlannerContext<'_>, rows: &ExecRows) -> PlanSkeleton {
        let shape = rows.shape();
        let (node_build_cost, _) = ctx.estimator.build_node();
        let variants: Vec<VariantSkeleton> = (0..rows.variant_count())
            .map(|vi| build_variant(ctx, shape, vi == 1, rows.cells(vi).clone()))
            .collect();
        let probe = ProbeTable::build(&variants);
        PlanSkeleton {
            backend_time: rows.backend_time,
            backend_cost: rows.backend_cost,
            node_build_cost,
            variants,
            probe,
        }
    }
}

/// Builds one variant's skeleton — the scan variant, or the shape's
/// best-index variant when `indexed` — from its execution cells.
fn build_variant(
    ctx: &PlannerContext<'_>,
    shape: &QueryShape,
    indexed: bool,
    cells: ExecCells,
) -> VariantSkeleton {
    // Same uses order as the fused enumerator: accessed columns
    // deduplicated in first-seen order, then each assigned index.
    let uses: Vec<StructureKey> = shape
        .columns
        .iter()
        .map(|&c| StructureKey::Column(c))
        .chain(
            shape
                .picks()
                .flatten()
                .filter(|_| indexed)
                .map(|pos| StructureKey::Index(ctx.candidates[pos].id)),
        )
        .collect();

    let builds: Vec<BuildShape> = uses
        .iter()
        .map(|&key| match key {
            StructureKey::Column(c) => BuildShape::Column {
                cost: ctx.estimator.column_quote(ctx.schema, c).0,
            },
            StructureKey::Index(id) => {
                let pos = id.index();
                let (sort_cost, _) =
                    ctx.estimator
                        .index_sort_quote(ctx.schema, ctx.candidates, pos);
                let keys = ctx.candidates[pos]
                    .key_columns
                    .iter()
                    .map(|&c| KeyFetch {
                        column: c,
                        cost: ctx.estimator.column_quote(ctx.schema, c).0,
                    })
                    .collect();
                BuildShape::Index { sort_cost, keys }
            }
            StructureKey::Node(_) => unreachable!("nodes are appended per node count"),
        })
        .collect();

    VariantSkeleton {
        uses_indexes: indexed,
        uses,
        builds,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateIndex};
    use crate::estimator::{CostParams, Estimator};
    use cache::IndexDef;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use catalog::Schema;
    use pricing::PriceCatalog;
    use simcore::NetworkModel;
    use std::sync::Arc;
    use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

    struct Fixture {
        schema: Arc<Schema>,
        candidates: Vec<IndexDef>,
        cand_index: CandidateIndex,
        estimator: Estimator,
    }

    impl Fixture {
        fn new() -> Self {
            let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
            let templates = paper_templates(&schema);
            let candidates = generate_candidates(&schema, &templates, 65);
            let cand_index = CandidateIndex::build(&schema, &candidates);
            let estimator = Estimator::new(
                CostParams::default(),
                PriceCatalog::ec2_2009(),
                NetworkModel::paper_sdss(),
            );
            Fixture {
                schema,
                candidates,
                cand_index,
                estimator,
            }
        }

        fn ctx(&self) -> PlannerContext<'_> {
            PlannerContext {
                schema: &self.schema,
                candidates: &self.candidates,
                cand_index: &self.cand_index,
                estimator: &self.estimator,
            }
        }

        fn query(&self, seed: u64) -> Query {
            WorkloadGenerator::new(Arc::clone(&self.schema), WorkloadConfig::default(), seed)
                .next_query()
        }
    }

    #[test]
    fn skeleton_is_deterministic() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let q = f.query(7);
        assert_eq!(PlanSkeleton::build(&ctx, &q), PlanSkeleton::build(&ctx, &q));
    }

    #[test]
    fn skeleton_cells_cover_every_node_option() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let skel = PlanSkeleton::build(&ctx, &f.query(1));
        for v in &skel.variants {
            assert_eq!(v.cells.nodes, f.estimator.params().node_options);
            assert_eq!(v.cells.len(), v.cells.time.len());
            assert_eq!(v.cells.len(), v.cells.cost.len());
            assert_eq!(v.uses.len(), v.builds.len());
        }
    }

    #[test]
    fn exec_rows_are_the_skeletons_rows() {
        let f = Fixture::new();
        let ctx = f.ctx();
        for i in 0..8 {
            let q = f.query(i);
            let rows = ExecRows::build(&ctx, &q);
            let skel = PlanSkeleton::build(&ctx, &q);
            let mut expected = vec![(skel.backend_time, skel.backend_cost)];
            for v in &skel.variants {
                expected.extend(
                    v.cells
                        .time
                        .iter()
                        .copied()
                        .zip(v.cells.cost.iter().copied()),
                );
            }
            assert_eq!(rows.rows().collect::<Vec<_>>(), expected, "query {i}");
            assert_eq!(rows.variant_count(), skel.variants.len());
        }
    }
}

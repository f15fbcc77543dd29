//! The cache-independent half of plan enumeration: a query's execution
//! rows.
//!
//! Every node planning the same query plans the same execution rows —
//! the backend estimate (eq. 9) and, per index variant, the execution
//! cells at every node count (eq. 8 under the scaling law) read only the
//! [`PlannerContext`] and the query, never a cache. [`ExecRows`] holds
//! exactly those rows, so a fleet arrival fills them once: its
//! budget-decided check reads that one fill, and every node's bid and
//! the winner's serve bind it to their caches
//! ([`crate::bind_plans_into`]), whose [`crate::PlanRows`] are terms
//! over these cells rather than copies of them. Hot per-(variant,
//! node-count) fields are stored in struct-of-arrays form
//! ([`ExecCells`]), matching the SoA selection scans in [`crate::soa`].
//!
//! A fill prices each term once: a variant's I/O term serves all of its
//! node counts, and the scaling law's per-node-count factors are the
//! estimator's, computed once. The rows name their compiled shape by its
//! slot in the candidate index ([`ExecRows::shape`] reads it back
//! through the context), so a fill hashes no key and clones no shared
//! pointer.

use metrics::CostBreakdown;
use pricing::Money;
use simcore::SimDuration;
use workload::Query;

use crate::enumerate::PlannerContext;
use crate::shapes::{QueryShape, ShapeId};

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
/// by ROADMAP item 5. It caches nothing.
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
/// at every node count (eq. 8 under the scaling law). Every plan
/// enumeration emits takes its `(exec_time, exec_cost)` from one of these
/// rows. Only the installments and maintenance a plan adds to its price
/// depend on the cache.
///
/// The rows are a pure function of `(PlannerContext, query)`, and they
/// never read the query's `budget_scale`. So one fill serves every
/// consumer of an arrival: a budget-decided bid, each node's bid and
/// the winner's serve ([`crate::bind_plans_into`]), a budget-decayed
/// retry included. [`Self::fill`] refills the storage in place, so a
/// long-lived `ExecRows` performs no steady-state allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecRows {
    /// The slot of the query's compiled shape in the planner context's
    /// candidate index; `None` until the first fill.
    shape: Option<ShapeId>,
    /// True if the shape has a best-index variant.
    indexed: bool,
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
        let (id, shape) = ctx.shape_slot(query);
        let backend = ctx.estimator.backend_execution_shaped(shape, query);
        (self.backend_cost, self.backend_breakdown) = ctx.estimator.price_execution(&backend);
        self.backend_time = backend.time;
        let [scan, indexed] = &mut self.cells;
        fill_cells(ctx, query, shape, false, scan);
        if shape.indexed {
            fill_cells(ctx, query, shape, true, indexed);
        } else {
            indexed.clear();
        }
        self.shape = Some(id);
        self.indexed = shape.indexed;
    }

    /// The compiled shape of the query the rows were filled from, read
    /// from `ctx`, the context they were filled through.
    ///
    /// # Panics
    /// Panics if the rows were never filled.
    #[must_use]
    pub fn shape<'c>(&self, ctx: &PlannerContext<'c>) -> &'c QueryShape {
        let id = self.shape.expect("execution rows read before a fill");
        ctx.cand_index.shape_at(id)
    }

    /// Number of index variants: the scan variant, plus the best-index
    /// variant when any access has a serving candidate.
    ///
    /// # Panics
    /// Panics if the rows were never filled.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        assert!(self.shape.is_some(), "execution rows read before a fill");
        1 + usize::from(self.indexed)
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
///
/// Each cell is [`crate::Estimator::price_execution`] of its estimate,
/// but only the CPU term depends on the node count: the I/O volume is
/// the same at every count, so its term is priced once for all of the
/// variant's cells, and a cache cell moves no WAN bytes, so its network
/// term is zero.
fn fill_cells(
    ctx: &PlannerContext<'_>,
    query: &Query,
    shape: &QueryShape,
    indexed: bool,
    cells: &mut ExecCells,
) {
    let est = ctx.estimator;
    // Node-count-independent execution volumes (eq. 8's q_tot / io_tot).
    let base = est.cache_execution_base_shaped(shape, query, indexed);
    let rates = &est.prices().rates;
    let shared = CostBreakdown {
        io: rates.io_cost(base.io_ops),
        ..CostBreakdown::ZERO
    };
    cells.clear();
    for (k, time, cpu_secs) in est.scale_cache_cells(&base) {
        let breakdown = CostBreakdown {
            cpu: rates.cpu_cost(cpu_secs),
            ..shared
        };
        cells.push(k, time, breakdown.total(), breakdown);
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
    fn exec_rows_are_deterministic_and_cover_every_node_option() {
        let f = Fixture::new();
        let ctx = f.ctx();
        for i in 0..8 {
            let q = f.query(i);
            let rows = ExecRows::build(&ctx, &q);
            assert_eq!(rows, ExecRows::build(&ctx, &q), "query {i}");
            for vi in 0..rows.variant_count() {
                let cells = rows.cells(vi);
                assert_eq!(cells.nodes, f.estimator.params().node_options);
                assert_eq!(cells.len(), cells.time.len());
                assert_eq!(cells.len(), cells.cost.len());
                assert_eq!(cells.len(), cells.breakdown.len());
            }
            assert_eq!(
                rows.rows().count(),
                1 + rows.variant_count() * f.estimator.params().node_options.len()
            );
        }
    }
}

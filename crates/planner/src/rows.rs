//! Plan sets as rows — the one compact form every planner emits.
//!
//! A plan set `P_Q` for one query holds a backend plan plus, per index
//! variant (scan-only, best-index), one cache plan per node count. The
//! variant's plans share everything but their execution cell and their
//! extra CPU nodes: the same index assignment, the same data structures,
//! the same missing data structures and build quotes. [`PlanRows`]
//! stores the set that way:
//!
//! * **hot rows** ([`PlanHot`]): time, price and the existing flag, the
//!   only fields the skyline and the case analysis read;
//! * **per-row scalars**: execution cost and breakdown, build cost and
//!   time, amortisation, maintenance, variant and node count;
//! * **per-variant shared lists**: the index assignment, the data
//!   structures used and the missing ones;
//! * **per-node-ordinal state**: whether each extra CPU node is usable
//!   (with its amortisation due and maintenance quote) or must be built.
//!   A row with `k` nodes employs ordinals `0..k-1`.
//!
//! Fused enumeration ([`crate::bind_plans_into`]) writes this form,
//! so the economy selects straight on the rows and runs the chosen plan
//! from its row ([`PlanRows::row`]); [`PlanRows::plan`] materializes a
//! row as a [`QueryPlan`] for reference and tests.
//!
//! Every price is a sum of exact integer [`Money`] terms, so the
//! aggregates summed per variant and per node ordinal equal the per-plan
//! sums of the plan structs bit for bit, whatever the summation order.

use cache::{CacheState, CachedStructure, IndexId, StructureKey};
use catalog::ColumnId;
use metrics::CostBreakdown;
use pricing::Money;
use simcore::{SimDuration, SimTime};

use crate::exec_rows::ExecCells;
use crate::plan::{PlanShape, QueryPlan};
use crate::soa::PlanHot;

/// Variant tag of the backend row.
const BACKEND: u32 = u32::MAX;

/// The lists every plan of one index variant shares.
#[derive(Debug, Clone, Default)]
pub(crate) struct VariantLists {
    /// Index assigned per table access (`None` = column scan).
    pub indexes: Vec<Option<IndexId>>,
    /// Data structures employed: accessed columns, then indexes.
    pub uses: Vec<StructureKey>,
    /// The entries of `uses` that are not usable now, in `uses` order.
    pub missing: Vec<StructureKey>,
}

impl VariantLists {
    fn clear(&mut self) {
        self.indexes.clear();
        self.uses.clear();
        self.missing.clear();
    }
}

/// One variant's cache-dependent aggregates over its data structures
/// (extra CPU nodes excluded).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DataTerms {
    /// Summed build cost of the missing data structures.
    pub build_cost: Money,
    /// Max build time of the missing data structures.
    pub build_time: SimDuration,
    /// First installments of the missing structures plus the dues of
    /// the existing ones.
    pub amortized: Money,
    /// Maintenance quotes of the existing structures.
    pub maintenance: Money,
}

impl DataTerms {
    pub(crate) const ZERO: DataTerms = DataTerms {
        build_cost: Money::ZERO,
        build_time: SimDuration::ZERO,
        amortized: Money::ZERO,
        maintenance: Money::ZERO,
    };

    /// Both sets of terms together: costs add, build times take the max
    /// (builds proceed in parallel).
    pub(crate) fn plus(self, other: DataTerms) -> DataTerms {
        DataTerms {
            build_cost: self.build_cost + other.build_cost,
            build_time: if other.build_time > self.build_time {
                other.build_time
            } else {
                self.build_time
            },
            amortized: self.amortized + other.amortized,
            maintenance: self.maintenance + other.maintenance,
        }
    }

    /// Folds in one missing structure's build quote.
    pub(crate) fn add_missing(&mut self, cost: Money, time: SimDuration, amortize_n: u64) {
        self.build_cost += cost;
        if time > self.build_time {
            self.build_time = time;
        }
        self.amortized += cost.amortize_over(amortize_n);
    }
}

/// One plan of a [`PlanRows`], borrowed ([`PlanRows::row`]): the fields
/// of its [`QueryPlan`] that running and settling it read.
#[derive(Debug, Clone, Copy)]
pub struct PlanRow<'a> {
    /// True for the backend plan.
    pub backend: bool,
    /// [`QueryPlan::exec_time`].
    pub exec_time: SimDuration,
    /// [`QueryPlan::exec_cost`].
    pub exec_cost: Money,
    /// [`QueryPlan::exec_breakdown`].
    pub exec_breakdown: CostBreakdown,
    /// [`QueryPlan::amortized_cost`].
    pub amortized_cost: Money,
    /// [`QueryPlan::maintenance_cost`].
    pub maintenance_cost: Money,
    /// The data structures employed (accessed columns, then indexes);
    /// empty for the backend plan.
    pub data: &'a [StructureKey],
    /// Extra CPU nodes employed: ordinals `0..extra_nodes`.
    pub extra_nodes: u32,
}

impl PlanRow<'_> {
    /// Every structure the plan employs, in [`QueryPlan::uses`] order:
    /// the data structures, then the extra CPU nodes.
    pub fn uses(&self) -> impl Iterator<Item = StructureKey> + '_ {
        let nodes = (0..self.extra_nodes).map(StructureKey::Node);
        self.data.iter().copied().chain(nodes)
    }
}

/// A query's plan set in row form (see the module docs). Row 0 is the
/// backend plan; the cache rows follow variant by variant, node count
/// by node count — the order [`crate::enumerate_plans`] returns plans in.
///
/// The storage is reused: every producer clears and refills it, so a
/// long-lived `PlanRows` performs no steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct PlanRows {
    hot: PlanHot,
    exec_cost: Vec<Money>,
    exec_breakdown: Vec<CostBreakdown>,
    build_cost: Vec<Money>,
    build_time: Vec<SimDuration>,
    amortized: Vec<Money>,
    maintenance: Vec<Money>,
    /// Variant of each row ([`BACKEND`] for row 0).
    variant: Vec<u32>,
    /// Total CPU nodes of each row (0 for the backend row).
    nodes: Vec<u32>,
    /// Per-variant lists; the first `live_variants` are current.
    variants: Vec<VariantLists>,
    live_variants: usize,
    /// Per extra-CPU-node ordinal: `Some((amortisation due, maintenance
    /// quote))` when usable, `None` when a plan employing it must build
    /// it. Covers every ordinal some row employs.
    node_state: Vec<Option<(Money, Money)>>,
    /// The `None` ordinals of `node_state` as keys, ascending.
    missing_nodes: Vec<StructureKey>,
    node_build_cost: Money,
    node_build_time: SimDuration,
    /// First installment of an extra node under the current horizon.
    node_installment: Money,
    /// Binding scratch: the accessed columns missing from the cache.
    pub(crate) missing_cols: Vec<ColumnId>,
}

impl PlanRows {
    /// Empty rows.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// True if no plan is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// The selection-hot rows: time, price and existing flag per plan.
    #[must_use]
    pub fn hot(&self) -> &PlanHot {
        &self.hot
    }

    /// Plan `i` as the control loop runs it, borrowed from the rows: the
    /// fields of [`Self::plan`] a serve reads, without allocating.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> PlanRow<'_> {
        let (backend, data) = match self.variant[i] {
            BACKEND => (true, &[][..]),
            vi => (false, &self.variants[vi as usize].uses[..]),
        };
        PlanRow {
            backend,
            exec_time: self.hot.time[i],
            exec_cost: self.exec_cost[i],
            exec_breakdown: self.exec_breakdown[i],
            amortized_cost: self.amortized[i],
            maintenance_cost: self.maintenance[i],
            data,
            extra_nodes: self.nodes[i].saturating_sub(1),
        }
    }

    /// Materializes plan `i` — bit-identical to the `i`-th plan of the
    /// equivalent `Vec<QueryPlan>`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn plan(&self, i: usize) -> QueryPlan {
        let row = self.row(i);
        let (shape, missing) = match self.variant[i] {
            BACKEND => (PlanShape::Backend, Vec::new()),
            vi => {
                let v = &self.variants[vi as usize];
                let nodes = self.missing_nodes(i);
                let mut missing = Vec::with_capacity(v.missing.len() + nodes.len());
                missing.extend_from_slice(&v.missing);
                missing.extend_from_slice(nodes);
                let shape = PlanShape::Cache {
                    indexes: v.indexes.clone(),
                    nodes: self.nodes[i],
                };
                (shape, missing)
            }
        };
        QueryPlan {
            shape,
            exec_time: row.exec_time,
            exec_cost: row.exec_cost,
            exec_breakdown: row.exec_breakdown,
            uses: row.uses().collect(),
            missing,
            build_cost: self.build_cost[i],
            build_time: self.build_time[i],
            amortized_cost: row.amortized_cost,
            maintenance_cost: row.maintenance_cost,
            price: self.hot.price[i],
        }
    }

    /// Materializes every plan, in row order.
    #[must_use]
    pub fn to_plans(&self) -> Vec<QueryPlan> {
        (0..self.len()).map(|i| self.plan(i)).collect()
    }

    /// Plan `i`'s missing data structures (columns and indexes) — the
    /// head of its `missing` list.
    #[must_use]
    pub fn missing_data(&self, i: usize) -> &[StructureKey] {
        match self.variant[i] {
            BACKEND => &[],
            vi => &self.variants[vi as usize].missing,
        }
    }

    /// Plan `i`'s extra CPU nodes that must be built, ascending — the
    /// tail of its `missing` list.
    #[must_use]
    pub fn missing_nodes(&self, i: usize) -> &[StructureKey] {
        let extra = self.nodes[i].saturating_sub(1);
        let n = self
            .missing_nodes
            .partition_point(|k| matches!(k, StructureKey::Node(o) if *o < extra));
        &self.missing_nodes[..n]
    }

    /// Clears the rows and writes the backend row (always existing).
    /// `node_build` is an extra CPU node's build quote (cost, boot time);
    /// `amortize_n` the horizon its first installment divides by.
    pub(crate) fn begin(
        &mut self,
        backend: (SimDuration, Money, CostBreakdown),
        node_build: (Money, SimDuration),
        amortize_n: u64,
    ) {
        assert!(amortize_n > 0, "amortization horizon must be positive");
        self.hot.clear();
        self.exec_cost.clear();
        self.exec_breakdown.clear();
        self.build_cost.clear();
        self.build_time.clear();
        self.amortized.clear();
        self.maintenance.clear();
        self.variant.clear();
        self.nodes.clear();
        self.live_variants = 0;
        self.node_state.clear();
        self.missing_nodes.clear();
        (self.node_build_cost, self.node_build_time) = node_build;
        self.node_installment = self.node_build_cost.amortize_over(amortize_n);

        let (time, cost, breakdown) = backend;
        self.push(BACKEND, 0, time, cost, breakdown, DataTerms::ZERO, true);
    }

    /// Records the state of extra node `ordinal` in `cache` at `now`, the
    /// next ordinal of [`Self::node_state`].
    pub(crate) fn probe_node<F>(
        &mut self,
        cache: &CacheState,
        ordinal: u32,
        now: SimTime,
        maint_window: SimDuration,
        price: &F,
    ) where
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let state = cache
            .get(StructureKey::Node(ordinal))
            .filter(|s| s.is_available(now))
            .map(|s| {
                let span = now.saturating_since(s.maint_paid_until).min(maint_window);
                (s.amortization_due(), price(s, span))
            });
        if state.is_none() {
            self.missing_nodes.push(StructureKey::Node(ordinal));
        }
        self.node_state.push(state);
    }

    /// Opens the next variant with cleared lists, returning its tag.
    pub(crate) fn open_variant(&mut self) -> u32 {
        if self.live_variants == self.variants.len() {
            self.variants.push(VariantLists::default());
        }
        self.variants[self.live_variants].clear();
        self.live_variants += 1;
        (self.live_variants - 1) as u32
    }

    /// Variant `vi`'s lists, for the producer to fill.
    pub(crate) fn lists(&mut self, vi: u32) -> &mut VariantLists {
        &mut self.variants[vi as usize]
    }

    /// Variant `a`'s lists (read) beside variant `b`'s (to fill), `a < b`.
    pub(crate) fn two_lists(&mut self, a: u32, b: u32) -> (&VariantLists, &mut VariantLists) {
        let (head, tail) = self.variants.split_at_mut(b as usize);
        (&head[a as usize], &mut tail[0])
    }

    /// Writes variant `vi`'s cache row for execution cell `cell` (`k`
    /// nodes): the variant's data terms plus node ordinals `0..k-1`.
    pub(crate) fn push_cache_row(
        &mut self,
        vi: u32,
        cells: &ExecCells,
        cell: usize,
        data: DataTerms,
    ) {
        let k = cells.nodes[cell];
        let (nodes, to_build) = self.node_terms(k);
        let existing = to_build == 0 && self.variants[vi as usize].missing.is_empty();
        self.push(
            vi,
            k,
            cells.time[cell],
            cells.cost[cell],
            cells.breakdown[cell],
            data.plus(nodes),
            existing,
        );
    }

    /// The terms extra-node ordinals `0..k-1` add to a `k`-node row —
    /// dues and maintenance of the usable nodes, build quote and first
    /// installment of the others — and the count of nodes to build.
    fn node_terms(&self, k: u32) -> (DataTerms, usize) {
        let mut terms = DataTerms::ZERO;
        let mut to_build = 0;
        for state in &self.node_state[..k.saturating_sub(1) as usize] {
            match state {
                Some((due, maint)) => {
                    terms.amortized += *due;
                    terms.maintenance += *maint;
                }
                None => {
                    to_build += 1;
                    terms.build_cost += self.node_build_cost;
                    terms.build_time = self.node_build_time;
                    terms.amortized += self.node_installment;
                }
            }
        }
        (terms, to_build)
    }

    #[allow(clippy::too_many_arguments)] // one parameter per row column
    fn push(
        &mut self,
        vi: u32,
        k: u32,
        time: SimDuration,
        cost: Money,
        breakdown: CostBreakdown,
        terms: DataTerms,
        existing: bool,
    ) {
        self.hot.time.push(time);
        self.hot
            .price
            .push(cost + terms.amortized + terms.maintenance);
        self.hot.existing.push(existing);
        self.exec_cost.push(cost);
        self.exec_breakdown.push(breakdown);
        self.build_cost.push(terms.build_cost);
        self.build_time.push(terms.build_time);
        self.amortized.push(terms.amortized);
        self.maintenance.push(terms.maintenance);
        self.variant.push(vi);
        self.nodes.push(k);
    }
}

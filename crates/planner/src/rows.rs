//! Plan sets as terms over the arrival's execution rows — the one
//! compact form every planner emits.
//!
//! A plan set `P_Q` for one query holds a backend plan plus, per index
//! variant (scan-only, best-index), one cache plan per node count. A
//! plan's execution time and cost are a cell of the query's
//! [`ExecRows`], which the arrival fills once and every bind shares.
//! What the cache adds to a plan's price splits into two sums: its
//! variant's data structures (the same index assignment, structures used,
//! missing structures and build quotes for every node count) and its
//! extra CPU nodes (ordinals `0..k-1` of a `k`-node plan). [`PlanRows`]
//! stores the set as exactly those terms:
//!
//! * **hot rows** ([`PlanHot`]): time, price and the existing flag, the
//!   only fields the skyline and the case analysis read;
//! * **per row**: its variant and its cell in that variant's
//!   [`ExecCells`] — nothing else;
//! * **per variant**: its summed terms and its lengths in three shared
//!   lists — the data structures used (each with the maintenance quote
//!   its settlement collects) and the missing ones. The best-index
//!   variant uses the scan variant's columns plus its indexes, so each
//!   list holds the columns first and every variant is a prefix of it;
//! * **per extra-node count**: the summed terms of ordinals `0..e`, so a
//!   row's node terms are one lookup.
//!
//! Each term is priced once per bind, however many rows share it, and a
//! row's price is its cell's cost plus its variant's and its node count's
//! terms. The economy selects straight on the hot rows and reads the
//! chosen plan from its row ([`PlanRows::row`]) against the
//! [`ExecRows`] the rows were bound from; [`PlanRows::plan`]
//! materializes a row as a [`QueryPlan`] for reference and tests.
//!
//! Every price is a sum of exact integer [`Money`] terms, so the
//! aggregates summed per variant and per node count equal the per-plan
//! sums of the plan structs bit for bit, whatever the summation order.

use cache::{CacheState, CachedStructure, IndexId, StructureKey};
use metrics::CostBreakdown;
use pricing::Money;
use simcore::{SimDuration, SimTime};

use crate::exec_rows::{ExecCells, ExecRows};
use crate::plan::{PlanShape, QueryPlan};
use crate::soa::PlanHot;

/// Variant tag of the backend row.
const BACKEND: u32 = u32::MAX;

/// One index variant's share of a plan set: its lengths in the shared
/// lists of a [`PlanRows`] and the summed terms of its data structures.
#[derive(Debug, Clone, Copy)]
struct Variant {
    /// Entries of the `uses` and `quotes` lists the variant employs.
    uses: usize,
    /// Entries of the `missing` list the variant must build.
    missing: usize,
    /// The summed terms of its data structures.
    terms: DataTerms,
}

/// Cache-dependent aggregates over a set of structures.
#[derive(Debug, Clone, Copy, Default)]
struct DataTerms {
    /// Summed build cost of the missing structures.
    build_cost: Money,
    /// Max build time of the missing structures.
    build_time: SimDuration,
    /// First installments of the missing structures plus the dues of
    /// the existing ones.
    amortized: Money,
    /// Maintenance quotes of the existing structures.
    maintenance: Money,
}

impl DataTerms {
    const ZERO: DataTerms = DataTerms {
        build_cost: Money::ZERO,
        build_time: SimDuration::ZERO,
        amortized: Money::ZERO,
        maintenance: Money::ZERO,
    };

    /// Both sets of terms together: costs add, build times take the max
    /// (builds proceed in parallel).
    fn plus(self, other: DataTerms) -> DataTerms {
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
    fn add_missing(&mut self, cost: Money, time: SimDuration, amortize_n: u64) {
        self.build_cost += cost;
        if time > self.build_time {
            self.build_time = time;
        }
        self.amortized += cost.amortize_over(amortize_n);
    }

    /// What the terms add to a plan's price.
    fn price(&self) -> Money {
        self.amortized + self.maintenance
    }
}

/// The terms extra-node ordinals `0..e` add to a row employing `e` extra
/// nodes.
#[derive(Debug, Clone, Copy)]
struct NodePrefix {
    terms: DataTerms,
    /// How many of the `e` nodes must be built.
    to_build: u32,
}

impl NodePrefix {
    const ZERO: NodePrefix = NodePrefix {
        terms: DataTerms::ZERO,
        to_build: 0,
    };
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
    /// Per entry of `data`: the maintenance quote its settlement
    /// collects (zero where the structure is missing).
    pub data_quotes: &'a [Money],
    /// Extra CPU nodes employed: ordinals `0..extra_nodes`.
    pub extra_nodes: u32,
    /// Per extra node employed: its maintenance quote (zero where the
    /// node is missing).
    pub node_quotes: &'a [Money],
}

impl PlanRow<'_> {
    /// Every structure the plan employs, in [`QueryPlan::uses`] order:
    /// the data structures, then the extra CPU nodes.
    pub fn uses(&self) -> impl Iterator<Item = StructureKey> + '_ {
        let nodes = (0..self.extra_nodes).map(StructureKey::Node);
        self.data.iter().copied().chain(nodes)
    }

    /// Each entry of [`Self::uses`] with its maintenance quote, the
    /// capped maintenance its settlement collects; the quotes sum to
    /// [`Self::maintenance_cost`]. `cache::CacheState::settle_quoted`
    /// settles a plan from them.
    pub fn quoted_uses(&self) -> impl Iterator<Item = (StructureKey, Money)> + '_ {
        let data = self
            .data
            .iter()
            .copied()
            .zip(self.data_quotes.iter().copied());
        let nodes = (0..self.extra_nodes).map(StructureKey::Node);
        data.chain(nodes.zip(self.node_quotes.iter().copied()))
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
    /// Variant of each row ([`BACKEND`] for row 0).
    variant: Vec<u32>,
    /// Each row's cell in its variant's [`ExecCells`] (0 for row 0).
    cell: Vec<u32>,
    /// The scan variant, then the best-index variant if planned.
    variants: Vec<Variant>,
    /// Data structures employed: the accessed columns, then the
    /// best-index variant's indexes.
    uses: Vec<StructureKey>,
    /// Per entry of `uses`: the capped maintenance a settlement of it
    /// collects now if it is usable, zero if it is missing.
    quotes: Vec<Money>,
    /// The entries of `uses` that are not usable now, in `uses` order.
    missing: Vec<StructureKey>,
    /// The best-index variant's index per table access.
    picks: Vec<Option<IndexId>>,
    /// The query's table accesses.
    accesses: usize,
    /// The terms of the structures added since [`Self::begin`].
    open: DataTerms,
    /// Per extra-node count `e`: the terms ordinals `0..e` add. Entry 0
    /// is zero; the table covers every count some row employs.
    node_prefix: Vec<NodePrefix>,
    /// Per extra-node ordinal: its maintenance quote when usable, zero
    /// when a plan employing it must build it.
    node_quotes: Vec<Money>,
    /// The ordinals that must be built, as keys, ascending.
    missing_nodes: Vec<StructureKey>,
    node_build_cost: Money,
    node_build_time: SimDuration,
    /// First installment of an extra node under the current horizon.
    node_installment: Money,
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

    /// Plan `i` as the control loop runs it, borrowed from the rows and
    /// `exec`, the execution rows they were bound from: the fields of
    /// [`Self::plan`] a serve reads, without allocating.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row<'a>(&'a self, i: usize, exec: &'a ExecRows) -> PlanRow<'a> {
        let vi = self.variant[i];
        if vi == BACKEND {
            return PlanRow {
                backend: true,
                exec_time: exec.backend_time,
                exec_cost: exec.backend_cost,
                exec_breakdown: exec.backend_breakdown,
                amortized_cost: Money::ZERO,
                maintenance_cost: Money::ZERO,
                data: &[],
                data_quotes: &[],
                extra_nodes: 0,
                node_quotes: &[],
            };
        }
        let v = self.variants[vi as usize];
        let cells = exec.cells(vi as usize);
        let cell = self.cell[i] as usize;
        debug_assert_eq!(
            cells.time[cell], self.hot.time[i],
            "rows read against execution rows they were not bound from"
        );
        let extra = cells.nodes[cell].saturating_sub(1);
        let nodes = &self.node_prefix[extra as usize].terms;
        PlanRow {
            backend: false,
            exec_time: cells.time[cell],
            exec_cost: cells.cost[cell],
            exec_breakdown: cells.breakdown[cell],
            amortized_cost: v.terms.amortized + nodes.amortized,
            maintenance_cost: v.terms.maintenance + nodes.maintenance,
            data: &self.uses[..v.uses],
            data_quotes: &self.quotes[..v.uses],
            extra_nodes: extra,
            node_quotes: &self.node_quotes[..extra as usize],
        }
    }

    /// Materializes plan `i` against `exec`, the execution rows the rows
    /// were bound from — bit-identical to the `i`-th plan of the
    /// equivalent `Vec<QueryPlan>`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn plan(&self, i: usize, exec: &ExecRows) -> QueryPlan {
        let row = self.row(i, exec);
        let (shape, missing, build) = match self.variant[i] {
            BACKEND => (PlanShape::Backend, Vec::new(), DataTerms::ZERO),
            vi => {
                let v = self.variants[vi as usize];
                let (data, nodes) = (self.missing_data(i), self.missing_nodes(i, exec));
                let mut missing = Vec::with_capacity(data.len() + nodes.len());
                missing.extend_from_slice(data);
                missing.extend_from_slice(nodes);
                let indexes = match vi {
                    0 => vec![None; self.accesses],
                    _ => self.picks.clone(),
                };
                let shape = PlanShape::Cache {
                    indexes,
                    nodes: exec.cells(vi as usize).nodes[self.cell[i] as usize],
                };
                let build = v
                    .terms
                    .plus(self.node_prefix[row.extra_nodes as usize].terms);
                (shape, missing, build)
            }
        };
        QueryPlan {
            shape,
            exec_time: row.exec_time,
            exec_cost: row.exec_cost,
            exec_breakdown: row.exec_breakdown,
            uses: row.uses().collect(),
            missing,
            build_cost: build.build_cost,
            build_time: build.build_time,
            amortized_cost: row.amortized_cost,
            maintenance_cost: row.maintenance_cost,
            price: self.hot.price[i],
        }
    }

    /// Materializes every plan against `exec`, the execution rows the
    /// rows were bound from, in row order.
    #[must_use]
    pub fn to_plans(&self, exec: &ExecRows) -> Vec<QueryPlan> {
        (0..self.len()).map(|i| self.plan(i, exec)).collect()
    }

    /// Plan `i`'s missing data structures (columns and indexes) — the
    /// head of its `missing` list.
    #[must_use]
    #[inline]
    pub fn missing_data(&self, i: usize) -> &[StructureKey] {
        match self.variant[i] {
            BACKEND => &[],
            vi => &self.missing[..self.variants[vi as usize].missing],
        }
    }

    /// Plan `i`'s extra CPU nodes that must be built, ascending — the
    /// tail of its `missing` list. `exec` is the execution rows the rows
    /// were bound from.
    #[must_use]
    #[inline]
    pub fn missing_nodes(&self, i: usize, exec: &ExecRows) -> &[StructureKey] {
        let extra = match self.variant[i] {
            BACKEND => 0,
            vi => exec.cells(vi as usize).nodes[self.cell[i] as usize].saturating_sub(1),
        };
        let n = self
            .missing_nodes
            .partition_point(|k| matches!(k, StructureKey::Node(o) if *o < extra));
        &self.missing_nodes[..n]
    }

    /// Clears the rows and writes the backend row of `exec` (always
    /// existing) for a query of `accesses` table accesses. `node_build`
    /// is an extra CPU node's build quote (cost, boot time);
    /// `amortize_n` the horizon its first installment divides by.
    pub(crate) fn begin(
        &mut self,
        exec: &ExecRows,
        accesses: usize,
        node_build: (Money, SimDuration),
        amortize_n: u64,
    ) {
        assert!(amortize_n > 0, "amortization horizon must be positive");
        self.hot.clear();
        self.variant.clear();
        self.cell.clear();
        self.variants.clear();
        self.uses.clear();
        self.quotes.clear();
        self.missing.clear();
        self.picks.clear();
        self.accesses = accesses;
        self.open = DataTerms::ZERO;
        self.node_prefix.clear();
        self.node_prefix.push(NodePrefix::ZERO);
        self.node_quotes.clear();
        self.missing_nodes.clear();
        (self.node_build_cost, self.node_build_time) = node_build;
        self.node_installment = self.node_build_cost.amortize_over(amortize_n);

        self.hot.time.push(exec.backend_time);
        self.hot.price.push(exec.backend_cost);
        self.hot.existing.push(true);
        self.variant.push(BACKEND);
        self.cell.push(0);
    }

    /// Records the state of extra nodes `0..extra` in `cache` at `now`,
    /// writing the node-prefix table: each usable node adds its due and
    /// capped maintenance quote, each other its build quote.
    pub(crate) fn probe_nodes<F>(
        &mut self,
        cache: &CacheState,
        extra: u32,
        now: SimTime,
        maint_window: SimDuration,
        price: &F,
    ) where
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let mut prefix = NodePrefix::ZERO;
        for ordinal in 0..extra {
            let key = StructureKey::Node(ordinal);
            match cache.get(key).filter(|s| s.is_available(now)) {
                Some(s) => {
                    let span = now.saturating_since(s.maint_paid_until).min(maint_window);
                    let maint = price(s, span);
                    prefix.terms.amortized += s.amortization_due();
                    prefix.terms.maintenance += maint;
                    self.node_quotes.push(maint);
                }
                None => {
                    prefix.to_build += 1;
                    prefix.terms.build_cost += self.node_build_cost;
                    prefix.terms.build_time = self.node_build_time;
                    prefix.terms.amortized += self.node_installment;
                    self.node_quotes.push(Money::ZERO);
                    self.missing_nodes.push(key);
                }
            }
            self.node_prefix.push(prefix);
        }
    }

    /// Adds a usable structure with its installment due and capped
    /// maintenance quote.
    pub(crate) fn add_usable(&mut self, key: StructureKey, (due, maint): (Money, Money)) {
        self.uses.push(key);
        self.quotes.push(maint);
        self.open.amortized += due;
        self.open.maintenance += maint;
    }

    /// Adds a missing structure with its build quote.
    pub(crate) fn add_missing(
        &mut self,
        key: StructureKey,
        (cost, time): (Money, SimDuration),
        amortize_n: u64,
    ) {
        self.uses.push(key);
        self.quotes.push(Money::ZERO);
        self.missing.push(key);
        self.open.add_missing(cost, time, amortize_n);
    }

    /// True if `key` was added as missing.
    pub(crate) fn is_missing(&self, key: StructureKey) -> bool {
        self.missing.contains(&key)
    }

    /// Records the best-index variant's index per table access.
    pub(crate) fn set_picks(&mut self, picks: impl IntoIterator<Item = Option<IndexId>>) {
        self.picks.extend(picks);
    }

    /// Closes the next variant over every structure added so far,
    /// returning its tag: 0 for the scan variant, 1 for the best-index
    /// variant, matching [`ExecRows::cells`].
    pub(crate) fn close_variant(&mut self) -> u32 {
        self.variants.push(Variant {
            uses: self.uses.len(),
            missing: self.missing.len(),
            terms: self.open,
        });
        (self.variants.len() - 1) as u32
    }

    /// Writes variant `vi`'s cache rows, one per cell of `cells` (the
    /// variant's execution cells), skipping multi-node cells unless
    /// `extra_nodes` allows them: each row's price is its cell's cost
    /// plus the variant's terms and the terms of its extra nodes.
    pub(crate) fn push_cells(&mut self, vi: u32, cells: &ExecCells, extra_nodes: bool) {
        let v = self.variants[vi as usize];
        let (data_price, data_complete) = (v.terms.price(), v.missing == 0);
        for cell in 0..cells.len() {
            let k = cells.nodes[cell];
            if k > 1 && !extra_nodes {
                continue;
            }
            let nodes = &self.node_prefix[k.saturating_sub(1) as usize];
            self.hot.time.push(cells.time[cell]);
            self.hot
                .price
                .push(cells.cost[cell] + data_price + nodes.terms.price());
            self.hot.existing.push(data_complete && nodes.to_build == 0);
            self.variant.push(vi);
            self.cell.push(cell as u32);
        }
    }
}

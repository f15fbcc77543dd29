//! Batched, structure-major bid rows.
//!
//! [`crate::bind_plans_into`] plans against one node's cache state
//! at a time: a fleet quote round with N bidding nodes would plan the
//! query N times, probing one cache per pass. This module inverts that
//! loop — **structure-major** instead of node-major:
//! a [`BatchCompleter`] takes one [`PlanSkeleton`] plus a slice of
//! per-node [`CacheView`]s and, per structure list, probes *every* node's
//! presence state in one dense sweep ([`BatchCompleter::gather`]),
//! accumulating each node's amortisation/maintenance aggregates side by
//! side.
//!
//! A quote round needs far less than a plan set: its skyline and case
//! analysis read only each plan's `(time, price, existing)` row.
//! [`BatchCompleter::emit_hot`] writes exactly those rows from the
//! gathered lanes, without touching any cache again. The contract is
//! exact: for every node `i`, `gather` + `emit_hot(i)` writes the rows
//! **bit-identically** to the hot rows of
//! `bind_plans_into(ctx, rows, views[i].cache, now, views[i].opts, …)`
//! for the execution rows the skeleton was built from — same order, same time,
//! price and existing bits. `tests/batch_completion.rs` pins the
//! property over random cache histories × node counts. The fleet's
//! batched quote rounds (`econ::QuoteBatch`) bid from these rows; the
//! winner's serve binds the same execution rows to its own cache.
//!
//! # Lane layout
//!
//! Gather runs in two sweeps over dense SoA lanes keyed
//! `unique-structure × node` (nodes contiguous, so each structure's lane
//! is one cache-resident stripe):
//!
//! 1. **Probe sweep** — the *union* of every variant's structures (plus
//!    index key-fetch columns, presence-only) forms one probe table, so
//!    each node's cache answers one probe per distinct structure instead
//!    of one per `(variant, position)`. The table is a pure function of
//!    the skeleton, precomputed in [`PlanSkeleton::build`]
//!    ([`crate::skeleton::ProbeTable`]), so the gather itself does not
//!    deduplicate. The sweep runs node-major (one
//!    view bind per node, that node's cache stays hot) and each probe
//!    fills four lanes: `present`, `usable` (present *and* available),
//!    and zero-masked `amort`/`maint` (the structure's amortisation due
//!    and maintenance quote when usable, [`Money::ZERO`] otherwise —
//!    mask-select, not branch).
//! 2. **Accumulate sweep** — per variant, the existing-structure
//!    aggregates are *unconditional* lane sums: because unusable slots
//!    hold zeros, `exist_amort += amort_lane` / `maintenance +=
//!    maint_lane` need no per-node branch, and the fixed-width inner
//!    loops over the contiguous node stripes autovectorize. Only the
//!    (rare) missing side — first installments of build quotes — runs
//!    masked, gated per node on the `usable` lane.
//!
//! The dedup is what lets a missing index's key-fetch coverage drop its
//! per-node bookkeeping: a key column is covered iff the cache holds it
//! (in any state, builds in flight included) *or* the variant itself
//! uses it — the latter is node-independent, because a variant-used
//! column is either present (covered) or goes missing and is built
//! alongside the index (covered). `covered = in_variant ∨ present`
//! replaces the fused enumerator's missing-column set exactly.
//!
//! The gather/emit split (rather than one monolithic call) lets the
//! economy bid each member as soon as its rows are written, reusing one
//! row buffer for the whole round.

use cache::{CacheState, CachedStructure, StructureKey};
use pricing::Money;
use simcore::{SimDuration, SimTime};

use crate::enumerate::EnumerationOptions;
use crate::skeleton::{BuildShape, PlanSkeleton};
use crate::soa::PlanHot;

/// One node's view of a batched completion: its cache state plus the
/// enumeration options its policy quotes under.
#[derive(Debug, Clone, Copy)]
pub struct CacheView<'a> {
    /// The node's cache state.
    pub cache: &'a CacheState,
    /// The node's enumeration options (plan-family switches, amortisation
    /// horizon, maintenance window).
    pub opts: EnumerationOptions,
}

/// Reusable scratch and gathered state of a batched completion round.
///
/// All vectors are retained across rounds, so a long-lived completer
/// performs no steady-state allocation.
#[derive(Debug, Default)]
pub struct BatchCompleter {
    /// Nodes in the gathered round.
    n: usize,
    /// Per node: enumeration options (copied out of the views at gather).
    opts: Vec<EnumerationOptions>,
    /// Per node: first amortisation installment of an extra CPU node
    /// under that node's horizon.
    node_inst: Vec<Money>,
    /// Per `(ordinal × n + node)`: `Some((amortisation due, maintenance
    /// quote))` when the extra CPU node is available, `None` when it must
    /// be built.
    node_ord: Vec<Option<(Money, Money)>>,
    /// Per `(variant × n + node)`: false when the node's options exclude
    /// the variant (index plans forbidden).
    active: Vec<bool>,
    /// Per `(variant × n + node)`: first installments of missing data
    /// structures under the node's horizon.
    missing_amort: Vec<Money>,
    /// Per `(variant × n + node)`: amortisation dues of existing data
    /// structures.
    exist_amort: Vec<Money>,
    /// Per `(variant × n + node)`: maintenance quotes of existing data
    /// structures.
    maintenance: Vec<Money>,
    /// Per `(variant × n + node)`: some data structure of the variant
    /// is missing from the node's cache (its rows are possible plans).
    data_missing: Vec<bool>,
    /// Per `(probe-table entry × n + node)`: the cache holds the
    /// structure in any state (builds in flight included) — the
    /// `contains` the key-fetch coverage rule reads.
    lane_present: Vec<bool>,
    /// Per `(probe-table entry × n + node)`: present *and* available —
    /// the mask splitting existing from missing accumulation.
    lane_usable: Vec<bool>,
    /// Per `(probe-table entry × n + node)`: amortisation due when
    /// usable, zero otherwise (mask-select, so the exist sweep adds
    /// unconditionally).
    lane_amort: Vec<Money>,
    /// Per `(probe-table entry × n + node)`: maintenance quote when
    /// usable, zero otherwise.
    lane_maint: Vec<Money>,
}

impl BatchCompleter {
    /// An empty completer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Phase 1 — the structure-major sweep. Probes each structure of each
    /// skeleton variant against every node's cache in one pass,
    /// accumulating the per-node aggregates that [`Self::emit_hot`]
    /// prices rows from.
    ///
    /// `view(i)` must return node `i`'s cache view and be stable for the
    /// round; `price` quotes a structure's maintenance over a span (the
    /// estimator's eq. 11/13/15), shared by every node.
    ///
    /// # Panics
    /// Panics if any node's `opts.amortize_n` is zero.
    pub fn gather<'a, V, P>(
        &mut self,
        skel: &PlanSkeleton,
        count: usize,
        view: V,
        now: SimTime,
        price: P,
    ) where
        V: Fn(usize) -> CacheView<'a>,
        P: Fn(&CachedStructure, SimDuration) -> Money,
    {
        self.n = count;
        self.opts.clear();
        self.node_inst.clear();
        for i in 0..count {
            let opts = view(i).opts;
            assert!(opts.amortize_n > 0, "amortization horizon must be positive");
            self.opts.push(opts);
            self.node_inst
                .push(skel.node_build_cost.amortize_over(opts.amortize_n));
        }

        // Extra-CPU-node states are variant- and cell-independent: gather
        // each (ordinal, node) pair once, reuse for every cell.
        let max_extra = skel.max_extra_nodes() as usize;
        self.node_ord.clear();
        self.node_ord.resize(max_extra * count, None);
        for ordinal in 0..max_extra {
            for i in 0..count {
                let v = view(i);
                if let Some(s) = v.cache.get(StructureKey::Node(ordinal as u32)) {
                    if s.is_available(now) {
                        let span = now
                            .saturating_since(s.maint_paid_until)
                            .min(self.opts[i].maint_window);
                        self.node_ord[ordinal * count + i] =
                            Some((s.amortization_due(), price(s, span)));
                    }
                }
            }
        }

        let slots = skel.variants.len() * count;
        self.active.clear();
        self.active.resize(slots, false);
        self.missing_amort.clear();
        self.missing_amort.resize(slots, Money::ZERO);
        self.exist_amort.clear();
        self.exist_amort.resize(slots, Money::ZERO);
        self.maintenance.clear();
        self.maintenance.resize(slots, Money::ZERO);
        self.data_missing.clear();
        self.data_missing.resize(slots, false);

        // Probe sweep: one cache probe per (distinct structure, node)
        // over the skeleton's precomputed probe table, filling the
        // presence/usable masks and the zero-masked amortisation/
        // maintenance lanes. Node-major — one view bind per node, so
        // each node's cache answers its probes back to back — but the
        // lanes stay structure-major (nodes contiguous per structure),
        // the layout the accumulate sweep streams.
        let probe = &skel.probe;
        let lanes = probe.keys.len() * count;
        self.lane_present.clear();
        self.lane_present.resize(lanes, false);
        self.lane_usable.clear();
        self.lane_usable.resize(lanes, false);
        self.lane_amort.clear();
        self.lane_amort.resize(lanes, Money::ZERO);
        self.lane_maint.clear();
        self.lane_maint.resize(lanes, Money::ZERO);
        for i in 0..count {
            let v = view(i);
            let maint_window = self.opts[i].maint_window;
            for (u, &key) in probe.keys.iter().enumerate() {
                if let Some(s) = v.cache.get(key) {
                    let at = u * count + i;
                    self.lane_present[at] = true;
                    let usable = s.is_available(now);
                    self.lane_usable[at] = usable;
                    if usable && probe.priced[u] {
                        self.lane_amort[at] = s.amortization_due();
                        let span = now.saturating_since(s.maint_paid_until).min(maint_window);
                        self.lane_maint[at] = price(s, span);
                    }
                }
            }
        }

        for (vi, variant) in skel.variants.iter().enumerate() {
            let base = vi * count;
            for i in 0..count {
                self.active[base + i] = !variant.uses_indexes || self.opts[i].allow_indexes;
            }

            // Existing-structure accumulation, branch-free: unusable
            // slots hold zero lanes, so the adds run unconditionally
            // over the contiguous node stripes. Inactive slots (variant
            // excluded by the node's options) accumulate too — their
            // aggregates are never emitted — keeping the inner loops
            // mask-free.
            for &u in probe.uses_probe(vi) {
                let lane = u as usize * count;
                let amort = &self.lane_amort[lane..lane + count];
                let maint = &self.lane_maint[lane..lane + count];
                let ea = &mut self.exist_amort[base..base + count];
                let ma = &mut self.maintenance[base..base + count];
                for i in 0..count {
                    ea[i] += amort[i];
                    ma[i] += maint[i];
                }
            }

            // Missing side, masked per node on the usable lane: the
            // build quote's first installment under the node's horizon
            // accrues and the slot is marked as missing data.
            for (pos, &u) in probe.uses_probe(vi).iter().enumerate() {
                let lane = u as usize * count;
                if self.lane_usable[lane..lane + count].iter().all(|&ok| ok) {
                    continue;
                }
                // A key column is covered iff the cache holds it (any
                // state) or the variant itself uses it: a variant-used
                // column is either present or goes missing and is built
                // alongside the index. Both the probe index and the
                // node-independent `in_variant` half are precomputed in
                // the skeleton's probe table.
                let resolved = probe.key_probe(vi, pos);
                for i in 0..count {
                    let slot = base + i;
                    if self.lane_usable[lane + i] || !self.active[slot] {
                        continue;
                    }
                    let cost = match &variant.builds[pos] {
                        BuildShape::Column { cost } => *cost,
                        BuildShape::Index { sort_cost, keys } => {
                            let mut cost = *sort_cost;
                            for (kf, &(in_variant, ku)) in keys.iter().zip(resolved) {
                                if !in_variant && !self.lane_present[ku as usize * count + i] {
                                    cost += kf.cost;
                                }
                            }
                            cost
                        }
                    };
                    self.missing_amort[slot] += cost.amortize_over(self.opts[i].amortize_n);
                    self.data_missing[slot] = true;
                }
            }
        }
    }

    /// Phase 2 — writes node `node`'s `(time, price, existing)` rows
    /// straight into `hot`, bit-identical to the hot rows of
    /// [`crate::bind_plans_into`] run against that node's view: same
    /// row order, and each price the same exact-`Money` sum. No plan
    /// shell, `uses`/`missing` list or shape is built — a quote round
    /// needs only these three columns for its skyline and case analysis.
    ///
    /// # Panics
    /// Panics if `node` is outside the gathered round.
    pub fn emit_hot(&self, skel: &PlanSkeleton, node: usize, hot: &mut PlanHot) {
        assert!(
            node < self.n,
            "node {node} outside gathered round {}",
            self.n
        );
        let opts = self.opts[node];
        hot.clear();
        hot.time.push(skel.backend_time);
        hot.price.push(skel.backend_cost);
        hot.existing.push(true);

        for (vi, variant) in skel.variants.iter().enumerate() {
            let slot = vi * self.n + node;
            if !self.active[slot] {
                continue;
            }
            let data_existing = !self.data_missing[slot];
            let base_amortized = self.exist_amort[slot] + self.missing_amort[slot];
            for cell in 0..variant.cells.len() {
                let k = variant.cells.nodes[cell];
                if k > 1 && !opts.allow_extra_nodes {
                    continue;
                }
                let mut existing = data_existing;
                let mut amortized = base_amortized;
                let mut maintenance = self.maintenance[slot];
                for ordinal in 0..k.saturating_sub(1) as usize {
                    match self.node_ord[ordinal * self.n + node] {
                        Some((amort, maint)) => {
                            amortized += amort;
                            maintenance += maint;
                        }
                        None => {
                            existing = false;
                            amortized += self.node_inst[node];
                        }
                    }
                }
                hot.time.push(variant.cells.time[cell]);
                hot.price
                    .push(variant.cells.cost[cell] + amortized + maintenance);
                hot.existing.push(existing);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{generate_candidates, CandidateIndex};
    use crate::enumerate::enumerate_plans_into;
    use crate::estimator::{CostParams, Estimator};
    use crate::rows::PlanRows;
    use crate::PlannerContext;
    use cache::IndexDef;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use catalog::Schema;
    use pricing::PriceCatalog;
    use simcore::NetworkModel;
    use std::sync::Arc;
    use workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};

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

    /// The hot rows of fused enumeration against `view`, projected from
    /// its materialized plans.
    fn reference_hot(
        ctx: &PlannerContext<'_>,
        q: &Query,
        view: &CacheView<'_>,
        now: SimTime,
    ) -> PlanHot {
        let mut rows = PlanRows::new();
        enumerate_plans_into(ctx, q, view.cache, now, view.opts, &mut rows);
        PlanHot::of(&rows.to_plans())
    }

    /// Heterogeneous per-node options: every structural combination plus
    /// varied horizons/windows.
    fn node_opts(i: usize) -> EnumerationOptions {
        EnumerationOptions {
            allow_indexes: i.is_multiple_of(2),
            allow_extra_nodes: !i.is_multiple_of(3),
            amortize_n: 100 + 37 * i as u64,
            maint_window: SimDuration::from_secs(60.0 + 45.0 * i as f64),
        }
    }

    fn warm_cache(f: &Fixture, q: &Query, salt: u64) -> CacheState {
        let mut cache = CacheState::new();
        for (i, c) in q.all_columns().enumerate() {
            if (i as u64 + salt).is_multiple_of(2) {
                let build = SimDuration::from_secs(if i == 0 { 500.0 } else { 0.0 });
                cache.install(
                    StructureKey::Column(c),
                    f.schema.column_bytes(c),
                    SimTime::ZERO,
                    build,
                    Money::from_dollars(0.5),
                    100,
                );
            }
        }
        if salt.is_multiple_of(3) {
            cache.install(
                StructureKey::Index(f.candidates[salt as usize % f.candidates.len()].id),
                1_000,
                SimTime::ZERO,
                SimDuration::ZERO,
                Money::from_dollars(0.2),
                100,
            );
        }
        for ordinal in 0..(salt % 3) {
            cache.install(
                StructureKey::Node(ordinal as u32),
                0,
                SimTime::ZERO,
                SimDuration::ZERO,
                Money::from_cents(10),
                100,
            );
        }
        cache
    }

    #[test]
    fn batch_matches_fused_enumeration_on_heterogeneous_views() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut completer = BatchCompleter::new();
        for seed in 0..6 {
            let q = f.query(seed);
            let skel = PlanSkeleton::build(&ctx, &q);
            let caches: Vec<CacheState> = (0..5).map(|i| warm_cache(&f, &q, seed + i)).collect();
            let now = SimTime::from_secs(100.0);
            let views: Vec<CacheView<'_>> = caches
                .iter()
                .enumerate()
                .map(|(i, cache)| CacheView {
                    cache,
                    opts: node_opts(i),
                })
                .collect();

            completer.gather(
                &skel,
                views.len(),
                |i| views[i],
                now,
                |s, span| f.estimator.maintenance(s, span),
            );
            let mut hot = PlanHot::new();
            for (i, view) in views.iter().enumerate() {
                completer.emit_hot(&skel, i, &mut hot);
                assert_eq!(
                    hot,
                    reference_hot(&ctx, &q, view, now),
                    "seed {seed}, node {i}"
                );
            }
        }
    }

    #[test]
    fn completer_is_reusable_across_rounds_of_different_sizes() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut completer = BatchCompleter::new();
        let now = SimTime::from_secs(40.0);
        for (round, count) in [(0u64, 7usize), (1, 2), (2, 5)] {
            let q = f.query(round);
            let skel = PlanSkeleton::build(&ctx, &q);
            let caches: Vec<CacheState> = (0..count)
                .map(|i| warm_cache(&f, &q, round + i as u64))
                .collect();
            let views: Vec<CacheView<'_>> = caches
                .iter()
                .map(|cache| CacheView {
                    cache,
                    opts: EnumerationOptions::default(),
                })
                .collect();
            completer.gather(
                &skel,
                count,
                |i| views[i],
                now,
                |s, span| f.estimator.maintenance(s, span),
            );
            let mut hot = PlanHot::new();
            for (i, view) in views.iter().enumerate() {
                completer.emit_hot(&skel, i, &mut hot);
                assert_eq!(
                    hot,
                    reference_hot(&ctx, &q, view, now),
                    "round {round} node {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside gathered round")]
    fn emitting_an_ungathered_node_panics() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let q = f.query(1);
        let skel = PlanSkeleton::build(&ctx, &q);
        let completer = BatchCompleter::new();
        let mut hot = PlanHot::new();
        completer.emit_hot(&skel, 0, &mut hot);
    }
}

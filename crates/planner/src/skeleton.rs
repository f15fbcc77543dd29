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
//! options, a node's batched rows are **bit-identical** to the fused
//! [`crate::enumerate_plans_into`] against that node's cache — same
//! plans, same order, same prices. `tests/batch_completion.rs` pins the
//! property over random cache histories; the fleet's routing determinism
//! rests on it. Planning for one node (a serve, a standalone quote, a
//! commit, a stale handoff's re-plan) always runs the fused enumerator,
//! so a skeleton exists only inside a batched round.
//!
//! The skeleton is a *superset*: it is built with every plan family
//! enabled (indexes and extra nodes), and binding filters by each node's
//! [`crate::EnumerationOptions`]. One skeleton therefore serves
//! heterogeneous nodes (econ-cheap, econ-fast, econ-col) in the same
//! quote round. Hot per-(variant, node-count) execution fields are stored
//! in struct-of-arrays form ([`ExecCells`]), matching the SoA selection
//! scans in [`crate::soa`]. [`ExecRows`] is the execution-row half of
//! the skeleton on its own — every row a plan's `(exec_time, exec_cost)`
//! can come from — for callers that never bind a cache.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cache::{IndexId, StructureKey};
use catalog::ColumnId;
use metrics::CostBreakdown;
use pricing::Money;
use simcore::SimDuration;
use workload::Query;

use crate::enumerate::PlannerContext;
use crate::shapes::QueryShape;

/// Writes the planning fingerprint of `query` into `out` (cleared first).
///
/// The fingerprint is `[template, mask, accesses, selectivity bits per
/// access, result_rows, result_bytes]`. Within one template set,
/// `(template, mask)` fixes every access's table, column list and
/// predicate list and the sort columns (see [`crate::shapes`]), so the
/// fingerprint covers exactly the query fields plan enumeration reads
/// and deliberately excludes `budget_scale` (budget only), `id` and
/// `region` (unread). Two queries of one template set with equal
/// fingerprints therefore enumerate identical plan sets, which is the
/// key invariant behind both the per-manager plan memo
/// (`econ::plancache`) and the fleet-wide [`SkeletonCache`].
pub fn planning_fingerprint(query: &Query, out: &mut Vec<u64>) {
    out.clear();
    out.push(query.template.0 as u64);
    out.push(u64::from(query.mask));
    out.push(query.accesses.len() as u64);
    out.extend(query.accesses.iter().map(|a| a.selectivity.to_bits()));
    out.push(query.result_rows);
    out.push(query.result_bytes);
}

/// One key column's standalone fetch quote (eq. 12), charged at
/// completion time only when the column is neither cached nor already
/// among the plan's missing columns.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyFetch {
    /// The key column.
    pub column: ColumnId,
    /// Transfer cost if the fetch is charged.
    pub cost: Money,
    /// Transfer time if the fetch is charged.
    pub time: SimDuration,
}

/// The cache-independent build-cost shape of one structure in a variant's
/// `uses` list.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildShape {
    /// Column transfer from the back-end (eq. 12): the full quote.
    Column {
        /// Build cost.
        cost: Money,
        /// Transfer time.
        time: SimDuration,
    },
    /// Index build (eq. 14), decomposed: the sort plan over the keyed
    /// data (always charged) plus per-key-column fetches (conditionally
    /// charged — a key column already cached, or being built by the same
    /// plan, is not fetched twice).
    Index {
        /// Sort-plan cost (CPU + I/O), fetches excluded.
        sort_cost: Money,
        /// Sort-plan time, fetches excluded.
        sort_time: SimDuration,
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
    /// Index assigned per table access (`None` = column scan), for the
    /// emitted [`crate::PlanShape`].
    pub indexes: Vec<Option<IndexId>>,
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
/// [`PlanSkeleton::build`] — skeletons can be shared fleet-wide (the
/// [`SkeletonCache`]), so batched completion rounds
/// ([`planner::batch`](crate::batch)) read the table for free instead of
/// re-deduplicating every round.
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
    /// Backend per-resource cost split.
    pub backend_breakdown: CostBreakdown,
    /// Extra-CPU-node build quote (eq. 10): (cost, boot time).
    pub node_build_cost: Money,
    /// Node boot time.
    pub node_build_time: SimDuration,
    /// Index variants: scan-only first, then the best-index variant when
    /// one exists.
    pub variants: Vec<VariantSkeleton>,
    /// The variants' deduplicated probe table, for batched completion.
    pub probe: ProbeTable,
}

/// A [`PlanSkeleton`] built on first use and shared from then on.
///
/// A batched quote round takes one of these; a round with no batch
/// member (no routable economic node) never calls [`Self::get`] and pays
/// nothing for a skeleton it never reads. The cell is thread-safe, so
/// workers of a parallel
/// fan-out race benignly (the build is a pure function — every winner
/// produces identical bits).
pub struct LazySkeleton<'a> {
    ctx: PlannerContext<'a>,
    query: &'a Query,
    shared: Option<&'a SkeletonCache>,
    cell: std::sync::OnceLock<Arc<PlanSkeleton>>,
}

impl<'a> LazySkeleton<'a> {
    /// An unbuilt skeleton for `query`.
    #[must_use]
    pub fn new(ctx: &PlannerContext<'a>, query: &'a Query) -> Self {
        LazySkeleton {
            ctx: *ctx,
            query,
            shared: None,
            cell: std::sync::OnceLock::new(),
        }
    }

    /// An unbuilt skeleton that resolves through a fleet-wide
    /// [`SkeletonCache`]: a build forced here first probes the shared
    /// cache under the query's planning fingerprint, so concurrently
    /// running cells stop rebuilding identical skeletons.
    #[must_use]
    pub fn with_cache(
        ctx: &PlannerContext<'a>,
        query: &'a Query,
        shared: &'a SkeletonCache,
    ) -> Self {
        LazySkeleton {
            ctx: *ctx,
            query,
            shared: Some(shared),
            cell: std::sync::OnceLock::new(),
        }
    }

    /// The skeleton, building it on first call.
    pub fn get(&self) -> &Arc<PlanSkeleton> {
        self.cell.get_or_init(|| match self.shared {
            Some(cache) => cache.get_or_build(&self.ctx, self.query),
            None => Arc::new(PlanSkeleton::build(&self.ctx, self.query)),
        })
    }
}

/// Number of independently locked shards of a [`SkeletonCache`].
const SKELETON_CACHE_SHARDS: usize = 16;

/// Entry cap per shard; a full shard is cleared on the next insert, which
/// bounds the cache at `SKELETON_CACHE_SHARDS × SKELETON_SHARD_CAP`
/// skeletons without any replacement bookkeeping on the hit path.
const SKELETON_SHARD_CAP: usize = 256;

/// Admission-filter slots per shard (one-slot hash buckets of recently
/// seen fingerprint hashes). Power of two so the index is a mask.
const SKELETON_SEEN_SLOTS: usize = 1024;

/// One shard of a [`SkeletonCache`]: admitted skeletons plus the
/// admission filter of recently seen fingerprint hashes.
#[derive(Debug, Default)]
struct SkeletonShard {
    map: HashMap<Vec<u64>, Arc<PlanSkeleton>>,
    /// One-slot buckets of fingerprint hashes seen once: a second
    /// sighting admits the fingerprint into `map`. Collisions simply
    /// overwrite (a lost sighting only delays admission by one round).
    seen: Vec<u64>,
}

/// Counter snapshot of a [`SkeletonCache`] (see
/// [`SkeletonCache::counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SkeletonCacheCounters {
    /// Probes served from the map.
    pub hits: u64,
    /// Probes that had to build (filtered or first-sighting).
    pub misses: u64,
    /// Misses whose skeleton was stored (second sighting onward).
    pub admissions: u64,
}

/// A fleet-wide, fingerprint-keyed cache of built [`PlanSkeleton`]s,
/// sharded for concurrent access from cell worker threads.
///
/// Skeletons are pure functions of `(context, query fingerprint)`, so
/// whichever racing builder lands in the map, every reader receives
/// identical bits — sharing the cache across concurrently simulated
/// cells cannot perturb any cell's results, only its wall-clock. Builds
/// happen outside the shard lock (two cells may briefly build the same
/// skeleton; the loser's copy is dropped).
///
/// Storage is **admission-filtered**: a fingerprint is only memoized
/// once it has been seen twice, so workloads whose instances never
/// repeat (ad-hoc parameterisations drawn from a continuous space) pay
/// one hash probe per build instead of churning the map with skeletons
/// nobody will reuse — storing every one-shot skeleton measurably
/// dragged the quote round. Prepared-statement / trace-replay regimes,
/// where fingerprints do repeat, hit from the third sighting on.
#[derive(Debug)]
pub struct SkeletonCache {
    shards: Vec<Mutex<SkeletonShard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    admissions: AtomicU64,
}

impl Default for SkeletonCache {
    fn default() -> Self {
        SkeletonCache::new()
    }
}

impl SkeletonCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        SkeletonCache {
            shards: (0..SKELETON_CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(SkeletonShard {
                        map: HashMap::new(),
                        seen: vec![0; SKELETON_SEEN_SLOTS],
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
        }
    }

    /// Counter snapshot — hits, misses and admissions (misses whose
    /// fingerprint passed the seen-twice filter and were stored). The
    /// admission rate against the miss count is the filter's tuning
    /// signal: misses ≫ admissions means it is correctly rejecting
    /// one-shot fingerprints; admissions without subsequent hits mean it
    /// admits too eagerly. The repository benchmark reports these as
    /// `planner.skeleton_cache.*`.
    #[must_use]
    pub fn counters(&self) -> SkeletonCacheCounters {
        SkeletonCacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
        }
    }

    /// The skeleton for `query`, built on first need and memoized once
    /// its fingerprint proves to repeat.
    #[must_use]
    pub fn get_or_build(&self, ctx: &PlannerContext<'_>, query: &Query) -> Arc<PlanSkeleton> {
        thread_local! {
            /// Per-thread fingerprint scratch — probing must not allocate.
            static FP: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        FP.with(|cell| {
            let mut fp = cell.borrow_mut();
            planning_fingerprint(query, &mut fp);
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            fp.hash(&mut hasher);
            let hash = hasher.finish();
            let shard = &self.shards[(hash as usize) % self.shards.len()];

            let admitted = {
                let mut guard = shard.lock().expect("skeleton shard poisoned");
                if let Some(hit) = guard.map.get(fp.as_slice()) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(hit);
                }
                // Branch-free one-slot probe: unconditionally replace the
                // bucket with this hash and admit iff the old occupant
                // already was it — same semantics as test-then-store
                // (re-storing an equal hash is a no-op), one load + one
                // store, no data-dependent branch on the miss path.
                let slot = (hash as usize) & (SKELETON_SEEN_SLOTS - 1);
                std::mem::replace(&mut guard.seen[slot], hash) == hash
            };
            self.misses.fetch_add(1, Ordering::Relaxed);
            let built = Arc::new(PlanSkeleton::build(ctx, query));
            if admitted {
                self.admissions.fetch_add(1, Ordering::Relaxed);
                let mut guard = shard.lock().expect("skeleton shard poisoned");
                if guard.map.len() >= SKELETON_SHARD_CAP {
                    guard.map.clear();
                }
                // A racing builder may have inserted meanwhile; both
                // values are identical bits, so keeping either is correct.
                return Arc::clone(guard.map.entry(fp.clone()).or_insert(built));
            }
            built
        })
    }
}

/// The cache-independent execution rows of a query's plan set: the
/// backend estimate (eq. 9) and, per index variant, the execution cells
/// at every node count (eq. 8 under the scaling law). Every plan any
/// planner emits takes its `(exec_time, exec_cost)` from one of
/// these rows — only the installments and maintenance a plan adds to its
/// price depend on the cache — so a caller can reason about every plan's
/// timing without binding a cache or building the full [`PlanSkeleton`].
///
/// [`PlanSkeleton::build`] computes its backend fields and variant cells
/// through [`Self::build`], so the two can never disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRows {
    /// Backend execution time.
    pub backend_time: SimDuration,
    /// Backend execution cost.
    pub backend_cost: Money,
    /// Backend per-resource cost split.
    pub backend_breakdown: CostBreakdown,
    /// Per index variant, scan-only first, then the best-index variant
    /// when any access has a serving candidate: the per-access index
    /// assignment (positions into the context's candidates) and the
    /// variant's cells.
    pub variants: Vec<(Vec<Option<usize>>, ExecCells)>,
}

impl ExecRows {
    /// Estimates and prices every execution row of `query`, with every
    /// plan family enabled and no cache state consulted.
    #[must_use]
    pub fn build(ctx: &PlannerContext<'_>, query: &Query) -> ExecRows {
        Self::build_shaped(ctx, query, &ctx.shape(query))
    }

    /// [`Self::build`] over `query`'s already looked-up shape.
    fn build_shaped(ctx: &PlannerContext<'_>, query: &Query, shape: &QueryShape) -> ExecRows {
        let backend_est = ctx.estimator.backend_execution_shaped(shape, query);
        let (backend_cost, backend_breakdown) = ctx.estimator.price_execution(&backend_est);

        let mut variants = Vec::with_capacity(2);
        let cells = variant_cells(ctx, query, shape, false);
        variants.push((vec![None; query.accesses.len()], cells));
        if shape.indexed {
            let cells = variant_cells(ctx, query, shape, true);
            variants.push((shape.picks().collect(), cells));
        }
        ExecRows {
            backend_time: backend_est.time,
            backend_cost,
            backend_breakdown,
            variants,
        }
    }

    /// Every row's `(time, cost)`: the backend first, then each
    /// variant's cells in order.
    pub fn rows(&self) -> impl Iterator<Item = (SimDuration, Money)> + '_ {
        std::iter::once((self.backend_time, self.backend_cost)).chain(
            self.variants
                .iter()
                .flat_map(|(_, cells)| cells.time.iter().copied().zip(cells.cost.iter().copied())),
        )
    }
}

/// One index variant's execution cells at every configured node count.
fn variant_cells(
    ctx: &PlannerContext<'_>,
    query: &Query,
    shape: &QueryShape,
    indexed: bool,
) -> ExecCells {
    let mut cells = ExecCells::default();
    fill_cells(ctx, query, shape, indexed, true, &mut cells);
    cells
}

/// Refills `cells` with one index variant's execution cells (eq. 8
/// under the scaling law): every configured node count when
/// `extra_nodes`, the single-node cell alone otherwise. The variant is
/// the shape's scan variant, or its best-index variant when `indexed`.
pub(crate) fn fill_cells(
    ctx: &PlannerContext<'_>,
    query: &Query,
    shape: &QueryShape,
    indexed: bool,
    extra_nodes: bool,
    cells: &mut ExecCells,
) {
    // Node-count-independent execution volumes (eq. 8's q_tot / io_tot).
    let base = ctx
        .estimator
        .cache_execution_base_shaped(shape, query, indexed);
    cells.clear();
    for &k in &ctx.estimator.params().node_options {
        if k > 1 && !extra_nodes {
            continue;
        }
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
        let shape = ctx.shape(query);
        let rows = ExecRows::build_shaped(ctx, query, &shape);
        let (node_build_cost, node_build_time) = ctx.estimator.build_node();
        let variants: Vec<VariantSkeleton> = rows
            .variants
            .into_iter()
            .map(|(indexes, cells)| build_variant(ctx, &shape, &indexes, cells))
            .collect();
        let probe = ProbeTable::build(&variants);
        PlanSkeleton {
            backend_time: rows.backend_time,
            backend_cost: rows.backend_cost,
            backend_breakdown: rows.backend_breakdown,
            node_build_cost,
            node_build_time,
            variants,
            probe,
        }
    }
}

/// Builds one variant's skeleton from its per-access index assignment
/// (positions into `ctx.candidates`) and its execution cells.
fn build_variant(
    ctx: &PlannerContext<'_>,
    shape: &QueryShape,
    indexes: &[Option<usize>],
    cells: ExecCells,
) -> VariantSkeleton {
    // Same uses order as the fused enumerator: accessed columns
    // deduplicated in first-seen order, then each assigned index.
    let uses: Vec<StructureKey> = shape
        .columns
        .iter()
        .map(|&c| StructureKey::Column(c))
        .chain(
            indexes
                .iter()
                .flatten()
                .map(|&pos| StructureKey::Index(ctx.candidates[pos].id)),
        )
        .collect();

    let builds: Vec<BuildShape> = uses
        .iter()
        .map(|&key| match key {
            StructureKey::Column(c) => {
                let (cost, time) = ctx.estimator.build_column(ctx.schema, c);
                BuildShape::Column { cost, time }
            }
            StructureKey::Index(id) => {
                let def = &ctx.candidates[id.index()];
                // With every key column reported cached, `build_index`
                // quotes the pure sort plan (no fetches).
                let (sort_cost, sort_time) = ctx.estimator.build_index(ctx.schema, def, |_| true);
                let keys = def
                    .key_columns
                    .iter()
                    .map(|&c| {
                        let (cost, time) = ctx.estimator.build_column(ctx.schema, c);
                        KeyFetch {
                            column: c,
                            cost,
                            time,
                        }
                    })
                    .collect();
                BuildShape::Index {
                    sort_cost,
                    sort_time,
                    keys,
                }
            }
            StructureKey::Node(_) => unreachable!("nodes are appended per node count"),
        })
        .collect();

    VariantSkeleton {
        indexes: indexes
            .iter()
            .map(|o| o.map(|pos| ctx.candidates[pos].id))
            .collect(),
        uses_indexes: indexes.iter().any(Option::is_some),
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

    fn counters(hits: u64, misses: u64, admissions: u64) -> SkeletonCacheCounters {
        SkeletonCacheCounters {
            hits,
            misses,
            admissions,
        }
    }

    #[test]
    fn skeleton_cache_admits_on_second_sighting_and_hits_from_the_third() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let q = f.query(9);
        let cache = SkeletonCache::new();
        let first = cache.get_or_build(&ctx, &q);
        assert_eq!(
            cache.counters(),
            counters(0, 1, 0),
            "first sighting builds, not stored"
        );
        let second = cache.get_or_build(&ctx, &q);
        assert_eq!(
            cache.counters(),
            counters(0, 2, 1),
            "second sighting builds and admits"
        );
        let third = cache.get_or_build(&ctx, &q);
        assert_eq!(cache.counters(), counters(1, 2, 1), "third sighting hits");
        assert_eq!(*first, *second);
        assert_eq!(*second, *third);
        // A different query resolves independently.
        let other = cache.get_or_build(&ctx, &f.query(10));
        assert_ne!(*other, *third);
    }

    #[test]
    fn lazy_skeleton_resolves_through_the_shared_cache() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let q = f.query(12);
        let cache = SkeletonCache::new();
        // Warm to admission.
        let _ = cache.get_or_build(&ctx, &q);
        let _ = cache.get_or_build(&ctx, &q);
        let lazy = LazySkeleton::with_cache(&ctx, &q, &cache);
        assert_eq!(
            cache.counters(),
            counters(0, 2, 1),
            "construction probes nothing"
        );
        let skel = Arc::clone(lazy.get());
        let _ = lazy.get();
        assert_eq!(
            cache.counters(),
            counters(1, 2, 1),
            "the lazy build hit the shared cache once"
        );
        assert_eq!(*skel, PlanSkeleton::build(&ctx, &q));
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
            assert_eq!(rows.backend_breakdown, skel.backend_breakdown);
            assert_eq!(rows.variants.len(), skel.variants.len());
        }
    }
}

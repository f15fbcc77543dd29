//! Batched structure-major completion — the bit-identity contracts of
//! the quote-round inversion:
//!
//! 1. `planner::complete_plans_batch` (one gather pass over N cache
//!    views) emits, per node, exactly the plan set and missing-build
//!    quote table of the per-node `planner::complete_plans_into` — over
//!    random cache histories, node counts and heterogeneous per-node
//!    options.
//! 2. `BatchCompleter::emit_hot` writes, per node, exactly the
//!    `(time, price, existing)` rows `PlanHot::fill` projects from
//!    `emit_into`'s plan set — the rows batched bids are computed from.
//! 3. `econ::QuoteBatch::quote_round` plus `QuoteBatch::commit` on the
//!    winner (the fleet's batched bid path) quotes, memoizes and counts
//!    exactly like the sequential `quote_with_skeleton` loop plus
//!    `commit_quote` on the same winner — over evolving manager state,
//!    so memo hits, stale completions and misses all cross the batch
//!    boundary, and losers memoize nothing on either path.
//!
//! The fleet's routing determinism across {sequential, pooled} ×
//! {batched, per-node} paths rests on these properties
//! (`tests/fleet_determinism.rs` pins the router layer).

use std::sync::{Arc, OnceLock};

use cloudcache::cache::{CacheState, StructureKey};
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::{ColumnId, Schema};
use cloudcache::econ::{EconConfig, EconomyManager, InvestmentRule, QuoteBatch};
use cloudcache::planner::{
    complete_plans_batch, complete_plans_into, generate_candidates, BatchCompleter, CacheView,
    CandidateIndex, CostParams, EnumerationOptions, Estimator, LazySkeleton, PlanBuffer, PlanHot,
    PlanSkeleton, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

struct Harness {
    schema: Arc<Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    })
}

fn query_pool(seed: u64, n: usize) -> Vec<Query> {
    WorkloadGenerator::new(
        Arc::clone(&harness().schema),
        WorkloadConfig::default(),
        seed,
    )
    .take(n)
    .collect()
}

/// Every column the pool's queries read, in first-seen order.
fn pool_columns(pool: &[Query]) -> Vec<ColumnId> {
    let mut columns: Vec<ColumnId> = Vec::new();
    for q in pool {
        for c in q.all_columns() {
            if !columns.contains(&c) {
                columns.push(c);
            }
        }
    }
    columns
}

/// Applies one random cache-history op at `t`: installs (with builds in
/// flight), evictions and idle advances over the pool's columns, the
/// candidate indexes and extra CPU nodes.
fn apply_op(cache: &mut CacheState, columns: &[ColumnId], op: u8, sel: u8, t: SimTime, build: f64) {
    let h = harness();
    let key = match sel % 3 {
        0 => StructureKey::Column(columns[sel as usize % columns.len()]),
        1 => StructureKey::Index(h.candidates[sel as usize % h.candidates.len()].id),
        _ => StructureKey::Node(u32::from(sel) % 3),
    };
    match op {
        0 | 1 => {
            if !cache.contains(key) {
                cache.install(
                    key,
                    64 + u64::from(sel) * 1_000,
                    t,
                    SimDuration::from_secs(build),
                    Money::from_dollars(0.01 + f64::from(sel) * 1e-3),
                    10 + u64::from(sel),
                );
            }
        }
        2 => {
            let _ = cache.evict(key, t);
        }
        _ => cache.advance(t),
    }
}

/// Per-node options: structural switches and rate-derived halves both
/// vary across the batch.
fn node_opts(i: usize, salt: u64) -> EnumerationOptions {
    EnumerationOptions {
        allow_indexes: !(i as u64 + salt).is_multiple_of(3),
        allow_extra_nodes: (i as u64 + salt) % 4 != 1,
        amortize_n: 1 + (salt * 31 + i as u64 * 7) % 2_000,
        maint_window: SimDuration::from_secs(1.0 + ((salt + i as u64) % 7) as f64 * 97.0),
    }
}

proptest! {
    /// Random per-node cache histories (installs with in-flight builds,
    /// evictions, idle gaps) at random node counts: one batched gather +
    /// per-node emits equals N independent per-node completions, bit for
    /// bit — plans and missing-build quote tables alike.
    #[test]
    fn batch_completion_is_bit_identical_to_per_node(
        seed in 0u64..1_000,
        n_nodes in 1usize..9,
        ops in prop::collection::vec((0u8..4, 0u8..32, 0u8..8, 0.0f64..90.0, 0.0f64..40.0), 8..30),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed, 4);
        let columns = pool_columns(&pool);

        // Each node evolves its own cache from the shared op stream
        // (every node takes the ops whose `node_pick` lands on it, so
        // the states genuinely diverge).
        let mut caches: Vec<CacheState> = (0..n_nodes).map(|_| CacheState::new()).collect();
        let mut now = 0.0f64;
        let mut completer = BatchCompleter::new();
        for (step, &(op, sel, node_pick, gap, build)) in ops.iter().enumerate() {
            now += gap;
            let t = SimTime::from_secs(now);
            apply_op(&mut caches[node_pick as usize % n_nodes], &columns, op, sel, t, build);

            let q = &pool[sel as usize % pool.len()];
            let skel = PlanSkeleton::build(&ctx, q);
            let views: Vec<CacheView<'_>> = caches
                .iter()
                .enumerate()
                .map(|(i, cache)| CacheView {
                    cache,
                    opts: node_opts(i, seed + step as u64),
                })
                .collect();
            let mut batch_bufs: Vec<PlanBuffer> =
                (0..n_nodes).map(|_| PlanBuffer::new()).collect();
            {
                let mut refs: Vec<&mut PlanBuffer> = batch_bufs.iter_mut().collect();
                complete_plans_batch(
                    &mut completer,
                    &skel,
                    &views,
                    t,
                    |s, span| h.estimator.maintenance(s, span),
                    &mut refs,
                );
            }
            for (i, view) in views.iter().enumerate() {
                let mut reference = PlanBuffer::new();
                complete_plans_into(
                    &skel,
                    view.cache,
                    t,
                    view.opts,
                    |s, span| h.estimator.maintenance(s, span),
                    &mut reference,
                );
                prop_assert_eq!(
                    batch_bufs[i].take(),
                    reference.take(),
                    "plans diverged at step {} node {} (t={})", step, i, now
                );
                prop_assert_eq!(
                    batch_bufs[i].take_missing_costs(),
                    reference.take_missing_costs(),
                    "missing-build quotes diverged at step {} node {}", step, i
                );
            }
        }
    }

    /// Bid rows straight from the gathered lanes: for every node of a
    /// round, `emit_hot` writes exactly the rows `PlanHot::fill`
    /// projects from `emit_into`'s plan set — same order, same time,
    /// price and existing bits — over random cache histories,
    /// heterogeneous per-node options (index plans off, extra nodes off,
    /// varied horizons and windows) and rounds that leave a random
    /// subset of nodes out of the gather, as the router leaves out
    /// unroutable ones.
    #[test]
    fn hot_rows_match_full_emission(
        seed in 0u64..1_000,
        n_nodes in 1usize..9,
        ops in prop::collection::vec((0u8..4, 0u8..32, 0u8..8, 0.0f64..90.0, 0.0f64..40.0), 8..30),
        masks in prop::collection::vec(0u8..255, 30..31),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed.wrapping_add(7), 4);
        let columns = pool_columns(&pool);
        // Even nodes start with every column the pool reads, so column
        // plans exist there and extra-CPU-node cells decide whether a
        // row is existing; odd nodes start cold.
        let mut caches: Vec<CacheState> = (0..n_nodes)
            .map(|i| {
                let mut cache = CacheState::new();
                if i % 2 == 0 {
                    for &c in &columns {
                        cache.install(
                            StructureKey::Column(c),
                            1_000,
                            SimTime::ZERO,
                            SimDuration::ZERO,
                            Money::from_dollars(0.01),
                            10,
                        );
                    }
                }
                cache
            })
            .collect();
        let mut now = 0.0f64;
        let mut completer = BatchCompleter::new();
        let mut hot = PlanHot::new();
        for (step, (&(op, sel, node_pick, gap, build), &mask)) in ops.iter().zip(&masks).enumerate() {
            now += gap;
            let t = SimTime::from_secs(now);
            apply_op(&mut caches[node_pick as usize % n_nodes], &columns, op, sel, t, build);

            // Nodes whose mask bit is clear sit this round out.
            let routable: Vec<usize> = (0..n_nodes).filter(|&i| mask & (1 << i) != 0).collect();
            if routable.is_empty() {
                continue;
            }
            let q = &pool[sel as usize % pool.len()];
            let skel = PlanSkeleton::build(&ctx, q);
            let views: Vec<CacheView<'_>> = routable
                .iter()
                .map(|&i| CacheView {
                    cache: &caches[i],
                    opts: node_opts(i, seed + step as u64),
                })
                .collect();
            completer.gather(
                &skel,
                views.len(),
                |j| views[j],
                t,
                |s, span| h.estimator.maintenance(s, span),
            );
            for (j, &node) in routable.iter().enumerate() {
                let mut buf = PlanBuffer::new();
                completer.emit_into(&skel, j, &mut buf);
                let full = PlanHot::of(&buf.take());
                completer.emit_hot(&skel, j, &mut hot);
                prop_assert_eq!(&hot.time, &full.time, "times at step {} node {}", step, node);
                prop_assert_eq!(&hot.price, &full.price, "prices at step {} node {}", step, node);
                prop_assert_eq!(
                    &hot.existing, &full.existing, "existing at step {} node {}", step, node
                );
            }
        }
    }

    /// The fleet bid path: a group of managers quoted through
    /// `QuoteBatch` must bid, memoize and serve exactly like a twin
    /// group quoted per node — across random arrival interleavings that
    /// exercise memo hits, price refreshes, stale completions and
    /// misses, and random nodes sitting rounds out as unroutable. Each
    /// world commits only its round winner (`QuoteBatch::commit`, and
    /// `commit_quote` for the twin), the winner actually serves, and
    /// every node's memo counters must agree after every round.
    #[test]
    fn batched_quote_rounds_match_sequential_quotes(
        seed in 0u64..1_000,
        picks in prop::collection::vec((0usize..10, 0u8..6, 0u8..32), 15..50),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed.wrapping_add(41), 10);
        let n_nodes = 5usize;
        let biting = |plan_cache: bool| EconConfig {
            initial_credit: Money::from_dollars(0.02),
            investment: InvestmentRule {
                min_regret: Money::from_dollars(1e-5),
                ..InvestmentRule::default()
            },
            plan_cache,
            ..EconConfig::default()
        };
        // Node 3 runs with memoization disabled so the unmemoized batch
        // arm is exercised alongside slots.
        let mut batched: Vec<EconomyManager> = (0..n_nodes)
            .map(|i| EconomyManager::new(biting(i != 3)))
            .collect();
        let mut sequential: Vec<EconomyManager> = (0..n_nodes)
            .map(|i| EconomyManager::new(biting(i != 3)))
            .collect();
        let mut workspace = QuoteBatch::new();

        let mut now = SimTime::ZERO;
        for &(pick, gap_code, mask) in &picks {
            let gap = match gap_code {
                0 => 0.0,
                1 => 0.25,
                2 => 1.0,
                3 => 5.0,
                4 => 60.0,
                _ => 1800.0,
            };
            now += SimDuration::from_secs(gap);
            let query = &pool[pick];
            // Nodes whose mask bit is clear are unroutable this round;
            // node 0 always bids, so every round has a winner.
            let routable = |i: usize| i == 0 || mask & (1 << i) != 0;

            let skel_a = LazySkeleton::new(&ctx, query);
            let bids_a: Vec<Option<Money>> = workspace
                .quote_round(
                    n_nodes,
                    |i| routable(i).then_some(&batched[i]),
                    |_| Money::ZERO, // unroutable: never read
                    &ctx,
                    query,
                    &skel_a,
                    now,
                )
                .iter()
                .enumerate()
                .map(|(i, &bid)| routable(i).then_some(bid))
                .collect();

            let skel_b = LazySkeleton::new(&ctx, query);
            let bids_b: Vec<Option<Money>> = sequential
                .iter()
                .enumerate()
                .map(|(i, m)| routable(i).then(|| m.quote_with_skeleton(&ctx, query, &skel_b, now)))
                .collect();
            prop_assert_eq!(&bids_a, &bids_b, "bids diverged at {}", now);

            // Lowest-indexed minimum bidder commits and serves, in both
            // worlds.
            let mut winner = 0;
            for (i, bid) in bids_a.iter().enumerate() {
                if bid.is_some_and(|b| Some(b) < bids_a[winner]) {
                    winner = i;
                }
            }
            workspace.commit(winner, &batched[winner]);
            sequential[winner].commit_quote(&ctx, query, &skel_b, now);
            for (a, b) in batched.iter().zip(&sequential) {
                prop_assert_eq!(a.plan_cache_stats(), b.plan_cache_stats(), "memo stats diverged at {}", now);
            }
            let out_a = batched[winner].process_query(&ctx, query, now);
            let out_b = sequential[winner].process_query(&ctx, query, now);
            prop_assert_eq!(&out_a, &out_b, "outcomes diverged at {}", now);
        }
        for (a, b) in batched.iter().zip(&sequential) {
            prop_assert_eq!(a.plan_cache_stats(), b.plan_cache_stats(), "memo stats diverged");
            prop_assert_eq!(a.account().balance(), b.account().balance());
            prop_assert!(a.account().balances_exactly());
        }
    }
}

/// Non-economic nodes fall back to the caller's closure, bit for bit.
#[test]
fn quote_round_fallback_covers_non_economic_nodes() {
    let h = harness();
    let ctx = h.ctx();
    let pool = query_pool(7, 1);
    let query = &pool[0];
    let manager = EconomyManager::new(EconConfig::default());
    let mut workspace = QuoteBatch::new();
    let skel = LazySkeleton::new(&ctx, query);
    let now = SimTime::from_secs(1.0);
    let sentinel = Money::from_dollars(123.0);
    let bids = workspace.quote_round(
        3,
        |i| (i == 1).then_some(&manager),
        |i| sentinel.scale(i as f64 + 1.0),
        &ctx,
        query,
        &skel,
        now,
    );
    assert_eq!(bids[0], sentinel);
    assert_eq!(bids[2], sentinel.scale(3.0));
    assert_eq!(bids[1], manager.quote_query(&ctx, query, now));
}

/// Only the round winner's memo is warmed: the winning node's serve
/// reuses the plan set its bid completed (a hit, not a second miss),
/// while the losers, which will never serve this query, hold no slot —
/// a second round for the same query misses on them again.
#[test]
fn batched_quotes_warm_the_plan_memo() {
    let h = harness();
    let ctx = h.ctx();
    let pool = query_pool(11, 1);
    let query = &pool[0];
    let mut managers: Vec<EconomyManager> = (0..3)
        .map(|_| EconomyManager::new(EconConfig::default()))
        .collect();
    let mut workspace = QuoteBatch::new();
    let now = SimTime::from_secs(1.0);
    let skel = LazySkeleton::new(&ctx, query);
    let _ = workspace.quote_round(
        3,
        |i| Some(&managers[i]),
        |_| unreachable!(),
        &ctx,
        query,
        &skel,
        now,
    );
    for m in &managers {
        assert_eq!(m.plan_cache_stats().misses, 1, "the bid looked up once");
    }
    workspace.commit(0, &managers[0]);
    let _ = managers[0].process_query(&ctx, query, now);
    let stats = managers[0].plan_cache_stats();
    assert_eq!(stats.misses, 1, "the serve reused the bid's plan set");
    assert_eq!(stats.hits, 1);

    // Node 0 has served and moved on; a fresh round for the same
    // instance finds no slot on the losers.
    let later = SimTime::from_secs(2.0);
    let skel = LazySkeleton::new(&ctx, query);
    let _ = workspace.quote_round(
        3,
        |i| (i > 0).then_some(&managers[i]),
        |_| Money::ZERO,
        &ctx,
        query,
        &skel,
        later,
    );
    for m in &managers[1..] {
        let stats = m.plan_cache_stats();
        assert_eq!(stats.misses, 2, "losers memoized nothing: {stats:?}");
        assert_eq!(stats.hits, 0);
    }
}

//! Memoized planning — the bit-identity contract.
//!
//! The plan memo (`econ::plancache`) must be *observably absent*: a
//! manager running with memoization produces exactly the same
//! `QueryOutcome`s, account balances, quotes and investment decisions as
//! one planning every query from scratch, over arbitrary interleavings of
//! arrivals (including simultaneous ones), quoted and unquoted serves,
//! repeated instances, installs, failures and evictions. The fleet's
//! cheapest-quote routing must likewise be unchanged. Alongside, the
//! cache planning epoch must be monotone — the property the handoff's
//! validity check rests on.
//!
//! The memo is a one-slot quote→serve handoff: a winning bid's commit
//! (`commit_quote`) writes its plan set into the slot, and the serve
//! that follows takes it. A bid (`quote_query`) neither reads nor writes
//! it and moves no counter. So every test that exercises hits drives
//! quote → commit → serve for each arrival.

use std::sync::Arc;

use cloudcache::cache::{CacheState, StructureKey};
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::ColumnId;
use cloudcache::econ::{BudgetShape, EconConfig, EconomyManager, InvestmentRule};
use cloudcache::fleet::{FleetConfig, FleetSim, RouterKind};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

struct Harness {
    schema: Arc<cloudcache::catalog::Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
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
        Harness {
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
}

/// Economics that invest and fail structures within a short run.
fn biting_config(plan_cache: bool) -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        plan_cache,
        ..EconConfig::default()
    }
}

/// A pool of `fresh` generated instances.
fn query_pool(harness: &Harness, seed: u64, fresh: usize) -> Vec<Query> {
    WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), seed)
        .take(fresh)
        .collect()
}

proptest! {
    /// Two managers — one memoized, one planning fresh — driven through
    /// the same randomized arrival sequence (repeats, bursts, ties and
    /// long idle gaps included) must report identical outcomes, balances
    /// and regret totals, while the cache epoch stays monotone. Most
    /// arrivals are quoted and committed before they are served, so the
    /// serve takes the plan set the commit handed off; some are served
    /// without a quote, and some after another query's commit (the
    /// slot a timeout re-route leaves behind), so misses interleave with
    /// handoff hits.
    #[test]
    fn memoized_and_fresh_managers_agree(
        seed in 0u64..1_000,
        picks in prop::collection::vec((0usize..24, 0u8..6, 0u8..4), 40..160),
    ) {
        let harness = Harness::new();
        let ctx = harness.ctx();
        let pool = query_pool(&harness, seed, 24);
        let mut memo = EconomyManager::new(biting_config(true));
        let mut fresh = EconomyManager::new(biting_config(false));

        let mut now = SimTime::ZERO;
        let mut last_epoch = 0u64;
        for &(pick, gap_code, kind) in &picks {
            // Gap 0 produces simultaneous arrivals; large gaps trigger
            // maintenance backlogs and structure failure.
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

            // Kind 0 serves without a quote, kind 1 after committing
            // another query; the others quote and commit the served one.
            if kind != 0 {
                let quoted = if kind == 1 { &pool[(pick + 1) % pool.len()] } else { query };
                let quote_memo = memo.quote_query(&ctx, quoted, now);
                let quote_fresh = fresh.quote_query(&ctx, quoted, now);
                prop_assert_eq!(quote_memo, quote_fresh, "quotes diverged at {}", now);
                memo.commit_quote(&ctx, quoted, now);
                fresh.commit_quote(&ctx, quoted, now);
            }

            let out_memo = memo.process_query(&ctx, query, now);
            let out_fresh = fresh.process_query(&ctx, query, now);
            prop_assert_eq!(&out_memo, &out_fresh, "outcomes diverged at {}", now);

            let epoch = memo.cache().epoch(now);
            prop_assert!(epoch >= last_epoch, "epoch regressed: {} < {}", epoch, last_epoch);
            last_epoch = epoch;

            prop_assert_eq!(memo.account().balance(), fresh.account().balance());
            prop_assert_eq!(memo.regret().total(), fresh.regret().total());
            prop_assert_eq!(memo.cache().len(), fresh.cache().len());
            prop_assert_eq!(memo.cache().disk_used(), fresh.cache().disk_used());
        }
        prop_assert!(memo.account().balances_exactly());
        prop_assert!(fresh.account().balances_exactly());
        // The run must actually have exercised the memo.
        let stats = memo.plan_cache_stats();
        prop_assert!(stats.hits + stats.misses > 0);
    }

    /// The planning epoch is monotone over random install / evict /
    /// advance sequences with in-flight builds.
    #[test]
    fn cache_epoch_is_monotone(
        ops in prop::collection::vec((0u8..3, 0u32..16, 0.0f64..40.0, 0.0f64..30.0), 1..80),
    ) {
        let mut cache = CacheState::new();
        let mut now = 0.0f64;
        let mut last_epoch = 0u64;
        for &(op, col, gap, build) in &ops {
            now += gap;
            let t = SimTime::from_secs(now);
            let key = StructureKey::Column(ColumnId(col));
            match op {
                0 => {
                    if !cache.contains(key) {
                        cache.install(
                            key,
                            64 + u64::from(col),
                            t,
                            SimDuration::from_secs(build),
                            Money::from_dollars(0.01),
                            10,
                        );
                    }
                }
                1 => {
                    let _ = cache.evict(key, t);
                }
                _ => cache.advance(t),
            }
            let epoch = cache.epoch(t);
            prop_assert!(
                epoch >= last_epoch,
                "epoch regressed after op {}: {} < {}",
                op,
                epoch,
                last_epoch
            );
            last_epoch = epoch;
        }
    }
}

/// One concrete instance per template, replayed with the paper-scale
/// default economics: each arrival is quoted, committed, then served,
/// and every serve takes its own commit's handoff — a hit, or a re-plan
/// when the serve's failure scan moved the cache epoch — never a miss.
/// The memo keeps nothing across arrivals, so the replays earn nothing
/// beyond the handoff.
#[test]
fn replayed_instances_hit_the_plan_cache() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), 7);
    let templates = gen.templates().len();
    let mut picked: Vec<Option<Query>> = vec![None; templates];
    while picked.iter().any(Option::is_none) {
        let q = gen.next_query();
        let slot = q.template.0;
        picked[slot].get_or_insert(q);
    }
    let pool: Vec<Query> = picked.into_iter().map(Option::unwrap).collect();
    let mut manager = EconomyManager::new(EconConfig::default());
    let n = 700usize;
    for i in 0..n {
        let now = SimTime::from_secs((i + 1) as f64);
        let query = &pool[i % pool.len()];
        let _ = manager.quote_query(&ctx, query, now);
        manager.commit_quote(&ctx, query, now);
        let _ = manager.process_query(&ctx, query, now);
    }
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats.misses, 0,
        "every serve had its handoff, saw {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.completions,
        n as u64,
        "every serve reuses its commit's plan set, saw {stats:?}"
    );
    assert!(
        stats.hits >= 690,
        "a stable cache serves the handoff as committed, saw {stats:?}"
    );
}

/// A serve takes the handoff but never fills it: repeated serve-only
/// arrivals of one instance miss every time, one committed quote of the
/// instance hands its plan set to the serve that follows, and the next
/// serve-only arrival misses again because that serve emptied the slot.
#[test]
fn serves_never_fill_the_plan_memo() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let query = query_pool(&harness, 3, 1).remove(0);
    let mut manager = EconomyManager::new(EconConfig::default());
    let n = 50u64;
    for i in 0..n {
        let now = SimTime::from_secs((i + 1) as f64);
        let _ = manager.process_query(&ctx, &query, now);
    }
    let stats = manager.plan_cache_stats();
    assert_eq!(stats.hits, 0, "serves memoized a plan set: {stats:?}");
    assert_eq!(stats.misses, n, "{stats:?}");

    let now = SimTime::from_secs((n + 1) as f64);
    let _ = manager.quote_query(&ctx, &query, now);
    manager.commit_quote(&ctx, &query, now);
    let _ = manager.process_query(&ctx, &query, now);
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats.misses, n,
        "the quote and commit count nothing: {stats:?}"
    );
    assert_eq!(stats.hits, 1, "the serve takes the handoff: {stats:?}");

    let now = SimTime::from_secs((n + 2) as f64);
    let _ = manager.process_query(&ctx, &query, now);
    let stats = manager.plan_cache_stats();
    assert_eq!(stats.misses, n + 1, "the handoff was taken: {stats:?}");
    assert_eq!(stats.hits, 1, "{stats:?}");
}

/// A bid neither reads nor writes the memo: it moves no counter, and a
/// quote with no commit leaves the slot empty, so the serve that
/// follows misses; the same quote plus its commit hands the plan set
/// over, and the serve hits it.
#[test]
fn quote_query_writes_no_slot() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let query = query_pool(&harness, 13, 1).remove(0);
    let mut manager = EconomyManager::new(EconConfig::default());

    let now = SimTime::from_secs(1.0);
    let _ = manager.quote_query(&ctx, &query, now);
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats,
        Default::default(),
        "a bid moved a counter: {stats:?}"
    );
    let _ = manager.process_query(&ctx, &query, now);
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats.hits, 0,
        "a quote without a commit wrote a slot: {stats:?}"
    );
    assert_eq!(stats.misses, 1, "{stats:?}");

    let now = SimTime::from_secs(2.0);
    let _ = manager.quote_query(&ctx, &query, now);
    manager.commit_quote(&ctx, &query, now);
    let _ = manager.process_query(&ctx, &query, now);
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats.misses, 1,
        "the quote and commit count nothing: {stats:?}"
    );
    assert_eq!(
        stats.hits, 1,
        "the serve takes the committed plan set: {stats:?}"
    );
}

/// A bid followed by a serve must reuse the bid's plan set even though
/// processing updates the observed arrival statistics (and with them the
/// amortisation horizon and maintenance window) between the two calls —
/// the fleet quote-round regime, under deliberately irregular arrivals.
/// The moved options show up as refreshes, never as misses.
#[test]
fn quote_then_serve_reuses_the_quotes_plan_set() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let pool = query_pool(&harness, 21, 12);
    let mut manager = EconomyManager::new(EconConfig::default());
    let gaps = [0.3, 7.0, 1.0, 0.0, 42.0, 2.5, 11.0, 0.9];
    let mut now = SimTime::ZERO;
    let n = 200usize;
    for i in 0..n {
        now += SimDuration::from_secs(gaps[i % gaps.len()]);
        let query = &pool[i % pool.len()];
        let _ = manager.quote_query(&ctx, query, now);
        manager.commit_quote(&ctx, query, now);
        let _ = manager.process_query(&ctx, query, now);
    }
    let stats = manager.plan_cache_stats();
    assert_eq!(stats.misses, 0, "{stats:?}");
    assert_eq!(
        stats.hits + stats.completions,
        n as u64,
        "every serve should take the plan set its own quote committed, saw {stats:?}"
    );
    assert!(
        stats.refreshes > 0,
        "the serves re-quote moved options: {stats:?}"
    );
}

/// When the serve's own failure scan moves the cache epoch under a
/// committed plan set, the serve re-plans the query by fused enumeration,
/// counted as a completion rather than a miss. Each arrival is quoted,
/// committed, then served; the long gaps let maintenance debts fail
/// structures between a commit's pricing and the next arrivals.
#[test]
fn epoch_changes_replan_the_slot_in_place_without_a_miss() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&harness.schema), WorkloadConfig::default(), 9);
    let templates = gen.templates().len();
    let mut picked: Vec<Option<Query>> = vec![None; templates];
    while picked.iter().any(Option::is_none) {
        let q = gen.next_query();
        let slot = q.template.0;
        picked[slot].get_or_insert(q);
    }
    let pool: Vec<Query> = picked.into_iter().map(Option::unwrap).collect();
    // Biting economics: investments fire within the run, and the
    // structures they buy fail over the long gaps.
    let mut manager = EconomyManager::new(biting_config(true));
    let mut invested = 0usize;
    let mut evicted = 0usize;
    let gaps = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1800.0];
    let mut now = SimTime::ZERO;
    let n = 2_500usize;
    for i in 0..n {
        now += SimDuration::from_secs(gaps[i % gaps.len()]);
        let query = &pool[i % pool.len()];
        let _ = manager.quote_query(&ctx, query, now);
        manager.commit_quote(&ctx, query, now);
        let o = manager.process_query(&ctx, query, now);
        invested += o.investments.len();
        evicted += o.evictions.len();
    }
    assert!(invested > 0, "economics must bite for this test to bite");
    assert!(evicted > 0, "structures must fail for this test to bite");
    let stats = manager.plan_cache_stats();
    assert_eq!(
        stats.misses, 0,
        "epoch changes must not cause misses, saw {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.completions,
        n as u64,
        "every serve reuses or re-plans its handoff, saw {stats:?}"
    );
    assert!(
        stats.completions > 0,
        "epoch changes should re-plan handoffs, saw {stats:?}"
    );
    assert!(stats.hits > stats.completions, "stable stretches dominate");
}

/// The handoff serves only the query it was committed for. A serve of
/// another query misses, plans fresh and matches a memo-off twin bit for
/// bit, and it empties the slot, so a later serve of the committed query
/// misses too. The retry path serves the committed query with a decayed
/// `budget_scale`: that is the same planning fingerprint, so the serve
/// hits, and its outcome is the decayed query's, not the committed one's.
#[test]
fn a_handoff_serves_only_its_own_query() {
    let harness = Harness::new();
    let ctx = harness.ctx();
    let pool = query_pool(&harness, 29, 40);
    let q1 = &pool[0];
    let q2 = pool
        .iter()
        .find(|q| q.template != q1.template)
        .expect("the pool spans templates");
    let mut memo = EconomyManager::new(biting_config(true));
    let mut fresh = EconomyManager::new(biting_config(false));
    let mut now = SimTime::ZERO;
    // Warm both caches so the plan sets carry cached plans.
    for q in &pool {
        now += SimDuration::from_secs(1.0);
        let a = memo.process_query(&ctx, q, now);
        let b = fresh.process_query(&ctx, q, now);
        assert_eq!(a, b);
    }
    let base = memo.plan_cache_stats();

    // Commit q1, serve q2: a miss, planned fresh.
    now += SimDuration::from_secs(1.0);
    let _ = memo.quote_query(&ctx, q1, now);
    memo.commit_quote(&ctx, q1, now);
    let a = memo.process_query(&ctx, q2, now);
    let b = fresh.process_query(&ctx, q2, now);
    assert_eq!(a, b, "another query's handoff leaked into the serve");
    let stats = memo.plan_cache_stats();
    assert_eq!(stats.misses, base.misses + 1, "{stats:?}");
    assert_eq!(stats.hits, base.hits, "{stats:?}");

    // That serve emptied the slot: q1 now misses too.
    now += SimDuration::from_secs(1.0);
    let a = memo.process_query(&ctx, q1, now);
    let b = fresh.process_query(&ctx, q1, now);
    assert_eq!(a, b);
    let stats = memo.plan_cache_stats();
    assert_eq!(stats.misses, base.misses + 2, "{stats:?}");
    assert_eq!(stats.hits, base.hits, "{stats:?}");

    // Commit q1, serve q1 with a decayed budget: a hit that charges the
    // decayed budget.
    now += SimDuration::from_secs(1.0);
    let mut decayed = q1.clone();
    decayed.budget_scale = 1.0 + (q1.budget_scale - 1.0) / 2.0;
    let _ = memo.quote_query(&ctx, q1, now);
    memo.commit_quote(&ctx, q1, now);
    let a = memo.process_query(&ctx, &decayed, now);
    let b = fresh.process_query(&ctx, &decayed, now);
    assert_eq!(a, b, "the decayed serve must price the decayed budget");
    let stats = memo.plan_cache_stats();
    assert_eq!(stats.misses, base.misses + 2, "{stats:?}");
    assert_eq!(
        stats.hits + stats.completions,
        base.hits + base.completions + 1,
        "{stats:?}"
    );
    assert_eq!(stats.hits, base.hits + 1, "{stats:?}");
    assert_eq!(memo.account().balance(), fresh.account().balance());
}

/// Cheapest-quote routing decisions must be unchanged by memoization:
/// identical per-node query counts, payments and responses whether the
/// fleet's economies memoize or plan fresh — under both budget shapes
/// and on both quote paths (batched rounds, and per-node fused bids with
/// `commit_quote` on the winner). Under a step budget every round is
/// decided from the budgets alone; under a convex budget the rounds run
/// in full, so the winner's committed plan set is what its serve takes
/// (the handoff): the traced registry must count one hit or completion
/// per round and no miss.
#[test]
fn fleet_routing_is_unchanged_by_memoization() {
    for shape in [BudgetShape::Step, BudgetShape::Convex] {
        for batching in [true, false] {
            let run = |plan_cache: bool| {
                let mut config = FleetConfig::mixed(10, 3, 60);
                config.scale_factor = 10.0;
                config.cells = 5;
                config.shards = 2;
                config.router = RouterKind::CheapestQuote;
                config.seed = 17;
                config.quote_batching = batching;
                config.econ.budget_shape = shape;
                config.econ.plan_cache = plan_cache;
                FleetSim::new(config).run_traced()
            };
            let (memo, trace) = run(true);
            let (fresh, _) = run(false);
            let what = format!("{shape:?} budgets, batching {batching}");

            assert_eq!(memo.queries, fresh.queries, "{what}");
            assert_eq!(memo.payments, fresh.payments, "{what}");
            assert_eq!(memo.profit, fresh.profit, "{what}");
            assert_eq!(memo.cache_hits, fresh.cache_hits, "{what}");
            assert_eq!(memo.investments, fresh.investments, "{what}");
            assert_eq!(memo.evictions, fresh.evictions, "{what}");
            assert_eq!(
                memo.total_operating_cost(),
                fresh.total_operating_cost(),
                "{what}: operating cost must not depend on memoization"
            );
            assert_eq!(
                memo.mean_response_secs().to_bits(),
                fresh.mean_response_secs().to_bits(),
                "{what}"
            );
            for (m, f) in memo.nodes.iter().zip(&fresh.nodes) {
                assert_eq!(
                    m.queries, f.queries,
                    "{what}: node {} routed differently",
                    m.node
                );
                assert_eq!(m.payments, f.payments, "{what}");
            }
            for (m, f) in memo.tenants.iter().zip(&fresh.tenants) {
                assert_eq!(m.queries, f.queries, "{what}");
                assert_eq!(m.payments, f.payments, "{what}");
            }

            if shape == BudgetShape::Convex {
                let registry = &trace.registry;
                let full = registry.counter("router.full_rounds");
                let hits = registry.counter("plan_cache.hits");
                let completions = registry.counter("plan_cache.completions");
                assert!(full > 0, "{what}: the quote rounds must run in full");
                assert_eq!(
                    registry.counter("plan_cache.misses"),
                    0,
                    "{what}: bids count nothing and every serve has its handoff"
                );
                assert_eq!(
                    hits + completions,
                    full,
                    "{what}: every round's winner serves its committed plan set"
                );
                assert!(hits > 0, "{what}");
            }
        }
    }
}

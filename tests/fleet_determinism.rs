//! Fleet determinism and shard invariance — the acceptance properties of
//! the sharded executor:
//!
//! 1. same seed ⇒ identical `FleetResult` (pure function of the config);
//! 2. fleet aggregates are invariant under the shard (worker-thread)
//!    count: 1 worker and 4 workers produce bit-identical cost and mean
//!    response time;
//! 3. cheapest-quote aggregates are invariant under the quote fan-out
//!    worker-pool size: gathering per-node bids from 1, 2, 4 or 8
//!    threads picks bit-identical winners (the deterministic merge of
//!    `fleet::router::CheapestQuote`), under step budgets, which decide
//!    rounds from the budget alone, and convex ones, which run them in
//!    full;
//! 4. the global round winner's commit hands its plan set to its serve,
//!    so every pool size and both completion paths leave identical
//!    plan-cache state.

use cloudcache::econ::BudgetShape;
use cloudcache::fleet::{
    run_fleet, CacheNode, CheapestQuote, FleetConfig, FleetResult, NodeSpec, QuoteOptions, Router,
    RouterKind,
};

fn config(router: RouterKind, shards: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::mixed(12, 3, 80);
    config.scale_factor = 10.0;
    config.cells = 6;
    config.shards = shards;
    config.router = router;
    config.seed = seed;
    config
}

/// Every measurement that must match between two runs, f64s compared by
/// bit pattern.
fn fingerprint(r: &FleetResult) -> Vec<(String, String)> {
    let mut parts = vec![
        ("router".to_string(), r.router.clone()),
        ("queries".to_string(), r.queries.to_string()),
        ("horizon".to_string(), r.horizon_secs.to_bits().to_string()),
        (
            "cost".to_string(),
            r.total_operating_cost().as_nanos().to_string(),
        ),
        (
            "mean".to_string(),
            r.mean_response_secs().to_bits().to_string(),
        ),
        ("payments".to_string(), r.payments.as_nanos().to_string()),
        ("profit".to_string(), r.profit.as_nanos().to_string()),
        ("hits".to_string(), r.cache_hits.to_string()),
        ("builds".to_string(), r.investments.to_string()),
        ("evictions".to_string(), r.evictions.to_string()),
    ];
    for t in &r.tenants {
        parts.push((
            format!("tenant{}", t.tenant.0),
            format!(
                "{}|{}|{}|{}",
                t.queries,
                t.response.mean().to_bits(),
                t.payments.as_nanos(),
                t.cache_hits
            ),
        ));
    }
    for n in &r.nodes {
        parts.push((
            format!("node{}", n.node),
            format!(
                "{}|{}|{}|{}|{}",
                n.queries,
                n.response.mean().to_bits(),
                n.total_operating_cost().as_nanos(),
                n.profit.as_nanos(),
                n.investments
            ),
        ));
    }
    parts
}

#[test]
fn same_seed_produces_identical_fleet_results() {
    for router in RouterKind::all() {
        let a = run_fleet(config(router, 1, 42));
        let b = run_fleet(config(router, 1, 42));
        assert_eq!(fingerprint(&a), fingerprint(&b), "router {}", a.router);
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_fleet(config(RouterKind::CheapestQuote, 1, 1));
    let b = run_fleet(config(RouterKind::CheapestQuote, 1, 2));
    assert_ne!(
        a.mean_response_secs().to_bits(),
        b.mean_response_secs().to_bits(),
        "two seeds should not produce identical fleets"
    );
}

#[test]
fn aggregates_invariant_under_shard_count() {
    for router in RouterKind::all() {
        let sequential = run_fleet(config(router, 1, 7));
        let parallel = run_fleet(config(router, 4, 7));

        // The headline acceptance pair: fleet-level cost and mean
        // response time, exactly equal.
        assert_eq!(
            sequential.total_operating_cost(),
            parallel.total_operating_cost(),
            "cost varied with shard count under {}",
            sequential.router
        );
        assert_eq!(
            sequential.mean_response_secs().to_bits(),
            parallel.mean_response_secs().to_bits(),
            "mean response varied with shard count under {}",
            sequential.router
        );
        // And everything else too.
        assert_eq!(
            fingerprint(&sequential),
            fingerprint(&parallel),
            "full fingerprint varied with shard count under {}",
            sequential.router
        );
    }
}

#[test]
fn aggregates_invariant_under_quote_thread_count() {
    // 8 nodes so the pool actually splits work; shards stay at 1 so only
    // the quote fan-out knob moves. Step budgets decide every round from
    // the budget alone; convex budgets run every round in full.
    for shape in [BudgetShape::Step, BudgetShape::Convex] {
        let run = |threads: usize| {
            let mut c = FleetConfig::mixed(10, 8, 60);
            c.scale_factor = 10.0;
            c.cells = 5;
            c.shards = 1;
            c.router = RouterKind::CheapestQuote;
            c.seed = 23;
            c.quote_threads = threads;
            c.econ.budget_shape = shape;
            run_fleet(c)
        };
        let sequential = run(1);
        for threads in [2, 4, 8] {
            let pooled = run(threads);
            assert_eq!(
                fingerprint(&sequential),
                fingerprint(&pooled),
                "{shape:?} aggregates varied at quote_threads={threads}"
            );
        }
    }
}

#[test]
fn oversubscribed_shards_are_harmless() {
    // More workers than cells clamps to the cell count.
    let few = run_fleet(config(RouterKind::LeastOutstanding, 2, 9));
    let many = run_fleet(config(RouterKind::LeastOutstanding, 64, 9));
    assert_eq!(fingerprint(&few), fingerprint(&many));
}

/// The persistent quote pool picks the sequential scan's winner on every
/// round of its lifetime — not just the first — at every pool size and
/// under both completion paths.
///
/// The executor clamps pools to the machine's spare parallelism, so this
/// test drives [`CheapestQuote`] directly: replica fleets (one per
/// router configuration) see the same query stream, every router routes
/// its own replica, the winner serves, and the chosen index must agree
/// with the sequential batched reference on every one of 60 consecutive
/// rounds — pool reuse across rounds with genuinely evolving node
/// state, exactly what the scoped-spawn → persistent-pool change must
/// not perturb.
#[test]
fn persistent_pool_winner_matches_sequential_across_rounds() {
    use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
    use cloudcache::planner::{
        generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
    };
    use cloudcache::pricing::PriceCatalog;
    use cloudcache::simcore::{NetworkModel, SimTime};
    use cloudcache::simulator::Scheme;
    use cloudcache::workload::{paper_templates, WorkloadConfig, WorkloadGenerator};
    use std::sync::Arc;

    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    // Convex budgets: a step budget would decide every bid before the
    // round, and no round would reach the pool.
    let econ = cloudcache::econ::EconConfig {
        initial_credit: cloudcache::pricing::Money::from_dollars(0.02),
        investment: cloudcache::econ::InvestmentRule {
            min_regret: cloudcache::pricing::Money::from_dollars(1e-5),
            ..cloudcache::econ::InvestmentRule::default()
        },
        budget_shape: cloudcache::econ::BudgetShape::Convex,
        ..cloudcache::econ::EconConfig::default()
    };
    let build_fleet = || -> Vec<CacheNode> {
        (0..8)
            .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &schema, &econ))
            .collect()
    };

    // (threads, batching, pinning): sequential batched is the reference;
    // pools of 2/4/8 workers, the per-node completion path, and
    // core-pinned pools must all agree — pinning is a placement hint, so
    // the winner sequence cannot move with it (or with whether the pins
    // actually took on this machine).
    let configs = [
        (1usize, true, false),
        (2, true, false),
        (4, true, true),
        (8, true, false),
        (8, true, true),
        (1, false, false),
        (8, false, true),
    ];
    let mut routers: Vec<CheapestQuote> = configs
        .iter()
        .map(|&(threads, batching, pinning)| {
            CheapestQuote::with_options(QuoteOptions {
                threads,
                batching,
                skeletons: None,
                pinning,
            })
        })
        .collect();
    let mut fleets: Vec<Vec<CacheNode>> = configs.iter().map(|_| build_fleet()).collect();

    let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 77);
    for round in 0..60 {
        let query = gen.next_query();
        let now = SimTime::from_secs((round + 1) as f64);
        let mut winners = Vec::with_capacity(configs.len());
        for (router, nodes) in routers.iter_mut().zip(&mut fleets) {
            for node in nodes.iter_mut() {
                node.accrue(now);
            }
            winners.push(router.route(nodes, &ctx, &query, now));
        }
        for (i, &winner) in winners.iter().enumerate() {
            assert_eq!(
                winner, winners[0],
                "round {round}: config {:?} disagreed with the sequential reference",
                configs[i]
            );
        }
        // The winner serves, so later rounds quote against evolved state.
        for (nodes, &winner) in fleets.iter_mut().zip(&winners) {
            let _ = nodes[winner].serve(&ctx, &query, now);
        }
    }
    for router in &routers {
        assert_eq!(router.quote_rounds().full, 60, "every round ran in full");
    }
}

/// Only the global round winner memoizes its plan set, whatever the
/// pool size: pooled cheapest-quote rounds at 2, 4 and 8 threads (and
/// the per-node completion path, sequential and pooled) must leave every
/// node's plan-cache counters equal to the sequential batched round's
/// after every round. A pooled round that committed a chunk's local
/// best instead of the global winner would leave the winner without a
/// handoff, and its serve would miss where the reference hits.
#[test]
fn pooled_rounds_commit_only_the_global_winner() {
    use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
    use cloudcache::planner::{
        generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
    };
    use cloudcache::pricing::PriceCatalog;
    use cloudcache::simcore::{NetworkModel, SimRng, SimTime};
    use cloudcache::simulator::Scheme;
    use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
    use std::sync::Arc;

    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    // Convex budgets: a step budget would decide every bid before the
    // round, and no round would reach the pool.
    let econ = cloudcache::econ::EconConfig {
        initial_credit: cloudcache::pricing::Money::from_dollars(0.02),
        investment: cloudcache::econ::InvestmentRule {
            min_regret: cloudcache::pricing::Money::from_dollars(1e-5),
            ..cloudcache::econ::InvestmentRule::default()
        },
        budget_shape: cloudcache::econ::BudgetShape::Convex,
        ..cloudcache::econ::EconConfig::default()
    };
    let build_fleet = || -> Vec<CacheNode> {
        (0..8)
            .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &schema, &econ))
            .collect()
    };

    // (threads, batching): the sequential batched round is the reference.
    let configs = [
        (1usize, true),
        (2, true),
        (4, true),
        (8, true),
        (1, false),
        (4, false),
    ];
    let mut routers: Vec<CheapestQuote> = configs
        .iter()
        .map(|&(threads, batching)| {
            CheapestQuote::with_options(QuoteOptions {
                threads,
                batching,
                skeletons: None,
                pinning: false,
            })
        })
        .collect();
    let mut fleets: Vec<Vec<CacheNode>> = configs.iter().map(|_| build_fleet()).collect();

    // A handful of instances drawn with repeats.
    let pool: Vec<Query> =
        WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 31)
            .take(6)
            .collect();
    let mut rng = SimRng::new(5);
    let stats =
        |nodes: &[CacheNode]| -> Vec<_> { nodes.iter().map(CacheNode::plan_cache_stats).collect() };
    let mut hits = 0;
    for round in 0..120 {
        let query = &pool[rng.gen_range(0, pool.len() as u64) as usize];
        let now = SimTime::from_secs((round / 2 + 1) as f64);
        let mut winners = Vec::with_capacity(configs.len());
        for (router, nodes) in routers.iter_mut().zip(&mut fleets) {
            for node in nodes.iter_mut() {
                node.accrue(now);
            }
            winners.push(router.route(nodes, &ctx, query, now));
        }
        let reference = stats(&fleets[0]);
        for (i, nodes) in fleets.iter().enumerate() {
            assert_eq!(
                winners[i], winners[0],
                "round {round}: config {:?} winner",
                configs[i]
            );
            assert_eq!(
                stats(nodes),
                reference,
                "round {round}: config {:?} left different memo state",
                configs[i]
            );
        }
        for (nodes, &winner) in fleets.iter_mut().zip(&winners) {
            let _ = nodes[winner].serve(&ctx, query, now);
        }
        hits = reference.iter().flatten().map(|s| s.hits).sum::<u64>();
    }
    assert!(hits > 0, "the repeated queries must exercise memo hits");
    for router in &routers {
        assert_eq!(router.quote_rounds().full, 120, "every round ran in full");
    }
}

//! Fleet determinism and shard invariance — the acceptance properties of
//! the sharded executor:
//!
//! 1. same seed ⇒ identical `FleetResult` (pure function of the config);
//! 2. fleet aggregates are invariant under the shard (worker-thread)
//!    count: 1 worker and 4 workers produce bit-identical cost and mean
//!    response time;
//! 3. cheapest-quote aggregates are invariant under the quote path:
//!    batched structure-major rounds and per-node fused bids pick
//!    bit-identical winners, under step budgets, which decide rounds
//!    from the budget alone, and convex ones, which run them in full.

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
fn aggregates_invariant_under_quote_path() {
    // 8 nodes and one shard, so only the quote path moves. Step budgets
    // decide every round from the budget alone; convex budgets run every
    // round in full.
    for shape in [BudgetShape::Step, BudgetShape::Convex] {
        let run = |batching: bool| {
            let mut c = FleetConfig::mixed(10, 8, 60);
            c.scale_factor = 10.0;
            c.cells = 5;
            c.shards = 1;
            c.router = RouterKind::CheapestQuote;
            c.seed = 23;
            c.quote_batching = batching;
            c.econ.budget_shape = shape;
            run_fleet(c)
        };
        assert_eq!(
            fingerprint(&run(true)),
            fingerprint(&run(false)),
            "{shape:?} aggregates varied with the quote path"
        );
    }
}

#[test]
fn oversubscribed_shards_are_harmless() {
    // More workers than cells clamps to the cell count.
    let few = run_fleet(config(RouterKind::LeastOutstanding, 2, 9));
    let many = run_fleet(config(RouterKind::LeastOutstanding, 64, 9));
    assert_eq!(fingerprint(&few), fingerprint(&many));
}

/// Batched rounds pick the per-node reference's winner on every round,
/// not just the first: replica fleets (one per quote path) see the same
/// query stream, every router routes its own replica, the winner
/// serves, and the chosen index must agree on every one of 60
/// consecutive rounds, with node state evolving between them.
#[test]
fn batched_winner_matches_per_node_across_rounds() {
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
    // round, and no round would run in full.
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

    // Batching: the batched round first, then the per-node reference.
    let configs = [true, false];
    let mut routers: Vec<CheapestQuote> = configs
        .iter()
        .map(|&batching| {
            CheapestQuote::with_options(QuoteOptions {
                batching,
                ..QuoteOptions::default()
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
                "round {round}: batching {} disagreed with batching {}",
                configs[i], configs[0]
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

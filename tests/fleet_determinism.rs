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
//!    from the budget alone, and convex ones, which run them in full;
//! 4. the public `Cell` phases, driven from outside, reproduce
//!    `FleetSim::run` and `FleetSim::run_traced` exactly.

use cloudcache::econ::BudgetShape;
use cloudcache::fleet::{
    run_fleet, CacheNode, CheapestQuote, ElasticConfig, FaultPlan, FleetConfig, FleetResult,
    FleetSim, NodeSpec, QuoteOptions, Router, RouterKind,
};
use cloudcache::telemetry::{MetricsRegistry, Recorder, TraceEvent, TraceSink};

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

/// Drives every cell through the public `Cell` phases, each cell tracing
/// into its own sink from `make_sink`, and folds the pieces, events and
/// registries in ascending cell order as `FleetSim` does.
fn run_by_phases<S: TraceSink>(
    sim: &FleetSim,
    make_sink: impl Fn() -> S,
    into_events: impl Fn(S) -> Vec<TraceEvent>,
) -> (FleetResult, Vec<TraceEvent>, MetricsRegistry) {
    let config = sim.config();
    let mut fleet = FleetResult::empty(config.router.name(), config.cells);
    let mut events = Vec::new();
    let mut registry = MetricsRegistry::new();
    for index in 0..config.cells {
        let mut sink = make_sink();
        let mut cell = sim.cell(index, &mut sink);
        while let Some((arrived, slot, query)) = cell.next_arrival() {
            cell.advance_control_plane(arrived);
            let (now, outage_wait) = cell.await_capacity(arrived);
            cell.scrape_health(now);
            let route = cell.route(slot, &query, now, outage_wait);
            let outcome = cell.serve(&query, &route);
            cell.record(slot, &query, &route, &outcome);
        }
        let (piece, cell_registry) = cell.finish();
        fleet.merge(&piece);
        if let Some(cell_registry) = &cell_registry {
            registry.merge(cell_registry);
        }
        events.extend(into_events(sink));
    }
    (fleet, events, registry)
}

/// Three faulted fixtures over 8 tenants, 4 cells and 3 seed nodes:
/// the one-shot timeout re-route with health snapshots on, the
/// deadline-budgeted retry, and an elastic cascade whose crashes leave
/// cells with no routable node (the total-outage wait).
fn phase_fixtures() -> Vec<(&'static str, FleetConfig)> {
    let base = |seed: u64| {
        let mut config = FleetConfig::uniform(8, 3, 40, 1.0);
        config.scale_factor = 10.0;
        config.cells = 4;
        config.seed = seed;
        config
    };
    let degraded = || FaultPlan::new(40.0).with_degrade(0, 5.0, 35.0, 20.0);
    vec![
        (
            "legacy-timeout",
            base(3)
                .with_faults(degraded().with_timeout(0.05))
                .with_health(2.0),
        ),
        (
            "retry",
            base(3).with_faults(degraded().with_timeout(0.05).with_retry(3, 0.02, 2.0, 0.5)),
        ),
        (
            "elastic-outage",
            base(19)
                .with_faults(
                    FaultPlan::new(40.0)
                        .with_crash_recover(0, 12.0, 6.0)
                        .with_cascade(0.5, 0.5, 2.0, 2)
                        .with_evacuation(4.0, false)
                        .with_retry(3, 0.05, 2.0, 0.5)
                        .with_degrade(2, 5.0, 30.0, 8.0)
                        .with_timeout(0.05),
                )
                .with_elastic(ElasticConfig {
                    review_interval_secs: 2.0,
                    ewma_alpha: 0.3,
                    scale_up_backlog: 1.0,
                    scale_down_backlog: 0.2,
                    max_response_secs: 0.0,
                    min_nodes: 2,
                    max_nodes: 4,
                    cooldown_reviews: 1,
                    drain_grace_secs: 5.0,
                }),
        ),
    ]
}

#[test]
fn public_cell_phases_reproduce_fleet_sim_runs() {
    for (name, config) in phase_fixtures() {
        let sim = FleetSim::new(config);
        let reference = sim.run();
        let faults = reference.faults.as_ref().expect("fault summary");
        let delayed: u64 = reference.slo.tenants.iter().map(|t| t.fault_delays).sum();
        let exercised = match name {
            "legacy-timeout" => {
                faults.timeouts > 0
                    && reference
                        .health
                        .as_ref()
                        .is_some_and(|h| h.frames.len() > 1)
            }
            "retry" => faults.retries > 0,
            _ => delayed > 0,
        };
        assert!(exercised, "{name}: the fixture misses the path it covers");

        let (untraced, events, registry) =
            run_by_phases(&sim, || cloudcache::telemetry::NoopSink, |_| Vec::new());
        assert_eq!(untraced, reference, "{name}: phases drifted from run()");
        assert!(events.is_empty() && registry == MetricsRegistry::new());

        let (traced, trace) = sim.run_traced();
        let (by_phase, events, registry) =
            run_by_phases(&sim, Recorder::new, Recorder::into_events);
        assert_eq!(by_phase, traced, "{name}: phases drifted from run_traced()");
        assert_eq!(events, trace.events, "{name}: trace events drifted");
        assert_eq!(registry, trace.registry, "{name}: registry drifted");
    }
}

//! Elastic control plane — the acceptance properties of `fleet::elastic`:
//!
//! 1. **Drain isolation** — no query is ever routed to a node after its
//!    drain begins, under every routing strategy and completion path
//!    (proptest over random drain schedules).
//!    `CacheNode::serve` additionally debug-asserts routability, so the
//!    end-to-end runs below double-check the executor path.
//! 2. **Occupancy settlement (eq. 13)** — retiring a node settles its
//!    disk byte-seconds integral to the exact retirement instant:
//!    delaying retirement by Δ charges precisely
//!    `disk_used × Δ × c_d` more (and Δ seconds more base uptime).
//! 3. **Determinism** — an elastic run's decision ledger and aggregates
//!    are bit-identical across executor shard counts, completion paths
//!    and tracing; a controller that can never act
//!    leaves the economy bit-identical to the static fleet.
//! 4. **Economy** — on bursty and diurnal arrivals the elastic fleet
//!    costs less than the static one at equal-or-better mean response.

use std::sync::{Arc, OnceLock};

use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::Schema;
use cloudcache::econ::{EconConfig, InvestmentRule};
use cloudcache::fleet::{
    run_fleet, CacheNode, CheapestQuote, ElasticConfig, FleetConfig, FleetResult, FleetSim,
    LeastOutstanding, NodePopulation, NodeSpec, RoundRobin, Router, RouterKind,
};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimTime};
use cloudcache::simulator::{ArrivalKind, Scheme};
use cloudcache::workload::{paper_templates, WorkloadConfig, WorkloadGenerator};
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

/// The workspace's fleet economy scaling: builds fire within tens of
/// queries.
fn econ() -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        ..EconConfig::default()
    }
}

proptest! {
    /// Random drain schedules against live routing: whatever nodes drain
    /// and whenever they drain, no strategy ever routes to them again.
    #[test]
    fn no_query_is_routed_after_drain_begins(
        seed in 0u64..1_000,
        drains in prop::collection::vec((0usize..12, 0usize..5), 1..6),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let econ = econ();
        let mut nodes: Vec<CacheNode> = (0..5)
            .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &h.schema, &econ))
            .collect();
        let mut cq = CheapestQuote::default();
        let mut rr = RoundRobin::default();
        let mut lo = LeastOutstanding;
        let mut gen = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), seed);

        let mut drained = [false; 5];
        for round in 0..12 {
            let now = SimTime::from_secs((round + 1) as f64);
            // Apply this round's scheduled drains, never draining the
            // last active node (the control plane's floor invariant).
            for &(at, victim) in &drains {
                let active = drained.iter().filter(|&&d| !d).count();
                if at == round && !drained[victim] && active > 1 {
                    nodes[victim].begin_drain(now);
                    drained[victim] = true;
                }
            }
            for node in nodes.iter_mut() {
                node.accrue(now);
            }
            let query = gen.next_query();
            let winner = cq.route(&nodes, &ctx, &query, now);
            prop_assert!(!drained[winner], "cheapest-quote routed to draining node {winner}");
            prop_assert!(nodes[winner].routable(now));
            for (name, choice) in [
                ("round-robin", rr.route(&nodes, &ctx, &query, now)),
                ("least-outstanding", lo.route(&nodes, &ctx, &query, now)),
            ] {
                prop_assert!(!drained[choice], "{name} routed to draining node {choice}");
            }
            let _ = nodes[winner].serve(&ctx, &query, now);
        }
    }
}

/// Warms one node until the economy has built structures, returning it.
fn warmed_node(label: usize) -> CacheNode {
    let h = harness();
    let ctx = h.ctx();
    let mut node = CacheNode::new(label, &NodeSpec::new(Scheme::EconCheap), &h.schema, &econ());
    let mut gen = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), 42);
    for i in 0..60 {
        let now = SimTime::from_secs((i + 1) as f64);
        node.accrue(now);
        let q = gen.next_query();
        let _ = node.serve(&ctx, &q, now);
    }
    node
}

#[test]
fn retiring_the_only_structure_holder_settles_occupancy_to_the_instant() {
    let rates = PriceCatalog::ec2_2009().rates;
    // Two bit-identical warmed nodes (same seed, same stream)…
    let a = warmed_node(0);
    let b = warmed_node(0);
    let disk_used = a.disk_used();
    assert!(
        disk_used > 0,
        "fixture must build structures for the occupancy check to bite"
    );
    assert_eq!(disk_used, b.disk_used());

    // …retired 60 s apart through the population path (drain first, as
    // the control plane would).
    let retire_a = SimTime::from_secs(100.0);
    let retire_b = SimTime::from_secs(160.0);
    let mut pop_a = NodePopulation::new(vec![a]);
    pop_a.live_mut()[0].begin_drain(SimTime::from_secs(90.0));
    assert_eq!(pop_a.routable_count(retire_a), 0);
    let id = pop_a.retire(0, &rates, retire_a);
    assert_eq!(id, 0);
    let mut pop_b = NodePopulation::new(vec![b]);
    pop_b.live_mut()[0].begin_drain(SimTime::from_secs(90.0));
    let _ = pop_b.retire(0, &rates, retire_b);

    let finish_a = pop_a.finish(&rates, retire_a);
    let finish_b = pop_b.finish(&rates, retire_b);
    let ra = &finish_a.nodes[0].1;
    let rb = &finish_b.nodes[0].1;
    assert_eq!(ra.final_disk_bytes, disk_used);

    // Eq. 13: the later retirement pays exactly disk_used × Δ more disk
    // rent (occupancy was flat after the last arrival — a draining node
    // receives no queries, and failure evictions only run on arrivals).
    let extra_disk = rb.operating.disk - ra.operating.disk;
    let expected = rates.disk_cost(disk_used, 60.0);
    let tolerance = Money::from_nanos(2); // one rounding per charge
    assert!(
        extra_disk >= expected - tolerance && extra_disk <= expected + tolerance,
        "extra disk rent {extra_disk:?} != expected {expected:?}"
    );
    // And eq. 11: 60 s more base uptime (each run rounds its one total
    // CPU charge independently, so allow a nanodollar of slack).
    let extra_cpu = rb.operating.cpu - ra.operating.cpu;
    let expected_cpu = rates.cpu_cost(60.0);
    assert!(
        extra_cpu >= expected_cpu - tolerance && extra_cpu <= expected_cpu + tolerance,
        "extra base uptime {extra_cpu:?} != expected {expected_cpu:?}"
    );
}

fn elastic_base(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(10, 4, 50, 1.0).with_arrivals(ArrivalKind::Mmpp {
        calm_gap_secs: 12.0,
        storm_gap_secs: 0.4,
        calm_sojourn_secs: 50.0,
        storm_sojourn_secs: 25.0,
    });
    config.scale_factor = 10.0;
    config.cells = 4;
    config.seed = seed;
    config.elastic = Some(ElasticConfig {
        review_interval_secs: 4.0,
        ewma_alpha: 0.4,
        scale_up_backlog: 1.0,
        scale_down_backlog: 0.2,
        max_response_secs: 0.0,
        min_nodes: 1,
        max_nodes: 6,
        cooldown_reviews: 1,
        drain_grace_secs: 20.0,
    });
    config
}

/// Everything an elastic run must reproduce exactly, ledger included.
fn elastic_fingerprint(r: &FleetResult) -> String {
    let e = r.elastic.as_ref().expect("elastic summary present");
    format!(
        "queries={} cost={} payments={} mean={:016x} builds={} spawns={} retires={} \
         node_seconds={:016x} ledger={}",
        r.queries,
        r.total_operating_cost().as_nanos(),
        r.payments.as_nanos(),
        r.mean_response_secs().to_bits(),
        r.investments,
        e.spawns,
        e.retires,
        e.node_seconds.to_bits(),
        serde_json::to_string(&e.ledger).expect("ledger serializes"),
    )
}

/// Shard counts and tracing leave the ledger and the aggregates
/// unchanged. (The name predates the removal of the quote
/// pool; it is kept so the test's id stays stable.)
#[test]
fn elastic_ledger_and_aggregates_invariant_under_shards_and_pools() {
    for seed in [3u64, 11] {
        let reference = run_fleet(elastic_base(seed));
        let summary = reference.elastic.as_ref().expect("elastic summary");
        assert!(
            summary.spawns + summary.retires > 0,
            "fixture must exercise the control plane (seed {seed})"
        );
        assert!(!summary.ledger.is_empty());
        let reference = elastic_fingerprint(&reference);

        for shards in [4usize, 2] {
            let mut config = elastic_base(seed);
            config.shards = shards;
            let replay = elastic_fingerprint(&run_fleet(config));
            assert_eq!(
                replay, reference,
                "drift under shards={shards} (seed {seed})"
            );
        }
        // The flight recorder observes every lifecycle decision without
        // moving one.
        let (traced, _) = FleetSim::new(elastic_base(seed)).run_traced();
        assert_eq!(
            elastic_fingerprint(&traced),
            reference,
            "drift under tracing (seed {seed})"
        );
    }
}

/// Elasticity pays where arrivals give it something to react to: on
/// bursty (MMPP storm/calm) and diurnal arrivals the elastic fleet
/// drains idle replicas through the calms and troughs, so it costs less
/// than the static fleet at equal-or-better mean response. Growth is
/// capped at the seed population, so the win comes from draining, not
/// from refusing to grow. SF 10, 60 tenants × 40 queries, 8 seed nodes.
#[test]
fn elastic_fleet_beats_static_on_bursty_and_diurnal_arrivals() {
    let scenarios = [
        (
            "bursty",
            ArrivalKind::Mmpp {
                calm_gap_secs: 25.0,
                storm_gap_secs: 1.0,
                calm_sojourn_secs: 400.0,
                storm_sojourn_secs: 60.0,
            },
        ),
        (
            "diurnal",
            ArrivalKind::Diurnal {
                mean_gap_secs: 20.0,
                amplitude: 0.9,
                period_secs: 400.0,
                phase: -std::f64::consts::FRAC_PI_2,
            },
        ),
    ];
    for (name, arrival) in scenarios {
        let mut static_config = FleetConfig::uniform(60, 8, 40, 1.0).with_arrivals(arrival);
        static_config.scale_factor = 10.0;
        static_config.cells = 16;
        let elastic_config = static_config.clone().with_elastic(ElasticConfig {
            review_interval_secs: 5.0,
            ewma_alpha: 0.3,
            scale_up_backlog: 4.0,
            scale_down_backlog: 0.25,
            max_response_secs: 0.0,
            min_nodes: 1,
            max_nodes: 8,
            cooldown_reviews: 4,
            drain_grace_secs: 60.0,
        });
        let fixed = run_fleet(static_config);
        let elastic = run_fleet(elastic_config);
        assert!(
            elastic.total_operating_cost() < fixed.total_operating_cost(),
            "{name}: elastic {} is not cheaper than static {}",
            elastic.total_operating_cost(),
            fixed.total_operating_cost()
        );
        assert!(
            elastic.mean_response_secs() <= fixed.mean_response_secs() * (1.0 + 1e-9),
            "{name}: elastic mean response {} is worse than static {}",
            elastic.mean_response_secs(),
            fixed.mean_response_secs()
        );
    }
}

#[test]
fn ledger_is_explainable_and_consistent() {
    let r = run_fleet(elastic_base(3));
    let e = r.elastic.expect("elastic summary");
    let mut spawns = 0u64;
    let mut retires = 0u64;
    let mut drains = 0u64;
    for entry in &e.ledger {
        assert!(!entry.rule.is_empty());
        assert!(entry.routable + entry.booting + entry.draining <= entry.live);
        assert!(entry.signals.backlog >= 0.0 && entry.signals.backlog_ewma >= 0.0);
        match &entry.action {
            cloudcache::fleet::ElasticAction::ScaleUp { .. } => spawns += 1,
            cloudcache::fleet::ElasticAction::Retire { .. } => retires += 1,
            cloudcache::fleet::ElasticAction::DrainBegin { .. } => drains += 1,
            cloudcache::fleet::ElasticAction::Hold => {}
        }
    }
    assert_eq!(spawns, e.spawns, "every spawn is ledgered");
    assert_eq!(retires, e.retires, "every retire is ledgered");
    assert!(drains >= retires, "a retire implies a prior drain");
    // Ledger entries arrive sorted by (cell, time) — the merge folds
    // cells in ascending order and each cell's reviews are chronological.
    let keys: Vec<(usize, f64)> = e.ledger.iter().map(|l| (l.cell, l.at_secs)).collect();
    let mut sorted = keys.clone();
    sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    assert_eq!(keys, sorted);
}

#[test]
fn inert_controller_leaves_the_economy_bit_identical_to_static() {
    // A controller that can never act (unreachable thresholds, floor at
    // the seed population) must not perturb a single economic bit.
    let mut with_inert = FleetConfig::mixed(8, 3, 40);
    with_inert.scale_factor = 10.0;
    with_inert.cells = 4;
    with_inert.elastic = Some(ElasticConfig {
        review_interval_secs: 5.0,
        ewma_alpha: 0.3,
        scale_up_backlog: 1e12,
        scale_down_backlog: 0.0,
        max_response_secs: 0.0,
        min_nodes: 3,
        max_nodes: 3,
        cooldown_reviews: 0,
        drain_grace_secs: 60.0,
    });
    let mut without = with_inert.clone();
    without.elastic = None;

    let elastic = run_fleet(with_inert);
    let static_run = run_fleet(without);
    let summary = elastic.elastic.as_ref().expect("summary present");
    assert_eq!(summary.spawns, 0);
    assert_eq!(summary.retires, 0);
    assert!(summary
        .ledger
        .iter()
        .all(|l| matches!(l.action, cloudcache::fleet::ElasticAction::Hold)));
    assert_eq!(
        elastic.total_operating_cost(),
        static_run.total_operating_cost()
    );
    assert_eq!(
        elastic.mean_response_secs().to_bits(),
        static_run.mean_response_secs().to_bits()
    );
    assert_eq!(elastic.queries, static_run.queries);
    assert_eq!(elastic.payments, static_run.payments);
}

#[test]
fn router_kind_matrix_completes_under_elasticity() {
    // Every routing strategy must survive a population that drains and
    // spawns under it (round-robin and least-outstanding skip draining
    // nodes too).
    for router in RouterKind::all() {
        let mut config = elastic_base(5);
        config.router = router;
        let r = run_fleet(config);
        assert_eq!(r.queries, 500, "router {}", r.router);
        let tenant_total: u64 = r.tenants.iter().map(|t| t.queries).sum();
        assert_eq!(tenant_total, r.queries);
        let node_total: u64 = r.nodes.iter().map(|n| n.queries).sum();
        assert_eq!(node_total, r.queries);
    }
}

//! Fault-injection plane — the acceptance properties of `fleet::faults`:
//!
//! 1. **Crash isolation** — once a node crashes, no routing strategy,
//!    or completion path ever routes a query to it again (proptest over
//!    the router × completion matrix).
//! 2. **Determinism** — fault-injected runs (crashes, recoveries,
//!    degradations, surges, timeouts) are bit-identical across executor
//!    shard counts, and traced runs are bit-identical to untraced ones.
//! 3. **Ledger-replay reconciliation** — recovering a crashed node by
//!    replaying its settlement journal into a fresh economy reproduces
//!    the pre-crash balances *exactly*, for random crash instants
//!    (proptest; zero drift on every component).
//! 4. **Population floor** — a crashed node is gone *immediately*: the
//!    elastic control plane's population-floor rule respawns at the next
//!    review, never waiting out a drain grace the dead node can't serve.
//! 5. **Economy** — through a crash the elastic fleet costs less than
//!    the static one, and a crash writes off exactly the crashed node's
//!    invested capital (proptest, to the nanodollar, with and without
//!    recovery).
//! 6. **Drift alarms** — the e-process detector stays silent on healthy
//!    fleets and fires on a degraded node.

use cloudcache::fleet::{
    run_fleet, CacheNode, ElasticAction, ElasticConfig, FaultOutcome, FaultPlan, FleetConfig,
    FleetResult, FleetSim, NodePopulation, NodeSpec, RouterKind,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::SimTime;
use cloudcache::simulator::{ArrivalKind, Scheme};
use cloudcache::telemetry::{detect_alarms, Baselines, TenantSloSpec, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A small faulted fleet: 8 fixed-interval tenants over 4 cells, 3 seed
/// nodes per cell, 40 queries per tenant — so per-cell arrivals land on
/// every half-second up to t=40 and every fault instant below the
/// horizon fires.
fn faulted_base(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(8, 3, 40, 1.0);
    config.scale_factor = 10.0;
    config.cells = 4;
    config.seed = seed;
    config
}

const HORIZON: f64 = 40.0;

/// Everything a faulted run must reproduce exactly, fault ledger
/// included.
fn fault_fingerprint(r: &FleetResult) -> String {
    format!(
        "queries={} cost={} payments={} mean={:016x} builds={} node_seconds={:016x} faults={}",
        r.queries,
        r.total_operating_cost().as_nanos(),
        r.payments.as_nanos(),
        r.mean_response_secs().to_bits(),
        r.investments,
        r.node_seconds.to_bits(),
        serde_json::to_string(&r.faults).expect("fault summary serializes"),
    )
}

proptest! {
    /// Whatever router serves the fleet,
    /// a crashed node never wins another quote round and never settles
    /// another query after its crash instant.
    #[test]
    fn no_query_is_routed_to_a_crashed_node(
        victim in 0usize..3,
        crash_at_halves in 10u32..60, // t in [5, 30)
        router_pick in 0usize..3,
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let mut config = faulted_base(11)
            .with_faults(FaultPlan::new(HORIZON).with_crash(victim, crash_at));
        config.router = [RouterKind::RoundRobin, RouterKind::LeastOutstanding, RouterKind::CheapestQuote][router_pick];
        let (result, trace) = FleetSim::new(config).run_traced();

        let faults = result.faults.as_ref().expect("fault summary present");
        prop_assert_eq!(faults.crashes, 4, "one crash per cell replica");
        for event in &trace.events {
            match event {
                TraceEvent::QuoteRound(q) if q.at_secs >= crash_at => {
                    prop_assert_ne!(q.winner, victim,
                        "quote round at t={} picked crashed node", q.at_secs);
                }
                TraceEvent::Settlement(s) if s.at_secs >= crash_at => {
                    prop_assert_ne!(s.node, victim,
                        "settlement at t={} on crashed node", s.at_secs);
                }
                _ => {}
            }
        }
        // Every query still gets served — survivors absorb the load.
        prop_assert_eq!(result.queries, 8 * 40);
    }

    /// Fault-injected runs — crash + recovery + degradation + timeout +
    /// flash crowd all at once — are bit-identical across 1/2/4/8
    /// executor shards.
    #[test]
    fn faulted_runs_are_bit_identical_across_shards(
        seed in 0u64..1_000,
        victim in 0usize..3,
        crash_at_halves in 10u32..40, // t in [5, 20)
        recover in prop::bool::ANY,
        surge in prop::bool::ANY,
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let mut plan = FaultPlan::new(HORIZON)
            .with_degrade((victim + 1) % 3, 5.0, 25.0, 8.0)
            .with_timeout(0.1);
        plan = if recover {
            plan.with_crash_recover(victim, crash_at, 6.0)
        } else {
            plan.with_crash(victim, crash_at)
        };
        if surge {
            plan = plan.with_surge(8.0, 10.0, 4.0);
        }
        let base = faulted_base(seed).with_faults(plan);
        let reference = fault_fingerprint(&run_fleet(base.clone()));
        for shards in [2usize, 4, 8] {
            let mut config = base.clone();
            config.shards = shards;
            let replay = fault_fingerprint(&run_fleet(config));
            prop_assert_eq!(&replay, &reference, "drift at shards={}", shards);
        }
    }

    /// Replaying a crashed node's journal into a fresh economy reproduces
    /// its books exactly — zero drift on queries, payments, profit, cache
    /// hits, balance, regret and disk occupancy — for random crash and
    /// recovery instants.
    #[test]
    fn ledger_replay_reconciles_exactly(
        seed in 0u64..1_000,
        victim in 0usize..3,
        crash_at_halves in 10u32..50, // t in [5, 25)
        recover_after_halves in 4u32..20, // Δ in [2, 10): crash + Δ < 35 < horizon
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let recover_after = f64::from(recover_after_halves) * 0.5;
        let config = faulted_base(seed).with_faults(
            FaultPlan::new(HORIZON).with_crash_recover(victim, crash_at, recover_after),
        );
        let result = run_fleet(config);
        let faults = result.faults.as_ref().expect("fault summary present");
        prop_assert_eq!(faults.crashes, 4);
        prop_assert_eq!(faults.recoveries, 4, "every cell recovers its replica");
        prop_assert_eq!(faults.reconciled, faults.recoveries,
            "replay drifted: {:?}",
            faults.records.iter().filter_map(|r| match &r.event {
                FaultOutcome::Recover(rec) if !rec.drift.is_zero() => Some(rec.drift.clone()),
                _ => None,
            }).collect::<Vec<_>>());
        for record in &faults.records {
            if let FaultOutcome::Recover(rec) = &record.event {
                prop_assert!(rec.drift.is_zero());
                prop_assert_eq!(rec.crashed, victim);
                prop_assert!(rec.replacement >= 3, "replacement gets a fresh id");
            }
        }
    }

    /// Capital conservation — for random crash instants, victims and
    /// fault groups, with and without a replay-recovery, every crash
    /// writes off exactly the crashed node's invested build capital, in
    /// nanodollars: `write_off == build_spend`, summed over cells. The
    /// summary's write-off is the sum of the per-crash write-offs.
    #[test]
    fn crash_writes_off_exactly_the_invested_capital(
        seed in 0u64..1_000,
        victim in 0usize..3,
        crash_at_halves in 30u32..70, // t in [15, 35): cache is warm
        grouped in prop::bool::ANY,
        recover in prop::bool::ANY,
    ) {
        let crash_at = f64::from(crash_at_halves) * 0.5;
        let recover_after = recover.then_some(2.0); // back by t = 37 < horizon
        let mut plan = FaultPlan::new(HORIZON);
        if grouped {
            plan = plan.with_group(vec![victim, (victim + 1) % 3], crash_at);
            plan.groups[0].recover_after_secs = recover_after;
        } else if let Some(after) = recover_after {
            plan = plan.with_crash_recover(victim, crash_at, after);
        } else {
            plan = plan.with_crash(victim, crash_at);
        }
        let result = run_fleet(faulted_base(seed).with_faults(plan));
        let faults = result.faults.as_ref().expect("fault summary present");
        prop_assert_eq!(faults.crashes, if grouped { 8 } else { 4 });
        prop_assert_eq!(faults.reconciled, faults.recoveries);

        // Fold each crashed node's write-offs over the cells.
        let mut written_off: BTreeMap<usize, Money> = BTreeMap::new();
        let mut crash_total = Money::ZERO;
        for record in &faults.records {
            if let FaultOutcome::Crash(c) = &record.event {
                *written_off.entry(c.node).or_insert(Money::ZERO) += c.write_off;
                crash_total += c.write_off;
            }
        }
        prop_assert_eq!(written_off.len(), if grouped { 2 } else { 1 });
        // The write-off equals the crashed node's folded build spending —
        // the pre-fault invested capital — to the nanodollar.
        for (node, write_off) in &written_off {
            let stats = result
                .nodes
                .iter()
                .find(|n| n.node == *node)
                .expect("crashed node keeps its stats row");
            prop_assert_eq!(
                *write_off,
                stats.build_spend,
                "capital drift on node {}: written off {:?} vs invested {:?}",
                node,
                write_off,
                stats.build_spend
            );
        }
        prop_assert_eq!(faults.write_off, crash_total);
        prop_assert_eq!(result.queries, 8 * 40, "survivors absorb the load");
    }
}

/// A crashed node leaves `routable_count` (and the live set) at the
/// instant of the crash — not after a drain grace it can no longer
/// serve.
#[test]
fn crash_is_immediately_gone_from_the_population() {
    let h_schema = std::sync::Arc::new(cloudcache::catalog::tpch::tpch_schema(
        cloudcache::catalog::tpch::ScaleFactor(10.0),
    ));
    let econ = cloudcache::econ::EconConfig::default();
    let rates = PriceCatalog::ec2_2009().rates;
    let nodes: Vec<CacheNode> = (0..2)
        .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &h_schema, &econ))
        .collect();
    let mut pop = NodePopulation::new(nodes);
    let at = SimTime::from_secs(10.0);
    assert_eq!(pop.routable_count(at), 2);
    let (id, run) = pop.crash(0, &rates, at);
    assert_eq!(id, 0);
    assert_eq!(run.queries, 0);
    assert_eq!(pop.routable_count(at), 1, "crash removes immediately");
    assert_eq!(pop.live().len(), 1);
    assert_eq!(pop.live()[0].id(), 1);
}

/// Satellite regression: with the population floor at the seed size, a
/// crash drops the cell below the floor and the elastic control plane
/// respawns at the *next review* — it does not wait out `drain_grace`
/// (set here far beyond the horizon, so any respawn proves the point).
#[test]
fn crashed_node_below_floor_respawns_at_next_review() {
    let review = 4.0;
    let crash_at = 10.0;
    let mut config = faulted_base(7)
        .with_faults(FaultPlan::new(HORIZON).with_crash(2, crash_at))
        .with_elastic(ElasticConfig {
            review_interval_secs: review,
            ewma_alpha: 0.3,
            scale_up_backlog: 1e12, // only the floor rule can spawn
            scale_down_backlog: 0.0,
            max_response_secs: 0.0,
            min_nodes: 3,
            max_nodes: 3,
            cooldown_reviews: 4,
            drain_grace_secs: 1_000.0,
        });
    config.shards = 2;
    let result = run_fleet(config);
    let elastic = result.elastic.as_ref().expect("elastic summary");
    let faults = result.faults.as_ref().expect("fault summary");
    assert_eq!(faults.crashes, 4);
    assert_eq!(elastic.spawns, 4, "one floor respawn per cell");

    let mut floor_spawns = 0;
    for entry in &elastic.ledger {
        if let ElasticAction::ScaleUp { .. } = entry.action {
            assert_eq!(entry.rule, "population-floor");
            assert!(
                entry.at_secs > crash_at,
                "respawn at t={} before the crash",
                entry.at_secs
            );
            assert!(
                entry.at_secs <= crash_at + 2.0 * review,
                "respawn at t={} waited past the next reviews (drain-grace leak)",
                entry.at_secs
            );
            floor_spawns += 1;
        }
    }
    assert_eq!(floor_spawns, 4);
}

/// Degraded winners whose backlog exceeds the per-query timeout re-route
/// to the next-best candidate; the run still serves everything.
#[test]
fn degraded_winner_times_out_and_reroutes() {
    let config = faulted_base(3).with_faults(
        FaultPlan::new(HORIZON)
            .with_degrade(0, 5.0, 35.0, 20.0)
            .with_timeout(0.05),
    );
    let (result, trace) = FleetSim::new(config).run_traced();
    let faults = result.faults.as_ref().expect("fault summary");
    assert!(
        faults.timeouts > 0,
        "a 20x slowdown over 30s must trip the 50ms timeout at least once"
    );
    assert_eq!(result.queries, 8 * 40, "re-routed queries still settle");
    assert_eq!(
        trace.registry.counter("fault.timeouts"),
        faults.timeouts,
        "registry and summary agree"
    );
}

/// Flash crowds compress arrivals: the surged run finishes the same
/// query budget strictly earlier, and the whole budget still settles.
#[test]
fn flash_crowd_compresses_the_horizon() {
    let base = faulted_base(9);
    let calm = run_fleet(base.clone());
    let surged = run_fleet(base.with_faults(FaultPlan::new(HORIZON).with_surge(10.0, 20.0, 8.0)));
    assert_eq!(surged.queries, calm.queries);
    assert!(
        surged.horizon_secs < calm.horizon_secs,
        "surge must pull arrivals earlier ({} !< {})",
        surged.horizon_secs,
        calm.horizon_secs
    );
}

/// The flight recorder stays an observer under faults: a traced faulted
/// run is bit-identical to the untraced run, and the registry's fault
/// metrics cross-foot with the merged summary.
#[test]
fn traced_faulted_run_matches_untraced_and_registry_crossfoots() {
    let config = faulted_base(5).with_faults(
        FaultPlan::new(HORIZON)
            .with_crash_recover(1, 12.0, 8.0)
            .with_degrade(0, 5.0, 20.0, 4.0)
            .with_timeout(0.1)
            .with_surge(25.0, 10.0, 3.0),
    );
    let untraced = run_fleet(config.clone());
    let (traced, trace) = FleetSim::new(config).run_traced();
    assert_eq!(fault_fingerprint(&traced), fault_fingerprint(&untraced));

    let faults = traced.faults.as_ref().expect("fault summary");
    assert_eq!(trace.registry.counter("fault.crashes"), faults.crashes);
    assert_eq!(
        trace.registry.counter("fault.recoveries"),
        faults.recoveries
    );
    assert_eq!(
        trace.registry.counter("fault.reconciled"),
        faults.reconciled
    );
    assert_eq!(trace.registry.counter("fault.timeouts"), faults.timeouts);
    assert_eq!(trace.registry.gauge("fault.write_off"), faults.write_off);
    let crash_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeCrash(_)))
        .count() as u64;
    let recover_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeRecover(_)))
        .count() as u64;
    assert_eq!(crash_events, faults.crashes);
    assert_eq!(recover_events, faults.recoveries);
}

/// A certain cascade (p = 1, no decay) after a seed crash fells exactly
/// one survivor per cell — propagation stops at the population floor of
/// one standing node — and the follow-on crash is ledgered at depth 1,
/// one propagation delay after its trigger.
#[test]
fn certain_cascade_fells_survivors_down_to_one_standing_node() {
    let config = faulted_base(21).with_faults(
        FaultPlan::new(HORIZON)
            .with_crash(0, 10.0)
            .with_cascade(1.0, 1.0, 2.0, 1),
    );
    let result = run_fleet(config);
    let faults = result.faults.as_ref().expect("fault summary");
    assert_eq!(
        faults.crashes, 8,
        "seed crash + exactly one follow-on per cell"
    );
    assert_eq!(faults.cascade_crashes, 4);
    assert_eq!(faults.max_cascade_depth, 1);
    let mut followons = 0;
    for record in &faults.records {
        if let FaultOutcome::Crash(c) = &record.event {
            if c.cascade_depth > 0 {
                assert_eq!(c.cascade_depth, 1);
                assert_eq!(c.node, 1, "lowest-id survivor draws first");
                assert!(
                    (record.at_secs - 12.0).abs() < 1e-9,
                    "follow-on fires one delay after the trigger, got t={}",
                    record.at_secs
                );
                followons += 1;
            }
        }
    }
    assert_eq!(followons, 4);
    assert_eq!(
        result.queries,
        8 * 40,
        "the one standing node still serves the whole budget"
    );
}

/// Cascade draws are a pure function of the config seed: same seed,
/// same follow-on crashes; the probability dial changes the outcome
/// deterministically (p = 0 never propagates).
#[test]
fn cascade_draws_derive_only_from_the_config_seed() {
    let plan = |p: f64| {
        faulted_base(33).with_faults(
            FaultPlan::new(HORIZON)
                .with_crash(2, 8.0)
                .with_cascade(p, 0.5, 3.0, 3),
        )
    };
    let a = run_fleet(plan(0.7));
    let b = run_fleet(plan(0.7));
    assert_eq!(fault_fingerprint(&a), fault_fingerprint(&b));
    let never = run_fleet(plan(0.0));
    let nf = never.faults.as_ref().expect("fault summary");
    assert_eq!(nf.cascade_crashes, 0);
    assert_eq!(nf.crashes, 4, "p = 0 leaves only the seed crash");
}

/// Deadline-budgeted retry: a degraded winner past the per-query
/// timeout triggers bounded, budget-decayed retries instead of a single
/// blind re-route — and the response histogram records exactly one
/// end-to-end sample per query, never one per timed-out attempt.
#[test]
fn budgeted_retry_reroutes_and_records_one_latency_sample_per_query() {
    let config = faulted_base(3).with_faults(
        FaultPlan::new(HORIZON)
            .with_degrade(0, 5.0, 35.0, 20.0)
            .with_timeout(0.05)
            .with_retry(3, 0.02, 2.0, 0.5),
    );
    let (result, trace) = FleetSim::new(config).run_traced();
    let faults = result.faults.as_ref().expect("fault summary");
    assert!(
        faults.retries > 0,
        "a 20x slowdown over 30s must trip the retry policy"
    );
    assert_eq!(
        faults.timeouts, 0,
        "the retry policy replaces the blind timeout re-route"
    );
    assert_eq!(result.queries, 8 * 40, "every retried query still settles");
    assert_eq!(
        result.response.count(),
        result.queries,
        "one end-to-end latency sample per query across retries"
    );
    assert_eq!(trace.registry.counter("fault.retries"), faults.retries);
    let retry_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::QueryRetry(_)))
        .count() as u64;
    assert_eq!(retry_events, faults.retries);
}

/// Satellite: the fault plane layers on stochastic arrival processes —
/// MMPP storm/calm switching and the diurnal sinusoid — and stays
/// bit-identical across executor shard counts.
#[test]
fn faulted_mmpp_and_diurnal_runs_are_bit_identical_across_shards() {
    let arrivals = [
        ArrivalKind::Mmpp {
            calm_gap_secs: 1.5,
            storm_gap_secs: 0.3,
            calm_sojourn_secs: 8.0,
            storm_sojourn_secs: 4.0,
        },
        ArrivalKind::Diurnal {
            mean_gap_secs: 1.0,
            amplitude: 0.8,
            period_secs: 20.0,
            phase: -std::f64::consts::FRAC_PI_2,
        },
    ];
    for arrival in arrivals {
        let base = faulted_base(13).with_arrivals(arrival).with_faults(
            FaultPlan::new(HORIZON)
                .with_crash(0, 14.0)
                .with_cascade(0.6, 0.5, 3.0, 2)
                .with_retry(3, 0.05, 2.0, 0.5)
                .with_degrade(2, 5.0, 30.0, 10.0)
                .with_timeout(0.05),
        );
        let reference = fault_fingerprint(&run_fleet(base.clone()));
        for shards in [2usize, 4, 8] {
            let mut config = base.clone();
            config.shards = shards;
            let replay = fault_fingerprint(&run_fleet(config));
            assert_eq!(replay, reference, "drift at shards={shards} ({arrival:?})");
        }
    }
}

/// The flight recorder stays an observer under the full graceful-
/// degradation stack — cascade and budgeted retry — and every fault
/// registry metric cross-foots with the merged fault summary.
#[test]
fn traced_cascade_retry_run_matches_untraced_and_crossfoots() {
    let config = faulted_base(5).with_faults(
        FaultPlan::new(HORIZON)
            .with_crash(0, 14.0)
            .with_cascade(1.0, 1.0, 3.0, 1)
            .with_retry(3, 0.05, 2.0, 0.5)
            .with_degrade(2, 5.0, 30.0, 10.0)
            .with_timeout(0.05),
    );
    let untraced = run_fleet(config.clone());
    let (traced, trace) = FleetSim::new(config).run_traced();
    assert_eq!(fault_fingerprint(&traced), fault_fingerprint(&untraced));

    let faults = traced.faults.as_ref().expect("fault summary");
    assert!(faults.cascade_crashes > 0, "certain cascade must propagate");
    assert_eq!(trace.registry.counter("fault.crashes"), faults.crashes);
    assert_eq!(trace.registry.gauge("fault.write_off"), faults.write_off);
    assert_eq!(trace.registry.counter("fault.retries"), faults.retries);
    assert_eq!(
        trace.registry.counter("fault.cascade_crashes"),
        faults.cascade_crashes
    );
    let crash_events = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::NodeCrash(_)))
        .count() as u64;
    assert_eq!(crash_events, faults.crashes);
}

/// The drain-and-respawn control plane the cost-ordering and alarm
/// fixtures run: drains idle capacity down to a floor of 2 nodes and
/// respawns toward that floor at the first review after a crash drops a
/// cell below it. Growth is capped at the 8 seed nodes.
fn floor_two_elastic() -> ElasticConfig {
    ElasticConfig {
        review_interval_secs: 5.0,
        ewma_alpha: 0.3,
        scale_up_backlog: 4.0,
        scale_down_backlog: 0.25,
        max_response_secs: 0.0,
        min_nodes: 2,
        max_nodes: 8,
        cooldown_reviews: 4,
        drain_grace_secs: 60.0,
    }
}

/// An underloaded steady fleet (60 s arrivals, 8 seed nodes, 8 cells)
/// with `tenants × queries` arrivals, so the elastic control plane has
/// idle capacity to drain and the fault plane has survivors to re-route
/// onto. Returns the config and its horizon (last scheduled arrival).
fn steady_grid(sf: f64, tenants: u32, queries: u64) -> (FleetConfig, f64) {
    const INTERVAL_SECS: f64 = 60.0;
    let mut config = FleetConfig::uniform(tenants, 8, queries, INTERVAL_SECS);
    config.scale_factor = sf;
    config.cells = 8;
    (config, queries as f64 * INTERVAL_SECS)
}

/// Surviving a crash does not cost extra: node 0 crashes at 40 % of the
/// horizon with no recovery, and the elastic fleet, which drains idle
/// capacity and still respawns toward its floor, costs less than the
/// static fleet running its full surviving population. SF 10, 32
/// tenants × 40 queries, 8 seed nodes.
#[test]
fn elastic_respawn_is_cheaper_than_static_through_a_crash() {
    let (base, horizon) = steady_grid(10.0, 32, 40);
    let base = base.with_faults(FaultPlan::new(horizon).with_crash(0, 0.4 * horizon + 0.05));
    let fixed = run_fleet(base.clone());
    let elastic = run_fleet(base.with_elastic(floor_two_elastic()));
    assert!(
        elastic.total_operating_cost() < fixed.total_operating_cost(),
        "elastic-with-respawn {} is not cheaper than static-with-crash {}",
        elastic.total_operating_cost(),
        fixed.total_operating_cost()
    );
}

/// The e-process drift detector discriminates: the fault-free static
/// and elastic fleets raise no alarm, while node 0 slowed 6× from 20 %
/// to 60 % of the horizon burns enough p99 budget to cross the e-value
/// threshold. Runs at SF 50, 64 tenants × 100 queries, 8 seed nodes: at
/// smaller scales the degraded node's responses stay inside the 6 s p99
/// target and the detector has nothing to see.
#[test]
fn drift_alarms_are_silent_when_healthy_and_fire_on_a_degraded_node() {
    let (base, horizon) = steady_grid(50.0, 64, 100);
    let base = base.with_health(60.0).with_slo(TenantSloSpec {
        p99_target_secs: 6.0,
        spend_cap: Some(Money::from_dollars(1.0)),
    });
    let alarms = |config: FleetConfig| {
        let r = run_fleet(config);
        detect_alarms(
            r.health.as_ref(),
            &r.slo,
            r.horizon_secs,
            &Baselines::default(),
        )
        .len()
    };
    assert_eq!(
        alarms(base.clone()),
        0,
        "healthy static fleet raised alarms"
    );
    let elastic = base.with_elastic(floor_two_elastic());
    assert_eq!(
        alarms(elastic.clone()),
        0,
        "healthy elastic fleet raised alarms"
    );
    let degraded = elastic.with_faults(
        FaultPlan::new(horizon)
            .with_degrade(0, 0.2 * horizon, 0.6 * horizon, 6.0)
            .with_timeout(2.0),
    );
    assert!(alarms(degraded) >= 1, "6x degradation raised no alarm");
}

/// Faults under an elastic population stay a pure function of the
/// config: a crash-and-recover with a cascade roll and retries, ridden
/// by the drain-and-respawn control plane, reproduces its aggregates,
/// decision ledger and fault records bit for bit across executor shard
/// counts and tracing. (The name predates the removal of the quote pool;
/// it is kept so the test's id stays stable.)
#[test]
fn elastic_faulted_runs_are_bit_identical_across_shards_pools_and_tracing() {
    let base = faulted_base(19)
        .with_faults(
            FaultPlan::new(HORIZON)
                .with_crash_recover(0, 12.0, 6.0)
                .with_cascade(0.5, 0.5, 2.0, 2)
                .with_retry(3, 0.05, 2.0, 0.5)
                .with_degrade(0, 2.0, 12.0, 8.0)
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
        });
    let reference = run_fleet(base.clone());
    let summary = reference.elastic.as_ref().expect("elastic summary");
    assert!(
        summary.spawns > 0,
        "the fixture must respawn after its crashes"
    );
    // Node 0 is degraded until its crash and, as the lowest-indexed
    // routable node, wins every step-budget round meanwhile: its backlog
    // reaches the timeout and queries retry, each serving its decayed
    // copy over the arrival's shared execution rows.
    let faults = reference.faults.as_ref().expect("fault summary");
    assert!(
        faults.retries > 0,
        "the degraded winner's queries must retry"
    );
    // The crashes leave cells with no routable node, so some queries
    // wait out a total outage; each still settles with one latency
    // sample, the wait folded in.
    let delayed: u64 = reference.slo.tenants.iter().map(|t| t.fault_delays).sum();
    assert!(
        delayed > 0 && delayed <= reference.queries,
        "outage-delayed queries {delayed} outside (0, {}]",
        reference.queries
    );
    for tenant in &reference.slo.tenants {
        assert_eq!(
            tenant.response.count(),
            tenant.admitted,
            "tenant {}: one latency sample per admitted query",
            tenant.tenant
        );
    }
    let reference = elastic_fault_fingerprint(&reference);
    for shards in [4usize, 2] {
        let mut config = base.clone();
        config.shards = shards;
        assert_eq!(
            elastic_fault_fingerprint(&run_fleet(config)),
            reference,
            "drift at shards={shards}"
        );
    }
    let (traced, _) = FleetSim::new(base).run_traced();
    assert_eq!(
        elastic_fault_fingerprint(&traced),
        reference,
        "drift under tracing"
    );
}

/// [`fault_fingerprint`] plus the elastic decision ledger.
fn elastic_fault_fingerprint(r: &FleetResult) -> String {
    let e = r.elastic.as_ref().expect("elastic summary present");
    format!(
        "{} spawns={} retires={} ledger={}",
        fault_fingerprint(r),
        e.spawns,
        e.retires,
        serde_json::to_string(&e.ledger).expect("ledger serializes"),
    )
}

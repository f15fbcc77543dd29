//! Traced replay of the fleet executor.
//!
//! [`replay`] runs the cell loop of `FleetSim::simulate_cell` through the
//! fleet crate's public calls, records a span around each call into a
//! layer, and folds the cells in ascending order exactly as `FleetSim`
//! does. Its [`FleetResult`] must match the untraced run's
//! `bench::fleet_fingerprint` bit for bit, or its spans would time a
//! different program. The one private piece of the loop, the health
//! plane's vitals scrape, is left out; the fingerprint excludes it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use fleet::{
    effective_quote_threads, CacheNode, ElasticController, ElasticSummary, FaultInjector,
    FaultSummary, FleetConfig, FleetResult, MergedStream, NodePopulation, NodeStats, QuoteOptions,
    SloLedger, TenantSloRecord, TenantStats, TenantStream,
};
use planner::{SkeletonCache, SkeletonCacheCounters};
use simcore::SimTime;
use simulator::RunResult;

use crate::planning::Planning;
use crate::spans::{Layer, Span, SpanLog};

/// A traced fleet run.
pub struct FleetTrace {
    /// The folded result.
    pub result: FleetResult,
    /// Every span.
    pub spans: Vec<Span>,
    /// Elapsed host time of the whole replay, nanoseconds.
    pub wall_ns: u64,
    /// The run's own fleet-wide skeleton cache counters.
    pub skeletons: SkeletonCacheCounters,
}

/// One cell's partial, as `FleetSim` folds it.
struct CellOut {
    horizon: SimTime,
    tenants: Vec<TenantStats>,
    nodes: Vec<(usize, RunResult)>,
    node_seconds: f64,
    elastic: Option<ElasticSummary>,
    faults: Option<FaultSummary>,
    slo: SloLedger,
}

/// Replays `config` with spans, its cells in ascending order on the
/// calling thread. `FleetSim`'s result does not depend on its shard
/// count, so a sharded config must reproduce its fingerprint too.
///
/// # Errors
/// Refuses a fault plan with a per-query timeout: degraded-winner
/// re-routing is not replayed.
pub fn replay(config: &FleetConfig, planning: &Planning) -> Result<FleetTrace, String> {
    if config.faults.as_ref().is_some_and(|p| p.timeout_secs > 0.0) {
        return Err("the traced driver does not replay timeout re-routing".into());
    }
    // The quote pool `FleetSim` would run, so the spans time the same
    // routing configuration.
    let shards = config.shards.min(config.cells).max(1);
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let pool_threads = effective_quote_threads(config.quote_threads, shards, parallelism);
    let skeletons = Arc::new(SkeletonCache::new());
    let mut log = SpanLog::new(Instant::now());
    let partials: Vec<CellOut> = (0..config.cells)
        .map(|cell| replay_cell(config, planning, pool_threads, &skeletons, cell, &mut log))
        .collect();
    let wall_ns = log.now_ns();
    Ok(FleetTrace {
        result: fold(config, partials),
        spans: log.into_spans(),
        wall_ns,
        skeletons: skeletons.counters(),
    })
}

/// Folds cell partials in ascending cell order, as `FleetSim` does.
fn fold(config: &FleetConfig, partials: Vec<CellOut>) -> FleetResult {
    let router = config.router.name();
    let mut fleet = FleetResult::empty(router, config.cells);
    for partial in partials {
        let mut piece = FleetResult::empty(router, config.cells);
        piece.horizon_secs = partial.horizon.as_secs();
        piece.tenants = partial.tenants;
        piece.node_seconds = partial.node_seconds;
        piece.elastic = partial.elastic;
        piece.faults = partial.faults;
        piece.slo = partial.slo;
        for (node_idx, run) in &partial.nodes {
            piece.queries += run.queries;
            piece.response.merge(&run.response);
            piece.response_hist.merge(&run.response_hist);
            piece.operating.merge(&run.operating);
            piece.build_spend += run.build_spend;
            piece.payments += run.payments;
            piece.profit += run.profit;
            piece.cache_hits += run.cache_hits;
            piece.investments += run.investments;
            piece.evictions += run.evictions;
            piece.nodes.push(NodeStats::from_run(*node_idx, run));
        }
        fleet.merge(&piece);
    }
    fleet
}

/// One cell of `FleetSim::simulate_cell`, spans around every layer call.
#[allow(clippy::too_many_lines)]
fn replay_cell(
    config: &FleetConfig,
    planning: &Planning,
    pool_threads: usize,
    skeletons: &Arc<SkeletonCache>,
    cell: usize,
    log: &mut SpanLog,
) -> CellOut {
    let cells = config.cells;
    let rates = &config.prices.rates;
    let schema = &planning.schema;
    let ctx = planning.ctx();
    let tag = u32::try_from(cell).expect("cell ids fit u32");

    let tenants: Vec<_> = config
        .tenants
        .iter()
        .filter(|t| t.id.0 as usize % cells == cell)
        .collect();
    let mut merged = log.time(Layer::Workload, tag, 0, || {
        let surge_windows = config
            .faults
            .as_ref()
            .map(|p| p.surge_windows())
            .unwrap_or_default();
        let streams: Vec<TenantStream> = tenants
            .iter()
            .map(|&t| {
                if surge_windows.is_empty() {
                    TenantStream::new(t.clone(), Arc::clone(schema), config.seed)
                } else {
                    TenantStream::with_surges(
                        t.clone(),
                        Arc::clone(schema),
                        config.seed,
                        surge_windows.clone(),
                    )
                }
            })
            .collect();
        MergedStream::new(streams)
    });
    let mut tenant_stats: Vec<TenantStats> =
        tenants.iter().map(|t| TenantStats::new(t.id)).collect();
    let mut slo_records: Vec<TenantSloRecord> = tenants
        .iter()
        .map(|t| TenantSloRecord::new(t.id.0, t.slo))
        .collect();
    let slot_of: HashMap<fleet::TenantId, usize> = tenant_stats
        .iter()
        .enumerate()
        .map(|(i, t)| (t.tenant, i))
        .collect();

    let nodes: Vec<CacheNode> = config
        .nodes
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut node = CacheNode::new(i, spec, schema, &config.econ);
            if let Some(plan) = &config.faults {
                node.set_degradations(plan.degrade_windows(i));
            }
            node
        })
        .collect();
    let mut population = NodePopulation::new(nodes);
    let mut injector = config.faults.as_ref().map(|plan| {
        FaultInjector::new(
            plan,
            &config.nodes,
            config.econ.clone(),
            Arc::clone(schema),
            cell,
            config.seed,
        )
    });
    let mut controller = config
        .elastic
        .as_ref()
        .map(|_| ElasticController::new(config, cell, Arc::clone(schema)));
    let mut router = config.router.make(QuoteOptions {
        threads: pool_threads,
        batching: config.quote_batching,
        skeletons: (cells > 1).then(|| Arc::clone(skeletons)),
        pinning: config.pin_quote_workers,
    });

    let mut horizon = SimTime::ZERO;
    let mut ordinal = 0u64;
    loop {
        ordinal += 1;
        let Some((now, tenant, query)) = log.time(Layer::Workload, tag, ordinal, || merged.next())
        else {
            break;
        };
        horizon = now;
        if let Some(inj) = injector.as_mut() {
            while let Some(fault_at) = inj.next_due(now) {
                if let Some(ctrl) = controller.as_mut() {
                    log.time(Layer::Elastic, tag, ordinal, || {
                        ctrl.run_due_reviews(&mut population, &ctx, fault_at);
                    });
                }
                log.time(Layer::Faults, tag, ordinal, || {
                    inj.process_next(&mut population, &ctx, rates);
                });
            }
        }
        if let Some(ctrl) = controller.as_mut() {
            log.time(Layer::Elastic, tag, ordinal, || {
                ctrl.run_due_reviews(&mut population, &ctx, now);
            });
        }
        if let Some(inj) = injector.as_mut() {
            log.time(Layer::Faults, tag, ordinal, || {
                inj.sweep_draining(&mut population, &ctx, now);
            });
        }
        // Total-outage wait: advance through the control-plane actions
        // due until a node is routable again.
        let arrived = now;
        let mut now = now;
        while population.routable_count(now) == 0 {
            let mut next: Option<f64> = population
                .live()
                .iter()
                .filter(|n| n.drain_since().is_none() && now.as_secs() < n.ready_at().as_secs())
                .map(|n| n.ready_at().as_secs())
                .min_by(f64::total_cmp);
            if let Some(ctrl) = &controller {
                let review = ctrl.next_review_at().as_secs();
                next = Some(next.map_or(review, |t| t.min(review)));
            }
            if let Some(at) = injector.as_ref().and_then(FaultInjector::next_event_at) {
                let at = at.as_secs();
                next = Some(next.map_or(at, |t| t.min(at)));
            }
            let Some(next) = next.filter(|t| *t > now.as_secs()) else {
                panic!("no routable node and no pending control-plane action to restore one");
            };
            now = SimTime::from_secs(next);
            if let Some(inj) = injector.as_mut() {
                while let Some(fault_at) = inj.next_due(now) {
                    if let Some(ctrl) = controller.as_mut() {
                        log.time(Layer::Elastic, tag, ordinal, || {
                            ctrl.run_due_reviews(&mut population, &ctx, fault_at);
                        });
                    }
                    log.time(Layer::Faults, tag, ordinal, || {
                        inj.process_next(&mut population, &ctx, rates);
                    });
                }
            }
            if let Some(ctrl) = controller.as_mut() {
                log.time(Layer::Elastic, tag, ordinal, || {
                    ctrl.run_due_reviews(&mut population, &ctx, now);
                });
            }
            if let Some(inj) = injector.as_mut() {
                log.time(Layer::Faults, tag, ordinal, || {
                    inj.sweep_draining(&mut population, &ctx, now);
                });
            }
        }
        let outage_wait = now.saturating_since(arrived).as_secs();
        horizon = horizon.max(now);
        log.time(Layer::Accrue, tag, ordinal, || population.accrue(now));
        let chosen = log.time(Layer::Route, tag, ordinal, || {
            router.route(population.live_mut(), &ctx, &query, now)
        });
        let outcome = log.time(Layer::Serve, tag, ordinal, || {
            population.live_mut()[chosen].serve_delayed(&ctx, &query, now, outage_wait)
        });
        if let Some(inj) = injector.as_mut() {
            let node = population.live()[chosen].id();
            log.time(Layer::Faults, tag, ordinal, || {
                inj.note_served(node, now, &query);
            });
        }

        let slot = slot_of[&tenant];
        let stats = &mut tenant_stats[slot];
        stats.queries += 1;
        stats.response.record(outcome.response_time.as_secs());
        stats.payments += outcome.payment;
        stats.cache_hits += u64::from(outcome.ran_in_cache);
        let slo = &mut slo_records[slot];
        slo.record_served(
            outcome.response_time.as_secs(),
            outcome.payment,
            outcome.ran_in_cache,
        );
        if outage_wait > 0.0 {
            slo.fault_delays += 1;
        }
    }

    let finish = log.time(Layer::Finish, tag, ordinal, || {
        population.finish(rates, horizon)
    });
    let node_seconds = finish.node_seconds;
    let elastic = controller.map(|c| c.into_summary(&finish));
    let faults = injector.map(FaultInjector::into_summary);
    CellOut {
        horizon,
        tenants: tenant_stats,
        nodes: finish.nodes,
        node_seconds,
        elastic,
        faults,
        slo: SloLedger::from_records(slo_records),
    }
}

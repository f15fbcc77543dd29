//! The sharded fleet executor.
//!
//! ## Decomposition and invariance
//!
//! Tenants are partitioned into **cells** by `tenant id % cells`. Each
//! cell owns a private replica of the node fleet and serves its tenants'
//! heap-merged stream single-threadedly — within a cell, tenants genuinely
//! share cache state, compete for the same structures, and are routed by
//! live load/price signals. Across cells there is no shared state, which
//! is what lets **shards** (worker threads) execute cells concurrently.
//!
//! The result is a pure function of the config *minus* `shards`:
//!
//! 1. cell membership and every seed derive from tenant ids only;
//! 2. each cell's simulation is single-threaded and deterministic;
//! 3. partial results are folded in ascending cell order, so even the
//!    order-sensitive floating-point merges are fixed.
//!
//! An 8-thread run therefore produces bit-identical fleet aggregates to a
//! 1-thread run — the property `tests/fleet_determinism.rs` pins.
//!
//! Worker threads take cells by striding (`worker w` runs cells
//! `w, w+shards, …`); since workers only *compute* partials and the fold
//! happens after all joins, scheduling jitter cannot leak into results.

use std::sync::Arc;

use catalog::tpch::{tpch_schema, ScaleFactor};
use catalog::Schema;
use planner::{generate_candidates, Estimator, PlannerContext, SkeletonCache};
use simcore::{NetworkModel, SimTime};
use simulator::RunResult;
use workload::paper_templates;

use pricing::Money;
use telemetry::{
    HealthSeries, LifecyclePhase, MetricsRegistry, NodeCrashEvent, NodeEvacuateEvent,
    NodeLifecycleEvent, NodeRecoverEvent, NoopSink, PlanCacheDelta, QueryRetryEvent,
    QuoteRoundEvent, Recorder, SettlementEvent, SloLedger, TenantSloRecord, TraceEvent, TraceSink,
    VitalsFrame,
};

use crate::config::FleetConfig;
use crate::elastic::{ElasticAction, ElasticController, ElasticSummary, NodePopulation};
use crate::faults::{FaultInjector, FaultOutcome, FaultRecord, FaultSummary};
use crate::node::CacheNode;
use crate::result::{FleetResult, NodeStats, TenantStats};
use crate::router::QuoteOptions;
use crate::tenant::{MergedStream, TenantStream};

/// The quote-pool size the executor actually uses: the configured
/// `quote_threads`, clamped so `shards × pool` never oversubscribes the
/// machine's `parallelism`. A pool that cannot run in parallel adds a
/// wake/park pair per round for nothing — the PR 3 quote-thread sweep
/// measured exactly that failure mode (45.5k → 5.9k q/s at 8 spawned
/// threads on a saturated machine). Results are invariant in the pool
/// size by construction, so the clamp is wall-clock-only.
#[must_use]
pub fn effective_quote_threads(
    requested: usize,
    shard_workers: usize,
    parallelism: usize,
) -> usize {
    requested
        .max(1)
        .min((parallelism / shard_workers.max(1)).max(1))
}

/// A prepared fleet simulation: schema, candidates and estimator built
/// once and shared (read-only) by every cell on every worker thread,
/// plus the fleet-wide skeleton cache the cells' quote rounds share.
pub struct FleetSim {
    schema: Arc<Schema>,
    candidates: Vec<cache::IndexDef>,
    cand_index: planner::CandidateIndex,
    estimator: Estimator,
    skeletons: Arc<SkeletonCache>,
    config: FleetConfig,
}

/// One cell's partial measurements, produced on a worker thread.
struct CellResult {
    horizon: SimTime,
    tenants: Vec<TenantStats>,
    /// Per-node results tagged with fleet-wide node ids — positions are
    /// not ids once the control plane retires or spawns nodes mid-run.
    nodes: Vec<(usize, RunResult)>,
    /// Live node-seconds integrated over the cell (eq. 11's quantity).
    node_seconds: f64,
    /// Control-plane activity, when the cell ran elastically.
    elastic: Option<ElasticSummary>,
    /// Fault-plane activity, when the cell ran under a fault plan.
    faults: Option<FaultSummary>,
    /// The cell's metrics registry — populated only on traced runs
    /// (`None` under the no-op sink, keeping the hot path allocation-free).
    registry: Option<MetricsRegistry>,
    /// Per-tenant SLO ledger — always computed, so traced and untraced
    /// runs stay bit-identical.
    slo: SloLedger,
    /// Cadenced vitals snapshots, when the config asked for them.
    health: Option<HealthSeries>,
}

/// What a traced run recorded alongside its [`FleetResult`]: the full
/// event stream (ascending cell, then per-cell arrival order) and the
/// per-cell registries merged in ascending cell order. Registry merging
/// is exact, so the snapshot is bit-identical at any shard count.
#[derive(Debug)]
pub struct FleetTrace {
    /// Every trace event the run emitted.
    pub events: Vec<TraceEvent>,
    /// Merged metrics registry.
    pub registry: MetricsRegistry,
}

impl FleetSim {
    /// Prepares a fleet simulation from a validated config.
    ///
    /// # Panics
    /// Panics if the config is invalid.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid fleet config: {msg}");
        }
        let schema = Arc::new(tpch_schema(ScaleFactor(config.scale_factor)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, config.candidate_indexes);
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            config.cost_params.clone(),
            config.prices.clone(),
            NetworkModel::paper_sdss(),
        );
        FleetSim {
            schema,
            candidates,
            cand_index,
            estimator,
            skeletons: Arc::new(SkeletonCache::new()),
            config,
        }
    }

    /// `(hits, misses)` of the fleet-wide skeleton cache so far.
    #[must_use]
    pub fn skeleton_cache_stats(&self) -> (u64, u64) {
        self.skeletons.stats()
    }

    /// Full counter snapshot of the fleet-wide skeleton cache —
    /// hits, misses and admission-filter stores. The repository
    /// benchmark reports these beside its per-layer timings.
    #[must_use]
    pub fn skeleton_cache_counters(&self) -> planner::SkeletonCacheCounters {
        self.skeletons.counters()
    }

    /// The quote-pool size this sim's cells will actually use — the
    /// configured `quote_threads` after the executor's oversubscription
    /// clamp ([`effective_quote_threads`]), on the current machine. The
    /// single source the repository benchmark reports from.
    #[must_use]
    pub fn quote_pool_threads(&self) -> usize {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let shard_workers = self.config.shards.min(self.config.cells).max(1);
        effective_quote_threads(self.config.quote_threads, shard_workers, parallelism)
    }

    /// The backend schema.
    #[must_use]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Executes the fleet run across `config.shards` worker threads.
    #[must_use]
    pub fn run(&self) -> FleetResult {
        let partials = self.run_cells(|_| NoopSink);
        self.fold(partials.iter().map(|(partial, _)| partial))
    }

    /// Executes the fleet run with the flight recorder on: every cell
    /// records its trace events and metrics registry, and the partials
    /// are stitched in ascending cell order.
    ///
    /// The headline telemetry invariant — instrumentation only observes —
    /// makes the returned [`FleetResult`] bit-identical to [`Self::run`]'s
    /// (`tests/telemetry_invariants.rs`, `tests/fleet_elastic.rs` and
    /// `bench --bin explain selfcheck` verify this, and CI gates on it).
    #[must_use]
    pub fn run_traced(&self) -> (FleetResult, FleetTrace) {
        let partials = self.run_cells(|_| Recorder::new());
        let result = self.fold(partials.iter().map(|(partial, _)| partial));
        let mut events = Vec::new();
        let mut registry = MetricsRegistry::new();
        for (partial, recorder) in partials {
            events.extend(recorder.into_events());
            if let Some(cell_registry) = &partial.registry {
                registry.merge(cell_registry);
            }
        }
        (result, FleetTrace { events, registry })
    }

    /// Simulates every cell (striding workers when `shards > 1`), giving
    /// each cell its own sink from `make_sink`. Returns partials in
    /// ascending cell order regardless of shard scheduling.
    fn run_cells<S, F>(&self, make_sink: F) -> Vec<(CellResult, S)>
    where
        S: TraceSink + Send,
        F: Fn(usize) -> S + Sync,
    {
        let cells = self.config.cells;
        let shards = self.config.shards.min(cells).max(1);

        if shards == 1 {
            (0..cells)
                .map(|c| {
                    let mut sink = make_sink(c);
                    let partial = self.simulate_cell(c, &mut sink);
                    (partial, sink)
                })
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..shards)
                    .map(|worker| {
                        let sim = &*self;
                        let make_sink = &make_sink;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            let mut cell = worker;
                            while cell < cells {
                                let mut sink = make_sink(cell);
                                let partial = sim.simulate_cell(cell, &mut sink);
                                out.push((cell, (partial, sink)));
                                cell += shards;
                            }
                            out
                        })
                    })
                    .collect();
                let mut slots: Vec<Option<(CellResult, S)>> = (0..cells).map(|_| None).collect();
                for handle in handles {
                    for (cell, result) in handle.join().expect("fleet worker panicked") {
                        slots[cell] = Some(result);
                    }
                }
                slots
                    .into_iter()
                    .map(|s| s.expect("every cell simulated"))
                    .collect()
            })
        }
    }

    /// Folds cell partials in ascending cell order — the
    /// shard-count-invariant merge.
    fn fold<'a>(&self, partials: impl Iterator<Item = &'a CellResult>) -> FleetResult {
        let cells = self.config.cells;
        let mut fleet = FleetResult::empty(self.config.router.name(), cells);
        for partial in partials {
            let mut piece = FleetResult::empty(self.config.router.name(), cells);
            piece.horizon_secs = partial.horizon.as_secs();
            piece.tenants = partial.tenants.clone();
            piece.node_seconds = partial.node_seconds;
            piece.elastic = partial.elastic.clone();
            piece.faults = partial.faults.clone();
            piece.slo = partial.slo.clone();
            piece.health = partial.health.clone();
            for &(node_idx, ref run) in &partial.nodes {
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
                piece.nodes.push(NodeStats::from_run(node_idx, run));
            }
            fleet.merge(&piece);
        }
        fleet
    }

    /// Simulates one cell: its tenants' merged stream over a private
    /// replica of the node fleet. Single-threaded and deterministic.
    ///
    /// When `sink` is enabled the cell additionally assembles trace
    /// events (quote rounds, settlements, node lifecycle) and a metrics
    /// registry; under the default [`NoopSink`] both gates are a single
    /// branch and no event is ever built.
    fn simulate_cell(&self, cell: usize, sink: &mut dyn TraceSink) -> CellResult {
        let cells = self.config.cells;
        let rates = &self.config.prices.rates;
        // Flash-crowd surges time-warp every tenant's arrivals — the
        // windows come from the config, so surge runs stay pure functions
        // of it.
        let surge_windows = self
            .config
            .faults
            .as_ref()
            .map(|p| p.surge_windows())
            .unwrap_or_default();
        let streams: Vec<TenantStream> = self
            .config
            .tenants
            .iter()
            .filter(|t| t.id.0 as usize % cells == cell)
            .map(|t| {
                if surge_windows.is_empty() {
                    TenantStream::new(t.clone(), Arc::clone(&self.schema), self.config.seed)
                } else {
                    TenantStream::with_surges(
                        t.clone(),
                        Arc::clone(&self.schema),
                        self.config.seed,
                        surge_windows.clone(),
                    )
                }
            })
            .collect();
        let mut tenant_stats: Vec<TenantStats> = streams
            .iter()
            .map(|s| TenantStats::new(s.spec().id))
            .collect();
        // The SLO ledger rides alongside `tenant_stats`, slot for slot.
        // It is unconditionally maintained — one histogram record plus a
        // few counter bumps per query — because the telemetry invariant
        // (`run_traced() == run()`) compares full `FleetResult`s.
        let mut slo_records: Vec<TenantSloRecord> = streams
            .iter()
            .map(|s| TenantSloRecord::new(s.spec().id.0, s.spec().slo))
            .collect();
        // O(1) tenant → stats-slot lookup for the hot loop below.
        let slot_of: std::collections::HashMap<crate::tenant::TenantId, usize> = tenant_stats
            .iter()
            .enumerate()
            .map(|(i, t)| (t.tenant, i))
            .collect();
        let merged = MergedStream::new(streams);

        // Degradation windows apply to seed nodes only — replacements
        // (elastic spawns, crash recoveries) are fresh machines.
        let nodes: Vec<CacheNode> = self
            .config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut node = CacheNode::new(i, spec, &self.schema, &self.config.econ);
                if let Some(plan) = &self.config.faults {
                    node.set_degradations(plan.degrade_windows(i));
                }
                node
            })
            .collect();
        let mut population = NodePopulation::new(nodes);
        let mut injector = self.config.faults.as_ref().map(|plan| {
            FaultInjector::new(
                plan,
                &self.config.nodes,
                self.config.econ.clone(),
                Arc::clone(&self.schema),
                cell,
                self.config.seed,
            )
        });
        let mut controller = self
            .config
            .elastic
            .as_ref()
            .map(|_| ElasticController::new(&self.config, cell, Arc::clone(&self.schema)));
        let mut router = self.config.router.make(QuoteOptions {
            threads: self.quote_pool_threads(),
            batching: self.config.quote_batching,
            // A single-cell run has nothing to de-duplicate across cells:
            // the within-round LazySkeleton sharing already builds each
            // skeleton once, so the fleet-wide cache would only add a
            // shard-lock probe per miss. Skip it.
            skeletons: (self.config.cells > 1).then(|| Arc::clone(&self.skeletons)),
            pinning: self.config.pin_quote_workers,
        });
        let ctx = PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        };

        // The flight recorder: `registry` doubles as the "tracing on"
        // gate so the no-op path costs one branch per site.
        let mut registry = sink.enabled().then(MetricsRegistry::new);
        let mut ledger_seen = 0usize;
        let mut fault_seen = 0usize;
        // Vitals scraper state: the series plus the next tick ordinal.
        // Tick instants are `k × interval` by multiplication (never by
        // accumulation), so every cell lands frames on the exact same
        // grid and the cross-cell merge can align them index-wise.
        let mut health = self
            .config
            .health
            .as_ref()
            .map(|h| (HealthSeries::new(h.snapshot_interval_secs), 1u64));

        let mut horizon = SimTime::ZERO;
        for (now, tenant, query) in merged {
            horizon = now;
            // Control-plane reviews and fault events due before this
            // arrival run first, interleaved at their exact simulated
            // instants (reviews win exact ties), so routing below sees
            // the post-review, post-fault population.
            if let Some(inj) = injector.as_mut() {
                while let Some(fault_at) = inj.next_due(now) {
                    if let Some(controller) = &mut controller {
                        controller.run_due_reviews(&mut population, &ctx, fault_at);
                    }
                    inj.process_next(&mut population, &ctx, rates);
                }
            }
            if let Some(controller) = &mut controller {
                controller.run_due_reviews(&mut population, &ctx, now);
            }
            if let Some(inj) = injector.as_mut() {
                // Capital-preserving evacuation of control-plane drains:
                // newly draining nodes migrate their profitable
                // structures before retirement instead of scrapping them.
                inj.sweep_draining(&mut population, &ctx, now);
            }
            // Total-outage wait: a correlated crash can momentarily
            // leave no routable node (the survivors already retired,
            // the population-floor respawns still booting). The query
            // queues until capacity returns — its effective serve
            // instant advances through the control-plane actions due in
            // the window (reviews and fault events run at their exact
            // instants), and the wait folds into its end-to-end latency
            // sample exactly like retry backoff.
            let arrived = now;
            let mut now = now;
            while population.routable_count(now) == 0 {
                let mut next: Option<f64> = population
                    .live()
                    .iter()
                    .filter(|n| n.drain_since().is_none() && now.as_secs() < n.ready_at().as_secs())
                    .map(|n| n.ready_at().as_secs())
                    .min_by(f64::total_cmp);
                if let Some(controller) = &controller {
                    let review = controller.next_review_at().as_secs();
                    next = Some(next.map_or(review, |t| t.min(review)));
                }
                if let Some(at) = injector.as_ref().and_then(|i| i.next_event_at()) {
                    let at = at.as_secs();
                    next = Some(next.map_or(at, |t| t.min(at)));
                }
                let Some(next) = next.filter(|t| *t > now.as_secs()) else {
                    panic!("no routable node and no pending control-plane action to restore one");
                };
                now = SimTime::from_secs(next);
                if let Some(inj) = injector.as_mut() {
                    while let Some(fault_at) = inj.next_due(now) {
                        if let Some(controller) = &mut controller {
                            controller.run_due_reviews(&mut population, &ctx, fault_at);
                        }
                        inj.process_next(&mut population, &ctx, rates);
                    }
                }
                if let Some(controller) = &mut controller {
                    controller.run_due_reviews(&mut population, &ctx, now);
                }
                if let Some(inj) = injector.as_mut() {
                    inj.sweep_draining(&mut population, &ctx, now);
                }
            }
            let outage_wait = now.saturating_since(arrived).as_secs();
            horizon = horizon.max(now);
            if let Some(registry) = registry.as_mut() {
                if let Some(controller) = &controller {
                    let ledger = controller.ledger();
                    for entry in &ledger[ledger_seen..] {
                        emit_lifecycle(sink, registry, entry);
                    }
                    ledger_seen = ledger.len();
                }
                if let Some(inj) = injector.as_ref() {
                    let records = inj.records();
                    for record in &records[fault_seen..] {
                        emit_fault(sink, registry, record);
                    }
                    fault_seen = records.len();
                }
            }
            population.accrue(now);
            // The cadenced scraper: emit every frame whose tick instant
            // has passed. Ticks sample the *current* (post-accrue) state
            // — a deterministic function of the arrival sequence, so
            // frames are bit-identical at any shard count.
            if let Some((series, next_tick)) = health.as_mut() {
                #[allow(clippy::cast_precision_loss)]
                while (*next_tick as f64) * series.interval_secs <= now.as_secs() {
                    #[allow(clippy::cast_precision_loss)]
                    let at = (*next_tick as f64) * series.interval_secs;
                    series.frames.push(capture_vitals(
                        at,
                        &population,
                        controller.as_ref(),
                        injector.as_ref(),
                        &slo_records,
                    ));
                    *next_tick += 1;
                }
            }
            // Plan-cache totals only move inside route/serve below (the
            // population is fixed for the rest of the step), so diffing
            // them around each phase attributes memoization activity to
            // this query exactly.
            let before_route = registry.as_ref().map(|_| {
                (
                    plan_cache_totals(population.live()),
                    population.routable_count(now),
                )
            });
            let mut chosen = router.route(population.live_mut(), &ctx, &query, now);
            // Per-query timeout fallback: a degraded winner whose backlog
            // already exceeds the timeout is suppressed for one more
            // round and the query re-routes to the next-best candidate —
            // once (legacy), or under the plan's deadline-budgeted
            // [`RetryPolicy`] with deterministic backoff charged against
            // the query's remaining budget headroom. Pure simulation
            // state drives every decision, so traced and untraced runs
            // take the identical path.
            let mut retry_wait = 0.0_f64;
            let mut retried_query: Option<workload::Query> = None;
            if let Some(inj) = injector.as_mut() {
                let timeout = inj.timeout_secs();
                if timeout > 0.0 {
                    if let Some(policy) = inj.retry().copied() {
                        let mut suppressed: Vec<usize> = Vec::new();
                        let mut scale = query.budget_scale;
                        let mut attempt = 1u32;
                        // Retry while the winner is degraded past the
                        // timeout, attempts remain, an alternative node
                        // exists, and the budget still has headroom to
                        // pay for a retry. When the headroom is gone the
                        // decayed budget itself downgrades the plan: a
                        // `B_Q(t)` pinned at the backend price makes the
                        // economy serve the backend plan organically.
                        while attempt < policy.max_attempts
                            && population.routable_count(now) > 1
                            && scale - 1.0 > 1e-9
                        {
                            let winner = &population.live()[chosen];
                            if !(winner.degrade_slowdown(now) > 1.0
                                && winner.outstanding(now) >= timeout)
                            {
                                break;
                            }
                            let backoff = policy.backoff_for(attempt);
                            retry_wait += backoff;
                            scale = policy.decayed_budget_scale(scale);
                            let from_node = winner.id();
                            population.live_mut()[chosen].suppress_route();
                            suppressed.push(chosen);
                            let mut decayed = query.clone();
                            decayed.budget_scale = scale;
                            chosen = router.route(population.live_mut(), &ctx, &decayed, now);
                            inj.note_retry();
                            slo_records[slot_of[&tenant]].retries += 1;
                            if let Some(registry) = registry.as_mut() {
                                registry.counter_add("fault.retries", 1);
                                registry.observe("fault.retry_backoff", backoff);
                                sink.emit(TraceEvent::QueryRetry(QueryRetryEvent {
                                    cell,
                                    at_secs: now.as_secs(),
                                    tenant: tenant.0,
                                    template: query.template.0,
                                    query: query.id.0,
                                    from_node,
                                    to_node: population.live()[chosen].id(),
                                    attempt,
                                    backoff_secs: backoff,
                                    budget_scale: scale,
                                }));
                            }
                            retried_query = Some(decayed);
                            attempt += 1;
                        }
                        for idx in suppressed {
                            population.live_mut()[idx].unsuppress_route();
                        }
                    } else if population.routable_count(now) > 1 {
                        let winner = &population.live()[chosen];
                        if winner.degrade_slowdown(now) > 1.0 && winner.outstanding(now) >= timeout
                        {
                            population.live_mut()[chosen].suppress_route();
                            let rerouted = router.route(population.live_mut(), &ctx, &query, now);
                            population.live_mut()[chosen].unsuppress_route();
                            chosen = rerouted;
                            inj.note_timeout();
                            slo_records[slot_of[&tenant]].timeouts += 1;
                            if let Some(registry) = registry.as_mut() {
                                registry.counter_add("fault.timeouts", 1);
                            }
                        }
                    }
                }
            }
            let after_route = if let Some((before, routable)) = before_route {
                let totals = plan_cache_totals(population.live());
                let delta = plan_cache_delta(before, totals);
                sink.emit(TraceEvent::QuoteRound(QuoteRoundEvent {
                    cell,
                    at_secs: now.as_secs(),
                    tenant: tenant.0,
                    template: query.template.0,
                    query: query.id.0,
                    winner: population.live()[chosen].id(),
                    winning_quote: router.last_winning_quote(),
                    routable,
                    plan_cache: delta,
                }));
                Some(totals)
            } else {
                None
            };
            // Retried queries serve with their decayed budget and fold
            // the accumulated backoff into the delivered latency exactly
            // once — the response histogram records a single end-to-end
            // sample per query, never one per timed-out attempt.
            let eff_query = retried_query.as_ref().unwrap_or(&query);
            let outcome = population.live_mut()[chosen].serve_delayed(
                &ctx,
                eff_query,
                now,
                outage_wait + retry_wait,
            );
            if let Some(inj) = injector.as_mut() {
                // Journal the serve for nodes awaiting replay-recovery
                // (one hash probe for everyone else). The *effective*
                // query is journaled, so recovery replay reproduces the
                // decayed-budget economics bit for bit.
                inj.note_served(population.live()[chosen].id(), now, eff_query);
            }
            if let Some(registry) = registry.as_mut() {
                let after_serve = plan_cache_totals(population.live());
                let serve_delta =
                    plan_cache_delta(after_route.expect("traced route recorded"), after_serve);
                let step_delta =
                    plan_cache_delta(before_route.expect("traced route recorded").0, after_serve);
                record_settlement(registry, &outcome, step_delta);
                sink.emit(TraceEvent::Settlement(SettlementEvent {
                    cell,
                    at_secs: now.as_secs(),
                    tenant: tenant.0,
                    template: query.template.0,
                    query: query.id.0,
                    node: population.live()[chosen].id(),
                    response_secs: outcome.response_time.as_secs(),
                    ran_in_cache: outcome.ran_in_cache,
                    payment: outcome.payment,
                    profit: outcome.profit,
                    exec: outcome.exec_breakdown,
                    build_spend: outcome.build_spend,
                    used_structures: outcome
                        .used_structures
                        .iter()
                        .map(ToString::to_string)
                        .collect(),
                    investments: outcome.investments,
                    evictions: outcome.evictions,
                    plan_cache: serve_delta,
                }));
            }

            let stats = &mut tenant_stats[slot_of[&tenant]];
            stats.queries += 1;
            stats.response.record(outcome.response_time.as_secs());
            stats.payments += outcome.payment;
            stats.cache_hits += u64::from(outcome.ran_in_cache);
            let slo = &mut slo_records[slot_of[&tenant]];
            slo.record_served(
                outcome.response_time.as_secs(),
                outcome.payment,
                outcome.ran_in_cache,
            );
            if outage_wait > 0.0 {
                slo.fault_delays += 1;
            }
        }

        if let Some(registry) = registry.as_mut() {
            // Placement telemetry, outside the invariance contract (like
            // the skeleton-cache counters): how many quote workers this
            // cell's router actually pinned to a core.
            registry.counter_add("pool.pinned_workers", router.pinned_workers());
            // How this cell's quote rounds were settled: decided from
            // the budgets alone, or through planning. Unlike the pins,
            // a pure function of the simulation, hence shard-invariant.
            let rounds = router.quote_rounds();
            registry.counter_add("router.decided_rounds", rounds.decided);
            registry.counter_add("router.full_rounds", rounds.full);
        }

        let finish = population.finish(rates, horizon);
        let node_seconds = finish.node_seconds;
        let elastic = controller.map(|c| c.into_summary(&finish));
        let faults = injector.map(FaultInjector::into_summary);
        CellResult {
            horizon,
            tenants: tenant_stats,
            nodes: finish.nodes,
            node_seconds,
            elastic,
            faults,
            registry,
            slo: SloLedger::from_records(slo_records),
            health: health.map(|(series, _)| series),
        }
    }
}

/// Samples one [`VitalsFrame`] from the cell's live state. Every field
/// is a pure function of the simulation state at the sampling call, so
/// frames are deterministic across shard counts and identical between
/// traced and untraced runs.
fn capture_vitals(
    at_secs: f64,
    population: &NodePopulation,
    controller: Option<&ElasticController>,
    injector: Option<&FaultInjector>,
    slo_records: &[TenantSloRecord],
) -> VitalsFrame {
    let t = SimTime::from_secs(at_secs);
    let live = population.live();
    let plan = plan_cache_totals(live);
    let mut backlog_secs = 0.0;
    let mut node_cash = Money::ZERO;
    let mut routable_nodes = 0u64;
    let mut draining_nodes = 0u64;
    for node in live {
        if node.routable(t) {
            routable_nodes += 1;
            backlog_secs += node.outstanding(t);
        }
        if node.drain_since().is_some() {
            draining_nodes += 1;
        }
        if let Some(economy) = node.economy() {
            node_cash += economy.account().balance();
        }
    }
    VitalsFrame {
        at_secs,
        queries: slo_records.iter().map(|r| r.admitted).sum(),
        cache_hits: slo_records.iter().map(|r| r.cache_hits).sum(),
        deadline_misses: slo_records.iter().map(|r| r.deadline_misses).sum(),
        backlog_secs,
        pressure_ewma: controller.map_or(0.0, ElasticController::pressure_ewma),
        node_cash,
        live_nodes: live.len() as u64,
        routable_nodes,
        draining_nodes,
        plan_hits: plan.0,
        plan_misses: plan.1,
        victim_hits: plan.4,
        spawns: controller.map_or(0, ElasticController::spawns_so_far),
        retires: controller.map_or(0, ElasticController::retires_so_far),
        write_off: injector.map_or(Money::ZERO, FaultInjector::write_off_so_far),
    }
}

/// Fleet-wide plan-cache counter totals over the live population
/// (hits, misses, refreshes, completions, victim hits). Monotone within
/// a query step: nodes only leave the population during control-plane
/// reviews, which run before the step's sampling starts.
fn plan_cache_totals(nodes: &[CacheNode]) -> (u64, u64, u64, u64, u64) {
    let mut totals = (0u64, 0u64, 0u64, 0u64, 0u64);
    for node in nodes {
        if let Some(stats) = node.plan_cache_stats() {
            totals.0 += stats.hits;
            totals.1 += stats.misses;
            totals.2 += stats.refreshes;
            totals.3 += stats.completions;
            totals.4 += stats.victim_hits;
        }
    }
    totals
}

/// Delta of two [`plan_cache_totals`] samples taken within one step.
fn plan_cache_delta(
    before: (u64, u64, u64, u64, u64),
    after: (u64, u64, u64, u64, u64),
) -> PlanCacheDelta {
    PlanCacheDelta {
        hits: after.0.saturating_sub(before.0),
        misses: after.1.saturating_sub(before.1),
        refreshes: after.2.saturating_sub(before.2),
        completions: after.3.saturating_sub(before.3),
        victim_hits: after.4.saturating_sub(before.4),
    }
}

/// Folds one new elastic-ledger entry into the trace stream and the
/// cell registry.
fn emit_lifecycle(
    sink: &mut dyn TraceSink,
    registry: &mut MetricsRegistry,
    entry: &crate::elastic::LedgerEntry,
) {
    registry.counter_add("elastic.reviews", 1);
    let (phase, node, scheme, counter) = match &entry.action {
        ElasticAction::Hold => (LifecyclePhase::Hold, None, String::new(), "elastic.holds"),
        ElasticAction::ScaleUp { node, scheme } => (
            LifecyclePhase::Spawn,
            Some(*node),
            scheme.clone(),
            "elastic.spawns",
        ),
        ElasticAction::DrainBegin { node } => (
            LifecyclePhase::DrainBegin,
            Some(*node),
            String::new(),
            "elastic.drains",
        ),
        ElasticAction::Retire { node } => (
            LifecyclePhase::Retire,
            Some(*node),
            String::new(),
            "elastic.retires",
        ),
    };
    registry.counter_add(counter, 1);
    sink.emit(TraceEvent::NodeLifecycle(NodeLifecycleEvent {
        cell: entry.cell,
        at_secs: entry.at_secs,
        phase,
        node,
        rule: entry.rule.clone(),
        scheme,
        live: entry.live,
        routable: entry.routable,
        booting: entry.booting,
        draining: entry.draining,
        backlog: entry.signals.backlog,
        backlog_ewma: entry.signals.backlog_ewma,
        window_response_secs: entry.signals.window_response_secs,
        profit_rate: entry.signals.profit_rate,
        regret_rate: entry.signals.regret_rate,
    }));
}

/// Folds one new fault-ledger record into the trace stream and the cell
/// registry.
fn emit_fault(sink: &mut dyn TraceSink, registry: &mut MetricsRegistry, record: &FaultRecord) {
    match &record.event {
        FaultOutcome::Crash(c) => {
            registry.counter_add("fault.crashes", 1);
            registry.counter_add("fault.cascade_crashes", u64::from(c.cascade_depth > 0));
            registry.gauge_add("fault.write_off", c.write_off);
            if c.requeued_secs > 0.0 {
                registry.observe("fault.requeue_secs", c.requeued_secs);
            }
            sink.emit(TraceEvent::NodeCrash(NodeCrashEvent {
                cell: record.cell,
                at_secs: record.at_secs,
                node: c.node,
                phase: c.phase.label().to_string(),
                queries: c.queries,
                payments: c.payments,
                profit: c.profit,
                operating: c.operating,
                write_off: c.write_off,
                salvaged: c.salvaged,
                transfer_spend: c.transfer_spend,
                cascade_depth: c.cascade_depth,
                disk_bytes: c.disk_bytes,
                requeued_secs: c.requeued_secs,
                requeued_to: c.requeued_to,
                recover_planned: c.recover_planned,
            }));
        }
        FaultOutcome::Evacuate(e) => {
            registry.counter_add("fault.evacuations", 1);
            registry.counter_add("fault.structures_moved", e.structures_moved);
            registry.gauge_add("fault.salvaged", e.salvaged);
            registry.gauge_add("fault.transfer_spend", e.transfer_spend);
            let mut receivers: Vec<usize> = e.moves.iter().map(|m| m.to).collect();
            receivers.sort_unstable();
            receivers.dedup();
            sink.emit(TraceEvent::NodeEvacuate(NodeEvacuateEvent {
                cell: record.cell,
                at_secs: record.at_secs,
                node: e.node,
                reason: e.reason.clone(),
                structures_moved: e.structures_moved,
                salvaged: e.salvaged,
                transfer_spend: e.transfer_spend,
                receivers,
            }));
        }
        FaultOutcome::Recover(r) => {
            registry.counter_add("fault.recoveries", 1);
            registry.counter_add("fault.reconciled", u64::from(r.drift.is_zero()));
            sink.emit(TraceEvent::NodeRecover(NodeRecoverEvent {
                cell: record.cell,
                at_secs: record.at_secs,
                crashed: r.crashed,
                replacement: r.replacement,
                boot_cost: r.boot_cost,
                ready_at_secs: r.ready_at_secs,
                replayed_queries: r.replayed_queries,
                reconciled: r.drift.is_zero(),
            }));
        }
    }
}

/// Books one settled query into the cell registry. `step_delta` is the
/// whole step's plan-cache activity (route + serve), so the registry's
/// `plan_cache.*` counters cover activity on nodes that later retire —
/// unlike an end-of-run sum over surviving nodes.
fn record_settlement(
    registry: &mut MetricsRegistry,
    outcome: &policies::PolicyOutcome,
    step_delta: PlanCacheDelta,
) {
    registry.counter_add("fleet.queries", 1);
    registry.counter_add("fleet.cache_hits", u64::from(outcome.ran_in_cache));
    registry.counter_add("fleet.investments", u64::from(outcome.investments));
    registry.counter_add("fleet.evictions", u64::from(outcome.evictions));
    registry.gauge_add("fleet.payments", outcome.payment);
    registry.gauge_add("fleet.profit", outcome.profit);
    registry.gauge_add("fleet.build_spend", outcome.build_spend);
    registry.gauge_add("fleet.exec.cpu", outcome.exec_breakdown.cpu);
    registry.gauge_add("fleet.exec.disk", outcome.exec_breakdown.disk);
    registry.gauge_add("fleet.exec.network", outcome.exec_breakdown.network);
    registry.gauge_add("fleet.exec.io", outcome.exec_breakdown.io);
    registry.counter_add("plan_cache.hits", step_delta.hits);
    registry.counter_add("plan_cache.misses", step_delta.misses);
    registry.counter_add("plan_cache.refreshes", step_delta.refreshes);
    registry.counter_add("plan_cache.completions", step_delta.completions);
    registry.counter_add("plan_cache.victim_hits", step_delta.victim_hits);
    registry.observe("fleet.response_secs", outcome.response_time.as_secs());
}

/// One-shot convenience: prepare and run.
#[must_use]
pub fn run_fleet(config: FleetConfig) -> FleetResult {
    FleetSim::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RouterKind;

    fn small(router: RouterKind, shards: usize) -> FleetResult {
        let mut config = FleetConfig::uniform(8, 3, 60, 1.0);
        config.scale_factor = 10.0;
        config.cells = 4;
        config.shards = shards;
        config.router = router;
        run_fleet(config)
    }

    #[test]
    fn fleet_serves_every_query_once() {
        let r = small(RouterKind::RoundRobin, 1);
        assert_eq!(r.queries, 8 * 60);
        assert_eq!(r.response.count(), 8 * 60);
        let tenant_total: u64 = r.tenants.iter().map(|t| t.queries).sum();
        let node_total: u64 = r.nodes.iter().map(|n| n.queries).sum();
        assert_eq!(tenant_total, r.queries);
        assert_eq!(node_total, r.queries);
        assert_eq!(r.tenants.len(), 8);
        // 4 cells × 3 node slots roll up into 3 fleet-level node rows.
        assert_eq!(r.nodes.len(), 3);
        assert!(r.total_operating_cost().is_positive());
        assert!(r.mean_response_secs() > 0.0);
    }

    #[test]
    fn round_robin_spreads_queries_evenly() {
        let r = small(RouterKind::RoundRobin, 1);
        let counts: Vec<u64> = r.nodes.iter().map(|n| n.queries).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= self::small_imbalance(&r),
            "round-robin imbalance: {counts:?}"
        );
    }

    /// Round-robin is per-cell, so imbalance is bounded by one query per
    /// cell.
    fn small_imbalance(r: &FleetResult) -> u64 {
        r.cells as u64
    }

    #[test]
    fn all_routers_complete_and_disagree_somewhere() {
        let rr = small(RouterKind::RoundRobin, 1);
        let lo = small(RouterKind::LeastOutstanding, 1);
        let cq = small(RouterKind::CheapestQuote, 1);
        for r in [&rr, &lo, &cq] {
            assert_eq!(r.queries, 480);
        }
        // Different strategies must produce observably different routing
        // (identical everything would mean the router is not consulted).
        let loads = |r: &FleetResult| -> Vec<u64> { r.nodes.iter().map(|n| n.queries).collect() };
        assert!(
            loads(&rr) != loads(&cq) || loads(&lo) != loads(&cq),
            "cheapest-quote matched both baselines exactly"
        );
    }

    #[test]
    #[should_panic(expected = "invalid fleet config")]
    fn invalid_config_panics() {
        let mut config = FleetConfig::uniform(2, 1, 10, 1.0);
        config.cells = 0;
        let _ = FleetSim::new(config);
    }
}

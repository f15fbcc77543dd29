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
//! Each cell runs as a [`Cell`], one named phase per step of its loop.

use std::sync::Arc;

use catalog::tpch::{tpch_schema, ScaleFactor};
use catalog::Schema;
use econ::EconomyManager;
use planner::{generate_candidates, Estimator, ExecRows, PlannerContext};
use policies::PolicyOutcome;
use simcore::{NetworkModel, SimTime};
use workload::{paper_templates, Query};

use pricing::Money;
use telemetry::{
    HealthSeries, LifecyclePhase, MetricsRegistry, NodeCrashEvent, NodeLifecycleEvent,
    NodeRecoverEvent, NoopSink, QueryRetryEvent, QuoteRoundEvent, Recorder, SettlementEvent,
    SloLedger, TenantSloRecord, TraceEvent, TraceSink, VitalsFrame,
};

use crate::config::FleetConfig;
use crate::elastic::{ElasticAction, ElasticController, NodePopulation};
use crate::faults::{FaultInjector, FaultOutcome, FaultRecord};
use crate::node::CacheNode;
use crate::result::{FleetResult, NodeStats, TenantStats};
use crate::retry::RetryPolicy;
use crate::router::{QuoteOptions, Router};
use crate::tenant::{MergedStream, TenantStream};

/// Kept only because the repository benchmark names it; inert; removed
/// by ROADMAP item 5. Quote rounds run on the router's thread, so
/// this is 1 for every valid config (`FleetConfig::validate` rejects
/// any other `quote_threads`).
#[must_use]
pub fn effective_quote_threads(
    _requested: usize,
    _shard_workers: usize,
    _parallelism: usize,
) -> usize {
    1
}

/// A prepared fleet simulation: schema, candidates and estimator built
/// once and shared (read-only) by every cell on every worker thread.
pub struct FleetSim {
    schema: Arc<Schema>,
    candidates: Vec<cache::IndexDef>,
    cand_index: planner::CandidateIndex,
    estimator: Estimator,
    config: FleetConfig,
}

/// One cell's finished piece of the fleet result, with its metrics
/// registry on traced runs.
type CellPiece = (FleetResult, Option<MetricsRegistry>);

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
            config,
        }
    }

    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. All zeros: no fleet-wide skeleton
    /// cache exists.
    #[must_use]
    pub fn skeleton_cache_counters(&self) -> planner::SkeletonCacheCounters {
        planner::SkeletonCacheCounters::default()
    }

    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Always 1: quote rounds run on the
    /// router's thread.
    #[must_use]
    pub fn quote_pool_threads(&self) -> usize {
        1
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Executes the fleet run across `config.shards` worker threads.
    #[must_use]
    pub fn run(&self) -> FleetResult {
        self.run_cells(|_| NoopSink).0
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
        let (result, cells) = self.run_cells(|_| Recorder::new());
        let mut events = Vec::new();
        let mut registry = MetricsRegistry::new();
        for (cell_registry, recorder) in cells {
            events.extend(recorder.into_events());
            if let Some(cell_registry) = &cell_registry {
                registry.merge(cell_registry);
            }
        }
        (result, FleetTrace { events, registry })
    }

    /// Prepares cell `index` (tenants `id % cells == index`) on a fresh
    /// replica of the seed nodes, tracing into `sink`. Degradation
    /// windows apply to seed nodes only: replacements are fresh machines.
    #[must_use]
    pub fn cell<'a>(&'a self, index: usize, sink: &'a mut dyn TraceSink) -> Cell<'a> {
        let config = &self.config;
        let surge_windows = config
            .faults
            .as_ref()
            .map(|p| p.surge_windows())
            .unwrap_or_default();
        let streams: Vec<TenantStream> = config
            .tenants
            .iter()
            .filter(|t| t.id.0 as usize % config.cells == index)
            .map(|t| {
                let schema = Arc::clone(&self.schema);
                TenantStream::with_surges(t.clone(), schema, config.seed, surge_windows.clone())
            })
            .collect();
        let (tenants, slo) = streams
            .iter()
            .map(|s| {
                let spec = s.spec();
                (
                    TenantStats::new(spec.id),
                    TenantSloRecord::new(spec.id.0, spec.slo),
                )
            })
            .unzip();
        let nodes = config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut node = CacheNode::new(i, spec, &self.schema, &config.econ);
                if let Some(plan) = &config.faults {
                    node.set_degradations(plan.degrade_windows(i));
                }
                node
            })
            .collect();
        let injector = config.faults.as_ref().map(|plan| {
            let schema = Arc::clone(&self.schema);
            FaultInjector::new(
                plan,
                &config.nodes,
                config.econ.clone(),
                schema,
                index,
                config.seed,
            )
        });
        let controller = config
            .elastic
            .as_ref()
            .map(|_| ElasticController::new(config, index, Arc::clone(&self.schema)));
        Cell {
            config,
            ctx: PlannerContext {
                schema: &self.schema,
                candidates: &self.candidates,
                cand_index: &self.cand_index,
                estimator: &self.estimator,
            },
            index,
            registry: sink.enabled().then(MetricsRegistry::new),
            sink,
            stream: MergedStream::new(streams),
            tenants,
            slo,
            population: NodePopulation::new(nodes),
            injector,
            controller,
            router: config.router.make(QuoteOptions::default()),
            exec: ExecRows::new(),
            ledger_seen: 0,
            fault_seen: 0,
            health: config
                .health
                .as_ref()
                .map(|h| HealthSeries::new(h.snapshot_interval_secs)),
            next_tick: 1,
            horizon: SimTime::ZERO,
        }
    }

    /// Simulates every cell, each with its own sink from `make_sink`, on
    /// `shards` striding workers, and folds the pieces in ascending cell
    /// order: the shard-count-invariant merge. Returns the fleet result
    /// and each cell's registry and sink, in cell order.
    fn run_cells<S, F>(&self, make_sink: F) -> (FleetResult, Vec<(Option<MetricsRegistry>, S)>)
    where
        S: TraceSink + Send,
        F: Fn(usize) -> S + Sync,
    {
        let cells = self.config.cells;
        let shards = self.config.shards.min(cells).max(1);
        let work = |worker: usize| -> Vec<(usize, CellPiece, S)> {
            (worker..cells)
                .step_by(shards)
                .map(|cell| {
                    let mut sink = make_sink(cell);
                    (cell, self.simulate_cell(cell, &mut sink), sink)
                })
                .collect()
        };
        let mut partials = if shards == 1 {
            work(0)
        } else {
            std::thread::scope(|scope| {
                let work = &work;
                let handles: Vec<_> = (0..shards)
                    .map(|worker| scope.spawn(move || work(worker)))
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("fleet worker panicked"))
                    .collect()
            })
        };
        partials.sort_unstable_by_key(|&(cell, ..)| cell);
        let mut fleet = FleetResult::empty(self.config.router.name(), cells);
        let traces = partials
            .into_iter()
            .map(|(_, (piece, registry), sink)| {
                fleet.merge(&piece);
                (registry, sink)
            })
            .collect();
        (fleet, traces)
    }

    /// Simulates one cell: its tenants' merged stream over a private
    /// replica of the node fleet. Single-threaded and deterministic.
    fn simulate_cell(&self, index: usize, sink: &mut dyn TraceSink) -> CellPiece {
        let mut cell = self.cell(index, sink);
        while let Some((arrived, slot, query)) = cell.next_arrival() {
            cell.advance_control_plane(arrived);
            let (now, outage_wait) = cell.await_capacity(arrived);
            cell.scrape_health(now);
            let route = cell.route(slot, &query, now, outage_wait);
            let outcome = cell.serve(&query, &route);
            cell.record(slot, &query, &route, &outcome);
        }
        cell.finish()
    }
}

/// One cell of a fleet run, driven phase by phase. Per arrival from
/// [`Cell::next_arrival`], a run calls [`Cell::advance_control_plane`],
/// [`Cell::await_capacity`], [`Cell::scrape_health`], [`Cell::route`],
/// [`Cell::serve`] and [`Cell::record`] in that order, then
/// [`Cell::finish`] once the stream is spent. Those calls, with the
/// pieces merged in ascending cell order into [`FleetResult::empty`],
/// reproduce [`FleetSim::run`] bit for bit (`tests/fleet_determinism.rs`).
/// Under [`NoopSink`] every tracing site is one branch.
pub struct Cell<'a> {
    config: &'a FleetConfig,
    ctx: PlannerContext<'a>,
    sink: &'a mut dyn TraceSink,
    index: usize,
    stream: MergedStream,
    /// Slot for slot with the stream's ordinals. The SLO records are kept
    /// untraced too: the telemetry invariant compares full results.
    tenants: Vec<TenantStats>,
    slo: Vec<TenantSloRecord>,
    population: NodePopulation,
    injector: Option<FaultInjector>,
    controller: Option<ElasticController>,
    router: Box<dyn Router>,
    /// The current arrival's execution rows, filled by [`Cell::route`]
    /// when some live node is economic (the only policies that plan)
    /// and read by its quote round, its re-routes and the winner's
    /// serve.
    exec: ExecRows,
    /// Doubles as the "tracing on" gate.
    registry: Option<MetricsRegistry>,
    /// Elastic-ledger entries and fault records already traced.
    ledger_seen: usize,
    fault_seen: usize,
    /// Tick `k` lands at `k × interval` by multiplication, never by
    /// accumulation, so every cell's frames share one grid.
    health: Option<HealthSeries>,
    next_tick: u64,
    horizon: SimTime,
}

/// Where and when [`Cell::route`] sent one query, and what it waited;
/// [`Cell::serve`] and [`Cell::record`] take it as it is.
pub struct Route {
    /// Index of the serving node in the live population.
    node: usize,
    /// The serve instant.
    at: SimTime,
    /// Seconds the query waited out a total outage before routing.
    outage_wait: f64,
    /// Backoff the query's retries waited, seconds.
    retry_wait: f64,
    /// The decayed-budget query of the last retry, which serves in place
    /// of the arrival.
    retried: Option<Query>,
}

impl Cell<'_> {
    /// The next arrival of the cell's merged stream: its instant, its
    /// tenant's slot (the stream ordinal) and the query.
    pub fn next_arrival(&mut self) -> Option<(SimTime, usize, Query)> {
        let arrival = self.stream.next_slotted()?;
        self.horizon = arrival.0;
        Some(arrival)
    }

    /// Runs the control plane up to `now`: each due fault event after
    /// the reviews due at its instant (reviews win exact ties), then the
    /// reviews due at `now`.
    pub fn advance_control_plane(&mut self, now: SimTime) {
        let rates = &self.config.prices.rates;
        loop {
            let fault_at = self.injector.as_ref().and_then(|inj| inj.next_due(now));
            if let Some(controller) = &mut self.controller {
                let until = fault_at.unwrap_or(now);
                controller.run_due_reviews(&mut self.population, &self.ctx, until);
            }
            match (fault_at, &mut self.injector) {
                (Some(_), Some(inj)) => inj.process_next(&mut self.population, &self.ctx, rates),
                _ => break,
            }
        }
    }

    /// The total-outage wait: while no node is routable (say, survivors
    /// retired and floor respawns still booting), advances the control
    /// plane to the next instant that could restore one. Then traces the
    /// control plane's new actions, accrues the population and returns
    /// the serve instant with the wait, which the query's latency folds in.
    ///
    /// # Panics
    /// Panics if no node is routable and no pending node boot, review or
    /// fault event could restore one.
    pub fn await_capacity(&mut self, arrived: SimTime) -> (SimTime, f64) {
        let mut now = arrived;
        while self.population.routable_count(now) == 0 {
            let booting = self
                .population
                .live()
                .iter()
                .filter(|n| n.drain_since().is_none() && now.as_secs() < n.ready_at().as_secs())
                .map(|n| n.ready_at().as_secs());
            let review = self.controller.as_ref().map(|c| c.next_review_at());
            let fault = self
                .injector
                .as_ref()
                .and_then(FaultInjector::next_event_at);
            let Some(next) = booting
                .chain(review.into_iter().chain(fault).map(SimTime::as_secs))
                .min_by(f64::total_cmp)
                .filter(|t| *t > now.as_secs())
            else {
                panic!("no routable node and no pending control-plane action to restore one");
            };
            now = SimTime::from_secs(next);
            self.advance_control_plane(now);
        }
        self.horizon = self.horizon.max(now);
        self.trace_control_plane();
        self.population.accrue(now);
        (now, now.saturating_since(arrived).as_secs())
    }

    /// Traces the elastic-ledger entries and fault records made since the
    /// last call.
    fn trace_control_plane(&mut self) {
        let Some(registry) = self.registry.as_mut() else {
            return;
        };
        if let Some(controller) = &self.controller {
            let ledger = controller.ledger();
            for entry in &ledger[self.ledger_seen..] {
                emit_lifecycle(self.sink, registry, entry);
            }
            self.ledger_seen = ledger.len();
        }
        if let Some(inj) = &self.injector {
            let records = inj.records();
            for record in &records[self.fault_seen..] {
                emit_fault(self.sink, registry, record);
            }
            self.fault_seen = records.len();
        }
    }

    /// The cadenced vitals scraper: one frame of the current state per
    /// tick instant up to `now`, when the config asked for snapshots.
    pub fn scrape_health(&mut self, now: SimTime) {
        let Some(interval) = self.health.as_ref().map(|s| s.interval_secs) else {
            return;
        };
        #[allow(clippy::cast_precision_loss)]
        while (self.next_tick as f64) * interval <= now.as_secs() {
            let frame = self.vitals((self.next_tick as f64) * interval);
            if let Some(series) = &mut self.health {
                series.frames.push(frame);
            }
            self.next_tick += 1;
        }
    }

    /// Samples one [`VitalsFrame`] from the cell's live state.
    fn vitals(&self, at_secs: f64) -> VitalsFrame {
        let t = SimTime::from_secs(at_secs);
        let live = self.population.live();
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
        let (controller, injector) = (self.controller.as_ref(), self.injector.as_ref());
        VitalsFrame {
            at_secs,
            queries: self.slo.iter().map(|r| r.admitted).sum(),
            cache_hits: self.slo.iter().map(|r| r.cache_hits).sum(),
            deadline_misses: self.slo.iter().map(|r| r.deadline_misses).sum(),
            backlog_secs,
            pressure_ewma: controller.map_or(0.0, ElasticController::pressure_ewma),
            node_cash,
            live_nodes: live.len() as u64,
            routable_nodes,
            draining_nodes,
            spawns: controller.map_or(0, ElasticController::spawns_so_far),
            retires: controller.map_or(0, ElasticController::retires_so_far),
            write_off: injector.map_or(Money::ZERO, FaultInjector::write_off_so_far),
        }
    }

    /// The quote round, then the per-query timeout. A winner degraded
    /// past the fault plan's timeout is suppressed and the query
    /// re-routes: under the plan's [`RetryPolicy`] when it has one,
    /// otherwise once.
    ///
    /// First fills the arrival's execution rows, once, when some live
    /// node is economic. The round, every re-route (a retry's budget-decayed
    /// copy included: the rows do not read `budget_scale`) and
    /// [`Cell::serve`] read that one fill.
    ///
    /// The one-shot re-route is not a `RetryPolicy` preset. It keeps the
    /// full budget (`RetryPolicy::validate` rejects `budget_decay = 0`),
    /// runs at any budget scale, and is booked as a timeout
    /// (`FaultSummary::timeouts`, `TenantSloRecord::timeouts`, the
    /// `fault.timeouts` counter) with no `QueryRetry` event.
    pub fn route(&mut self, slot: usize, query: &Query, now: SimTime, outage_wait: f64) -> Route {
        let routable = self
            .registry
            .as_ref()
            .map(|_| self.population.routable_count(now));
        if self.population.live().iter().any(|n| n.economy().is_some()) {
            self.exec.fill(&self.ctx, query);
        }
        let winner = self.reroute(query, now);
        let mut route = Route {
            node: winner,
            at: now,
            outage_wait,
            retry_wait: 0.0,
            retried: None,
        };
        let (timeout, policy) = self.injector.as_ref().map_or((0.0, None), |inj| {
            (inj.timeout_secs(), inj.retry().copied())
        });
        if let Some(policy) = policy.filter(|_| timeout > 0.0) {
            self.retry(&policy, timeout, slot, query, &mut route);
        } else if timeout > 0.0
            && self.population.routable_count(now) > 1
            && self.timed_out(winner, now, timeout)
        {
            self.population.live_mut()[winner].suppress_route();
            route.node = self.reroute(query, now);
            self.population.live_mut()[winner].unsuppress_route();
            if let Some(inj) = &mut self.injector {
                inj.note_timeout();
            }
            self.slo[slot].timeouts += 1;
            if let Some(registry) = self.registry.as_mut() {
                registry.counter_add("fault.timeouts", 1);
            }
        }
        if let Some(routable) = routable {
            self.sink.emit(TraceEvent::QuoteRound(QuoteRoundEvent {
                cell: self.index,
                at_secs: now.as_secs(),
                tenant: self.tenants[slot].tenant.0,
                template: query.template.0,
                query: query.id.0,
                winner: self.population.live()[route.node].id(),
                winning_quote: self.router.last_winning_quote(),
                routable,
            }));
        }
        route
    }

    /// One routing pass over the live population and the arrival's rows.
    fn reroute(&mut self, query: &Query, now: SimTime) -> usize {
        self.router
            .route_with(self.population.live(), &self.ctx, query, &self.exec, now)
    }

    /// Both timeout paths' test: the node runs slowed, with a backlog that
    /// has reached the timeout.
    fn timed_out(&self, node: usize, now: SimTime, timeout: f64) -> bool {
        let node = &self.population.live()[node];
        node.degrade_slowdown(now) > 1.0 && node.outstanding(now) >= timeout
    }

    /// Deadline-budgeted retry: while the winner is timed out, attempts
    /// remain, an alternative node exists and the budget has headroom
    /// over the backend price, back off, decay the budget and re-route.
    /// Once the headroom is gone the decayed `B_Q(t)` itself steers the
    /// economy to the backend plan.
    fn retry(
        &mut self,
        policy: &RetryPolicy,
        timeout: f64,
        slot: usize,
        query: &Query,
        route: &mut Route,
    ) {
        let now = route.at;
        let mut suppressed: Vec<usize> = Vec::new();
        let mut scale = query.budget_scale;
        let mut attempt = 1u32;
        while attempt < policy.max_attempts
            && self.population.routable_count(now) > 1
            && scale - 1.0 > 1e-9
            && self.timed_out(route.node, now, timeout)
        {
            let from_node = self.population.live()[route.node].id();
            let backoff = policy.backoff_for(attempt);
            route.retry_wait += backoff;
            scale = policy.decayed_budget_scale(scale);
            self.population.live_mut()[route.node].suppress_route();
            suppressed.push(route.node);
            let mut decayed = query.clone();
            decayed.budget_scale = scale;
            route.node = self.reroute(&decayed, now);
            if let Some(inj) = &mut self.injector {
                inj.note_retry();
            }
            self.slo[slot].retries += 1;
            if let Some(registry) = self.registry.as_mut() {
                registry.counter_add("fault.retries", 1);
                registry.observe("fault.retry_backoff", backoff);
                self.sink.emit(TraceEvent::QueryRetry(QueryRetryEvent {
                    cell: self.index,
                    at_secs: now.as_secs(),
                    tenant: self.tenants[slot].tenant.0,
                    template: query.template.0,
                    query: query.id.0,
                    from_node,
                    to_node: self.population.live()[route.node].id(),
                    attempt,
                    backoff_secs: backoff,
                    budget_scale: scale,
                }));
            }
            route.retried = Some(decayed);
            attempt += 1;
        }
        for idx in suppressed {
            self.population.live_mut()[idx].unsuppress_route();
        }
    }

    /// Serves the query (a retried one with its decayed budget) on the
    /// routed node over the execution rows [`Cell::route`] filled, both
    /// waits folded into its one latency sample, and journals what was
    /// served for nodes awaiting replay-recovery.
    pub fn serve(&mut self, query: &Query, route: &Route) -> PolicyOutcome {
        let query = route.retried.as_ref().unwrap_or(query);
        let node = &mut self.population.live_mut()[route.node];
        let wait = route.outage_wait + route.retry_wait;
        let outcome = node.serve_with(&self.ctx, query, &self.exec, route.at, wait);
        if let Some(inj) = &mut self.injector {
            inj.note_served(self.population.live()[route.node].id(), route.at, query);
        }
        outcome
    }

    /// Books a served query: the settlement's registry counters and
    /// trace event, the tenant's stats and its SLO record. Call it right
    /// after [`Self::serve`]: the trace event lists the structures the
    /// serving node's last plan used.
    pub fn record(&mut self, slot: usize, query: &Query, route: &Route, outcome: &PolicyOutcome) {
        if let Some(registry) = self.registry.as_mut() {
            let node = &self.population.live()[route.node];
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
            registry.observe("fleet.response_secs", outcome.response_time.as_secs());
            self.sink.emit(TraceEvent::Settlement(SettlementEvent {
                cell: self.index,
                at_secs: route.at.as_secs(),
                tenant: self.tenants[slot].tenant.0,
                template: query.template.0,
                query: query.id.0,
                node: node.id(),
                response_secs: outcome.response_time.as_secs(),
                ran_in_cache: outcome.ran_in_cache,
                payment: outcome.payment,
                profit: outcome.profit,
                exec: outcome.exec_breakdown,
                build_spend: outcome.build_spend,
                used_structures: node
                    .economy()
                    .map_or(&[][..], EconomyManager::used_structures)
                    .iter()
                    .map(ToString::to_string)
                    .collect(),
                investments: outcome.investments,
                evictions: outcome.evictions,
            }));
        }
        let stats = &mut self.tenants[slot];
        stats.queries += 1;
        stats.response.record(outcome.response_time.as_secs());
        stats.payments += outcome.payment;
        stats.cache_hits += u64::from(outcome.ran_in_cache);
        let slo = &mut self.slo[slot];
        slo.record_served(
            outcome.response_time.as_secs(),
            outcome.payment,
            outcome.ran_in_cache,
        );
        if route.outage_wait > 0.0 {
            slo.fault_delays += 1;
        }
    }

    /// Settles the population at the horizon and returns the cell's
    /// piece of the fleet result, with its metrics registry on traced
    /// runs.
    pub fn finish(mut self) -> (FleetResult, Option<MetricsRegistry>) {
        if let Some(registry) = self.registry.as_mut() {
            // How this cell's quote rounds were settled: decided from
            // the budgets alone, or through planning.
            let rounds = self.router.quote_rounds();
            registry.counter_add("router.decided_rounds", rounds.decided);
            registry.counter_add("router.full_rounds", rounds.full);
        }
        let finish = self
            .population
            .finish(&self.config.prices.rates, self.horizon);
        let mut piece = FleetResult::empty(self.config.router.name(), self.config.cells);
        piece.horizon_secs = self.horizon.as_secs();
        piece.tenants = self.tenants;
        piece.node_seconds = finish.node_seconds;
        piece.elastic = self.controller.map(|c| c.into_summary(&finish));
        piece.faults = self.injector.map(FaultInjector::into_summary);
        piece.slo = SloLedger::from_records(self.slo);
        piece.health = self.health;
        for (node_idx, run) in &finish.nodes {
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
        (piece, self.registry)
    }
}

/// Folds one new elastic-ledger entry into the trace stream and the
/// cell registry.
fn emit_lifecycle(
    sink: &mut dyn TraceSink,
    registry: &mut MetricsRegistry,
    entry: &crate::elastic::LedgerEntry,
) {
    use LifecyclePhase::{DrainBegin, Hold, Retire, Spawn};
    registry.counter_add("elastic.reviews", 1);
    let (phase, node, counter) = match &entry.action {
        ElasticAction::Hold => (Hold, None, "elastic.holds"),
        ElasticAction::ScaleUp { node, .. } => (Spawn, Some(*node), "elastic.spawns"),
        ElasticAction::DrainBegin { node } => (DrainBegin, Some(*node), "elastic.drains"),
        ElasticAction::Retire { node } => (Retire, Some(*node), "elastic.retires"),
    };
    let scheme = match &entry.action {
        ElasticAction::ScaleUp { scheme, .. } => scheme.clone(),
        _ => String::new(),
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
                cascade_depth: c.cascade_depth,
                disk_bytes: c.disk_bytes,
                requeued_secs: c.requeued_secs,
                requeued_to: c.requeued_to,
                recover_planned: c.recover_planned,
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

//! The elastic fleet control plane: economy-driven node scaling.
//!
//! The paper's economy already prices elasticity — extra CPU nodes cost
//! `c` $/s while they are up (eq. 11) and booting one costs `c × b`
//! (eq. 10) — but a fixed node population can never act on those prices.
//! This module closes the loop: a per-cell [`ElasticController`] watches
//! an EWMA-smoothed pressure signal over the live [`NodePopulation`] and
//! spawns or retires whole cache nodes from the same money flow the
//! economy's structure investments draw on.
//!
//! ```text
//!            ┌── signals (simulated state only) ──┐
//!            │ outstanding-backlog depth (EWMA)   │
//!            │ window mean response ("quote-round │
//!            │ latency"), profit & regret rates   │
//!            └────────────────┬───────────────────┘
//!                             ▼ deterministic review cadence
//!   rules: population-floor | backlog-pressure | response-pressure
//!        | idle-capacity    | cooldown | at-capacity | within-band
//!                             │
//!         ScaleUp ──────────── ▼ ───────────── DrainBegin
//!   clone tenant-weighted   [ledger]     stop routing, let in-flight
//!   template, charge boot   every        work finish, retire when the
//!   (eq. 10/11), routable   decision     structures can no longer pay
//!   after boot completes    explained    maintenance (footnote 3)
//! ```
//!
//! **Determinism is the contract.** The controller reads only simulated
//! state (backlogs, accumulators, cache ledgers — never wall-clock), its
//! review instants derive from the arrival stream alone, and every
//! decision is recorded in an explainable [`LedgerEntry`] (signal values
//! → rule fired → action). A run therefore remains a pure function of
//! its config: replaying the same seed at 1 vs N executor shards must
//! produce bit-identical decision ledgers and aggregates —
//! `tests/fleet_elastic.rs` pins this.

use std::sync::Arc;

use catalog::Schema;
use planner::PlannerContext;
use pricing::{Money, ResourceRates};
use serde::Serialize;
use simcore::SimTime;
use simulator::RunResult;

use crate::config::FleetConfig;
use crate::node::{CacheNode, NodeSpec};

/// The ledger's records are the flight recorder's lifecycle events,
/// defined once in `telemetry`.
pub use telemetry::event::{ElasticAction, LedgerEntry, PressureSignals};

/// Configuration of the elastic control plane (one controller per cell).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ElasticConfig {
    /// Seconds of simulated time between controller reviews.
    pub review_interval_secs: f64,
    /// EWMA weight of the newest pressure sample, in `(0, 1]` (1 =
    /// no smoothing).
    pub ewma_alpha: f64,
    /// Mean outstanding backlog (seconds per routable node, EWMA) above
    /// which the controller scales up.
    pub scale_up_backlog: f64,
    /// Mean outstanding backlog (EWMA) below which the controller may
    /// scale down. Must be below `scale_up_backlog`.
    pub scale_down_backlog: f64,
    /// Window mean response time (seconds) above which the controller
    /// scales up regardless of backlog; `0` disables the rule.
    pub max_response_secs: f64,
    /// Never drain below this many non-draining nodes.
    pub min_nodes: usize,
    /// Never grow beyond this many non-draining nodes.
    pub max_nodes: usize,
    /// Reviews to hold after a scale action before the next one — the
    /// anti-flap guard.
    pub cooldown_reviews: u32,
    /// Upper bound (seconds) a drained node may wait for its structures
    /// to fail before it is retired anyway. Structures whose upkeep never
    /// accrues (extra CPU nodes, free maintenance) would otherwise pin a
    /// drained node's uptime bill forever.
    pub drain_grace_secs: f64,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            review_interval_secs: 5.0,
            ewma_alpha: 0.3,
            scale_up_backlog: 1.0,
            scale_down_backlog: 0.05,
            max_response_secs: 0.0,
            min_nodes: 1,
            max_nodes: 16,
            cooldown_reviews: 2,
            drain_grace_secs: 120.0,
        }
    }
}

impl ElasticConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.review_interval_secs.is_finite() || self.review_interval_secs <= 0.0 {
            return Err("review_interval_secs must be positive".into());
        }
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err("ewma_alpha must be in (0, 1]".into());
        }
        if !self.scale_up_backlog.is_finite() || self.scale_up_backlog <= 0.0 {
            return Err("scale_up_backlog must be positive".into());
        }
        if !self.scale_down_backlog.is_finite()
            || self.scale_down_backlog < 0.0
            || self.scale_down_backlog >= self.scale_up_backlog
        {
            return Err("scale_down_backlog must be in [0, scale_up_backlog)".into());
        }
        if !self.max_response_secs.is_finite() || self.max_response_secs < 0.0 {
            return Err("max_response_secs must be non-negative (0 disables)".into());
        }
        if self.min_nodes == 0 {
            return Err("min_nodes must be at least 1".into());
        }
        if self.max_nodes < self.min_nodes {
            return Err("max_nodes must be at least min_nodes".into());
        }
        if !self.drain_grace_secs.is_finite() || self.drain_grace_secs < 0.0 {
            return Err("drain_grace_secs must be non-negative".into());
        }
        Ok(())
    }
}

/// Mergeable rollup of one run's control-plane activity.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ElasticSummary {
    /// Nodes spawned across cells.
    pub spawns: u64,
    /// Nodes retired across cells.
    pub retires: u64,
    /// Peak live nodes in any one cell.
    pub peak_nodes: usize,
    /// Live nodes at the end of the run, summed over cells.
    pub final_nodes: usize,
    /// Node-seconds of live uptime integrated over cells — the quantity
    /// eq. 11 bills at `c` $/s, and the cost lever elasticity pulls.
    pub node_seconds: f64,
    /// Every decision, ascending `(cell, at_secs)` (cells are folded in
    /// ascending order by the executor).
    pub ledger: Vec<LedgerEntry>,
}

impl ElasticSummary {
    /// Merges another cell's summary (callers merge in ascending cell
    /// order, which keeps the ledger sorted and the floats bit-stable).
    pub fn merge(&mut self, other: &ElasticSummary) {
        self.spawns += other.spawns;
        self.retires += other.retires;
        self.peak_nodes = self.peak_nodes.max(other.peak_nodes);
        self.final_nodes += other.final_nodes;
        self.node_seconds += other.node_seconds;
        self.ledger.extend(other.ledger.iter().cloned());
    }
}

/// The dynamic node set of one cell: live nodes (in ascending id order)
/// plus the settled results of nodes retired mid-run, and the live
/// node-seconds integral the summary reports.
pub struct NodePopulation {
    live: Vec<CacheNode>,
    settled: Vec<(usize, RunResult)>,
    next_id: usize,
    clock: SimTime,
    node_seconds: f64,
    peak_live: usize,
}

/// What a population hands back when the run closes.
pub struct PopulationFinish {
    /// Per-node results, settled nodes first, each tagged with its
    /// fleet-wide node id.
    pub nodes: Vec<(usize, RunResult)>,
    /// Live node-seconds integrated over the run.
    pub node_seconds: f64,
    /// Peak live node count.
    pub peak_live: usize,
    /// Live nodes at the horizon.
    pub final_live: usize,
}

impl NodePopulation {
    /// Wraps the cell's seed nodes.
    #[must_use]
    pub fn new(live: Vec<CacheNode>) -> Self {
        let peak_live = live.len();
        let next_id = live.iter().map(|n| n.id() + 1).max().unwrap_or(0);
        NodePopulation {
            live,
            settled: Vec::new(),
            next_id,
            clock: SimTime::ZERO,
            node_seconds: 0.0,
            peak_live,
        }
    }

    /// The live nodes, ascending id.
    #[must_use]
    pub fn live(&self) -> &[CacheNode] {
        &self.live
    }

    /// Mutable access for routing/serving.
    pub fn live_mut(&mut self) -> &mut [CacheNode] {
        &mut self.live
    }

    /// The id the next spawned node will receive.
    #[must_use]
    pub fn next_id(&self) -> usize {
        self.next_id
    }

    /// Routable live nodes at `now`.
    #[must_use]
    pub fn routable_count(&self, now: SimTime) -> usize {
        self.live.iter().filter(|n| n.routable(now)).count()
    }

    /// Advances the live-uptime integral to `now`.
    fn advance_clock(&mut self, now: SimTime) {
        self.node_seconds += self.live.len() as f64 * now.saturating_since(self.clock).as_secs();
        self.clock = self.clock.max(now);
    }

    /// Accrues every live node's uptime to `now` (call once per arrival
    /// instant, before routing).
    pub fn accrue(&mut self, now: SimTime) {
        self.advance_clock(now);
        for node in &mut self.live {
            node.accrue(now);
        }
    }

    /// Admits a freshly spawned node (its id must be [`Self::next_id`])
    /// at `at`.
    ///
    /// # Panics
    /// Panics if the node's id is not the population's next id.
    pub fn admit(&mut self, node: CacheNode, at: SimTime) {
        assert_eq!(node.id(), self.next_id, "spawned node ids are sequential");
        self.advance_clock(at);
        self.next_id += 1;
        self.live.push(node);
        self.peak_live = self.peak_live.max(self.live.len());
    }

    /// Settles and removes the live node at slice position `idx`,
    /// closing its ledger at `at` (disk-occupancy integral — eq. 13 —
    /// and uptime rent included). Returns its id.
    pub fn retire(&mut self, idx: usize, rates: &ResourceRates, at: SimTime) -> usize {
        self.advance_clock(at);
        let node = self.live.remove(idx);
        let id = node.id();
        self.settled.push((id, node.finish(rates, at)));
        id
    }

    /// Crashes the live node at slice position `idx` at instant `at`:
    /// the node is removed immediately (no drain), its books are settled
    /// at the crash instant exactly like a retirement — eq. 11 uptime and
    /// the eq. 13 disk byte-seconds integral are charged up to `at` —
    /// and its settled result is returned alongside its id so the fault
    /// plane can ledger the abandoned capital. `routable_count` drops at
    /// once, which is what lets the elastic population-floor rule respawn
    /// on the next review instead of waiting out a drain grace.
    pub fn crash(&mut self, idx: usize, rates: &ResourceRates, at: SimTime) -> (usize, &RunResult) {
        let id = self.retire(idx, rates, at);
        let (settled_id, run) = self.settled.last().expect("retire just settled a node");
        debug_assert_eq!(*settled_id, id);
        (id, run)
    }

    /// Closes the run at `horizon`: settles every remaining live node
    /// and returns all per-node results plus the uptime integral.
    #[must_use]
    pub fn finish(mut self, rates: &ResourceRates, horizon: SimTime) -> PopulationFinish {
        self.advance_clock(horizon);
        let final_live = self.live.len();
        let mut nodes = self.settled;
        for node in self.live {
            let id = node.id();
            nodes.push((id, node.finish(rates, horizon)));
        }
        PopulationFinish {
            nodes,
            node_seconds: self.node_seconds,
            peak_live: self.peak_live,
            final_live,
        }
    }
}

/// The tenant-weighted spawn template order: node specs sorted by how
/// many tenants map to their slot (`tenant id % nodes`), descending,
/// index-ascending on ties. A pure function of the fleet config, so the
/// k-th spawn clones the same scheme in every cell — which keeps
/// per-node-id rollups mergeable across cells.
#[must_use]
pub fn tenant_weighted_templates(fleet: &FleetConfig) -> Vec<NodeSpec> {
    let n = fleet.nodes.len();
    let mut weight = vec![0u64; n];
    for t in &fleet.tenants {
        weight[t.id.0 as usize % n] += 1;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weight[i]), i));
    order.into_iter().map(|i| fleet.nodes[i].clone()).collect()
}

/// One cell's control plane: reviews the population on a fixed simulated
/// cadence and applies the scaling rules. See the module docs for the
/// signal flow.
pub struct ElasticController {
    cfg: ElasticConfig,
    cell: usize,
    schema: Arc<Schema>,
    econ: econ::EconConfig,
    rates: ResourceRates,
    templates: Vec<NodeSpec>,
    next_review: f64,
    cooldown_left: u32,
    backlog_ewma: Option<f64>,
    prev_served: u64,
    prev_response_sum: f64,
    prev_profit: Money,
    prev_regret: Money,
    spawns: u64,
    retires: u64,
    ledger: Vec<LedgerEntry>,
}

impl ElasticController {
    /// Builds the controller for one cell of `fleet`.
    ///
    /// # Panics
    /// Panics if `fleet.elastic` is absent or invalid.
    #[must_use]
    pub fn new(fleet: &FleetConfig, cell: usize, schema: Arc<Schema>) -> Self {
        let cfg = fleet
            .elastic
            .clone()
            .expect("elastic controller needs an elastic config");
        if let Err(msg) = cfg.validate() {
            panic!("invalid elastic config: {msg}");
        }
        ElasticController {
            next_review: cfg.review_interval_secs,
            cfg,
            cell,
            schema,
            econ: fleet.econ.clone(),
            rates: fleet.prices.rates,
            templates: tenant_weighted_templates(fleet),
            cooldown_left: 0,
            backlog_ewma: None,
            prev_served: 0,
            prev_response_sum: 0.0,
            prev_profit: Money::ZERO,
            prev_regret: Money::ZERO,
            spawns: 0,
            retires: 0,
            ledger: Vec::new(),
        }
    }

    /// The next scheduled review instant. Population-floor respawns
    /// land at reviews, so the executor's total-outage wait advances
    /// queries to this instant when no node is routable.
    #[must_use]
    pub fn next_review_at(&self) -> SimTime {
        SimTime::from_secs(self.next_review)
    }

    /// Runs every review due at or before `now` (the current arrival
    /// instant). Call once per arrival, before accrual and routing, so
    /// decisions take effect from the exact review instant.
    pub fn run_due_reviews(
        &mut self,
        pop: &mut NodePopulation,
        ctx: &PlannerContext<'_>,
        now: SimTime,
    ) {
        while self.next_review <= now.as_secs() {
            let at = SimTime::from_secs(self.next_review);
            self.review(pop, ctx, at);
            self.next_review += self.cfg.review_interval_secs;
        }
    }

    /// One review at `at`: evaluate signals, retire drained nodes whose
    /// structures can no longer pay maintenance, then apply at most one
    /// scale action.
    fn review(&mut self, pop: &mut NodePopulation, ctx: &PlannerContext<'_>, at: SimTime) {
        let signals = self.evaluate_signals(pop, at);
        self.retire_drained(pop, ctx, at, signals);
        self.scale(pop, ctx, at, signals);
    }

    /// Computes the review's pressure signals and advances the EWMA and
    /// window snapshots.
    fn evaluate_signals(&mut self, pop: &NodePopulation, at: SimTime) -> PressureSignals {
        let routable: Vec<&CacheNode> = pop.live().iter().filter(|n| n.routable(at)).collect();
        let backlog = if routable.is_empty() {
            0.0
        } else {
            routable.iter().map(|n| n.outstanding(at)).sum::<f64>() / routable.len() as f64
        };
        let ewma = match self.backlog_ewma {
            None => backlog,
            Some(prev) => self.cfg.ewma_alpha * backlog + (1.0 - self.cfg.ewma_alpha) * prev,
        };
        self.backlog_ewma = Some(ewma);

        let served: u64 = pop.live().iter().map(CacheNode::queries).sum::<u64>()
            + pop.settled.iter().map(|(_, r)| r.queries).sum::<u64>();
        let response_sum: f64 = pop
            .live()
            .iter()
            .map(|n| n.response_secs_total())
            .sum::<f64>()
            + pop
                .settled
                .iter()
                .map(|(_, r)| r.response.mean() * r.response.count() as f64)
                .sum::<f64>();
        let profit: Money = pop.live().iter().map(CacheNode::profit).sum::<Money>()
            + pop.settled.iter().map(|(_, r)| r.profit).sum::<Money>();
        let regret: Money = pop
            .live()
            .iter()
            .filter_map(|n| n.economy().map(|m| m.regret().total()))
            .sum();

        let window_served = served.saturating_sub(self.prev_served);
        let window_response_secs = if window_served == 0 {
            0.0
        } else {
            (response_sum - self.prev_response_sum) / window_served as f64
        };
        let interval = self.cfg.review_interval_secs;
        let profit_rate = (profit - self.prev_profit).as_dollars() / interval;
        let regret_rate = (regret - self.prev_regret).as_dollars() / interval;
        self.prev_served = served;
        self.prev_response_sum = response_sum;
        self.prev_profit = profit;
        self.prev_regret = regret;

        PressureSignals {
            backlog,
            backlog_ewma: ewma,
            window_response_secs,
            profit_rate,
            regret_rate,
        }
    }

    /// Retires every draining node whose in-flight work has finished and
    /// whose structures can no longer pay maintenance (footnote 3) — or
    /// whose drain outlived the configured grace bound.
    fn retire_drained(
        &mut self,
        pop: &mut NodePopulation,
        ctx: &PlannerContext<'_>,
        at: SimTime,
        signals: PressureSignals,
    ) {
        // Walk back to front so removals keep earlier indices stable.
        for idx in (0..pop.live().len()).rev() {
            let node = &pop.live()[idx];
            let Some(since) = node.drain_since() else {
                continue;
            };
            if node.outstanding(at) > 0.0 {
                continue; // in-flight work still finishing
            }
            let insolvent = node
                .economy()
                .is_none_or(|m| m.structures_insolvent(ctx.estimator, at));
            let grace_exceeded = at.saturating_since(since).as_secs() >= self.cfg.drain_grace_secs;
            if !(insolvent || grace_exceeded) {
                continue;
            }
            let rule = if insolvent {
                "drain-insolvent"
            } else {
                "drain-grace"
            };
            let id = pop.retire(idx, &self.rates, at);
            self.retires += 1;
            self.push_entry(pop, at, rule, ElasticAction::Retire { node: id }, signals);
        }
    }

    /// Applies at most one scale action per review, in rule-priority
    /// order, and ledgers the outcome.
    fn scale(
        &mut self,
        pop: &mut NodePopulation,
        ctx: &PlannerContext<'_>,
        at: SimTime,
        signals: PressureSignals,
    ) {
        let live = pop.live();
        let draining = live.iter().filter(|n| n.drain_since().is_some()).count();
        let non_draining = live.len() - draining;
        let active = live
            .iter()
            .filter(|n| n.drain_since().is_none() && n.routable(at))
            .count();

        if non_draining < self.cfg.min_nodes {
            // The floor outranks the cooldown: a fleet below its minimum
            // must recover immediately.
            let action = self.spawn(pop, ctx, at);
            self.push_entry(pop, at, "population-floor", action, signals);
            return;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            self.push_entry(pop, at, "cooldown", ElasticAction::Hold, signals);
            return;
        }
        let response_pressure = self.cfg.max_response_secs > 0.0
            && signals.window_response_secs > self.cfg.max_response_secs;
        if signals.backlog_ewma >= self.cfg.scale_up_backlog || response_pressure {
            let rule = if signals.backlog_ewma >= self.cfg.scale_up_backlog {
                "backlog-pressure"
            } else {
                "response-pressure"
            };
            if non_draining >= self.cfg.max_nodes {
                self.push_entry(pop, at, "at-capacity", ElasticAction::Hold, signals);
            } else {
                let action = self.spawn(pop, ctx, at);
                self.cooldown_left = self.cfg.cooldown_reviews;
                self.push_entry(pop, at, rule, action, signals);
            }
            return;
        }
        if signals.backlog_ewma <= self.cfg.scale_down_backlog && active > self.cfg.min_nodes {
            // Deterministic victim: the active node that earned the least
            // (lowest payments), ties broken toward the highest id so
            // late spawns retire first.
            let victim = pop
                .live()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.drain_since().is_none() && n.routable(at))
                .min_by(|(_, a), (_, b)| a.payments().cmp(&b.payments()).then(b.id().cmp(&a.id())))
                .map(|(idx, _)| idx)
                .expect("active > min_nodes >= 1");
            let id = pop.live()[victim].id();
            pop.live_mut()[victim].begin_drain(at);
            self.cooldown_left = self.cfg.cooldown_reviews;
            self.push_entry(
                pop,
                at,
                "idle-capacity",
                ElasticAction::DrainBegin { node: id },
                signals,
            );
            return;
        }
        self.push_entry(pop, at, "within-band", ElasticAction::Hold, signals);
    }

    /// Spawns one node from the tenant-weighted template cycle, charging
    /// eq. 10's boot cost (`c × b`) to the new node's ledger; the node
    /// becomes routable once the boot completes.
    fn spawn(
        &mut self,
        pop: &mut NodePopulation,
        ctx: &PlannerContext<'_>,
        at: SimTime,
    ) -> ElasticAction {
        let spec = self.templates[self.spawns as usize % self.templates.len()].clone();
        let (boot_cost, boot_time) = ctx.estimator.build_node();
        let id = pop.next_id();
        let node = CacheNode::new_booting(
            id,
            &spec,
            &self.schema,
            &self.econ,
            at,
            at + boot_time,
            boot_cost,
        );
        pop.admit(node, at);
        self.spawns += 1;
        ElasticAction::ScaleUp {
            node: id,
            scheme: spec.scheme.name().to_string(),
        }
    }

    fn push_entry(
        &mut self,
        pop: &NodePopulation,
        at: SimTime,
        rule: &str,
        action: ElasticAction,
        signals: PressureSignals,
    ) {
        let live = pop.live();
        let routable = live.iter().filter(|n| n.routable(at)).count();
        let draining = live.iter().filter(|n| n.drain_since().is_some()).count();
        let booting = live
            .iter()
            .filter(|n| n.drain_since().is_none() && !n.routable(at))
            .count();
        self.ledger.push(LedgerEntry {
            cell: self.cell,
            at_secs: at.as_secs(),
            live: live.len(),
            routable,
            booting,
            draining,
            rule: rule.to_string(),
            action,
            signals,
        });
    }

    /// The decision ledger so far, ascending `at_secs`. The executor's
    /// flight recorder emits the entries made since its last look as
    /// trace events.
    #[must_use]
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }

    /// The controller's current backlog EWMA — its scaling pressure
    /// signal, sampled by the health plane's vitals snapshots (0 before
    /// the first review).
    #[must_use]
    pub fn pressure_ewma(&self) -> f64 {
        self.backlog_ewma.unwrap_or(0.0)
    }

    /// Nodes spawned so far (vitals snapshots sample this mid-run).
    #[must_use]
    pub fn spawns_so_far(&self) -> u64 {
        self.spawns
    }

    /// Nodes retired so far (vitals snapshots sample this mid-run).
    #[must_use]
    pub fn retires_so_far(&self) -> u64 {
        self.retires
    }

    /// Consumes the controller into the cell's summary; the population's
    /// [`PopulationFinish`] supplies the uptime integral.
    #[must_use]
    pub fn into_summary(self, finish: &PopulationFinish) -> ElasticSummary {
        ElasticSummary {
            spawns: self.spawns,
            retires: self.retires,
            peak_nodes: finish.peak_live,
            final_nodes: finish.final_live,
            node_seconds: finish.node_seconds,
            ledger: self.ledger,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetConfig;

    #[test]
    fn default_config_validates() {
        assert!(ElasticConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = [
            ElasticConfig {
                review_interval_secs: 0.0,
                ..ElasticConfig::default()
            },
            ElasticConfig {
                ewma_alpha: 1.5,
                ..ElasticConfig::default()
            },
            ElasticConfig {
                scale_down_backlog: ElasticConfig::default().scale_up_backlog,
                ..ElasticConfig::default()
            },
            ElasticConfig {
                min_nodes: 0,
                ..ElasticConfig::default()
            },
            ElasticConfig {
                max_nodes: 0,
                ..ElasticConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} must be rejected");
        }
    }

    #[test]
    fn templates_are_tenant_weighted_and_deterministic() {
        // 5 tenants over 3 node slots: slot 0 ← tenants {0, 3}, slot 1 ←
        // {1, 4}, slot 2 ← {2}. Ties (slots 0 and 1 both weigh 2) break
        // index-ascending.
        let config = FleetConfig::uniform(5, 3, 10, 1.0);
        let order = tenant_weighted_templates(&config);
        assert_eq!(order.len(), 3);
        let again = tenant_weighted_templates(&config);
        assert_eq!(order, again, "pure function of the config");
    }

    #[test]
    fn summary_merge_accumulates_and_keeps_cell_order() {
        let entry = |cell: usize| LedgerEntry {
            cell,
            at_secs: 5.0,
            live: 2,
            routable: 2,
            booting: 0,
            draining: 0,
            rule: "within-band".into(),
            action: ElasticAction::Hold,
            signals: PressureSignals {
                backlog: 0.0,
                backlog_ewma: 0.0,
                window_response_secs: 0.0,
                profit_rate: 0.0,
                regret_rate: 0.0,
            },
        };
        let mut a = ElasticSummary {
            spawns: 1,
            retires: 0,
            peak_nodes: 3,
            final_nodes: 2,
            node_seconds: 10.0,
            ledger: vec![entry(0)],
        };
        let b = ElasticSummary {
            spawns: 2,
            retires: 1,
            peak_nodes: 5,
            final_nodes: 1,
            node_seconds: 7.5,
            ledger: vec![entry(1)],
        };
        a.merge(&b);
        assert_eq!(a.spawns, 3);
        assert_eq!(a.retires, 1);
        assert_eq!(a.peak_nodes, 5);
        assert_eq!(a.final_nodes, 3);
        assert!((a.node_seconds - 17.5).abs() < 1e-12);
        let cells: Vec<usize> = a.ledger.iter().map(|e| e.cell).collect();
        assert_eq!(cells, vec![0, 1]);
    }
}

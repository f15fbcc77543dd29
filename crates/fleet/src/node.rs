//! Cache nodes: one self-tuned cloud cache each, plus its accounting.
//!
//! A [`CacheNode`] wraps a [`CachePolicy`] (any of the paper's schemes)
//! with the per-node [`RunAccumulator`] and a backlog clock that models
//! how much work the node has promised but not yet delivered — the load
//! signal least-outstanding routing balances on.

use planner::{ExecRows, PlannerContext};
use policies::{CachePolicy, PolicyOutcome};
use pricing::{Money, ResourceRates};
use serde::Serialize;
use simcore::{SimDuration, SimTime};
use simulator::{make_policy, RunAccumulator, RunResult, Scheme};
use workload::Query;

/// Description of one cache node in the fleet.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NodeSpec {
    /// The caching scheme this node operates.
    pub scheme: Scheme,
}

impl NodeSpec {
    /// A node running the given scheme.
    #[must_use]
    pub fn new(scheme: Scheme) -> Self {
        NodeSpec { scheme }
    }
}

/// One live cache node: policy + accounting + backlog clock.
///
/// `Send` (the policy box is `Send`-bounded), so a cell's nodes can live
/// on the executor's shard worker threads.
pub struct CacheNode {
    id: usize,
    policy: Box<dyn CachePolicy + Send>,
    acc: RunAccumulator,
    backlog_until: SimTime,
    /// Boot completes here; `ZERO` for seed nodes, spawn + eq. 10's boot
    /// time for elastically added ones. Unroutable before it.
    ready_at: SimTime,
    /// Set when the control plane begins draining the node: routing
    /// stops, in-flight work finishes, and the node waits for retirement.
    draining_since: Option<SimTime>,
    /// Transiently set while a timed-out quote round re-routes away from
    /// this node; never survives a routing step.
    route_suppressed: bool,
    /// Fault-plan degradation windows `(from_secs, until_secs, slowdown)`,
    /// sorted and disjoint. Inside a window the node delivers responses
    /// `slowdown`× slower (economics untouched — the fault is in the
    /// serving path, not the books).
    degrade: Vec<(f64, f64, f64)>,
}

impl CacheNode {
    /// Instantiates the node's policy against the fleet's schema/economy.
    #[must_use]
    pub fn new(
        id: usize,
        spec: &NodeSpec,
        schema: &std::sync::Arc<catalog::Schema>,
        econ: &econ::EconConfig,
    ) -> Self {
        CacheNode {
            id,
            policy: make_policy(&spec.scheme, schema, econ),
            acc: RunAccumulator::new(),
            backlog_until: SimTime::ZERO,
            ready_at: SimTime::ZERO,
            draining_since: None,
            route_suppressed: false,
            degrade: Vec::new(),
        }
    }

    /// Instantiates a node the control plane spawns mid-run: uptime is
    /// charged from `spawned_at` (eq. 11), eq. 10's boot cost is booked
    /// as build spend immediately, and the node only becomes routable at
    /// `ready_at` (spawn + boot time).
    #[must_use]
    pub fn new_booting(
        id: usize,
        spec: &NodeSpec,
        schema: &std::sync::Arc<catalog::Schema>,
        econ: &econ::EconConfig,
        spawned_at: SimTime,
        ready_at: SimTime,
        boot_cost: Money,
    ) -> Self {
        let mut acc = RunAccumulator::new_at(spawned_at);
        acc.book_build(boot_cost);
        CacheNode {
            id,
            policy: make_policy(&spec.scheme, schema, econ),
            acc,
            backlog_until: SimTime::ZERO,
            ready_at,
            draining_since: None,
            route_suppressed: false,
            degrade: Vec::new(),
        }
    }

    /// Wraps an already-built policy as a booting node — the
    /// crash-recovery path reconstructs a crashed node's policy by
    /// replaying its settlement journal, then boots the replacement here:
    /// uptime is charged from `spawned_at` (eq. 11), eq. 10's boot cost
    /// is booked as build spend, and the node becomes routable at
    /// `ready_at`.
    #[must_use]
    pub fn from_policy(
        id: usize,
        policy: Box<dyn CachePolicy + Send>,
        spawned_at: SimTime,
        ready_at: SimTime,
        boot_cost: Money,
    ) -> Self {
        let mut acc = RunAccumulator::new_at(spawned_at);
        acc.book_build(boot_cost);
        CacheNode {
            id,
            policy,
            acc,
            backlog_until: SimTime::ZERO,
            ready_at,
            draining_since: None,
            route_suppressed: false,
            degrade: Vec::new(),
        }
    }

    /// Node index within the fleet.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// True when routers may send this node queries at `now`: boot
    /// completed and no drain has begun. All shipped routing strategies
    /// skip unroutable nodes.
    #[must_use]
    pub fn routable(&self, now: SimTime) -> bool {
        self.draining_since.is_none() && !self.route_suppressed && now >= self.ready_at
    }

    /// Transiently hides the node from routing while a timed-out round
    /// re-routes to the next-best candidate. Callers must
    /// [`Self::unsuppress_route`] before the routing step ends.
    pub fn suppress_route(&mut self) {
        self.route_suppressed = true;
    }

    /// Clears [`Self::suppress_route`].
    pub fn unsuppress_route(&mut self) {
        self.route_suppressed = false;
    }

    /// Installs the fault plan's degradation windows for this node
    /// (`(from_secs, until_secs, slowdown)`, sorted and disjoint).
    pub fn set_degradations(&mut self, windows: Vec<(f64, f64, f64)>) {
        self.degrade = windows;
    }

    /// The serve-slowdown multiplier in effect at `now` (1.0 when the
    /// node is healthy).
    #[must_use]
    pub fn degrade_slowdown(&self, now: SimTime) -> f64 {
        let t = now.as_secs();
        for &(from, until, slowdown) in &self.degrade {
            if t >= from && t < until {
                return slowdown;
            }
        }
        1.0
    }

    /// When the node's boot completes (`ZERO` for seed nodes).
    #[must_use]
    pub fn ready_at(&self) -> SimTime {
        self.ready_at
    }

    /// When this node's drain began, if one has.
    #[must_use]
    pub fn drain_since(&self) -> Option<SimTime> {
        self.draining_since
    }

    /// Marks the node draining: routers stop selecting it from `now` on,
    /// while its accounting keeps running until retirement.
    ///
    /// # Panics
    /// Panics if the node is already draining.
    pub fn begin_drain(&mut self, now: SimTime) {
        assert!(self.draining_since.is_none(), "node already draining");
        self.draining_since = Some(now);
    }

    /// User payments this node has collected so far.
    #[must_use]
    pub fn payments(&self) -> Money {
        self.acc.payments()
    }

    /// Cloud profit this node has accumulated so far.
    #[must_use]
    pub fn profit(&self) -> Money {
        self.acc.profit()
    }

    /// Sum of delivered response times so far (seconds).
    #[must_use]
    pub fn response_secs_total(&self) -> f64 {
        self.acc.response_secs_total()
    }

    /// Queries this node has served.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.acc.queries()
    }

    /// This node's bid for serving `query` at `now` over `exec`, the
    /// arrival's execution rows (see [`CachePolicy::quote`]).
    #[must_use]
    pub fn quote(
        &self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> Money {
        self.policy.quote(ctx, query, exec, now)
    }

    /// The economy manager backing this node's policy (see
    /// [`CachePolicy::economy`]); `None` for non-economic schemes,
    /// whose bids no budget decides.
    #[must_use]
    pub fn economy(&self) -> Option<&econ::EconomyManager> {
        self.policy.economy()
    }

    /// Cache disk this node currently occupies (bytes).
    #[must_use]
    pub fn disk_used(&self) -> u64 {
        self.policy.disk_used()
    }

    /// Outstanding backlog in seconds of promised-but-undelivered response
    /// time at `now`. Zero for an idle node.
    #[must_use]
    pub fn outstanding(&self, now: SimTime) -> f64 {
        self.backlog_until.saturating_since(now).as_secs()
    }

    /// Queues `secs` of re-routed work onto this node's backlog clock —
    /// the deterministic re-queue of a crashed peer's in-flight work
    /// (already scaled by the fault plan's penalty). Load-aware routing
    /// sees the extra backlog immediately; the books are untouched, since
    /// the crashed node already settled those queries.
    pub fn add_backlog(&mut self, now: SimTime, secs: f64) {
        self.backlog_until = self.backlog_until.max(now) + SimDuration::from_secs(secs);
    }

    /// Accrues extra-node uptime to `now`; call on every node at every
    /// fleet arrival instant, whether or not this node serves the query.
    pub fn accrue(&mut self, now: SimTime) {
        self.acc.accrue_uptime(self.policy.as_ref(), now);
    }

    /// Serves one routed query over `exec`, the arrival's execution rows
    /// (see [`CachePolicy::process_query`]), when its routing took
    /// `delay_secs` of retry/backoff wall-clock before this node won it:
    /// runs the policy, books the outcome, and extends the backlog clock
    /// by the delivered response time. The delay is folded into the
    /// delivered response time *once*, so the response histogram records
    /// a single end-to-end latency per query — timed-out attempts never
    /// contribute a separate sample. The books are those of the serving
    /// node alone; backoff costs time, not money.
    pub fn serve(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
        delay_secs: f64,
    ) -> PolicyOutcome {
        let outcome = self.policy.process_query(ctx, query, exec, now);
        self.deliver(outcome, now, delay_secs)
    }

    /// [`Self::serve`] over the node's own reused execution rows, filled
    /// here ([`RunAccumulator::exec_rows`]). Kept for perfbench's traced
    /// fleet replay; removed by ROADMAP item 5, which moves the replay
    /// onto [`crate::Cell`].
    pub fn serve_delayed(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
        delay_secs: f64,
    ) -> PolicyOutcome {
        let exec = self.acc.exec_rows(self.policy.as_ref(), ctx, query);
        let outcome = self.policy.process_query(ctx, query, exec, now);
        self.deliver(outcome, now, delay_secs)
    }

    /// Delivers a served outcome: applies the degradation slowdown and
    /// the routing delay, books it and extends the backlog clock.
    fn deliver(
        &mut self,
        mut outcome: PolicyOutcome,
        now: SimTime,
        delay_secs: f64,
    ) -> PolicyOutcome {
        debug_assert!(
            self.routable(now),
            "draining/booting nodes must not serve queries"
        );
        // A degraded node delivers the same economic outcome, just
        // slower: the slowdown stretches the response (and therefore the
        // backlog clock load-aware routing balances on), never the books
        // — so fault-injected runs still conserve money exactly.
        let slowdown = self.degrade_slowdown(now);
        if slowdown > 1.0 {
            outcome.response_time = outcome.response_time * slowdown;
        }
        if delay_secs > 0.0 {
            outcome.response_time += SimDuration::from_secs(delay_secs);
        }
        self.acc.record(&outcome);
        self.backlog_until = self.backlog_until.max(now) + outcome.response_time;
        outcome
    }

    /// Closes the node's run at the cell horizon (disk rent + uptime).
    #[must_use]
    pub fn finish(mut self, rates: &ResourceRates, horizon: SimTime) -> RunResult {
        self.acc.finish(self.policy.as_mut(), rates, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use planner::{generate_candidates, CostParams, Estimator};
    use pricing::PriceCatalog;
    use simcore::NetworkModel;
    use std::sync::Arc;
    use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

    #[test]
    fn backlog_grows_with_served_queries_and_drains_with_time() {
        let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
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
        let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 3);
        let mut node = CacheNode::new(
            0,
            &NodeSpec::new(Scheme::EconCheap),
            &schema,
            &econ::EconConfig::default(),
        );
        let now = SimTime::from_secs(1.0);
        assert_eq!(node.outstanding(now), 0.0);
        node.accrue(now);
        let q = gen.next_query();
        let exec = ExecRows::build(&ctx, &q);
        let quote = node.quote(&ctx, &q, &exec, now);
        assert!(quote.is_positive(), "backend bid must be positive");
        let o = node.serve(&ctx, &q, &exec, now, 0.0);
        assert!(node.outstanding(now) >= o.response_time.as_secs() - 1e-9);
        let later = now + o.response_time + simcore::SimDuration::from_secs(1.0);
        assert_eq!(node.outstanding(later), 0.0, "backlog drains");
        assert_eq!(node.queries(), 1);
    }
}

//! Query routing across the fleet's cache nodes.
//!
//! The [`Router`] trait picks which node serves each arriving query.
//! Three strategies ship:
//!
//! * [`RoundRobin`] — oblivious rotation, the classic load-spreading
//!   baseline;
//! * [`LeastOutstanding`] — joins the node with the smallest backlog of
//!   promised-but-undelivered response time (join-the-shortest-queue);
//! * [`CheapestQuote`] — the marketplace extension of the paper's economy:
//!   every node's policy quotes its price `B_Q(t)` for the query and the
//!   cheapest bid wins. Nodes that invested well quote low and attract
//!   the traffic that amortizes their structures — the self-tuning loop
//!   of Section IV-A, played as a competition between clouds.
//!
//! A cheapest-quote round is one sequential scan on the router's
//! thread: every routable node bids through [`CacheNode::quote`]
//! (an economic node binds the query's rows to its own cache by fused
//! enumeration, [`planner::bind_plans_into`]), and the lowest-indexed
//! minimum bidder wins.
//!
//! Every bid reads the arrival's [`ExecRows`]: the query's backend row
//! and execution cells, which depend on the query alone. The fleet's
//! cell loop fills them once per arrival and passes them to
//! [`Router::route_with`] and then to the winner's serve, so neither a
//! decided check, a bid nor the serve recomputes them. Quoting changes
//! no node's state. Only the winner serves the query, and its serve
//! binds the rows to its cache afresh; no cache-dependent term a bid
//! planned is kept.
//!
//! **Budget-decided rounds.** Before quoting, the round asks every
//! routable node whether its budget alone fixes its bid
//! ([`econ::EconomyManager::budget_decided_bid`]). Under a step budget
//! (Fig. 1(a), the paper's experiments and `EconConfig`'s default) the
//! case analysis charges the full amount `B_Q` whenever the backend plan
//! is affordable, whatever the node's cache holds, so the bid needs no
//! plan set. The check reads only the query's rows and the node's
//! budget shape and patience ([`econ::EconomyManager::budget_key`]), so
//! a round evaluates it once per distinct key among the routable nodes:
//! once, for a fleet whose nodes share one `EconConfig`. When every
//! routable node is economic and decided, the round picks the first
//! minimal bid without planning. Otherwise the round above runs
//! unchanged for every node: in practice a round is decided for all
//! of its economic nodes or for none, and only a non-economic node (or
//! nodes built with differing budgets) makes it otherwise. One exception
//! keeps the check honest: if an execution row past the deadline costs
//! nothing (zero CPU and I/O rates make every cache row free), a free
//! cached plan there is affordable at a budget of zero and can undercut
//! `B_Q`, so the round runs in full. `tests/budget_decided_bids.rs` pins
//! the equivalence.
//!
//! A finding the decided path makes plain: with every economic node
//! under a step budget, every bid for a query is the same `B_Q`, so
//! cheapest-quote routing sends every query to the lowest-indexed
//! routable node, however well the others invested. Bidding price
//! instead, or breaking ties by load, would change which node serves
//! and so every economic result; that is a change to the bidding rule,
//! not to this router's speed.
//!
//! All strategies break ties toward the lowest node index, so routing is
//! a deterministic function of the (node states, query, time) tuple.

use std::sync::Arc;

use econ::BudgetKey;
use planner::{ExecRows, PlannerContext, SkeletonCache};
use pricing::Money;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use workload::Query;

use crate::node::CacheNode;

/// A routing strategy.
pub trait Router {
    /// Strategy name as it appears in reports.
    fn name(&self) -> &'static str;

    /// Picks the node (index into `nodes`) that serves `query` at `now`,
    /// over `exec`, the arrival's execution rows, which the caller then
    /// passes to the winner's serve. Routing must not serve the query.
    /// Strategies that do not price queries ignore the rows.
    ///
    /// # Panics
    /// Implementations may panic if `nodes` is empty; fleet configs are
    /// validated to have at least one node. Pricing strategies also
    /// panic if a routable node plans and `exec` was never filled.
    fn route_with(
        &mut self,
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> usize;

    /// [`Self::route_with`] over rows the router fills itself: unfilled
    /// rows by default, right for strategies that do not price queries.
    /// Kept for perfbench's traced fleet replay; removed by ROADMAP
    /// item 5.
    fn route(
        &mut self,
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize {
        self.route_with(nodes, ctx, query, &ExecRows::new(), now)
    }

    /// The winning bid of the most recent routing call, for
    /// strategies that price queries — `None` for oblivious strategies
    /// (round-robin, least-outstanding) and before the first round. The
    /// flight recorder stamps this into its quote-round events.
    fn last_winning_quote(&self) -> Option<Money> {
        None
    }

    /// Quote rounds run so far, by how they were settled (zero for
    /// strategies that do not price queries). Telemetry only.
    fn quote_rounds(&self) -> QuoteRounds {
        QuoteRounds::default()
    }
}

/// Cumulative quote-round counts of a pricing router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuoteRounds {
    /// Rounds every routable node's budget decided: no node planned.
    pub decided: u64,
    /// Rounds that quoted through planning.
    pub full: u64,
}

/// Oblivious rotation over the nodes.
#[derive(Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route_with(
        &mut self,
        nodes: &[CacheNode],
        _ctx: &PlannerContext<'_>,
        _query: &Query,
        _exec: &ExecRows,
        now: SimTime,
    ) -> usize {
        // Rotate from the cursor to the next routable node (elastic
        // fleets carry draining/booting nodes in the slice).
        for off in 0..nodes.len() {
            let idx = (self.next + off) % nodes.len();
            if nodes[idx].routable(now) {
                self.next = (idx + 1) % nodes.len();
                return idx;
            }
        }
        panic!("no routable node (the control plane must keep at least one active)");
    }
}

/// Join-the-shortest-queue on outstanding backlog seconds.
#[derive(Debug, Default)]
pub struct LeastOutstanding;

impl Router for LeastOutstanding {
    fn name(&self) -> &'static str {
        "least-outstanding"
    }

    fn route_with(
        &mut self,
        nodes: &[CacheNode],
        _ctx: &PlannerContext<'_>,
        _query: &Query,
        _exec: &ExecRows,
        now: SimTime,
    ) -> usize {
        let mut best = None;
        let mut best_load = f64::INFINITY;
        for (i, node) in nodes.iter().enumerate() {
            if !node.routable(now) {
                continue;
            }
            let load = node.outstanding(now);
            if load < best_load {
                best = Some(i);
                best_load = load;
            }
        }
        best.expect("no routable node (the control plane must keep at least one active)")
    }
}

/// Kept only because the repository benchmark names it; inert; removed
/// by ROADMAP item 5. [`RouterKind::make`] ignores it: cheapest-quote
/// routing has one quote path.
#[derive(Debug, Clone)]
pub struct QuoteOptions {
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Quote rounds run on the router's
    /// thread whatever it holds.
    pub threads: usize,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Every full round quotes node by node.
    pub batching: bool,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. No round reads the cache.
    pub skeletons: Option<Arc<SkeletonCache>>,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. There are no workers to pin.
    pub pinning: bool,
}

impl Default for QuoteOptions {
    fn default() -> Self {
        QuoteOptions {
            threads: 1,
            batching: true,
            skeletons: None,
            pinning: true,
        }
    }
}

/// Price-based routing: the node quoting the lowest `B_Q(t)` wins the bid.
///
/// A round scans the nodes in order on the caller's thread, quotes each
/// routable node ([`CacheNode::quote`]) and picks the
/// lowest-indexed minimum bidder. A round whose every bid the budgets
/// decide quotes no node (see the module doc).
#[derive(Debug, Default)]
pub struct CheapestQuote {
    /// The winning bid of the most recent round (flight-recorder data;
    /// never consulted by routing itself).
    last_quote: Option<Money>,
    rounds: QuoteRounds,
    /// The decided check's scratch: each distinct budget key among the
    /// round's routable nodes, with the bid it decided.
    decided: Vec<(BudgetKey, Option<Money>)>,
    /// Execution rows [`Router::route`] fills for its query.
    exec: ExecRows,
}

impl CheapestQuote {
    /// The first routable node with the minimal bid. `bid(i)` is asked
    /// only of routable nodes (elastic fleets carry draining/booting
    /// nodes in the slice; they neither bid nor plan). `None` when no
    /// node is routable.
    fn cheapest(
        nodes: &[CacheNode],
        now: SimTime,
        mut bid: impl FnMut(usize) -> Money,
    ) -> Option<(usize, Money)> {
        let mut best: Option<(usize, Money)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if !node.routable(now) {
                continue;
            }
            let bid = bid(i);
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((i, bid));
            }
        }
        best
    }

    /// The round's winner and bid when every routable node's budget
    /// decides its bid: the first minimal decided bid. `None` when some
    /// routable node is not economic or must quote through planning.
    /// Evaluates the check once per distinct [`BudgetKey`].
    fn decided_round(
        &mut self,
        nodes: &[CacheNode],
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> Option<(usize, Money)> {
        self.decided.clear();
        let mut best: Option<(usize, Money)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if !node.routable(now) {
                continue;
            }
            let economy = node.economy()?;
            let key = economy.budget_key();
            let bid = match self.decided.iter().find(|(k, _)| *k == key) {
                Some(&(_, bid)) => bid,
                None => {
                    let bid = economy.budget_decided_bid(query, exec);
                    self.decided.push((key, bid));
                    bid
                }
            }?;
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((i, bid));
            }
        }
        best
    }
}

impl Router for CheapestQuote {
    fn name(&self) -> &'static str {
        "cheapest-quote"
    }

    fn route(
        &mut self,
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize {
        let mut exec = std::mem::take(&mut self.exec);
        exec.fill(ctx, query);
        let winner = self.route_with(nodes, ctx, query, &exec, now);
        self.exec = exec;
        winner
    }

    fn route_with(
        &mut self,
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> usize {
        if let Some((winner, bid)) = self.decided_round(nodes, query, exec, now) {
            self.rounds.decided += 1;
            self.last_quote = Some(bid);
            return winner;
        }
        self.rounds.full += 1;
        let best = Self::cheapest(nodes, now, |i| nodes[i].quote(ctx, query, exec, now));
        let (winner, bid) =
            best.expect("no routable node (the control plane must keep at least one active)");
        self.last_quote = Some(bid);
        winner
    }

    fn last_winning_quote(&self) -> Option<Money> {
        self.last_quote
    }

    fn quote_rounds(&self) -> QuoteRounds {
        self.rounds
    }
}

/// Serializable selector for the shipped routing strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastOutstanding`].
    LeastOutstanding,
    /// [`CheapestQuote`].
    CheapestQuote,
}

impl RouterKind {
    /// All shipped strategies, in comparison order.
    #[must_use]
    pub fn all() -> [RouterKind; 3] {
        [
            RouterKind::RoundRobin,
            RouterKind::LeastOutstanding,
            RouterKind::CheapestQuote,
        ]
    }

    /// Display name (matches the instantiated router's
    /// [`Router::name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastOutstanding => "least-outstanding",
            RouterKind::CheapestQuote => "cheapest-quote",
        }
    }

    /// Instantiates a fresh router of this kind. `quote` is kept only
    /// because the repository benchmark passes it; inert; removed by
    /// ROADMAP item 5.
    #[must_use]
    pub fn make(&self, quote: QuoteOptions) -> Box<dyn Router> {
        let _ = quote;
        match self {
            RouterKind::RoundRobin => Box::<RoundRobin>::default(),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::CheapestQuote => Box::<CheapestQuote>::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_names_line_up() {
        for kind in RouterKind::all() {
            assert_eq!(kind.make(QuoteOptions::default()).name(), kind.name());
        }
    }

    #[test]
    fn round_robin_cycles() {
        // Routing choices that need no node state can be checked without
        // building nodes by driving the counter directly.
        let mut rr = RoundRobin::default();
        assert_eq!(rr.next, 0);
        rr.next = 3;
        assert_eq!(rr.next % 4, 3);
    }

    /// A small planning context plus economic nodes, for driving
    /// routers directly.
    struct Fixture {
        schema: std::sync::Arc<catalog::Schema>,
        candidates: Vec<cache::IndexDef>,
        cand_index: planner::CandidateIndex,
        estimator: planner::Estimator,
    }

    impl Fixture {
        fn new() -> Self {
            use catalog::tpch::{tpch_schema, ScaleFactor};
            use planner::{generate_candidates, CostParams, Estimator};
            use pricing::PriceCatalog;
            use workload::paper_templates;

            let schema = std::sync::Arc::new(tpch_schema(ScaleFactor(1.0)));
            let templates = paper_templates(&schema);
            let candidates = generate_candidates(&schema, &templates, 65);
            let cand_index = planner::CandidateIndex::build(&schema, &candidates);
            let estimator = Estimator::new(
                CostParams::default(),
                PriceCatalog::ec2_2009(),
                simcore::NetworkModel::paper_sdss(),
            );
            Fixture {
                schema,
                candidates,
                cand_index,
                estimator,
            }
        }

        fn ctx(&self) -> PlannerContext<'_> {
            PlannerContext {
                schema: &self.schema,
                candidates: &self.candidates,
                cand_index: &self.cand_index,
                estimator: &self.estimator,
            }
        }

        fn generator(&self, seed: u64) -> workload::WorkloadGenerator {
            workload::WorkloadGenerator::new(
                std::sync::Arc::clone(&self.schema),
                workload::WorkloadConfig::default(),
                seed,
            )
        }

        /// `n` econ-cheap nodes under `shape` budgets.
        fn nodes(&self, n: usize, shape: econ::BudgetShape) -> Vec<CacheNode> {
            let econ = econ::EconConfig {
                budget_shape: shape,
                ..econ::EconConfig::default()
            };
            (0..n)
                .map(|i| {
                    CacheNode::new(
                        i,
                        &crate::node::NodeSpec::new(simulator::Scheme::EconCheap),
                        &self.schema,
                        &econ,
                    )
                })
                .collect()
        }
    }

    #[test]
    fn step_budgets_decide_rounds_without_quoting() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut gen = f.generator(3);
        let mut nodes = f.nodes(4, econ::BudgetShape::Step);
        nodes[0].begin_drain(SimTime::from_secs(0.5));

        let mut r = CheapestQuote::default();
        for i in 0..6 {
            let q = gen.next_query();
            let now = SimTime::from_secs(1.0 + f64::from(i));
            let exec = ExecRows::build(&ctx, &q);
            let winner = r.route_with(&nodes, &ctx, &q, &exec, now);
            assert_eq!(winner, 1, "the lowest-indexed routable node wins the tie");
            let amount = nodes[winner]
                .economy()
                .expect("economic node")
                .quote_query(&ctx, &q, &exec, now);
            assert_eq!(r.last_winning_quote(), Some(amount));
            let _ = nodes[winner].serve(&ctx, &q, &exec, now, 0.0);
        }
        assert_eq!(
            r.quote_rounds(),
            QuoteRounds {
                decided: 6,
                full: 0
            }
        );
    }

    #[test]
    fn draining_nodes_are_never_routed() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut gen = f.generator(9);
        // Convex budgets, so the cheapest-quote rounds run in full.
        let mut nodes = f.nodes(3, econ::BudgetShape::Convex);
        nodes[0].begin_drain(SimTime::from_secs(0.5));

        let mut rr = RoundRobin::default();
        let mut lo = LeastOutstanding;
        let mut cq = CheapestQuote::default();
        for i in 0..12 {
            let now = SimTime::from_secs(1.0 + i as f64);
            let q = gen.next_query();
            assert_ne!(rr.route(&nodes, &ctx, &q, now), 0, "round-robin");
            assert_ne!(lo.route(&nodes, &ctx, &q, now), 0, "least-outstanding");
            assert_ne!(cq.route(&nodes, &ctx, &q, now), 0, "cheapest-quote");
        }
        assert_eq!(cq.quote_rounds().full, 12);
    }
}

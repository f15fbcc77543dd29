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
//! A cheapest-quote round shares one lazily-built, cache-independent
//! [`LazySkeleton`] across every node: the first node whose plan cache
//! misses builds it (through the fleet-wide [`SkeletonCache`] when one
//! is attached), every other node binds it against its own cache state,
//! and a round where every node hits builds nothing. The binding itself
//! is **batched**: the economic nodes of a chunk complete in one
//! structure-major sweep ([`econ::QuoteBatch`]) instead of once per
//! node, and bid from the `(time, price, existing)` rows of that sweep
//! without building their plan sets. With `threads > 1` the chunks fan
//! out over a **persistent** worker pool (spawned once, parked between
//! rounds — see the private `pool` module); the merge folds per-chunk
//! minima in ascending node order, so the winner is **bit-identical** to
//! the sequential scan at any pool size and under either completion path
//! (`tests/fleet_determinism.rs` and `tests/batch_completion.rs` pin
//! this).
//!
//! Quoting reads a node's plan memo but does not write it. Only the
//! winner serves the query, so [`Router::route`] commits the **global**
//! winner's plan set to its memo after the fold
//! ([`econ::QuoteBatch::commit`], or
//! [`econ::EconomyManager::commit_quote`] on the per-node path), and the
//! serve that follows hits it. Losers write no slot. Both completion
//! paths and every pool size leave the same memo state.
//!
//! **Budget-decided rounds.** Before quoting, the round asks every
//! routable node whether its budget alone fixes its bid
//! ([`econ::EconomyManager::budget_decided_bid`]). Under a step budget
//! (Fig. 1(a), the paper's experiments and `EconConfig`'s default) the
//! case analysis charges the full amount `B_Q` whenever the backend plan
//! is affordable, whatever the node's cache holds, so the bid needs no
//! plan set. The check reads only the query's cache-independent
//! [`ExecRows`], built at most once per round. When every routable node
//! is economic and decided, the round picks the first minimal bid with
//! no memo lookup, skeleton, completion, commit or pool wake-up, and the
//! winner's serve plans its own query. Otherwise the round above runs
//! unchanged for every node: a fleet's nodes share one `EconConfig`, so
//! in practice a round is decided for all of its economic nodes or for
//! none, and only a non-economic node (or nodes built with differing
//! budgets) makes it otherwise. One exception keeps the check honest:
//! if an execution row past the deadline costs nothing (zero CPU and
//! I/O rates make every cache row free), a free cached plan there is
//! affordable at a budget of zero and can undercut `B_Q`, so the round
//! runs in full. An undecided round that built the rows then builds the
//! skeleton, which recomputes them; no measured workload has such
//! rounds under a step budget, so that cost is unmeasured.
//! `tests/budget_decided_bids.rs` pins the equivalence.
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

use std::cell::OnceCell;
use std::sync::{Arc, Mutex};

use econ::QuoteBatch;
use planner::{ExecRows, LazySkeleton, PlannerContext, SkeletonCache};
use pricing::Money;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use workload::Query;

use crate::node::CacheNode;
use crate::pool::{ChunkSlices, QuotePool};

/// A routing strategy.
pub trait Router {
    /// Strategy name as it appears in reports.
    fn name(&self) -> &'static str;

    /// Picks the node (index into `nodes`) that serves `query` at `now`.
    ///
    /// Nodes are borrowed mutably so quote fan-out can hand disjoint
    /// chunks to worker threads; routing itself must not serve the query.
    ///
    /// # Panics
    /// Implementations may panic if `nodes` is empty; fleet configs are
    /// validated to have at least one node.
    fn route(
        &mut self,
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize;

    /// The winning bid of the most recent [`Router::route`] call, for
    /// strategies that price queries — `None` for oblivious strategies
    /// (round-robin, least-outstanding) and before the first round. The
    /// flight recorder stamps this into its quote-round events.
    fn last_winning_quote(&self) -> Option<Money> {
        None
    }

    /// Worker threads currently pinned to a core (0 for strategies
    /// without a pool, with pinning off, or where the platform refused
    /// the pins). Telemetry only — routing results never depend on
    /// placement.
    fn pinned_workers(&self) -> u64 {
        0
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
    /// Rounds every routable node's budget decided: no memo lookup, no
    /// skeleton, no completion.
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

    fn route(
        &mut self,
        nodes: &mut [CacheNode],
        _ctx: &PlannerContext<'_>,
        _query: &Query,
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

    fn route(
        &mut self,
        nodes: &mut [CacheNode],
        _ctx: &PlannerContext<'_>,
        _query: &Query,
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

/// Construction-time options for cheapest-quote routing.
#[derive(Debug, Clone)]
pub struct QuoteOptions {
    /// Workers a quote round fans per-node bids out over (1 =
    /// sequential; clamped to at least 1). Results are invariant in it
    /// by construction.
    pub threads: usize,
    /// Quote with batched structure-major completion
    /// ([`econ::QuoteBatch`]) instead of one completion pass per node.
    /// Bit-identical either way (`tests/batch_completion.rs` and
    /// `tests/fleet_determinism.rs` enforce it); batching is the fast
    /// path and the default — the switch exists for that cross-check.
    pub batching: bool,
    /// Fleet-wide skeleton cache: rounds that must build the query's
    /// [`planner::PlanSkeleton`] first probe this cache under the
    /// query's planning fingerprint, de-duplicating builds across
    /// concurrently simulated cells.
    pub skeletons: Option<Arc<SkeletonCache>>,
    /// Pin pool workers to cores (`sched_setaffinity`): worker `w` is
    /// sticky on chunk `w + 1` every round, so pinning keeps each
    /// chunk's node states resident in one core's private cache. A
    /// placement hint only — results are bit-identical with pinning on,
    /// off, or refused by the platform ([`Router::pinned_workers`]
    /// reports how many pins took). Default on; a no-op off Linux.
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
/// The round plans the query at most once (the shared [`LazySkeleton`],
/// built by the first node that needs it — resolved through the
/// fleet-wide [`SkeletonCache`] when one is attached) and gathers
/// per-node completions. With `threads > 1` the nodes split into
/// contiguous chunks fanned out over a **persistent** worker pool
/// (`QuotePool`): workers are spawned once and parked between rounds,
/// so the per-round parallelism cost is a wake/park pair instead of
/// thread spawns. Within each chunk the economic nodes' bids come from
/// one batched structure-major completion sweep ([`QuoteBatch`]) unless
/// per-node completion was requested.
///
/// Either way the chosen node is the lowest-indexed minimum bidder: each
/// chunk reports its first minimal bid and the merge folds chunks in
/// ascending node order keeping strict minima — bit-identical to the
/// sequential scan at any pool size. The winner alone then memoizes its
/// plan set for the serve that follows. A round whose every bid the
/// budgets decide skips all of this (see the module doc).
pub struct CheapestQuote {
    threads: usize,
    batching: bool,
    skeletons: Option<Arc<SkeletonCache>>,
    pinning: bool,
    /// Lazily spawned persistent worker pool (`threads − 1` workers).
    pool: Option<QuotePool>,
    /// Per-chunk reusable batching workspaces; slot `c` is only ever
    /// touched by the round participant running chunk `c`.
    batches: Vec<Mutex<QuoteBatch>>,
    /// Per-chunk round results.
    results: Vec<Mutex<ChunkResult>>,
    /// The winning bid of the most recent round (flight-recorder data;
    /// never consulted by routing itself).
    last_quote: Option<Money>,
    rounds: QuoteRounds,
}

/// One chunk's contribution to a pooled quote round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChunkResult {
    /// The chunk's participant has not reported yet.
    Pending,
    /// The chunk held no routable node (all draining/booting).
    Empty,
    /// The chunk's first minimal bidder and its bid.
    Best(usize, Money),
}

impl std::fmt::Debug for CheapestQuote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheapestQuote")
            .field("threads", &self.threads)
            .field("batching", &self.batching)
            .field("shared_skeletons", &self.skeletons.is_some())
            .field("pinning", &self.pinning)
            .field("pool_live", &self.pool.is_some())
            .finish()
    }
}

impl Default for CheapestQuote {
    fn default() -> Self {
        CheapestQuote::new(1)
    }
}

impl CheapestQuote {
    /// A cheapest-quote router fanning bids out over `threads` workers
    /// (1 = sequential; clamped to at least 1), with batched completion
    /// and no shared skeleton cache.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        CheapestQuote::with_options(QuoteOptions {
            threads,
            ..QuoteOptions::default()
        })
    }

    /// A cheapest-quote router with explicit [`QuoteOptions`].
    #[must_use]
    pub fn with_options(options: QuoteOptions) -> Self {
        CheapestQuote {
            threads: options.threads.max(1),
            batching: options.batching,
            skeletons: options.skeletons,
            pinning: options.pinning,
            pool: None,
            batches: Vec::new(),
            results: Vec::new(),
            last_quote: None,
            rounds: QuoteRounds::default(),
        }
    }

    /// Grows the per-chunk workspaces to cover `chunks` slots.
    fn ensure_chunk_state(&mut self, chunks: usize) {
        while self.batches.len() < chunks {
            self.batches.push(Mutex::new(QuoteBatch::new()));
        }
        while self.results.len() < chunks {
            self.results.push(Mutex::new(ChunkResult::Pending));
        }
    }

    /// One chunk's scan: the first routable node with the minimal bid,
    /// quoting every node individually (the per-node reference path).
    /// `None` when the chunk holds no routable node (elastic fleets carry
    /// draining/booting nodes in the slice; they neither bid nor plan).
    fn chunk_best_per_node(
        nodes: &[CacheNode],
        base: usize,
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> Option<(usize, Money)> {
        let mut best: Option<(usize, Money)> = None;
        for (j, node) in nodes.iter().enumerate() {
            if !node.routable(now) {
                continue;
            }
            let bid = node.quote_with_skeleton(ctx, query, skeleton, now);
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((base + j, bid));
            }
        }
        best
    }

    /// One chunk's scan with bids drawn from a batched structure-major
    /// completion round — identical bids, hence identical winner.
    /// Unroutable nodes are excluded from the batch entirely (no memo
    /// lookup, no completion), exactly as the per-node path skips them.
    fn chunk_best_batched(
        batch: &mut QuoteBatch,
        nodes: &[CacheNode],
        base: usize,
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> Option<(usize, Money)> {
        let bids = batch.quote_round(
            nodes.len(),
            |j| {
                if nodes[j].routable(now) {
                    nodes[j].economy()
                } else {
                    None
                }
            },
            |j| {
                if nodes[j].routable(now) {
                    nodes[j].quote_with_skeleton(ctx, query, skeleton, now)
                } else {
                    Money::ZERO // placeholder; unroutable bids are never read
                }
            },
            ctx,
            query,
            skeleton,
            now,
        );
        let mut best: Option<(usize, Money)> = None;
        for (j, &bid) in bids.iter().enumerate() {
            if !nodes[j].routable(now) {
                continue;
            }
            if best.is_none_or(|(_, b)| bid < b) {
                best = Some((base + j, bid));
            }
        }
        best
    }

    /// Sequential scan (one chunk spanning every node).
    fn route_sequential(
        &mut self,
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> usize {
        let best = if self.batching {
            self.ensure_chunk_state(1);
            let batch = self.batches[0].get_mut().expect("batch workspace poisoned");
            Self::chunk_best_batched(batch, nodes, 0, ctx, query, skeleton, now)
        } else {
            Self::chunk_best_per_node(nodes, 0, ctx, query, skeleton, now)
        };
        let (winner, bid) =
            best.expect("no routable node (the control plane must keep at least one active)");
        self.last_quote = Some(bid);
        self.commit_winner(0, winner, &nodes[winner], ctx, query, skeleton, now);
        winner
    }

    /// Memoizes the round winner's plan set — the one bid whose set is
    /// read again, by the winner's serve. Losers' sets are never
    /// memoized. The batched path emits the set from the lanes of the
    /// winner's chunk workspace (`chunk`, where the winner sits at
    /// `offset`); the per-node path re-completes it from the shared
    /// skeleton. Both leave the same memo state.
    #[allow(clippy::too_many_arguments)] // one parameter per round input
    fn commit_winner(
        &mut self,
        chunk: usize,
        offset: usize,
        node: &CacheNode,
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) {
        let Some(manager) = node.economy() else {
            return;
        };
        if self.batching {
            self.batches[chunk]
                .get_mut()
                .expect("batch workspace poisoned")
                .commit(offset, manager);
        } else {
            manager.commit_quote(ctx, query, skeleton, now);
        }
    }

    /// Persistent-pool scan: nodes split into contiguous chunks, every
    /// pool participant (the caller runs chunk 0) reports its chunk's
    /// first minimal bid, and the fold walks chunks in ascending node
    /// order keeping strict minima — exactly the sequential scan's
    /// lowest-indexed winner.
    fn route_pooled(
        &mut self,
        threads: usize,
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> usize {
        self.ensure_chunk_state(threads);
        // Re-clamp the persistent pool to the round's thread count: an
        // elastic fleet's node population changes mid-run, and `route`
        // clamps `threads` to the *current* population — so the pool must
        // grow back after the population does, and shrink when a smaller
        // population leaves workers that could never claim a chunk
        // (wake/park cost per round for nothing). Population changes are
        // review-cadence rare, so respawning on change is cheap.
        if self
            .pool
            .as_ref()
            .is_none_or(|p| p.workers() + 1 != threads)
        {
            self.pool = Some(QuotePool::with_pinning(threads - 1, self.pinning));
        }
        let chunk_len = nodes.len().div_ceil(threads);
        let slices = ChunkSlices::new(nodes, chunk_len);
        let n_chunks = slices.chunks();
        for slot in &mut self.results[..n_chunks] {
            *slot.get_mut().expect("result slot poisoned") = ChunkResult::Pending;
        }

        let batching = self.batching;
        let batches = &self.batches;
        let results = &self.results;
        let job = |chunk: usize| {
            let Some(chunk_nodes) = slices.take(chunk) else {
                return; // pool larger than this round's chunk count
            };
            let base = chunk * chunk_len;
            let best = if batching {
                let mut batch = batches[chunk].lock().expect("batch workspace poisoned");
                Self::chunk_best_batched(&mut batch, chunk_nodes, base, ctx, query, skeleton, now)
            } else {
                Self::chunk_best_per_node(chunk_nodes, base, ctx, query, skeleton, now)
            };
            *results[chunk].lock().expect("result slot poisoned") = match best {
                Some((i, bid)) => ChunkResult::Best(i, bid),
                None => ChunkResult::Empty,
            };
        };
        self.pool.as_ref().expect("pool just ensured").run(&job);

        let mut best: Option<(usize, Money)> = None;
        for slot in &self.results[..n_chunks] {
            match *slot.lock().expect("result slot poisoned") {
                ChunkResult::Pending => unreachable!("every chunk computed"),
                ChunkResult::Empty => {}
                ChunkResult::Best(i, bid) => {
                    if best.is_none_or(|(_, b)| bid < b) {
                        best = Some((i, bid));
                    }
                }
            }
        }
        let (winner, bid) =
            best.expect("no routable node (the control plane must keep at least one active)");
        self.last_quote = Some(bid);
        // Commit after the fold: a chunk's local best is only a
        // candidate, and only the global winner's set is memoized.
        self.commit_winner(
            winner / chunk_len,
            winner % chunk_len,
            &nodes[winner],
            ctx,
            query,
            skeleton,
            now,
        );
        winner
    }

    /// The round's winner and bid when every routable node's budget
    /// decides its bid: the first minimal decided bid. `None` when some
    /// routable node is not economic or must quote through planning.
    /// Builds the query's [`ExecRows`] only if a step budget needs them.
    fn decided_round(
        nodes: &[CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> Option<(usize, Money)> {
        let rows = OnceCell::new();
        let mut best: Option<(usize, Money)> = None;
        for (i, node) in nodes.iter().enumerate() {
            if !node.routable(now) {
                continue;
            }
            let bid = node
                .economy()?
                .budget_decided_bid(query, || rows.get_or_init(|| ExecRows::build(ctx, query)))?;
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
        nodes: &mut [CacheNode],
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> usize {
        if let Some((winner, bid)) = Self::decided_round(nodes, ctx, query, now) {
            self.rounds.decided += 1;
            self.last_quote = Some(bid);
            return winner;
        }
        self.rounds.full += 1;
        // The cache-independent half of every node's planning: built at
        // most once per round, by the first node whose memo misses —
        // resolved through the fleet-wide cache when one is attached.
        // (The Arc clone keeps the cache borrowable for the round while
        // `self` is mutably borrowed below.)
        let shared = self.skeletons.clone();
        let skeleton = match &shared {
            Some(cache) => LazySkeleton::with_cache(ctx, query, cache),
            None => LazySkeleton::new(ctx, query),
        };
        let threads = self.threads.min(nodes.len());
        if threads <= 1 {
            self.route_sequential(nodes, ctx, query, &skeleton, now)
        } else {
            self.route_pooled(threads, nodes, ctx, query, &skeleton, now)
        }
    }

    fn last_winning_quote(&self) -> Option<Money> {
        self.last_quote
    }

    fn pinned_workers(&self) -> u64 {
        self.pool.as_ref().map_or(0, QuotePool::pinned_workers)
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

    /// Instantiates a fresh router of this kind. `quote` configures the
    /// cheapest-quote strategy (pool size, batching, shared skeletons)
    /// and is ignored by the other strategies; results are invariant in
    /// every quote option by construction.
    #[must_use]
    pub fn make(&self, quote: QuoteOptions) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::<RoundRobin>::default(),
            RouterKind::LeastOutstanding => Box::new(LeastOutstanding),
            RouterKind::CheapestQuote => Box::new(CheapestQuote::with_options(quote)),
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

    #[test]
    fn cheapest_quote_clamps_thread_count() {
        let r = CheapestQuote::new(0);
        assert_eq!(r.threads, 1);
        assert_eq!(CheapestQuote::new(8).threads, 8);
        assert!(r.pool.is_none(), "pool is lazy");
        assert!(r.batching, "batched completion is the default");
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
    fn pool_reclamps_when_the_node_population_changes() {
        // Convex budgets leave every bid to the round, so every round
        // runs the pool.
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut gen = f.generator(5);
        let mut nodes = f.nodes(4, econ::BudgetShape::Convex);

        let mut r = CheapestQuote::new(8);
        let now = SimTime::from_secs(1.0);
        let q = gen.next_query();
        let _ = r.route(&mut nodes, &ctx, &q, now);
        // 8 requested threads clamp to the 4-node population: 3 workers.
        assert_eq!(r.pool.as_ref().expect("pool spawned").workers(), 3);

        // The population shrinks (elastic scale-down): the pool follows.
        let q = gen.next_query();
        let _ = r.route(&mut nodes[..2], &ctx, &q, SimTime::from_secs(2.0));
        assert_eq!(r.pool.as_ref().expect("pool live").workers(), 1);

        // …and grows back when the population does.
        let q = gen.next_query();
        let _ = r.route(&mut nodes, &ctx, &q, SimTime::from_secs(3.0));
        assert_eq!(r.pool.as_ref().expect("pool live").workers(), 3);
        assert_eq!(
            r.quote_rounds(),
            QuoteRounds {
                decided: 0,
                full: 3
            }
        );
    }

    #[test]
    fn step_budgets_decide_rounds_without_quoting() {
        let f = Fixture::new();
        let ctx = f.ctx();
        let mut gen = f.generator(3);
        let mut nodes = f.nodes(4, econ::BudgetShape::Step);
        nodes[0].begin_drain(SimTime::from_secs(0.5));

        let mut r = CheapestQuote::new(4);
        for i in 0..6 {
            let q = gen.next_query();
            let now = SimTime::from_secs(1.0 + f64::from(i));
            let winner = r.route(&mut nodes, &ctx, &q, now);
            assert_eq!(winner, 1, "the lowest-indexed routable node wins the tie");
            let amount = nodes[winner]
                .economy()
                .expect("economic node")
                .quote_query(&ctx, &q, now);
            assert_eq!(r.last_winning_quote(), Some(amount));
            let _ = nodes[winner].serve(&ctx, &q, now);
        }
        assert!(r.pool.is_none(), "decided rounds never wake the pool");
        assert_eq!(
            r.quote_rounds(),
            QuoteRounds {
                decided: 6,
                full: 0
            }
        );
        for node in &nodes[2..] {
            let stats = node.plan_cache_stats().expect("economic node");
            assert_eq!(stats.hits + stats.misses, 0, "losers looked nothing up");
        }
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
        let mut cq_batched = CheapestQuote::new(1);
        let mut cq_per_node = CheapestQuote::with_options(QuoteOptions {
            batching: false,
            ..QuoteOptions::default()
        });
        for i in 0..12 {
            let now = SimTime::from_secs(1.0 + i as f64);
            let q = gen.next_query();
            assert_ne!(rr.route(&mut nodes, &ctx, &q, now), 0, "round-robin");
            assert_ne!(lo.route(&mut nodes, &ctx, &q, now), 0, "least-outstanding");
            assert_ne!(cq_batched.route(&mut nodes, &ctx, &q, now), 0, "cq batched");
            assert_ne!(
                cq_per_node.route(&mut nodes, &ctx, &q, now),
                0,
                "cq per-node"
            );
        }
        assert_eq!(cq_batched.quote_rounds().full, 12);
        assert_eq!(cq_per_node.quote_rounds().full, 12);
    }
}

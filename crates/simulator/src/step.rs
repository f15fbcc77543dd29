//! The reusable per-query accounting step.
//!
//! [`RunAccumulator`] is the bookkeeping half of the coordinator loop,
//! factored out of [`crate::Simulation::run`] so that other drivers — the
//! fleet executor routes one merged multi-tenant stream over *several*
//! policies — can step queries through a policy one at a time and still
//! book exactly the costs the paper's model charges:
//!
//! * backend executions are pay-per-use (CPU + I/O + network, eq. 9);
//! * cache executions pay I/O per use, while cache CPU is covered by node
//!   *uptime* (base node plus extra nodes at `c` per second — eq. 11);
//!   booking both would double-count;
//! * cache disk is charged on the exact byte-seconds integral (eq. 13/15)
//!   at [`RunAccumulator::finish`];
//! * structure builds are charged when the investment happens.

use metrics::{CostBreakdown, LogHistogram, Resource, StreamingStats};
use planner::{ExecRows, PlannerContext};
use policies::{CachePolicy, PolicyOutcome};
use pricing::{Money, ResourceRates};
use simcore::SimTime;
use workload::Query;

use crate::results::RunResult;

/// Streaming accumulator for one policy's measurements over a run.
///
/// Use [`step`](RunAccumulator::step) per arrival (or, when several
/// policies share one clock, [`accrue_uptime`](RunAccumulator::accrue_uptime)
/// on every policy followed by [`record`](RunAccumulator::record) on the
/// one that served the query), then [`finish`](RunAccumulator::finish)
/// once to close the integrals over the run horizon.
#[derive(Debug)]
pub struct RunAccumulator {
    response: StreamingStats,
    response_hist: LogHistogram,
    operating: CostBreakdown,
    build_spend: Money,
    payments: Money,
    profit: Money,
    cache_hits: u64,
    investments: u64,
    evictions: u64,
    queries: u64,
    started_at: SimTime,
    prev_time: SimTime,
    node_seconds: f64,
    /// The execution rows [`Self::step`] fills for each query a planning
    /// policy serves, reused across queries.
    exec: ExecRows,
}

impl Default for RunAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl RunAccumulator {
    /// Empty accumulator with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::new_at(SimTime::ZERO)
    }

    /// Empty accumulator for a policy that comes up at `start` — an
    /// elastically spawned fleet node. Base-node uptime (eq. 11) is
    /// charged from `start` instead of the run origin, and the uptime
    /// integral's clock begins there.
    #[must_use]
    pub fn new_at(start: SimTime) -> Self {
        RunAccumulator {
            response: StreamingStats::new(),
            response_hist: LogHistogram::latency(),
            operating: CostBreakdown::ZERO,
            build_spend: Money::ZERO,
            payments: Money::ZERO,
            profit: Money::ZERO,
            cache_hits: 0,
            investments: 0,
            evictions: 0,
            queries: 0,
            started_at: start,
            prev_time: start,
            node_seconds: 0.0,
            exec: ExecRows::new(),
        }
    }

    /// Queries recorded so far.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// User payments collected so far.
    #[must_use]
    pub fn payments(&self) -> Money {
        self.payments
    }

    /// Cloud profit collected so far.
    #[must_use]
    pub fn profit(&self) -> Money {
        self.profit
    }

    /// Sum of delivered response times so far (seconds) — windowed
    /// latency signals are deltas of this against [`Self::queries`].
    #[must_use]
    pub fn response_secs_total(&self) -> f64 {
        self.response.mean() * self.response.count() as f64
    }

    /// Books a build that happened outside a query outcome — a fleet
    /// control plane booting a node charges eq. 10's boot cost here, so
    /// it flows into `build_spend` (and the investment count) exactly
    /// like a structure built by the economy.
    pub fn book_build(&mut self, cost: Money) {
        self.build_spend += cost;
        self.investments += 1;
    }

    /// Accrues the policy's extra-node uptime from the previous arrival to
    /// `now`. Nodes change state only at arrival instants, so this
    /// sampling is exact except for boots mid-gap, which err by < one gap.
    ///
    /// Must be called once per arrival instant for every policy sharing
    /// the clock — including policies that do not serve the query.
    pub fn accrue_uptime(&mut self, policy: &dyn CachePolicy, now: SimTime) {
        self.node_seconds +=
            f64::from(policy.active_extra_nodes(self.prev_time)) * (now - self.prev_time).as_secs();
        self.prev_time = now;
    }

    /// Books one served query's outcome.
    pub fn record(&mut self, outcome: &PolicyOutcome) {
        self.queries += 1;
        let secs = outcome.response_time.as_secs();
        self.response.record(secs);
        self.response_hist.record(secs);

        if outcome.ran_in_cache {
            // Cache CPU is covered by node uptime; book I/O per use.
            self.operating
                .add_to(Resource::Io, outcome.exec_breakdown.io);
            self.operating
                .add_to(Resource::Network, outcome.exec_breakdown.network);
            self.cache_hits += 1;
        } else {
            self.operating += outcome.exec_breakdown;
        }
        self.build_spend += outcome.build_spend;
        self.payments += outcome.payment;
        self.profit += outcome.profit;
        self.investments += u64::from(outcome.investments);
        self.evictions += u64::from(outcome.evictions);
    }

    /// The accumulator's reused execution rows, filled for `query` when
    /// `policy` plans (has an economy) and left as they are otherwise,
    /// for a policy that ignores them.
    pub fn exec_rows(
        &mut self,
        policy: &dyn CachePolicy,
        ctx: &PlannerContext<'_>,
        query: &Query,
    ) -> &ExecRows {
        if policy.economy().is_some() {
            self.exec.fill(ctx, query);
        }
        &self.exec
    }

    /// Serves one query end to end: accrues uptime, fills the query's
    /// execution rows ([`Self::exec_rows`]), runs the policy over them
    /// and books the outcome.
    pub fn step(
        &mut self,
        policy: &mut dyn CachePolicy,
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> PolicyOutcome {
        self.accrue_uptime(policy, now);
        let exec = self.exec_rows(policy, ctx, query);
        let outcome = policy.process_query(ctx, query, exec, now);
        self.record(&outcome);
        outcome
    }

    /// Closes the run at `horizon`: advances the policy, charges disk rent
    /// over the exact occupancy integral and node uptime (the always-on
    /// base node plus accrued extra nodes), and produces the result.
    #[must_use]
    pub fn finish(
        mut self,
        policy: &mut dyn CachePolicy,
        rates: &ResourceRates,
        horizon: SimTime,
    ) -> RunResult {
        self.accrue_uptime(policy, horizon);
        policy.advance(horizon);

        self.operating.add_to(
            Resource::Disk,
            Money::from_dollars(policy.disk_byte_seconds() * rates.disk_byte_per_sec),
        );
        let base_node_secs = horizon.saturating_since(self.started_at).as_secs();
        self.operating.add_to(
            Resource::Cpu,
            rates.cpu_cost(base_node_secs + self.node_seconds),
        );

        RunResult {
            scheme: policy.name().to_owned(),
            queries: self.queries,
            horizon_secs: horizon.as_secs(),
            response: self.response,
            response_hist: self.response_hist,
            operating: self.operating,
            build_spend: self.build_spend,
            payments: self.payments,
            profit: self.profit,
            cache_hits: self.cache_hits,
            investments: self.investments,
            evictions: self.evictions,
            final_disk_bytes: policy.disk_used(),
        }
    }
}

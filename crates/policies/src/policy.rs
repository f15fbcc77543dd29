//! The policy interface the simulator drives.

use metrics::CostBreakdown;
use planner::{ExecRows, PlannerContext};
use pricing::Money;
use simcore::{SimDuration, SimTime};
use workload::Query;

/// What one query did, as far as the simulator's accounting cares.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Wall-clock response time delivered to the user.
    pub response_time: SimDuration,
    /// True if the query ran in the cache (vs the back-end).
    pub ran_in_cache: bool,
    /// Resource cost of the execution itself (CPU / I/O / network),
    /// booked by the simulator into the operating cost.
    pub exec_breakdown: CostBreakdown,
    /// Money spent right now building structures (column transfers, index
    /// sorts, node boots) — the investment side of the operating cost.
    pub build_spend: Money,
    /// What the user paid (cost recovery for bypass; `B_Q(t)` for the
    /// economic schemes).
    pub payment: Money,
    /// Cloud profit on this query (zero for bypass).
    pub profit: Money,
    /// Structures built following this query.
    pub investments: u32,
    /// Structures evicted before this query.
    pub evictions: u32,
}

/// A caching scheme the simulator can operate.
pub trait CachePolicy {
    /// Scheme name as it appears in the figures (`bypass`, `econ-col`, …).
    fn name(&self) -> &'static str;

    /// Serves one query arriving at `now`. A policy that plans fills its
    /// own execution rows for the query.
    fn process_query(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> PolicyOutcome;

    /// [`Self::process_query`] over `exec`, the query's execution rows,
    /// filled by the caller (a fleet fills them once per arrival for its
    /// quote round and the winner's serve). Must equal
    /// [`Self::process_query`] bit for bit. The default ignores the rows:
    /// right for policies that do not plan.
    fn process_query_with(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> PolicyOutcome {
        let _ = exec;
        self.process_query(ctx, query, now)
    }

    /// Quotes the price this cloud would charge for `query` at `now`,
    /// without serving it. A quote changes no cache, ledger or other
    /// policy state.
    ///
    /// For the economic schemes this is the paper's `B_Q(t)` settlement of
    /// the case analysis; for bypass it is the cost-recovery charge of the
    /// execution the cache would run. Fleet routers compare quotes across
    /// competing clouds (cheapest-bid routing); a quote is a bid, not a
    /// contract — the realized charge can differ if serving the query
    /// first triggers evictions or investments.
    fn quote(&self, ctx: &PlannerContext<'_>, query: &Query, now: SimTime) -> Money;

    /// [`Self::quote`] over `exec`, the query's execution rows, filled by
    /// the caller. Must equal [`Self::quote`] bit for bit. The default
    /// ignores the rows: right for policies that do not plan.
    fn quote_with(
        &self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> Money {
        let _ = exec;
        self.quote(ctx, query, now)
    }

    /// The economy manager backing this policy's quotes, when it has
    /// one. A fleet quote round asks it whether the budget alone decides
    /// the bid (`econ::EconomyManager::budget_decided_bid`); a round with
    /// a node returning `None` (the default) quotes every node through
    /// [`Self::quote_with`].
    fn economy(&self) -> Option<&econ::EconomyManager> {
        None
    }

    /// Cache disk currently occupied (bytes).
    fn disk_used(&self) -> u64;

    /// Cumulative disk byte-seconds integral (the simulator charges
    /// `c_d ×` the delta each step — eq. 13/15 as operating cost).
    fn disk_byte_seconds(&self) -> f64;

    /// Extra CPU nodes currently up (beyond the base node), whose uptime
    /// the simulator charges at `c` per second (eq. 11).
    fn active_extra_nodes(&self, now: SimTime) -> u32;

    /// Accrues time-based state to `now` (called once more at the end of
    /// a run so integrals cover the full horizon).
    fn advance(&mut self, now: SimTime);

    /// Re-bases the disk-occupancy integral at `now` after a
    /// crash-recovery replay: the replayed span's rent was settled when
    /// the crashed node's books closed, so the recovered policy must only
    /// accrue byte-seconds from `now` forward. The default merely
    /// advances (correct for policies that cache nothing); policies with
    /// a resettable occupancy integral (the economic schemes) override it
    /// to write the replayed integral off.
    fn rebase_occupancy(&mut self, now: SimTime) {
        self.advance(now);
    }
}

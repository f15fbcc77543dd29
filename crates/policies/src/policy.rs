//! The policy interface the simulator drives.

use metrics::CostBreakdown;
use planner::{LazySkeleton, PlannerContext};
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
    /// Cached structures the winning plan actually used (empty for
    /// backend runs and for bypass, which prices executions rather than
    /// structures) — the attribution trail "which tenants paid for
    /// structure S" settles through.
    pub used_structures: Vec<cache::StructureKey>,
}

/// A caching scheme the simulator can operate.
pub trait CachePolicy {
    /// Scheme name as it appears in the figures (`bypass`, `econ-col`, …).
    fn name(&self) -> &'static str;

    /// Serves one query arriving at `now`.
    fn process_query(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        now: SimTime,
    ) -> PolicyOutcome;

    /// Quotes the price this cloud would charge for `query` at `now`,
    /// without serving it or mutating any state.
    ///
    /// For the economic schemes this is the paper's `B_Q(t)` settlement of
    /// the case analysis; for bypass it is the cost-recovery charge of the
    /// execution the cache would run. Fleet routers compare quotes across
    /// competing clouds (cheapest-bid routing); a quote is a bid, not a
    /// contract — the realized charge can differ if serving the query
    /// first triggers evictions or investments.
    fn quote(&self, ctx: &PlannerContext<'_>, query: &Query, now: SimTime) -> Money;

    /// [`Self::quote`] given the quote round's shared, lazily-built
    /// plan skeleton for `query` — fleet rounds create one
    /// [`LazySkeleton`] and pass it to every bidding node, so the
    /// cache-independent half of planning is computed at most once per
    /// round (and not at all when every node's plan cache hits).
    ///
    /// Must return exactly what [`Self::quote`] would (the skeleton is a
    /// pure function of `(ctx, query)`); the default implementation
    /// ignores the skeleton and delegates, which is always correct.
    /// Policies whose planning factors through the skeleton (the economic
    /// schemes) override this to skip the redundant enumeration.
    fn quote_with_skeleton(
        &self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        skeleton: &LazySkeleton<'_>,
        now: SimTime,
    ) -> Money {
        let _ = skeleton;
        self.quote(ctx, query, now)
    }

    /// The economy manager backing this policy's quotes, when its
    /// planning factors through batched structure-major completion
    /// (`econ::QuoteBatch`). A fleet quote round batches the per-node
    /// completion sweeps of every node that returns `Some`; nodes
    /// returning `None` (the default) are quoted individually through
    /// [`Self::quote_with_skeleton`]. Either path must produce identical
    /// bids. The router also memoizes a winning economic node's plan
    /// set through this manager, since fleet bids do not write the memo.
    fn economy(&self) -> Option<&econ::EconomyManager> {
        None
    }

    /// Mutable access to the same economy manager [`Self::economy`]
    /// exposes — the capital-preserving evacuation path settles structure
    /// transfers (release on the victim, priced receive on the survivor)
    /// directly against the manager. `None` exactly when
    /// [`Self::economy`] is `None`.
    fn economy_mut(&mut self) -> Option<&mut econ::EconomyManager> {
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

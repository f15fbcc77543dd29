//! The plan memo — a one-slot quote→serve handoff.
//!
//! The economy's control loop plans (`P_Q`, skyline, case analysis)
//! **every** arriving query, and a fleet's cheapest-quote routing plans
//! it once more per bidding node. Of all that planning, one plan set is
//! known to be read again: the round winner's, by the serve that
//! follows. The memo keeps exactly that set, in one slot per
//! [`EconomyManager`].
//!
//! * **Commits write the slot.** The round winner's commit
//!   ([`EconomyManager::commit_quote`] by fused enumeration, or
//!   [`QuoteBatch::commit`] from the round's gathered lanes) writes its
//!   plan set into the slot, replacing any earlier handoff.
//! * **Serves take the slot.** [`EconomyManager::process_query`] empties
//!   the slot on every serve. A handoff planned for a query with the
//!   same planning fingerprint serves the query; anything else (an empty
//!   slot, or another query's set left behind when a timeout or retry
//!   re-routed the query elsewhere) plans fresh into the manager's
//!   scratch rows and stores nothing. An empty slot costs the serve no
//!   fingerprint and no epoch read.
//! * **Bids never touch it.** [`EconomyManager::quote_query`] and a
//!   batched round's [`QuoteBatch::quote_round`] plan every bid fresh
//!   and move no counter.
//!
//! [`EconomyManager`]: crate::EconomyManager
//! [`EconomyManager::quote_query`]: crate::EconomyManager::quote_query
//! [`EconomyManager::commit_quote`]: crate::EconomyManager::commit_quote
//! [`EconomyManager::process_query`]: crate::EconomyManager::process_query
//! [`QuoteBatch::quote_round`]: crate::QuoteBatch::quote_round
//! [`QuoteBatch::commit`]: crate::QuoteBatch::commit
//!
//! The match key is the query's full planning fingerprint
//! ([`planner::planning_fingerprint`]), compared word for word. It
//! covers exactly the fields enumeration reads, so the retry path's
//! decayed query (same instance, lower `budget_scale`) still matches:
//! the budget is formed from the plan rows at selection time, not stored
//! in them. The slot holds [`planner::PlanRows`] exactly as fused
//! enumeration or a batched emission wrote them, plus the cache planning
//! epoch ([`cache::CacheState::epoch`]), settlement counter, options and
//! instant they were priced under. Between a commit and its serve the
//! serve's own bookkeeping runs: it may fail structures (moving the
//! epoch), and it updates the observed arrival rate behind the
//! amortisation horizon and the maintenance window. So a matching
//! handoff is
//!
//! * **served** when its epoch and plan-family switches still hold,
//!   after re-quoting amortisation and maintenance through
//!   [`PlanRows::requote`] if the clock, the settlements or the
//!   rate-derived options moved (exact `Money` sums keep it bit-identical
//!   to fresh enumeration); or
//! * **re-planned** by fused enumeration when the epoch or a switch
//!   moved.
//!
//! [`PlanCacheStats`] counts serves only: `hits` (served from the slot),
//! `refreshes` (hits that re-quoted), `completions` (matching but
//! re-planned) and `misses` (planned fresh). With memoization off nothing
//! is counted.
//!
//! The contract — enforced by `tests/memoization.rs`,
//! `tests/batch_completion.rs` and the fleet routing tests — is that
//! memoized results are **bit-identical** to fresh enumeration: same
//! plans, same order, same prices, and therefore the same selections,
//! payments, regrets and investments. Determinism and shard-invariance
//! of the fleet depend on it.

use cache::{CacheState, CachedStructure};
use planner::enumerate::EnumerationOptions;
use planner::PlanRows;
use pricing::Money;
use simcore::{SimDuration, SimTime};
use workload::Query;

/// Serve-side counters of the plan memo (exposed through the policies
/// layer, the fleet's flight recorder and the `hotpath` bench). Bids and
/// commits count nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Serves that ran from a current handoff.
    pub hits: u64,
    /// Serves that found no handoff for their query and planned fresh.
    pub misses: u64,
    /// Hits that re-quoted maintenance and amortisation first (the
    /// clock, the settlement counter or the arrival-rate-derived options
    /// had moved since the commit).
    pub refreshes: u64,
    /// Serves whose handoff matched but was stale (the cache epoch or a
    /// plan-family switch moved since the commit): the query was
    /// re-planned by fused enumeration without a miss.
    pub completions: u64,
    /// Always 0; kept only because the repository benchmark reads it.
    pub victim_hits: u64,
}

/// The one-slot quote→serve handoff (see the [module docs](self)).
#[derive(Debug, Default)]
pub(crate) struct Handoff {
    /// How the committed plan set was priced; `None` when the slot is
    /// empty. A serve clears it, and the buffers below keep their storage
    /// for the next commit.
    priced: Option<Priced>,
    /// Planning fingerprint of the committed query.
    fingerprint: Vec<u64>,
    /// The serve's fingerprint scratch.
    probe: Vec<u64>,
    /// The plan set in row form, in enumeration order (backend first).
    /// Its missing-build quotes are epoch-stable, so a re-quote can
    /// re-derive the first-installment amortisation from them under the
    /// current horizon.
    rows: PlanRows,
    stats: PlanCacheStats,
}

/// The state a committed plan set was priced under.
#[derive(Debug, Clone, Copy)]
struct Priced {
    /// Cache planning epoch the plan set was produced under.
    epoch: u64,
    /// Settlement counter at pricing.
    settle_seq: u64,
    /// Enumeration options the plans were priced under (the structural
    /// switches gate plan-set validity; the horizon and window scale
    /// prices only).
    opts: EnumerationOptions,
    /// Instant of pricing.
    now: SimTime,
}

impl Handoff {
    /// Counters so far.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Starts a commit priced under `(epoch, settle_seq, opts, now)`,
    /// replacing any earlier handoff. The caller writes the committed
    /// query's planning fingerprint and plan rows into the returned
    /// buffers.
    pub fn write(
        &mut self,
        epoch: u64,
        settle_seq: u64,
        opts: EnumerationOptions,
        now: SimTime,
    ) -> (&mut Vec<u64>, &mut PlanRows) {
        self.priced = Some(Priced {
            epoch,
            settle_seq,
            opts,
            now,
        });
        (&mut self.fingerprint, &mut self.rows)
    }

    /// Takes the slot for a serve of `query` at `now` under `opts`, and
    /// counts the outcome. Returns the rows to serve from when the slot
    /// held a plan set committed for `query`'s planning fingerprint whose
    /// epoch and plan-family switches still hold, re-quoting its
    /// amortisation and maintenance first ([`PlanRows::requote`], with
    /// `price` quoting maintenance over a span) if the clock, the
    /// settlements or the rate-derived options moved. `None` means plan
    /// fresh: a completion if the set matched but was stale, else a
    /// miss. The slot is empty afterwards either way.
    pub fn take<F>(
        &mut self,
        query: &Query,
        cache: &CacheState,
        now: SimTime,
        opts: EnumerationOptions,
        price: F,
    ) -> Option<&PlanRows>
    where
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let Some(priced) = self.priced.take().filter(|_| {
            planner::planning_fingerprint(query, &mut self.probe);
            self.probe == self.fingerprint
        }) else {
            self.stats.misses += 1;
            return None;
        };
        // The horizon and window only scale prices, which a re-quote
        // re-derives; the epoch and the switches fix the plan set.
        let plan_set_current = priced.epoch == cache.epoch(now)
            && priced.opts.allow_indexes == opts.allow_indexes
            && priced.opts.allow_extra_nodes == opts.allow_extra_nodes;
        if !plan_set_current {
            self.stats.completions += 1;
            return None;
        }
        let prices_current = priced.now == now
            && priced.settle_seq == cache.settle_seq()
            && priced.opts.amortize_n == opts.amortize_n
            && priced.opts.maint_window == opts.maint_window;
        if !prices_current {
            self.rows.requote(cache, now, opts, price);
            self.stats.refreshes += 1;
        }
        self.stats.hits += 1;
        Some(&self.rows)
    }
}

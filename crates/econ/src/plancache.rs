//! Memoized planning — the per-template plan cache.
//!
//! The economy's control loop plans (`P_Q`, skyline, case analysis)
//! **every** arriving query, and a fleet's cheapest-quote routing plans
//! it once more per bidding node. The memo keeps a plan set only on
//! evidence that it will be read again, and a quote is that evidence:
//! the query it prices is about to be served.
//!
//! * **Commits fill slots.** A bid only reads the memo
//!   ([`EconomyManager::quote_query`], or a batched round's
//!   [`QuoteBatch::quote_round`]); the bidder that wins memoizes its
//!   plan set ([`EconomyManager::commit_quote`], [`QuoteBatch::commit`]).
//!   The serve that follows reads that slot.
//! * **Serves only look up.** [`EconomyManager::process_query`] serves a
//!   matching slot (refreshing or re-planning it as below), but a miss
//!   plans into the manager's scratch rows and installs nothing.
//!   Generated queries carry continuous selectivities, so a served
//!   fingerprint practically never returns: the three perfbench workloads
//!   take 0 hits in 692k serve lookups. Admitting such one-hit wonders
//!   would only cycle plan rows through the sets and the victim cache
//!   (the admission argument of TinyLFU, Einziger, Friedman & Manes, ACM
//!   ToS 2017).
//!
//! [`EconomyManager::quote_query`]: crate::EconomyManager::quote_query
//! [`EconomyManager::commit_quote`]: crate::EconomyManager::commit_quote
//! [`EconomyManager::process_query`]: crate::EconomyManager::process_query
//! [`QuoteBatch::quote_round`]: crate::QuoteBatch::quote_round
//! [`QuoteBatch::commit`]: crate::QuoteBatch::commit
//!
//! A slot memoizes one plan set under the query's planning fingerprint,
//! stored as [`planner::PlanRows`] — the compact row form both planners
//! emit, with hot `(time, price, existing)` rows, per-row scalars and
//! per-variant shared lists — exactly as fused enumeration or a batched
//! commit wrote it: installing a slot swaps the manager's scratch rows
//! in and hands the displaced slot's rows back for reuse, so the memo
//! never copies a plan set and selection runs straight on the stored
//! rows. The set is valid while the cache planning epoch
//! ([`cache::CacheState::epoch`]) stands still. A lookup whose
//! fingerprint matches but whose epoch moved re-plans the query by fused
//! enumeration and replaces the slot's rows in place, without a miss
//! (counted in [`PlanCacheStats::completions`]). Components that drift
//! with state the epoch does not cover are *recomputed* on every reuse
//! rather than trusted:
//!
//! * **maintenance** accrues continuously with the clock and is capped
//!   at the arrival-rate-derived window, so a hit re-quotes maintenance
//!   once per variant and once per extra-node ordinal (dense slot
//!   lookups — far cheaper than enumeration);
//! * **amortisation dues** of existing structures shrink as installments
//!   are collected; the settlement counter
//!   ([`cache::CacheState::settle_seq`]) tells the cache when dues moved;
//! * **first installments** of missing structures depend on the adaptive
//!   horizon `n`, which moves with the observed arrival rate — the slot
//!   stores each plan's epoch-stable missing-build quotes and re-divides
//!   them under the current horizon, so the memo keeps firing under
//!   Poisson and fleet arrivals where the rate changes every query.
//!
//! Slots are **2-way set-associative** per template: two live instances
//! of one template (the prepared-statement regime with two distinct
//! parameterisations in flight) no longer evict each other — the thrash
//! case pinned in `tests/memoization.rs`. Replacement within a set is
//! least-recently-used. Only commits reach the sets and the victim cache
//! below.
//!
//! Templates that keep *more* than two parameterisations live thrash
//! even a 2-way set. Rather than widening every set for the worst
//! template, a small **fully-associative victim cache** backs all sets
//! adaptively: a displaced slot is admitted only once its template has
//! accumulated more way-conflict evictions than the set has ways
//! (persistent-thrash evidence, not a one-off collision), and a lookup
//! that misses its set probes the victims before declaring a miss — a
//! victim hit swaps the slot back into the set (displacing that set's
//! LRU way into the victim cache) and counts in
//! [`PlanCacheStats::victim_hits`]. The associativity a template
//! *effectively* gets therefore grows with its observed live-instance
//! count, bounded by the victim cache's eight slots shared across all
//! templates.
//!
//! The contract — enforced by `tests/memoization.rs`,
//! `tests/batch_completion.rs` and the fleet routing tests — is that
//! memoized results are **bit-identical** to fresh enumeration: same
//! plans, same order, same prices, and therefore the same selections,
//! payments, regrets and investments. Determinism and shard-invariance
//! of the fleet depend on it.

use cache::CacheState;
use planner::enumerate::EnumerationOptions;
use planner::PlanRows;
use pricing::Money;
use simcore::SimTime;
use workload::Query;

/// Associativity of each template set: two live instances of one
/// template can be memoized side by side.
pub(crate) const PLAN_CACHE_WAYS: usize = 2;

/// Capacity of the fully-associative victim cache shared by all
/// template sets (see the module docs): enough for a handful of
/// persistently thrashing templates to keep their 3rd..nth live
/// parameterisations memoized, small enough that the miss-path probe
/// stays a short linear scan.
pub(crate) const VICTIM_CACHE_SLOTS: usize = 8;

/// One memoized template slot: a query instance's latest plan set.
///
/// The match key is the full query fingerprint alone. The plan set
/// records the epoch and structural switches it was planned under, and
/// is re-planned in place when either moved. The arrival-rate-derived
/// options —
/// amortisation horizon and maintenance window — move with the observed
/// arrival statistics on almost every query under non-uniform arrivals,
/// so keying on them would make the memo inert exactly where it matters
/// (Poisson tenants, fleet quote rounds). Instead the price components
/// they parameterise are re-derived on reuse from the stored
/// epoch-stable build quotes and the live ledger.
#[derive(Debug)]
pub(crate) struct Slot {
    /// Full planning fingerprint of the query instance (collision-proof:
    /// compared in full, not hashed).
    pub fingerprint: Vec<u64>,
    /// Cache planning epoch the plan set was produced under.
    pub epoch: u64,
    /// Settlement counter at the last price refresh.
    pub settle_seq: u64,
    /// Enumeration options the plans were last *priced* under (the
    /// structural switches within gate plan-set validity; the horizon
    /// and window record what the current prices reflect).
    pub opts: EnumerationOptions,
    /// Instant of the last price refresh.
    pub now: SimTime,
    /// The plan set in row form, in enumeration order
    /// (backend first). Its missing-build quotes are epoch-stable;
    /// refreshes re-derive the first-installment amortisation from them
    /// under the current horizon.
    pub rows: PlanRows,
    /// LRU stamp for way replacement within the template set.
    pub stamp: u64,
}

/// Hit/miss counters (exposed through the policies layer and the
/// `hotpath` bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from a current memoized plan set.
    pub hits: u64,
    /// Lookups that had to enumerate (fresh fingerprint).
    pub misses: u64,
    /// Hits that needed a maintenance/amortisation price refresh (the
    /// clock or the settlement counter had moved).
    pub refreshes: u64,
    /// Lookups that matched a slot whose plan set was stale (the cache
    /// epoch or a plan-family switch moved): the query was re-planned by
    /// fused enumeration without a miss, and the serve or the winning
    /// bid's commit replaced the slot's rows in place.
    pub completions: u64,
    /// Installs that displaced a *live* way — both ways of the template's
    /// set were occupied, so a memoized instance was evicted to make
    /// room. A workload with persistent conflicts has more live
    /// instances per template than a set has ways (two); once a template's
    /// conflict count exceeds the set's way count, its displaced slots
    /// are admitted to the victim cache (see the [module
    /// docs](crate::plancache)).
    pub conflicts: u64,
    /// Set-miss lookups rescued by the victim cache: the fingerprint was
    /// displaced from its set but still memoized, and was swapped back
    /// in. Each one is a miss avoided that a plain 2-way cache would
    /// have paid.
    pub victim_hits: u64,
}

/// Per-manager memoized plan sets: a 2-way set of slots per template,
/// backed by a small fully-associative victim cache for persistently
/// thrashing templates.
#[derive(Debug, Default)]
pub struct PlanCache {
    sets: Vec<[Option<Slot>; PLAN_CACHE_WAYS]>,
    /// Fully-associative victim cache, keyed `(template, fingerprint)`.
    /// At most [`VICTIM_CACHE_SLOTS`] entries; eviction is LRU by stamp.
    victims: Vec<(usize, Slot)>,
    stats: PlanCacheStats,
    /// Way-conflict evictions per template (index = template id), the
    /// per-set admission evidence for the victim cache.
    template_conflicts: Vec<u64>,
    fingerprint_scratch: Vec<u64>,
    tick: u64,
}

impl PlanCache {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Builds the planning fingerprint of `query` into the internal
    /// scratch — [`planner::planning_fingerprint`], which covers exactly
    /// the fields enumeration reads (`budget_scale`, `id` and `region`
    /// are deliberately excluded) and also keys the fleet-wide
    /// [`planner::SkeletonCache`].
    pub(crate) fn prepare_fingerprint(&mut self, query: &Query) {
        planner::planning_fingerprint(query, &mut self.fingerprint_scratch);
    }

    /// Adopts an already-derived planning fingerprint into the scratch —
    /// the batched quote round derives the word vector once per round
    /// (it is a pure function of the query) and every classified node
    /// copies it instead of re-walking the query.
    pub(crate) fn adopt_fingerprint(&mut self, fingerprint: &[u64]) {
        self.fingerprint_scratch.clear();
        self.fingerprint_scratch.extend_from_slice(fingerprint);
    }

    /// The memoized slot for `template` whose fingerprint matches the
    /// prepared scratch, refreshing its LRU stamp. A set miss probes the
    /// victim cache; a victim hit swaps the slot back into the set (the
    /// displaced live way, if any, takes the victim's place). The caller
    /// decides whether the slot's plan set is still valid (epoch +
    /// structural switches).
    pub(crate) fn matching_slot(&mut self, template: usize) -> Option<&mut Slot> {
        let fp = &self.fingerprint_scratch;
        let set = self.sets.get_mut(template)?;
        let way =
            (0..PLAN_CACHE_WAYS).find(|&w| set[w].as_ref().is_some_and(|s| s.fingerprint == *fp));
        let way = match way {
            Some(w) => w,
            None => {
                let v = self
                    .victims
                    .iter()
                    .position(|(t, s)| *t == template && s.fingerprint == *fp)?;
                let (_, slot) = self.victims.swap_remove(v);
                self.stats.victim_hits += 1;
                // Promote into an empty way if one exists, else swap with
                // the LRU way — the victim cache holds the displaced
                // instance so neither memoization is lost.
                let w = (0..PLAN_CACHE_WAYS)
                    .find(|&w| set[w].is_none())
                    .unwrap_or_else(|| {
                        (0..PLAN_CACHE_WAYS)
                            .min_by_key(|&w| set[w].as_ref().map_or(0, |s| s.stamp))
                            .expect("set has at least one way")
                    });
                if let Some(evicted) = set[w].replace(slot) {
                    self.victims.push((template, evicted));
                }
                w
            }
        };
        self.tick += 1;
        let slot = self.sets[template][way].as_mut().expect("way just matched");
        slot.stamp = self.tick;
        Some(slot)
    }

    /// Re-finds the slot a previous [`Self::matching_slot`] call already
    /// matched under the still-prepared fingerprint, *without* touching
    /// the LRU tick. A fleet bid looks its slot up during the quote round
    /// and the round winner's commit writes it afterwards; bumping the
    /// stamp twice per lookup would diverge from a memoizing quote's
    /// replacement order. No victim probe here: the bid's lookup already
    /// promoted any victim hit into the set.
    pub(crate) fn rematch_slot(&mut self, template: usize) -> Option<&mut Slot> {
        let fp = &self.fingerprint_scratch;
        let set = self.sets.get_mut(template)?;
        set.iter_mut().flatten().find(|s| s.fingerprint == *fp)
    }

    /// Memoizes a fresh plan set for `template` under the prepared
    /// fingerprint, evicting the set's LRU way if both ways are
    /// live. The slot takes `rows` by swap; `rows` receives the displaced
    /// slot's storage for reuse (empty rows if nothing was displaced).
    /// A displaced slot whose template has shown *persistent* thrash —
    /// more way-conflict evictions than the set has ways — is admitted
    /// whole into the victim cache (evicting the victim LRU if full)
    /// instead of being dismantled; the admission bar keeps one-off
    /// collisions from churning the victims.
    pub(crate) fn install_slot(
        &mut self,
        template: usize,
        epoch: u64,
        settle_seq: u64,
        opts: EnumerationOptions,
        now: SimTime,
        rows: &mut PlanRows,
    ) {
        if template >= self.sets.len() {
            self.sets.resize_with(template + 1, Default::default);
        }
        let set = &mut self.sets[template];
        // An empty way if one exists, otherwise the LRU way.
        let way = (0..PLAN_CACHE_WAYS)
            .find(|&w| set[w].is_none())
            .unwrap_or_else(|| {
                (0..PLAN_CACHE_WAYS)
                    .min_by_key(|&w| set[w].as_ref().map_or(0, |s| s.stamp))
                    .expect("set has at least one way")
            });
        let recycled = match set[way].take() {
            Some(old) => {
                self.stats.conflicts += 1;
                if template >= self.template_conflicts.len() {
                    self.template_conflicts.resize(template + 1, 0);
                }
                self.template_conflicts[template] += 1;
                if self.template_conflicts[template] > PLAN_CACHE_WAYS as u64 {
                    // Persistent thrash: keep the displaced slot whole.
                    // When that overflows the victim pool, the evicted
                    // LRU victim is dismantled for parts — so the
                    // steady-state install still recycles one slot's
                    // storage instead of churning the allocator on
                    // every displacement.
                    let evicted = (self.victims.len() >= VICTIM_CACHE_SLOTS).then(|| {
                        let lru = self
                            .victims
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (_, s))| s.stamp)
                            .map(|(i, _)| i)
                            .expect("victim cache is non-empty when full");
                        self.victims.swap_remove(lru).1
                    });
                    self.victims.push((template, old));
                    evicted
                } else {
                    Some(old)
                }
            }
            None => None,
        };
        let (mut fingerprint, displaced_rows) = match recycled {
            Some(slot) => (slot.fingerprint, slot.rows),
            None => (Vec::new(), PlanRows::new()),
        };
        fingerprint.clear();
        fingerprint.extend_from_slice(&self.fingerprint_scratch);
        self.tick += 1;
        set[way] = Some(Slot {
            fingerprint,
            epoch,
            settle_seq,
            opts,
            now,
            rows: std::mem::replace(rows, displaced_rows),
            stamp: self.tick,
        });
    }

    /// Records a hit (optionally after a refresh).
    pub(crate) fn count_hit(&mut self, refreshed: bool) {
        self.stats.hits += 1;
        if refreshed {
            self.stats.refreshes += 1;
        }
    }

    /// Records a stale slot re-planned in place.
    pub(crate) fn count_completion(&mut self) {
        self.stats.completions += 1;
    }

    /// Records a full miss (no slot matched).
    pub(crate) fn count_miss(&mut self) {
        self.stats.misses += 1;
    }
}

impl Slot {
    /// True if the memoized plan set is still structurally valid: the
    /// cache epoch has not moved and the plan-family switches match. The
    /// horizon/window halves of `opts` are *not* compared — they only
    /// scale prices, which [`Self::refresh_prices`] re-derives.
    pub fn completion_current(&self, epoch: u64, opts: &EnumerationOptions) -> bool {
        self.epoch == epoch
            && self.opts.allow_indexes == opts.allow_indexes
            && self.opts.allow_extra_nodes == opts.allow_extra_nodes
    }

    /// True if the prices quoted at the last refresh are still exact: the
    /// clock has not moved (maintenance spans unchanged), no settlement
    /// has collected installments or moved checkpoints since, and the
    /// arrival-rate-derived options are unchanged.
    pub fn prices_current(
        &self,
        cache: &CacheState,
        now: SimTime,
        opts: &EnumerationOptions,
    ) -> bool {
        self.now == now
            && self.settle_seq == cache.settle_seq()
            && self.opts.amortize_n == opts.amortize_n
            && self.opts.maint_window == opts.maint_window
    }

    /// Replaces the slot's plan set after a re-plan: the slot takes
    /// `rows` by swap, and `rows` receives the displaced set's storage
    /// for reuse.
    pub fn replace_completion(
        &mut self,
        epoch: u64,
        settle_seq: u64,
        opts: EnumerationOptions,
        now: SimTime,
        rows: &mut PlanRows,
    ) {
        self.epoch = epoch;
        self.settle_seq = settle_seq;
        self.opts = opts;
        self.now = now;
        std::mem::swap(&mut self.rows, rows);
    }

    /// Re-quotes every plan's amortisation (first installments of missing
    /// structures under the current horizon, live dues of existing ones)
    /// and maintenance (live checkpoints capped at the current window)
    /// at `now`, once per variant and once per extra-node ordinal
    /// ([`PlanRows::requote`]). Exact `Money` sums make the refreshed
    /// prices bit-identical to fresh enumeration under the same epoch.
    pub fn refresh_prices<F>(
        &mut self,
        cache: &CacheState,
        now: SimTime,
        opts: EnumerationOptions,
        price: F,
    ) where
        F: Fn(&cache::CachedStructure, simcore::SimDuration) -> Money,
    {
        debug_assert!(opts.amortize_n > 0, "amortization horizon must be positive");
        self.rows.requote(cache, now, opts, price);
        self.now = now;
        self.settle_seq = cache.settle_seq();
        self.opts = opts;
    }
}

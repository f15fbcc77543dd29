//! Memoized planning — the per-template plan cache.
//!
//! The economy's control loop runs full plan enumeration (`P_Q`, skyline,
//! case analysis) for **every** arriving query, and the fleet layer
//! multiplies that by the node count because cheapest-quote routing plans
//! the query once per bidding node. Most of that work is redundant: the
//! seven paper templates arrive Zipf-skewed, and the enumerated plan set
//! for a given query instance factors into
//!
//! * a **skeleton** ([`planner::PlanSkeleton`]) — the cache-independent
//!   half (backend estimate, candidate-index choice, per-variant
//!   execution volumes, build-cost shapes), a pure function of the
//!   query's planning fingerprint; and
//! * a **completion** — the cheap per-node phase binding the skeleton to
//!   the live cache state, valid while the cache planning epoch
//!   ([`cache::CacheState::epoch`]) stands still.
//!
//! A [`Slot`] memoizes both halves under the fingerprint. A lookup whose
//! fingerprint matches but whose epoch moved no longer re-enumerates: it
//! re-runs only the completion phase from the memoized skeleton (counted
//! in [`PlanCacheStats::completions`]). Components that drift with state
//! the epoch does not cover are *recomputed* on every reuse rather than
//! trusted:
//!
//! * **maintenance** accrues continuously with the clock and is capped
//!   at the arrival-rate-derived window, so a hit recomputes each plan's
//!   maintenance quote (O(uses) map lookups — far cheaper than
//!   enumeration);
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
//! least-recently-used.
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
//! count, bounded by [`VICTIM_CACHE_SLOTS`] shared across all templates.
//!
//! The contract — enforced by `tests/memoization.rs`,
//! `tests/skeleton_split.rs` and the fleet routing tests — is that
//! memoized results are **bit-identical** to fresh enumeration: same
//! plans, same order, same prices, and therefore the same selections,
//! payments, regrets and investments. Determinism and shard-invariance
//! of the fleet depend on it.

use std::sync::Arc;

use cache::CacheState;
use planner::enumerate::EnumerationOptions;
use planner::{PlanSkeleton, QueryPlan};
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

/// One memoized template slot: the skeleton plus its latest completion.
///
/// The match key is the full query fingerprint alone. The skeleton is a
/// superset (built with every plan family enabled), so it is valid for
/// any structural switches; the completion additionally records the
/// epoch and switches it was produced under, and is re-run from the
/// skeleton when either moved. The arrival-rate-derived options —
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
    /// The cache-independent skeleton: adopted from the quote round's
    /// shared skeleton when a won bid committed the slot, and otherwise
    /// built lazily by the first epoch-stale lookup that needs to
    /// re-complete — a drifting workload whose fingerprints never repeat
    /// should not pay for skeletons it will never reuse.
    pub skeleton: Option<Arc<PlanSkeleton>>,
    /// Cache planning epoch the completion was produced under.
    pub epoch: u64,
    /// Settlement counter at the last price refresh.
    pub settle_seq: u64,
    /// Enumeration options the plans were last *priced* under (the
    /// structural switches within gate completion validity; the horizon
    /// and window record what the current prices reflect).
    pub opts: EnumerationOptions,
    /// Instant of the last price refresh.
    pub now: SimTime,
    /// The completed plan set, in enumeration order (backend first).
    pub plans: Vec<QueryPlan>,
    /// Per-plan build quotes of the *missing* structures, parallel to
    /// each plan's `missing` list. Epoch-stable; refreshes re-derive the
    /// first-installment amortisation from them under the current
    /// horizon.
    pub missing_builds: Vec<Vec<Money>>,
    /// LRU stamp for way replacement within the template set.
    pub stamp: u64,
}

/// Hit/miss counters (exposed through the policies layer and the
/// `hotpath` bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from a memoized completed plan set.
    pub hits: u64,
    /// Lookups that had to enumerate (fresh fingerprint).
    pub misses: u64,
    /// Hits that needed a maintenance/amortisation price refresh (the
    /// clock or the settlement counter had moved).
    pub refreshes: u64,
    /// Lookups whose skeleton was memoized but whose completion was stale
    /// (the cache epoch moved): only the cheap per-node completion phase
    /// re-ran.
    pub completions: u64,
    /// Installs that displaced a *live* way — both ways of the template's
    /// set were occupied, so a memoized instance was evicted to make
    /// room. A workload with persistent conflicts has more than
    /// [`PLAN_CACHE_WAYS`] live instances per template; once a template's
    /// conflict count exceeds the set's way count, its displaced slots
    /// are admitted to the victim cache ([`PlanCache::way_conflicts`]
    /// breaks the signal down per template).
    pub conflicts: u64,
    /// Set-miss lookups rescued by the victim cache: the fingerprint was
    /// displaced from its set but still memoized, and was swapped back
    /// in. Each one is a full enumeration (or at least a completion
    /// re-run) avoided that a plain 2-way cache would have paid.
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

    /// Way-conflict evictions per template (indexed by template id; a
    /// template beyond the slice's end has seen none). Input signal for
    /// the seeded adaptive-associativity work: a persistently conflicting
    /// template has more live instances than its set has ways.
    #[must_use]
    pub fn way_conflicts(&self) -> &[u64] {
        &self.template_conflicts
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
    /// decides whether the slot's *completion* is still valid (epoch +
    /// structural switches) — the skeleton always is.
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

    /// Memoizes a fresh skeleton + completion for `template` under the
    /// prepared fingerprint, evicting the set's LRU way if both ways are
    /// live. A displaced slot whose template has shown *persistent*
    /// thrash — more way-conflict evictions than the set has ways — is
    /// admitted whole into the victim cache (evicting the victim LRU if
    /// full) instead of being dismantled; the admission bar keeps one-off
    /// collisions from churning the victims. Returns the displaced
    /// slot's plans (if any, and not admitted) so the caller can recycle
    /// their allocations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install_slot(
        &mut self,
        template: usize,
        skeleton: Option<Arc<PlanSkeleton>>,
        epoch: u64,
        settle_seq: u64,
        opts: EnumerationOptions,
        now: SimTime,
        plans: Vec<QueryPlan>,
        missing_builds: Vec<Vec<Money>>,
    ) -> Option<(Vec<QueryPlan>, Vec<Vec<Money>>)> {
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
        let (mut fingerprint, displaced) = match set[way].take() {
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
                    // allocations instead of churning the allocator on
                    // every displacement.
                    let recycled = if self.victims.len() >= VICTIM_CACHE_SLOTS {
                        let lru = self
                            .victims
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, (_, s))| s.stamp)
                            .map(|(i, _)| i)
                            .expect("victim cache is non-empty when full");
                        let (_, evicted) = self.victims.swap_remove(lru);
                        (
                            evicted.fingerprint,
                            Some((evicted.plans, evicted.missing_builds)),
                        )
                    } else {
                        (Vec::new(), None)
                    };
                    self.victims.push((template, old));
                    recycled
                } else {
                    (old.fingerprint, Some((old.plans, old.missing_builds)))
                }
            }
            None => (Vec::new(), None),
        };
        fingerprint.clear();
        fingerprint.extend_from_slice(&self.fingerprint_scratch);
        self.tick += 1;
        set[way] = Some(Slot {
            fingerprint,
            skeleton,
            epoch,
            settle_seq,
            opts,
            now,
            plans,
            missing_builds,
            stamp: self.tick,
        });
        displaced
    }

    /// Records a hit (optionally after a refresh).
    pub(crate) fn count_hit(&mut self, refreshed: bool) {
        self.stats.hits += 1;
        if refreshed {
            self.stats.refreshes += 1;
        }
    }

    /// Records a completion re-run (skeleton hit, stale completion).
    pub(crate) fn count_completion(&mut self) {
        self.stats.completions += 1;
    }

    /// Records a full miss (skeleton built from scratch).
    pub(crate) fn count_miss(&mut self) {
        self.stats.misses += 1;
    }
}

impl Slot {
    /// True if the memoized completion is still structurally valid: the
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

    /// Replaces the slot's completion after a re-run from the skeleton,
    /// returning the displaced plan set for recycling.
    pub fn replace_completion(
        &mut self,
        epoch: u64,
        settle_seq: u64,
        opts: EnumerationOptions,
        now: SimTime,
        plans: Vec<QueryPlan>,
        missing_builds: Vec<Vec<Money>>,
    ) -> (Vec<QueryPlan>, Vec<Vec<Money>>) {
        self.epoch = epoch;
        self.settle_seq = settle_seq;
        self.opts = opts;
        self.now = now;
        (
            std::mem::replace(&mut self.plans, plans),
            std::mem::replace(&mut self.missing_builds, missing_builds),
        )
    }

    /// Re-quotes every plan's amortisation (first installments of missing
    /// structures under the current horizon, live dues of existing ones)
    /// and maintenance (live checkpoints capped at the current window)
    /// at `now`, mirroring the enumerator's quoting loops exactly (same
    /// structures, same order of rounding) so refreshed prices are
    /// bit-identical to fresh enumeration under the same epoch.
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
        for (plan, builds) in self.plans.iter_mut().zip(&self.missing_builds) {
            let mut amortized = Money::ZERO;
            for &build in builds {
                amortized += build.amortize_over(opts.amortize_n);
            }
            let mut maintenance = Money::ZERO;
            for &key in &plan.uses {
                if let Some(s) = cache.get(key) {
                    if s.is_available(now) {
                        amortized += s.amortization_due();
                        let span = now
                            .saturating_since(s.maint_paid_until)
                            .min(opts.maint_window);
                        maintenance += price(s, span);
                    }
                }
            }
            plan.amortized_cost = amortized;
            plan.maintenance_cost = maintenance;
            plan.price = plan.exec_cost + plan.amortized_cost + plan.maintenance_cost;
        }
        self.now = now;
        self.settle_seq = cache.settle_seq();
        self.opts = opts;
    }
}

//! The materialised cache state.

use pricing::Money;
use serde::Serialize;
use simcore::{SimDuration, SimTime};

use crate::occupancy::Occupancy;
use crate::structure::StructureKey;

/// Direct-mapped structure storage: slot `id` holds the structure with
/// that dense id. Column ids, candidate-index ids and node ordinals are
/// all small dense integers (bounded by the schema width, the candidate
/// registry and the fleet's node options respectively), so a plain slot
/// vector turns every planner probe — the quote round's hottest
/// operation — into one bounds-checked load instead of a hash lookup.
///
/// Iteration order is ascending id (stable across runs, unlike a
/// `RandomState` map). No `CacheState` consumer depends on iteration
/// order anyway: `failed_structures` sorts its result and the remaining
/// `iter` users are order-independent reductions.
#[derive(Debug, Clone, Default)]
struct DenseSlots {
    slots: Vec<Option<CachedStructure>>,
    live: usize,
}

impl DenseSlots {
    #[inline]
    fn get(&self, id: u32) -> Option<&CachedStructure> {
        match self.slots.get(id as usize) {
            Some(slot) => slot.as_ref(),
            None => None,
        }
    }

    #[inline]
    fn get_mut(&mut self, id: u32) -> Option<&mut CachedStructure> {
        match self.slots.get_mut(id as usize) {
            Some(slot) => slot.as_mut(),
            None => None,
        }
    }

    #[inline]
    fn contains(&self, id: u32) -> bool {
        self.get(id).is_some()
    }

    fn insert(&mut self, id: u32, s: CachedStructure) {
        let at = id as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        debug_assert!(self.slots[at].is_none(), "caller checks for duplicates");
        self.slots[at] = Some(s);
        self.live += 1;
    }

    fn remove(&mut self, id: u32) -> Option<CachedStructure> {
        let removed = self.slots.get_mut(id as usize).and_then(Option::take);
        self.live -= usize::from(removed.is_some());
        removed
    }

    fn values(&self) -> impl Iterator<Item = &CachedStructure> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }
}

/// A structure currently built in the cache, with its economic bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CachedStructure {
    /// Identity.
    pub key: StructureKey,
    /// Disk footprint (0 for CPU nodes).
    pub size_bytes: u64,
    /// When the build was *started* (investment instant).
    pub built_at: SimTime,
    /// When the structure becomes usable (build start + build duration;
    /// eq. 10's node boot time `b`, or the column-transfer/index-sort time).
    pub available_at: SimTime,
    /// Last instant a selected plan used it (LRU key).
    pub last_used: SimTime,
    /// Maintenance has been reimbursed up to this instant (footnote 3 of
    /// the paper: each selected plan pays the maintenance accrued since the
    /// previous paying plan). Starts at `available_at` — nothing can pay
    /// for a structure that is still being built.
    pub maint_paid_until: SimTime,
    /// Maintenance accrual written off because it exceeded the per-plan
    /// backlog window — the "non-usage" signal that drives structure
    /// failure (footnote 3).
    pub maint_forgiven: Money,
    /// What the cloud paid to build it.
    pub build_cost: Money,
    /// Amortisation installment charged per selected plan that uses it
    /// (`Build(S)/n`, eq. 7).
    pub per_use_charge: Money,
    /// Build cost not yet recouped through installments.
    pub unamortized: Money,
}

impl CachedStructure {
    /// True if usable at `now`.
    #[must_use]
    #[inline]
    pub fn is_available(&self, now: SimTime) -> bool {
        self.available_at <= now
    }

    /// The amortisation installment due if a plan selects this structure
    /// now: `min(per_use_charge, unamortized)` — once the build cost is
    /// fully recouped, usage is free of amortisation (the paper's "total
    /// amortization of investment cost").
    #[must_use]
    #[inline]
    pub fn amortization_due(&self) -> Money {
        self.per_use_charge.min(self.unamortized)
    }

    /// Records an installment payment.
    #[inline]
    pub fn pay_amortization(&mut self, amount: Money) {
        self.unamortized = self.unamortized.saturating_sub(amount);
    }
}

/// Everything currently built in the cloud cache.
///
/// The base CPU node (the one the coordinator always keeps) is *not* a
/// structure — it exists from t = 0 and its cost is part of baseline
/// operating expenditure. Extra nodes, columns and indexes are structures.
#[derive(Debug, Clone, Default)]
pub struct CacheState {
    columns: DenseSlots,
    indexes: DenseSlots,
    nodes: DenseSlots,
    occupancy: Occupancy,
}

impl CacheState {
    /// Empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up any structure by key.
    #[inline]
    #[must_use]
    pub fn get(&self, key: StructureKey) -> Option<&CachedStructure> {
        match key {
            StructureKey::Column(c) => self.columns.get(c.0),
            StructureKey::Index(i) => self.indexes.get(i.0),
            StructureKey::Node(n) => self.nodes.get(n),
        }
    }

    fn get_mut(&mut self, key: StructureKey) -> Option<&mut CachedStructure> {
        match key {
            StructureKey::Column(c) => self.columns.get_mut(c.0),
            StructureKey::Index(i) => self.indexes.get_mut(i.0),
            StructureKey::Node(n) => self.nodes.get_mut(n),
        }
    }

    /// True if the structure exists *and* is usable at `now`.
    #[must_use]
    pub fn is_available(&self, key: StructureKey, now: SimTime) -> bool {
        self.get(key).is_some_and(|s| s.is_available(now))
    }

    /// True if the structure exists (possibly still building).
    #[must_use]
    pub fn contains(&self, key: StructureKey) -> bool {
        self.get(key).is_some()
    }

    /// Number of *extra* CPU nodes usable at `now`.
    #[must_use]
    pub fn available_extra_nodes(&self, now: SimTime) -> u32 {
        self.nodes.values().filter(|s| s.is_available(now)).count() as u32
    }

    /// The lowest free extra-node ordinal (for booting the next node).
    ///
    /// With `n` nodes present, the lowest free ordinal is at most `n` by
    /// pigeonhole, so the probe is bounded by the node count.
    #[must_use]
    pub fn next_node_ordinal(&self) -> u32 {
        (0..=self.nodes.len() as u32)
            .find(|&n| !self.nodes.contains(n))
            .expect("pigeonhole: <= len nodes occupy [0, len]")
    }

    /// Current cache disk usage in bytes.
    #[must_use]
    pub fn disk_used(&self) -> u64 {
        self.occupancy.bytes()
    }

    /// The exact disk byte-seconds integral accrued so far.
    #[must_use]
    pub fn disk_byte_seconds(&self) -> f64 {
        self.occupancy.byte_seconds()
    }

    /// Re-bases the occupancy integral at `now`: accrues to `now`, then
    /// writes off the accumulated byte-seconds while keeping the cached
    /// structures. Crash-recovery replay calls this once after replaying
    /// a settled history, so the recovered cache pays disk rent only
    /// from the recovery instant forward (see [`crate::Occupancy::rebase`]).
    pub fn rebase_occupancy(&mut self, now: SimTime) {
        self.occupancy.rebase(now);
    }

    /// Accrues the occupancy integral up to `now`.
    pub fn advance(&mut self, now: SimTime) {
        self.occupancy.advance(now);
    }

    /// Installs a structure at `now` that becomes available after
    /// `build_time`, with build cost amortised over `amortize_n` uses.
    ///
    /// # Panics
    /// Panics if the structure already exists or `amortize_n == 0`.
    pub fn install(
        &mut self,
        key: StructureKey,
        size_bytes: u64,
        now: SimTime,
        build_time: SimDuration,
        build_cost: Money,
        amortize_n: u64,
    ) {
        assert!(!self.contains(key), "structure {key} already cached");
        assert!(amortize_n > 0, "amortization horizon must be positive");
        let s = CachedStructure {
            key,
            size_bytes,
            built_at: now,
            available_at: now + build_time,
            last_used: now,
            maint_paid_until: now + build_time,
            build_cost,
            per_use_charge: build_cost.amortize_over(amortize_n),
            unamortized: build_cost,
            maint_forgiven: Money::ZERO,
        };
        if key.occupies_disk() {
            self.occupancy.add(now, size_bytes);
        } else {
            self.occupancy.advance(now);
        }
        match key {
            StructureKey::Column(c) => {
                self.columns.insert(c.0, s);
            }
            StructureKey::Index(i) => {
                self.indexes.insert(i.0, s);
            }
            StructureKey::Node(n) => {
                self.nodes.insert(n, s);
            }
        }
    }

    /// Removes a structure (eviction / failure), freeing its disk.
    ///
    /// Returns the removed structure, or `None` if absent.
    pub fn evict(&mut self, key: StructureKey, now: SimTime) -> Option<CachedStructure> {
        let removed = match key {
            StructureKey::Column(c) => self.columns.remove(c.0),
            StructureKey::Index(i) => self.indexes.remove(i.0),
            StructureKey::Node(n) => self.nodes.remove(n),
        };
        if let Some(ref s) = removed {
            if key.occupies_disk() {
                self.occupancy.remove(now, s.size_bytes);
            } else {
                self.occupancy.advance(now);
            }
        }
        removed
    }

    /// Marks structures as used at `now` (LRU refresh).
    pub fn touch(&mut self, keys: &[StructureKey], now: SimTime) {
        for &key in keys {
            if let Some(s) = self.get_mut(key) {
                s.last_used = s.last_used.max(now);
            }
        }
    }

    /// Charges the amortisation installment on each structure and returns
    /// the total charged.
    pub fn charge_amortization(&mut self, keys: &[StructureKey]) -> Money {
        let mut total = Money::ZERO;
        for &key in keys {
            if let Some(s) = self.get_mut(key) {
                let due = s.amortization_due();
                s.pay_amortization(due);
                total += due;
            }
        }
        total
    }

    /// Settles maintenance on each structure up to `now` given a
    /// per-structure maintenance pricer; returns the total due (footnote 3).
    ///
    /// A plan pays for at most `window` of backlog; older accrual is
    /// *written off* into [`CachedStructure::maint_forgiven`] — the
    /// non-usage signal the failure policy consumes. Without the cap, the
    /// first user after a long idle (or build) period would be billed the
    /// whole backlog and no rational budget would ever adopt a freshly
    /// built structure.
    pub fn settle_maintenance<F>(
        &mut self,
        keys: &[StructureKey],
        now: SimTime,
        window: SimDuration,
        price: F,
    ) -> Money
    where
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let mut total = Money::ZERO;
        for &key in keys {
            if let Some(s) = self.get_mut(key) {
                let span = now.saturating_since(s.maint_paid_until);
                if !span.is_zero() {
                    let charged_span = span.min(window);
                    total += price(s, charged_span);
                    if span > window {
                        let forgiven =
                            price(s, SimDuration::from_secs(span.as_secs() - window.as_secs()));
                        s.maint_forgiven += forgiven;
                    }
                    s.maint_paid_until = now;
                }
            }
        }
        total
    }

    /// Settles one selected plan's usage of `keys` in a single pass per
    /// structure: refreshes the LRU stamp, charges the amortisation
    /// installment and settles maintenance up to `now` (capped at
    /// `window`, older backlog written off) — exactly equivalent to
    /// [`Self::touch`] + [`Self::charge_amortization`] +
    /// [`Self::settle_maintenance`], but with one `get_mut` per structure
    /// instead of three. The economy settles through
    /// [`Self::settle_quoted`], which collects its plan's quotes instead
    /// of pricing them again; this closure form is its reference.
    ///
    /// Returns `(amortization collected, maintenance collected)`.
    pub fn settle_usage<F>(
        &mut self,
        keys: &[StructureKey],
        now: SimTime,
        window: SimDuration,
        price: F,
    ) -> (Money, Money)
    where
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let mut amortization = Money::ZERO;
        let mut maintenance = Money::ZERO;
        for &key in keys {
            if let Some(s) = self.get_mut(key) {
                s.last_used = s.last_used.max(now);
                let due = s.amortization_due();
                s.pay_amortization(due);
                amortization += due;
                let span = now.saturating_since(s.maint_paid_until);
                if !span.is_zero() {
                    let charged_span = span.min(window);
                    maintenance += price(s, charged_span);
                    if span > window {
                        let forgiven =
                            price(s, SimDuration::from_secs(span.as_secs() - window.as_secs()));
                        s.maint_forgiven += forgiven;
                    }
                    s.maint_paid_until = now;
                }
            }
        }
        (amortization, maintenance)
    }

    /// [`Self::settle_usage`] from the plan's own maintenance quotes:
    /// each used key comes with the capped maintenance its plan quoted at
    /// `now`, `price(s, min(span, window))` over the span since it was
    /// last paid, so the settlement collects that quote and calls `price`
    /// only for the backlog written off beyond `window`.
    ///
    /// Equal to `settle_usage(keys, now, window, price)` whenever each
    /// quote was priced at the state its structure has when settled; a
    /// repeated key is settled once, as there.
    ///
    /// Returns `(amortization collected, maintenance collected)`.
    pub fn settle_quoted<I, F>(
        &mut self,
        usage: I,
        now: SimTime,
        window: SimDuration,
        price: F,
    ) -> (Money, Money)
    where
        I: IntoIterator<Item = (StructureKey, Money)>,
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let mut amortization = Money::ZERO;
        let mut maintenance = Money::ZERO;
        for (key, quote) in usage {
            if let Some(s) = self.get_mut(key) {
                s.last_used = s.last_used.max(now);
                let due = s.amortization_due();
                s.pay_amortization(due);
                amortization += due;
                let span = now.saturating_since(s.maint_paid_until);
                if !span.is_zero() {
                    maintenance += quote;
                    if span > window {
                        let forgiven =
                            price(s, SimDuration::from_secs(span.as_secs() - window.as_secs()));
                        s.maint_forgiven += forgiven;
                    }
                    s.maint_paid_until = now;
                }
            }
        }
        (amortization, maintenance)
    }

    /// All structures, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = &CachedStructure> {
        self.columns
            .values()
            .chain(self.indexes.values())
            .chain(self.nodes.values())
    }

    /// Number of structures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.len() + self.indexes.len() + self.nodes.len()
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys of structures whose unreimbursed maintenance at `now` (the
    /// written-off backlog plus the accrual since the last payment)
    /// exceeds `fail_factor ×` build cost — the paper's structure
    /// *failure* ("excessive maintenance cost of a structure due to
    /// non-usage of it in selected query plans can be the reason of
    /// structure failure").
    ///
    /// The result is sorted by key so eviction order is independent of
    /// hash-map iteration order.
    #[must_use]
    pub fn failed_structures<F>(
        &self,
        now: SimTime,
        fail_factor: f64,
        price: F,
    ) -> Vec<StructureKey>
    where
        F: Fn(&CachedStructure, SimDuration) -> Money,
    {
        let mut failed: Vec<StructureKey> = self
            .iter()
            .filter(|s| {
                let span = now.saturating_since(s.maint_paid_until);
                let unpaid = s.maint_forgiven + price(s, span);
                let threshold = s.build_cost.scale(fail_factor);
                !threshold.is_zero() && unpaid > threshold
            })
            .map(|s| s.key)
            .collect();
        failed.sort_unstable();
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::ColumnId;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn col(i: u32) -> StructureKey {
        StructureKey::Column(ColumnId(i))
    }

    #[test]
    fn install_and_availability() {
        let mut st = CacheState::new();
        st.install(col(1), 1000, t(0.0), d(10.0), Money::from_dollars(5.0), 10);
        assert!(st.contains(col(1)));
        assert!(!st.is_available(col(1), t(5.0)), "still building");
        assert!(st.is_available(col(1), t(10.0)));
        assert_eq!(st.disk_used(), 1000);
        assert_eq!(st.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_install_panics() {
        let mut st = CacheState::new();
        st.install(col(1), 10, t(0.0), d(0.0), Money::ZERO, 1);
        st.install(col(1), 10, t(0.0), d(0.0), Money::ZERO, 1);
    }

    #[test]
    fn nodes_do_not_use_disk() {
        let mut st = CacheState::new();
        st.install(
            StructureKey::Node(0),
            0,
            t(0.0),
            d(60.0),
            Money::from_cents(10),
            100,
        );
        assert_eq!(st.disk_used(), 0);
        assert_eq!(st.available_extra_nodes(t(30.0)), 0);
        assert_eq!(st.available_extra_nodes(t(60.0)), 1);
        assert_eq!(st.next_node_ordinal(), 1);
    }

    #[test]
    fn eviction_frees_disk() {
        let mut st = CacheState::new();
        st.install(col(1), 700, t(0.0), d(0.0), Money::ZERO, 1);
        st.install(col(2), 300, t(0.0), d(0.0), Money::ZERO, 1);
        let removed = st.evict(col(1), t(5.0)).unwrap();
        assert_eq!(removed.size_bytes, 700);
        assert_eq!(st.disk_used(), 300);
        assert!(st.evict(col(1), t(5.0)).is_none());
    }

    #[test]
    fn occupancy_integral_tracks_installs_and_evicts() {
        let mut st = CacheState::new();
        st.install(col(1), 100, t(0.0), d(0.0), Money::ZERO, 1);
        st.evict(col(1), t(10.0));
        st.advance(t(20.0));
        assert_eq!(st.disk_byte_seconds(), 1000.0);
    }

    #[test]
    fn amortization_installments_stop_at_build_cost() {
        let mut st = CacheState::new();
        st.install(col(1), 10, t(0.0), d(0.0), Money::from_dollars(1.0), 4);
        let uses = [col(1)];
        let mut collected = Money::ZERO;
        for _ in 0..10 {
            collected += st.charge_amortization(&uses);
        }
        assert_eq!(collected, Money::from_dollars(1.0), "never overcharges");
        assert_eq!(st.get(col(1)).unwrap().unamortized, Money::ZERO);
    }

    #[test]
    fn maintenance_settles_incrementally() {
        let mut st = CacheState::new();
        st.install(col(1), 1_000, t(0.0), d(0.0), Money::ZERO, 1);
        // Price: $1 per byte-hour.
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_hours())
        };
        let window = SimDuration::from_hours(10.0);
        let due1 = st.settle_maintenance(&[col(1)], t(3600.0), window, price);
        assert_eq!(due1, Money::from_dollars(1000.0));
        // Immediately settling again owes nothing.
        let due2 = st.settle_maintenance(&[col(1)], t(3600.0), window, price);
        assert_eq!(due2, Money::ZERO);
        let due3 = st.settle_maintenance(&[col(1)], t(7200.0), window, price);
        assert_eq!(due3, Money::from_dollars(1000.0));
    }

    #[test]
    fn touch_refreshes_last_used_monotonically() {
        let mut st = CacheState::new();
        st.install(col(1), 10, t(0.0), d(0.0), Money::ZERO, 1);
        st.touch(&[col(1)], t(50.0));
        assert_eq!(st.get(col(1)).unwrap().last_used, t(50.0));
        st.touch(&[col(1)], t(40.0)); // stale touch does not regress
        assert_eq!(st.get(col(1)).unwrap().last_used, t(50.0));
        st.touch(&[col(9)], t(60.0)); // absent key ignored
    }

    #[test]
    fn failure_detection_uses_unpaid_maintenance() {
        let mut st = CacheState::new();
        st.install(col(1), 1_000, t(0.0), d(0.0), Money::from_dollars(1.0), 10);
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_hours() * 0.001)
        };
        // After 1 hour: unpaid = $1.0; threshold at factor 0.5 = $0.5.
        let failed = st.failed_structures(t(3600.0), 0.5, price);
        assert_eq!(failed, vec![col(1)]);
        // Recently settled structures do not fail (full window: nothing
        // is forgiven).
        st.settle_maintenance(&[col(1)], t(3600.0), SimDuration::from_hours(2.0), price);
        assert!(st.failed_structures(t(3600.0), 0.5, price).is_empty());
    }

    #[test]
    fn maintenance_clock_starts_at_availability() {
        let mut st = CacheState::new();
        st.install(col(1), 100, t(0.0), d(50.0), Money::from_dollars(1.0), 10);
        assert_eq!(st.get(col(1)).unwrap().maint_paid_until, t(50.0));
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_secs())
        };
        // Settling at t=60 owes only the 10 s since availability.
        let due = st.settle_maintenance(&[col(1)], t(60.0), d(1e6), price);
        assert_eq!(due, Money::from_dollars(1000.0));
    }

    #[test]
    fn backlog_beyond_window_is_forgiven_not_charged() {
        let mut st = CacheState::new();
        st.install(col(1), 1, t(0.0), d(0.0), Money::from_dollars(1.0), 10);
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_secs())
        };
        // 100 s idle, 10 s window: charge 10, forgive 90.
        let due = st.settle_maintenance(&[col(1)], t(100.0), d(10.0), price);
        assert_eq!(due, Money::from_dollars(10.0));
        assert_eq!(
            st.get(col(1)).unwrap().maint_forgiven,
            Money::from_dollars(90.0)
        );
        // Forgiven backlog counts toward failure.
        let failed = st.failed_structures(t(100.0), 1.0, price);
        assert_eq!(failed, vec![col(1)], "write-offs exceed build cost");
    }

    #[test]
    fn settle_usage_matches_the_three_pass_equivalent() {
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_secs() * 1e-3)
        };
        let window = d(40.0);
        let build = |st: &mut CacheState| {
            st.install(col(1), 1_000, t(0.0), d(0.0), Money::from_dollars(1.0), 4);
            st.install(col(2), 500, t(0.0), d(0.0), Money::from_dollars(2.0), 4);
        };
        let keys = [col(1), col(2), col(9)]; // col(9) absent: ignored
        let now = t(100.0);

        let mut a = CacheState::new();
        build(&mut a);
        a.touch(&keys, now);
        let amort_a = a.charge_amortization(&keys);
        let maint_a = a.settle_maintenance(&keys, now, window, price);

        let mut b = CacheState::new();
        build(&mut b);
        let (amort_b, maint_b) = b.settle_usage(&keys, now, window, price);

        assert_eq!(amort_a, amort_b);
        assert_eq!(maint_a, maint_b);
        for &k in &keys[..2] {
            assert_eq!(a.get(k), b.get(k), "per-structure state must match");
        }
    }

    #[test]
    fn failed_structures_are_sorted() {
        let mut st = CacheState::new();
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_secs())
        };
        for i in (1..6).rev() {
            st.install(col(i), 100, t(0.0), d(0.0), Money::from_dollars(0.001), 1);
        }
        let failed = st.failed_structures(t(1_000.0), 1.0, price);
        assert_eq!(failed.len(), 5);
        assert!(failed.windows(2).all(|w| w[0] < w[1]), "{failed:?}");
    }

    #[test]
    fn next_node_ordinal_fills_gaps() {
        let mut st = CacheState::new();
        for n in 0..3 {
            st.install(StructureKey::Node(n), 0, t(0.0), d(0.0), Money::ZERO, 1);
        }
        assert_eq!(st.next_node_ordinal(), 3);
        st.evict(StructureKey::Node(1), t(1.0));
        assert_eq!(st.next_node_ordinal(), 1);
    }

    #[test]
    fn zero_build_cost_structures_never_fail() {
        let mut st = CacheState::new();
        st.install(col(1), 1_000, t(0.0), d(0.0), Money::ZERO, 1);
        let price = |s: &CachedStructure, span: SimDuration| {
            Money::from_dollars(s.size_bytes as f64 * span.as_secs())
        };
        assert!(st.failed_structures(t(1e6), 1.0, price).is_empty());
    }
}

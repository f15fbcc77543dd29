//! The regret ledger — the paper's `regretS` array.
//!
//! Definition 2: *"The regret for a structure S that is possible new
//! inventory of the cloud represents the accumulated value of the missed
//! chances to provide better quality query services in terms of either
//! performance or cost."*
//!
//! Section IV-C: *"Once the regret of a plan is computed, it is
//! distributed uniformly to every physical structure used by the plan"*,
//! and Section IV-B: the pool of tracked structures is *"garbage collected
//! using LRU policy"*.

use std::cell::Cell;

use cache::{IndexId, StructureKey};
use catalog::ColumnId;
use pricing::Money;
use serde::{Deserialize, Serialize};

/// How a rejected plan's regret is attributed to its structures.
///
/// The paper's wording — "distributed uniformly to every physical
/// structure used by the plan" — reads as an equal *split*; but
/// Definition 2 ("the accumulated value of the missed chances") supports
/// crediting each absent structure with the *full* missed value, since
/// every one of them was individually necessary for the plan. The split
/// reading divides the signal by the plan width and, combined with the
/// `a · CR` threshold of eq. 3, can freeze investment entirely at the
/// paper's 2.5 TB scale; [`RegretAttribution::FullValue`] is therefore the
/// default, and the ablation harness measures both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegretAttribution {
    /// Equal split: each structure receives `regret / |uses|`.
    UniformShare,
    /// Full credit: each structure receives the entire regret.
    FullValue,
}

/// One tracked structure's regret and LRU stamp.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    regret: Money,
    /// Logical touch stamp; 0 = untracked.
    stamp: u64,
}

/// Accumulated regret per candidate structure, LRU-bounded.
///
/// Storage is dense per structure kind — columns, indexes and extra
/// nodes each index a vector by their id, as [`cache::CacheState`] does —
/// with a logical LRU stamp per entry, so neither a lookup nor a touch
/// hashes. When the pool overflows, the entry with the oldest stamp
/// (stamps are unique) is forgotten along with its regret.
///
/// `max_bound` is an upper bound on every tracked regret: raised on
/// [`Self::distribute`], recomputed exactly on every full
/// [`Self::over_threshold`] scan, and left alone by resets and evictions
/// (which can only lower the true maximum). A threshold above it answers
/// without a scan.
#[derive(Debug, Clone)]
pub struct RegretLedger {
    /// Per kind (columns, indexes, extra nodes), entries indexed by id.
    slots: [Vec<Entry>; 3],
    live: usize,
    capacity: usize,
    clock: u64,
    max_bound: Cell<Money>,
}

/// Where `key` lives: its kind's slot vector and its index there.
fn slot_of(key: StructureKey) -> (usize, usize) {
    match key {
        StructureKey::Column(c) => (0, c.0 as usize),
        StructureKey::Index(i) => (1, i.0 as usize),
        StructureKey::Node(n) => (2, n as usize),
    }
}

/// The key at index `id` of kind `kind`'s slot vector.
fn key_at(kind: usize, id: u32) -> StructureKey {
    match kind {
        0 => StructureKey::Column(ColumnId(id)),
        1 => StructureKey::Index(IndexId(id)),
        _ => StructureKey::Node(id),
    }
}

impl RegretLedger {
    /// Creates a ledger tracking at most `pool_capacity` structures.
    ///
    /// # Panics
    /// Panics if `pool_capacity == 0`.
    #[must_use]
    pub fn new(pool_capacity: usize) -> Self {
        assert!(pool_capacity > 0, "regret pool capacity must be positive");
        RegretLedger {
            slots: Default::default(),
            live: 0,
            capacity: pool_capacity,
            clock: 0,
            max_bound: Cell::new(Money::ZERO),
        }
    }

    fn entry(&self, key: StructureKey) -> Option<&Entry> {
        let (kind, at) = slot_of(key);
        self.slots[kind].get(at).filter(|e| e.stamp != 0)
    }

    /// The slot for `key`, grown into existence if needed.
    fn slot_mut(&mut self, key: StructureKey) -> &mut Entry {
        let (kind, at) = slot_of(key);
        let slots = &mut self.slots[kind];
        if at >= slots.len() {
            slots.resize(at + 1, Entry::default());
        }
        &mut slots[at]
    }

    /// Every tracked entry with its key, in no particular order.
    fn tracked(&self) -> impl Iterator<Item = (StructureKey, &Entry)> {
        self.slots.iter().enumerate().flat_map(|(kind, slots)| {
            slots
                .iter()
                .enumerate()
                .filter(|(_, e)| e.stamp != 0)
                .map(move |(id, e)| (key_at(kind, id as u32), e))
        })
    }

    /// Distributes a rejected plan's regret over the structures it uses,
    /// per the chosen attribution.
    ///
    /// Touches the structures in the LRU pool; if the pool overflows, the
    /// least-recently-relevant structure is forgotten along with its
    /// accumulated regret (the paper's GC).
    pub fn distribute(
        &mut self,
        uses: &[StructureKey],
        regret: Money,
        attribution: RegretAttribution,
    ) {
        if uses.is_empty() || !regret.is_positive() {
            return;
        }
        let share = match attribution {
            RegretAttribution::UniformShare => regret.amortize_over(uses.len() as u64),
            RegretAttribution::FullValue => regret,
        };
        for &key in uses {
            self.clock += 1;
            let clock = self.clock;
            let e = self.slot_mut(key);
            let fresh = e.stamp == 0;
            e.regret += share;
            e.stamp = clock;
            let value = e.regret;
            self.max_bound.set(self.max_bound.get().max(value));
            if fresh {
                self.live += 1;
                if self.live > self.capacity {
                    self.evict_lru();
                }
            }
        }
    }

    /// Forgets the tracked entry with the oldest stamp.
    fn evict_lru(&mut self) {
        let victim = self
            .tracked()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(key, _)| key)
            .expect("an overflowing pool is non-empty");
        self.reset(victim);
    }

    /// Current regret for a structure (zero if untracked).
    #[must_use]
    pub fn regret_of(&self, key: StructureKey) -> Money {
        self.entry(key).map_or(Money::ZERO, |e| e.regret)
    }

    /// Structures whose regret is at least `threshold`, highest first
    /// (ties by key).
    #[must_use]
    pub fn over_threshold(&self, threshold: Money) -> Vec<(StructureKey, Money)> {
        let mut hits = Vec::new();
        self.over_threshold_into(threshold, &mut hits);
        hits
    }

    /// [`Self::over_threshold`] into `hits` (cleared first), so a caller
    /// scanning every query reuses one buffer.
    pub fn over_threshold_into(&self, threshold: Money, hits: &mut Vec<(StructureKey, Money)>) {
        hits.clear();
        let bound = self.max_bound.get();
        if bound < threshold || !bound.is_positive() {
            return;
        }
        let mut max = Money::ZERO;
        for (key, e) in self.tracked() {
            max = max.max(e.regret);
            if e.regret >= threshold && e.regret.is_positive() {
                hits.push((key, e.regret));
            }
        }
        self.max_bound.set(max);
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }

    /// Clears a structure's regret (after investing in it).
    pub fn reset(&mut self, key: StructureKey) {
        let (kind, at) = slot_of(key);
        if let Some(e) = self.slots[kind].get_mut(at).filter(|e| e.stamp != 0) {
            *e = Entry::default();
            self.live -= 1;
        }
    }

    /// Number of structures tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if nothing is tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total regret across the pool (diagnostic).
    #[must_use]
    pub fn total(&self) -> Money {
        self.tracked().map(|(_, e)| e.regret).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: u32) -> StructureKey {
        StructureKey::Column(ColumnId(i))
    }

    fn m(x: f64) -> Money {
        Money::from_dollars(x)
    }

    #[test]
    fn distributes_uniformly() {
        let mut r = RegretLedger::new(16);
        r.distribute(
            &[col(1), col(2), col(3)],
            m(9.0),
            RegretAttribution::UniformShare,
        );
        assert_eq!(r.regret_of(col(1)), m(3.0));
        assert_eq!(r.regret_of(col(2)), m(3.0));
        assert_eq!(r.regret_of(col(3)), m(3.0));
        assert_eq!(r.total(), m(9.0));
    }

    #[test]
    fn accumulates_across_plans() {
        let mut r = RegretLedger::new(16);
        r.distribute(&[col(1), col(2)], m(4.0), RegretAttribution::UniformShare);
        r.distribute(&[col(1)], m(1.0), RegretAttribution::UniformShare);
        assert_eq!(r.regret_of(col(1)), m(3.0));
        assert_eq!(r.regret_of(col(2)), m(2.0));
    }

    #[test]
    fn zero_and_negative_regret_ignored() {
        let mut r = RegretLedger::new(16);
        r.distribute(&[col(1)], Money::ZERO, RegretAttribution::UniformShare);
        r.distribute(&[col(1)], m(-5.0), RegretAttribution::UniformShare);
        assert!(r.is_empty());
    }

    #[test]
    fn threshold_query_sorted_descending() {
        let mut r = RegretLedger::new(16);
        r.distribute(&[col(1)], m(5.0), RegretAttribution::UniformShare);
        r.distribute(&[col(2)], m(10.0), RegretAttribution::UniformShare);
        r.distribute(&[col(3)], m(1.0), RegretAttribution::UniformShare);
        let hits = r.over_threshold(m(5.0));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], (col(2), m(10.0)));
        assert_eq!(hits[1], (col(1), m(5.0)));
    }

    #[test]
    fn reset_clears_after_investment() {
        let mut r = RegretLedger::new(16);
        r.distribute(&[col(1)], m(5.0), RegretAttribution::UniformShare);
        r.reset(col(1));
        assert_eq!(r.regret_of(col(1)), Money::ZERO);
        assert!(r.is_empty());
    }

    #[test]
    fn lru_gc_forgets_cold_structures() {
        let mut r = RegretLedger::new(2);
        r.distribute(&[col(1)], m(1.0), RegretAttribution::UniformShare);
        r.distribute(&[col(2)], m(1.0), RegretAttribution::UniformShare);
        r.distribute(&[col(3)], m(1.0), RegretAttribution::UniformShare); // evicts col(1)
        assert_eq!(r.regret_of(col(1)), Money::ZERO, "GC dropped it");
        assert_eq!(r.len(), 2);
        assert!(r.regret_of(col(3)).is_positive());
    }

    #[test]
    fn full_value_credits_everyone_entirely() {
        let mut r = RegretLedger::new(16);
        r.distribute(&[col(1), col(2)], m(3.0), RegretAttribution::FullValue);
        assert_eq!(r.regret_of(col(1)), m(3.0));
        assert_eq!(r.regret_of(col(2)), m(3.0));
    }

    #[test]
    fn empty_uses_is_a_noop() {
        let mut r = RegretLedger::new(4);
        r.distribute(&[], m(100.0), RegretAttribution::FullValue);
        assert!(r.is_empty());
    }

    #[test]
    fn remainder_lost_to_rounding_is_bounded() {
        let mut r = RegretLedger::new(16);
        // 10 nano-dollars over 3 structures: 3 each, 1 nano lost.
        r.distribute(
            &[col(1), col(2), col(3)],
            Money::from_nanos(10),
            RegretAttribution::UniformShare,
        );
        assert_eq!(r.total(), Money::from_nanos(9));
    }
}

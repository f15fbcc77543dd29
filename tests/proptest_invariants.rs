//! Property-based tests over the core data structures and the economy's
//! algebraic invariants.

use std::collections::HashMap;

use cloudcache::cache::{CacheState, CachedStructure, IndexId, Occupancy, StructureKey};
use cloudcache::catalog::ColumnId;
use cloudcache::econ::{
    select_plan, BudgetFunction, BudgetShape, RegretAttribution, RegretLedger, SelectionObjective,
};
use cloudcache::metrics::{CostBreakdown, StreamingStats};
use cloudcache::planner::plan::{PlanShape, QueryPlan};
use cloudcache::planner::{skyline_filter, skyline_partition_hot, PlanHot};
use cloudcache::pricing::Money;
use cloudcache::simcore::{SimDuration, SimTime};
use proptest::prelude::*;

fn plan(time: f64, price: f64, existing: bool) -> QueryPlan {
    QueryPlan {
        shape: PlanShape::Backend,
        exec_time: SimDuration::from_secs(time),
        exec_cost: Money::from_dollars(price),
        exec_breakdown: CostBreakdown::ZERO,
        uses: vec![],
        missing: if existing {
            vec![]
        } else {
            vec![StructureKey::Node(0)]
        },
        build_cost: Money::ZERO,
        build_time: SimDuration::ZERO,
        amortized_cost: Money::ZERO,
        maintenance_cost: Money::ZERO,
        price: Money::from_dollars(price),
    }
}

/// Structure `k` of a 24-key universe spread over all three kinds.
fn structure(k: u32) -> StructureKey {
    match k % 3 {
        0 => StructureKey::Column(ColumnId(k / 3)),
        1 => StructureKey::Index(IndexId(k / 3)),
        _ => StructureKey::Node(k / 3),
    }
}

/// The reference regret ledger: the hash-map form the dense ledger
/// replaced, an LRU pool of logical touch stamps beside a regret map.
struct ReferenceLedger {
    regrets: HashMap<StructureKey, Money>,
    stamps: HashMap<StructureKey, u64>,
    clock: u64,
    capacity: usize,
}

impl ReferenceLedger {
    fn new(capacity: usize) -> Self {
        ReferenceLedger {
            regrets: HashMap::new(),
            stamps: HashMap::new(),
            clock: 0,
            capacity,
        }
    }

    fn distribute(&mut self, uses: &[StructureKey], regret: Money, attribution: RegretAttribution) {
        if uses.is_empty() || !regret.is_positive() {
            return;
        }
        let share = match attribution {
            RegretAttribution::UniformShare => regret.amortize_over(uses.len() as u64),
            RegretAttribution::FullValue => regret,
        };
        for &key in uses {
            *self.regrets.entry(key).or_insert(Money::ZERO) += share;
            self.clock += 1;
            self.stamps.insert(key, self.clock);
            if self.stamps.len() > self.capacity {
                let victim = *self
                    .stamps
                    .iter()
                    .min_by_key(|(_, &stamp)| stamp)
                    .expect("non-empty")
                    .0;
                self.stamps.remove(&victim);
                self.regrets.remove(&victim);
            }
        }
    }

    fn reset(&mut self, key: StructureKey) {
        self.regrets.remove(&key);
        self.stamps.remove(&key);
    }

    fn over_threshold(&self, threshold: Money) -> Vec<(StructureKey, Money)> {
        let mut hits: Vec<(StructureKey, Money)> = self
            .regrets
            .iter()
            .filter(|&(_, &r)| r >= threshold && r.is_positive())
            .map(|(&k, &r)| (k, r))
            .collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hits
    }
}

proptest! {
    /// Skyline: output is exactly the non-dominated subset, time-sorted.
    #[test]
    fn skyline_is_the_pareto_frontier(
        raw in prop::collection::vec((0.01f64..100.0, 0.001f64..10.0), 1..40)
    ) {
        let plans: Vec<QueryPlan> =
            raw.iter().map(|&(t, p)| plan(t, p, true)).collect();
        let skyline = skyline_filter(plans.clone());

        // (1) Every survivor is non-dominated in the input.
        for s in &skyline {
            let dominated = plans.iter().any(|o| {
                (o.exec_time < s.exec_time && o.price <= s.price)
                    || (o.exec_time <= s.exec_time && o.price < s.price)
            });
            prop_assert!(!dominated, "dominated plan survived");
        }
        // (2) Every non-dominated (time, price) point appears.
        for p in &plans {
            let dominated = plans.iter().any(|o| {
                (o.exec_time < p.exec_time && o.price <= p.price)
                    || (o.exec_time <= p.exec_time && o.price < p.price)
            });
            if !dominated {
                prop_assert!(
                    skyline
                        .iter()
                        .any(|s| s.exec_time == p.exec_time && s.price == p.price),
                    "non-dominated point missing from skyline"
                );
            }
        }
        // (3) Sorted by time, strictly descending price.
        for w in skyline.windows(2) {
            prop_assert!(w[0].exec_time < w[1].exec_time);
            prop_assert!(w[0].price > w[1].price);
        }
    }

    /// Budget functions are non-increasing and vanish beyond t_max.
    #[test]
    fn budgets_are_non_increasing(
        amount in 0.01f64..1000.0,
        t_max in 0.1f64..1000.0,
        shape_idx in 0usize..3,
        samples in prop::collection::vec(0.0f64..1.2, 2..20)
    ) {
        let shape = [BudgetShape::Step, BudgetShape::Convex, BudgetShape::Concave][shape_idx];
        let b = BudgetFunction::of_shape(
            shape,
            Money::from_dollars(amount),
            SimDuration::from_secs(t_max),
        );
        let mut ts: Vec<f64> = samples.iter().map(|f| f * t_max).collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = Money::from_dollars(amount + 1.0);
        for t in ts {
            let v = b.value_at(SimDuration::from_secs(t));
            prop_assert!(v <= prev, "budget increased at t={t}");
            prop_assert!(!v.is_negative());
            prev = v;
        }
        prop_assert_eq!(b.value_at(SimDuration::from_secs(t_max * 1.2001)), Money::ZERO);
    }

    /// Selection: the payment always covers the executed plan's price, the
    /// profit is exactly payment − price, and the plan is executable.
    #[test]
    fn selection_never_undercharges(
        raw in prop::collection::vec((0.1f64..50.0, 0.01f64..5.0, prop::bool::ANY), 1..20),
        budget_amount in 0.001f64..20.0,
        patience in 1.0f64..4.0,
        objective_idx in 0usize..3,
    ) {
        let mut plans: Vec<QueryPlan> = raw
            .iter()
            .map(|&(t, p, existing)| plan(t, p, existing))
            .collect();
        // Guarantee P_exist is non-empty (the backend plan always exists).
        plans.push(plan(60.0, 0.005, true));
        let budget = BudgetFunction::of_shape(
            BudgetShape::Step,
            Money::from_dollars(budget_amount),
            SimDuration::from_secs(60.0 * patience),
        );
        let objective = [
            SelectionObjective::MinProfit,
            SelectionObjective::Cheapest,
            SelectionObjective::Fastest,
        ][objective_idx];
        let sel = select_plan(&plans, &budget, objective);
        let chosen = &plans[sel.selected];
        prop_assert!(chosen.is_existing(), "selected a plan that needs builds");
        prop_assert!(sel.payment >= chosen.price, "user underpays the price");
        prop_assert_eq!(sel.profit, sel.payment - chosen.price);
        prop_assert!(!sel.profit.is_negative());
        for &(idx, r) in &sel.regrets {
            prop_assert!(!plans[idx].is_existing(), "regret on an existing plan");
            prop_assert!(r.is_positive());
        }
    }

    /// Money: amortisation over n uses never recoups more than the build.
    #[test]
    fn amortization_never_overcharges(
        build_nanos in 0i128..1_000_000_000_000,
        n in 1u64..10_000,
        uses in 0u64..30_000,
    ) {
        let build = Money::from_nanos(build_nanos);
        let installment = build.amortize_over(n);
        let mut remaining = build;
        let mut collected = Money::ZERO;
        for _ in 0..uses {
            let due = installment.min(remaining);
            collected += due;
            remaining -= due;
        }
        prop_assert!(collected <= build);
        prop_assert_eq!(collected + remaining, build);
        if uses > n {
            // One extra use absorbs the rounding remainder.
            prop_assert!(remaining <= installment);
        }
    }

    /// Occupancy: the byte-seconds integral equals the hand-computed sum
    /// over an arbitrary add/remove schedule.
    #[test]
    fn occupancy_integral_matches_reference(
        steps in prop::collection::vec((0.01f64..100.0, 0u64..1_000_000, prop::bool::ANY), 1..30)
    ) {
        let mut occ = Occupancy::new();
        let mut t = 0.0;
        let mut level: u64 = 0;
        let mut reference = 0.0;
        for &(dt, delta, add) in &steps {
            let next = t + dt;
            reference += level as f64 * dt;
            if add {
                occ.add(SimTime::from_secs(next), delta);
                level += delta;
            } else {
                let d = delta.min(level);
                occ.remove(SimTime::from_secs(next), d);
                level -= d;
            }
            t = next;
        }
        occ.advance(SimTime::from_secs(t + 1.0));
        reference += level as f64 * 1.0;
        prop_assert!((occ.byte_seconds() - reference).abs() <= reference.abs() * 1e-9 + 1e-6);
        prop_assert_eq!(occ.bytes(), level);
    }

    /// Regret pool LRU: never exceeds capacity; the most recently
    /// regretted structures survive.
    #[test]
    fn lru_respects_capacity_and_recency(
        cap in 1usize..20,
        touches in prop::collection::vec(0u32..50, 1..200)
    ) {
        let mut ledger = RegretLedger::new(cap);
        for &k in &touches {
            ledger.distribute(&[structure(k)], Money::from_nanos(1), RegretAttribution::FullValue);
            prop_assert!(ledger.len() <= cap);
        }
        // The last min(cap, distinct-tail) touched keys must be present.
        let mut tail: Vec<u32> = Vec::new();
        for &k in touches.iter().rev() {
            if !tail.contains(&k) {
                tail.push(k);
            }
            if tail.len() == cap {
                break;
            }
        }
        for k in tail {
            prop_assert!(
                ledger.regret_of(structure(k)).is_positive(),
                "recently regretted {k} evicted"
            );
        }
    }

    /// The dense regret ledger is observably the hash-map reference:
    /// random distribute/reset sequences (duplicate keys, zero regret,
    /// every structure kind) at capacities 1–8, so evictions happen
    /// constantly, under both attributions. After every op the two agree
    /// on every key's regret, the threshold scan (order included), the
    /// pool size and the total.
    #[test]
    fn regret_ledger_matches_the_hashmap_reference(
        cap in 1usize..9,
        uniform in prop::bool::ANY,
        ops in prop::collection::vec((0u8..4, 0u32..24, 1usize..5, 0i64..5_000, 0i64..6_000), 1..120),
    ) {
        let attribution = if uniform {
            RegretAttribution::UniformShare
        } else {
            RegretAttribution::FullValue
        };
        let mut dense = RegretLedger::new(cap);
        let mut reference = ReferenceLedger::new(cap);
        for (step, &(op, sel, width, amount, threshold)) in ops.iter().enumerate() {
            if op == 3 {
                dense.reset(structure(sel));
                reference.reset(structure(sel));
            } else {
                let uses: Vec<StructureKey> =
                    (0..width as u32).map(|j| structure((sel + 7 * j) % 24)).collect();
                let regret = Money::from_nanos(i128::from(amount));
                dense.distribute(&uses, regret, attribution);
                reference.distribute(&uses, regret, attribution);
            }
            for k in 0..24 {
                prop_assert_eq!(
                    dense.regret_of(structure(k)),
                    reference.regrets.get(&structure(k)).copied().unwrap_or(Money::ZERO),
                    "regret of {} at step {}", structure(k), step
                );
            }
            let threshold = Money::from_nanos(i128::from(threshold));
            prop_assert_eq!(
                dense.over_threshold(threshold),
                reference.over_threshold(threshold),
                "threshold scan at step {}", step
            );
            prop_assert_eq!(dense.len(), reference.regrets.len(), "len at step {}", step);
            prop_assert_eq!(
                dense.total(),
                reference.regrets.values().copied().sum::<Money>(),
                "total at step {}", step
            );
        }
    }

    /// Streaming stats: count and mean agree with the naive computation.
    #[test]
    fn streaming_stats_match_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.record(x);
        }
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - naive_mean).abs() < 1e-6 * (1.0 + naive_mean.abs()));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    /// Cache state: install/evict sequences keep disk usage equal to the
    /// sum of resident structure sizes.
    #[test]
    fn cache_disk_equals_sum_of_sizes(
        ops in prop::collection::vec((0u32..30, 1u64..1_000_000, prop::bool::ANY), 1..60)
    ) {
        let mut cache = CacheState::new();
        let mut t = 0.0;
        let mut resident: std::collections::HashMap<u32, u64> = Default::default();
        for &(id, size, install) in &ops {
            t += 1.0;
            let key = StructureKey::Column(ColumnId(id));
            let now = SimTime::from_secs(t);
            if install && !cache.contains(key) {
                cache.install(key, size, now, SimDuration::ZERO, Money::ZERO, 1);
                resident.insert(id, size);
            } else if !install {
                cache.evict(key, now);
                resident.remove(&id);
            }
            let expected: u64 = resident.values().sum();
            prop_assert_eq!(cache.disk_used(), expected);
            prop_assert_eq!(cache.len(), resident.len());
        }
    }
}

/// The two-tier skyline the economy's serve used before the row-index
/// partition: `skyline_filter` of the existing plans, then the possible
/// plans of `skyline_filter` over all of them.
fn reference_two_tier(plans: &[QueryPlan]) -> Vec<QueryPlan> {
    let exist: Vec<QueryPlan> = plans.iter().filter(|p| p.is_existing()).cloned().collect();
    let mut tiers = skyline_filter(exist);
    tiers.extend(
        skyline_filter(plans.to_vec())
            .into_iter()
            .filter(|p| !p.is_existing()),
    );
    tiers
}

/// Every structure's state, in key order.
fn structures(cache: &CacheState) -> Vec<CachedStructure> {
    let mut all: Vec<CachedStructure> = cache.iter().cloned().collect();
    all.sort_by_key(|s| s.key);
    all
}

/// Disk rent and node uptime at round rates: one nanodollar per byte per
/// 1,000 s, one per node-millisecond.
fn maintenance(s: &CachedStructure, span: SimDuration) -> Money {
    if s.key.occupies_disk() {
        Money::from_dollars(s.size_bytes as f64 * span.as_secs() * 1e-12)
    } else {
        Money::from_dollars(span.as_secs() * 1e-6)
    }
}

// The fast paths of the per-query control loop against the code each
// one replaced, kept as the reference.
proptest! {
    /// The insertion-sort skyline partition equals the two-filter
    /// composition on plans drawn from few times (`-0.0` among them) and
    /// few prices, so tied times, tied prices and full ties are common:
    /// the same plans, in the same order, with the existing tier first.
    #[test]
    fn insertion_sort_skyline_matches_skyline_filter(
        rows in prop::collection::vec((0usize..6, 0u8..5, prop::bool::ANY), 1..16),
    ) {
        let times = [0.0, -0.0, 0.5, 1.0, 1.5, 4.0];
        let plans: Vec<QueryPlan> = rows
            .iter()
            .enumerate()
            .map(|(i, &(t, price, existing))| QueryPlan {
                // The execution cost tags each plan with its row.
                exec_cost: Money::from_nanos(i as i128),
                price: Money::from_nanos(i128::from(price) * 1_000),
                ..plan(times[t], 0.0, existing)
            })
            .collect();
        let (mut order, mut out) = (Vec::new(), Vec::new());
        let exist_count = skyline_partition_hot(&PlanHot::of(&plans), &mut order, &mut out);
        let got: Vec<QueryPlan> = out.iter().map(|&i| plans[i].clone()).collect();
        let reference = reference_two_tier(&plans);
        prop_assert_eq!(&got, &reference);
        prop_assert_eq!(exist_count, reference.iter().filter(|p| p.is_existing()).count());
    }

    /// Settling a plan's usage from its quotes equals the closure form:
    /// over random caches (structures still building, paid at random
    /// instants, with installments left or not) and random usage lists
    /// (duplicates included), each key quoted at the pre-settlement state
    /// as a bind quotes it, both forms collect the same amounts and leave
    /// every structure in the same state.
    #[test]
    fn quoted_settlement_matches_the_closure_form(
        installs in prop::collection::vec((0u32..24, 1u64..5_000_000, 0.0f64..10.0, 0.0f64..20.0, 1u64..40), 1..16),
        used in prop::collection::vec(0u32..24, 0..12),
        later in 0.0f64..120.0,
        window in 0.5f64..80.0,
    ) {
        let mut cache = CacheState::new();
        let mut at = 0.0;
        for &(k, size, gap, build, n) in &installs {
            let key = structure(k);
            at += gap;
            if !cache.contains(key) {
                let cost = Money::from_nanos(i128::from(size) * 3);
                cache.install(key, size, SimTime::from_secs(at), SimDuration::from_secs(build), cost, n);
            }
        }
        let (now, window) = (SimTime::from_secs(at + later), SimDuration::from_secs(window));
        let keys: Vec<StructureKey> = used.iter().map(|&k| structure(k)).collect();
        let quotes: Vec<Money> = keys
            .iter()
            .map(|&key| {
                cache.get(key).map_or(Money::ZERO, |s| {
                    maintenance(s, now.saturating_since(s.maint_paid_until).min(window))
                })
            })
            .collect();
        let mut reference = cache.clone();
        let collected = reference.settle_usage(&keys, now, window, maintenance);
        let quoted = cache.settle_quoted(keys.iter().copied().zip(quotes), now, window, maintenance);
        prop_assert_eq!(quoted, collected);
        prop_assert_eq!(structures(&cache), structures(&reference));
    }

    /// The regret ledger's candidate index answers every threshold
    /// exactly as the full scan does, hits and order alike, over random
    /// distributions, resets and LRU evictions (pools of 1–10 over 24
    /// keys), with thresholds that rise, fall and repeat.
    #[test]
    fn candidate_index_matches_the_threshold_scan(
        cap in 1usize..11,
        uniform in prop::bool::ANY,
        ops in prop::collection::vec((0u8..5, 0u32..24, 1usize..5, 0i64..5_000, 0i64..8_000), 1..120),
    ) {
        let attribution = if uniform {
            RegretAttribution::UniformShare
        } else {
            RegretAttribution::FullValue
        };
        let mut ledger = RegretLedger::new(cap);
        let (mut indexed, mut scanned) = (Vec::new(), Vec::new());
        for (step, &(op, sel, width, amount, threshold)) in ops.iter().enumerate() {
            match op {
                0 => ledger.reset(structure(sel)),
                1 | 2 => {
                    let uses: Vec<StructureKey> =
                        (0..width as u32).map(|j| structure((sel + 5 * j) % 24)).collect();
                    ledger.distribute(&uses, Money::from_nanos(i128::from(amount)), attribution);
                }
                _ => {
                    let threshold = Money::from_nanos(i128::from(threshold) - 500);
                    ledger.candidates_into(threshold, &mut indexed);
                    ledger.over_threshold_into(threshold, &mut scanned);
                    prop_assert_eq!(&indexed, &scanned, "threshold {:?} at step {}", threshold, step);
                    prop_assert_eq!(ledger.listed_candidates(), scanned.len());
                }
            }
        }
    }
}

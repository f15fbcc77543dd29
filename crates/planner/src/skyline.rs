//! Skyline (Pareto) filtering of plans.
//!
//! Footnote 2 of the paper: *"We assume that `P_Q` holds only the skyline
//! query plans (w.r.t. execution time and overall cost); i.e. if there are
//! two plans with the same execution time, only the cheapest one is
//! encompassed."* A plan is kept iff no other plan is at least as fast
//! *and* at least as cheap (with one strict).
//!
//! [`skyline_filter`] is the reference over plan structs. The economy's
//! serve and bid partition a plan set's hot rows into its two tiers with
//! [`skyline_partition_hot`]: a stable insertion sort of the row indices
//! on raw integer keys (a plan set holds a handful of rows) and one scan
//! of the order for both tiers.

use pricing::Money;

use crate::plan::QueryPlan;
use crate::soa::PlanHot;

/// Reduces `plans` to its (time, price) skyline.
///
/// Ties: among plans with equal time and equal price, the earlier one in
/// the input is kept (stable), so enumeration order breaks ties
/// deterministically. The result is sorted by ascending execution time
/// (hence strictly descending price), which is exactly the discrete
/// `B_PQ(t)` budget function of Section IV-C.
#[must_use]
pub fn skyline_filter(mut plans: Vec<QueryPlan>) -> Vec<QueryPlan> {
    if plans.is_empty() {
        return plans;
    }
    // Sort by time asc, then price asc, preserving input order on full ties.
    plans.sort_by(|a, b| a.exec_time.cmp(&b.exec_time).then(a.price.cmp(&b.price)));
    let mut out: Vec<QueryPlan> = Vec::with_capacity(plans.len());
    for plan in plans {
        match out.last() {
            // Strictly cheaper than everything faster-or-equal so far.
            Some(last) if plan.price >= last.price => {}
            _ => out.push(plan),
        }
    }
    out
}

/// Computes the economy's two-tier skyline over `plans` in one pass,
/// without cloning a single plan: indices of the *existing* plans that
/// survive the skyline of `P_exist` (the executable menu), followed by
/// indices of the *possible* plans that survive the skyline of the full
/// set (the plans worth regretting). Each tier is ordered by ascending
/// execution time, exactly as [`skyline_filter`] orders its output.
///
/// Equivalent to the seed economy's
/// `skyline_filter(exist) ++ skyline_filter(all).filter(!existing)` —
/// which cloned the full plan vector twice per query — because within one
/// stable (time, price) order a plan survives a skyline iff its price is
/// strictly below the running minimum over the plans sorted before it
/// (rejected plans can never lower that minimum).
///
/// `order` is caller scratch (its contents on return are unspecified);
/// `out` receives the surviving indices with the count of existing-tier
/// entries returned.
pub fn skyline_partition(
    plans: &[QueryPlan],
    order: &mut Vec<usize>,
    out: &mut Vec<usize>,
) -> usize {
    skyline_partition_hot(&PlanHot::of(plans), order, out)
}

/// [`skyline_partition`] over a struct-of-arrays plan view: the sort and
/// the two min-scans read dense parallel slices ([`PlanHot`]) instead of
/// strided plan structs. Identical output for identical (time, price,
/// existing) rows.
///
/// The order is a stable insertion sort on raw keys: a plan set holds a
/// handful of rows, so each row shifts past the few rows it follows in
/// place, and it compares integer keys — a time's bits (times are
/// finite and non-negative, so their bits order like their values once
/// `-0.0` reads as `0.0`) and a price's nanodollars — with no closure
/// or float comparison. A row moves left only past strictly greater
/// keys, so equal keys keep enumeration order, and ties break exactly
/// as in [`skyline_filter`].
pub fn skyline_partition_hot(hot: &PlanHot, order: &mut Vec<usize>, out: &mut Vec<usize>) -> usize {
    let n = hot.len();
    let (time, price, existing) = (&hot.time[..n], &hot.price[..n], &hot.existing[..n]);
    let bits = |i: usize| (time[i].as_secs() + 0.0).to_bits();
    order.clear();
    for i in 0..n {
        let (t, p) = (bits(i), price[i]);
        order.push(i);
        let mut at = i;
        while at > 0 {
            let prev = order[at - 1];
            let prev_t = bits(prev);
            if prev_t < t || (prev_t == t && price[prev] <= p) {
                break;
            }
            order[at] = prev;
            at -= 1;
        }
        order[at] = i;
    }

    // One scan of the order for both tiers: existing-tier survivors go
    // to `out` as they are found; possible-tier survivors are compacted
    // into the head of `order`, behind the scan, and appended after.
    out.clear();
    let mut min_exist: Option<Money> = None;
    let mut min_all: Option<Money> = None;
    let mut possible = 0;
    for at in 0..n {
        let i = order[at];
        let p = price[i];
        if existing[i] && min_exist.is_none_or(|m| p < m) {
            out.push(i);
            min_exist = Some(p);
        }
        if min_all.is_none_or(|m| p < m) {
            if !existing[i] {
                order[possible] = i;
                possible += 1;
            }
            min_all = Some(p);
        }
    }
    let existing_count = out.len();
    for &i in &order[..possible] {
        out.push(i);
    }
    existing_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanShape;
    use metrics::CostBreakdown;
    use simcore::SimDuration;

    fn plan(time: f64, price: f64) -> QueryPlan {
        QueryPlan {
            shape: PlanShape::Backend,
            exec_time: SimDuration::from_secs(time),
            exec_cost: Money::from_dollars(price),
            exec_breakdown: CostBreakdown::ZERO,
            uses: vec![],
            missing: vec![],
            build_cost: Money::ZERO,
            build_time: SimDuration::ZERO,
            amortized_cost: Money::ZERO,
            maintenance_cost: Money::ZERO,
            price: Money::from_dollars(price),
        }
    }

    fn shape(plans: &[QueryPlan]) -> Vec<(f64, f64)> {
        plans
            .iter()
            .map(|p| (p.exec_time.as_secs(), p.price.as_dollars()))
            .collect()
    }

    #[test]
    fn dominated_plans_removed() {
        let out = skyline_filter(vec![
            plan(1.0, 10.0),
            plan(2.0, 12.0), // dominated: slower AND pricier
            plan(3.0, 5.0),
        ]);
        assert_eq!(shape(&out), vec![(1.0, 10.0), (3.0, 5.0)]);
    }

    #[test]
    fn equal_time_keeps_cheapest() {
        let out = skyline_filter(vec![plan(1.0, 10.0), plan(1.0, 8.0), plan(1.0, 9.0)]);
        assert_eq!(shape(&out), vec![(1.0, 8.0)]);
    }

    #[test]
    fn equal_price_keeps_fastest() {
        let out = skyline_filter(vec![plan(2.0, 5.0), plan(1.0, 5.0)]);
        assert_eq!(shape(&out), vec![(1.0, 5.0)]);
    }

    #[test]
    fn skyline_is_time_sorted_and_price_descending() {
        let out = skyline_filter(vec![
            plan(5.0, 1.0),
            plan(1.0, 9.0),
            plan(3.0, 4.0),
            plan(2.0, 6.0),
            plan(4.0, 2.0),
        ]);
        let s = shape(&out);
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0), "time ascending");
        assert!(s.windows(2).all(|w| w[0].1 > w[1].1), "price descending");
        assert_eq!(s.len(), 5, "a proper staircase survives intact");
    }

    #[test]
    fn empty_and_singleton() {
        assert!(skyline_filter(vec![]).is_empty());
        let out = skyline_filter(vec![plan(1.0, 1.0)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn single_dominating_plan_wins() {
        let out = skyline_filter(vec![plan(2.0, 2.0), plan(1.0, 1.0), plan(3.0, 3.0)]);
        assert_eq!(shape(&out), vec![(1.0, 1.0)]);
    }

    fn possible(time: f64, price: f64) -> QueryPlan {
        QueryPlan {
            missing: vec![cache::StructureKey::Node(0)],
            uses: vec![cache::StructureKey::Node(0)],
            ..plan(time, price)
        }
    }

    /// The seed economy's composition, kept as the reference semantics.
    fn reference_partition(plans: &[QueryPlan]) -> Vec<QueryPlan> {
        let (exist, _pos): (Vec<QueryPlan>, Vec<QueryPlan>) =
            plans.iter().cloned().partition(QueryPlan::is_existing);
        let mut skyline = skyline_filter(exist);
        skyline.extend(
            skyline_filter(plans.to_vec())
                .into_iter()
                .filter(|p| !p.is_existing()),
        );
        skyline
    }

    #[test]
    fn partition_matches_the_two_filter_composition() {
        // Deterministic pseudo-random mixes of existing/possible plans.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..200 {
            let n = (next() % 12 + 1) as usize;
            let plans: Vec<QueryPlan> = (0..n)
                .map(|_| {
                    let t = (next() % 50) as f64 * 0.25;
                    let p = (next() % 40) as f64 * 0.5;
                    if next() % 2 == 0 {
                        plan(t, p)
                    } else {
                        possible(t, p)
                    }
                })
                .collect();
            let reference = reference_partition(&plans);
            let mut order = Vec::new();
            let mut out = Vec::new();
            let exist_count = skyline_partition(&plans, &mut order, &mut out);
            let got: Vec<QueryPlan> = out.iter().map(|&i| plans[i].clone()).collect();
            assert_eq!(got, reference, "case {case} diverged");
            assert!(got[..exist_count].iter().all(QueryPlan::is_existing));
            assert!(!got[exist_count..].iter().any(QueryPlan::is_existing));
        }
    }
}

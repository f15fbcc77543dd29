//! Plan selection — the case analysis of Section IV-C (Fig. 2).
//!
//! Given the skyline plan set `P_Q` and the user budget `B_Q`:
//!
//! * **Case A** — `B_Q(t) < B_PQ(t)` everywhere: no plan is affordable.
//!   The user is presented with the existing plans and picks one (we model
//!   the paper's criterion — "minimization of user charge" — by picking
//!   the cheapest existing plan); she pays its *price*. Regret (eq. 1) for
//!   each possible plan cheaper than the chosen one.
//! * **Case B** — the budget covers every plan: pick the existing plan
//!   minimising cloud profit `B_Q(t) − B_PQ(t)`; the user pays `B_Q(t)`
//!   and the profit is credited. Regret (eq. 2) for each possible plan
//!   more expensive than the chosen one.
//! * **Case C** — mixed: Case B restricted to the affordable subset `P_QS`.
//!
//! The three *policies* of Section VII-A reuse this machinery with a
//! different tie-break objective among affordable existing plans:
//! econ-cheap picks the cheapest, econ-fast the fastest, and the
//! altruistic default minimises profit.

use planner::{PlanHot, QueryPlan};
use pricing::Money;
use serde::Serialize;
use simcore::SimDuration;

use crate::budget::BudgetFunction;
use crate::outcome::SelectionCase;

/// How to choose among affordable existing plans (cases B/C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SelectionObjective {
    /// The altruistic default of Section IV-C: minimise
    /// `B_Q(t) − B_PQ(t)` (take as little profit as possible).
    MinProfit,
    /// econ-cheap: "the plan with the least cost is chosen".
    Cheapest,
    /// econ-fast: "selects the query plan with the fastest response time".
    Fastest,
}

/// Result of the case analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Which case applied.
    pub case: SelectionCase,
    /// Index (into the input slice) of the plan to execute.
    pub selected: usize,
    /// What the user pays: the plan price in Case A, `B_Q(t)` in B/C.
    pub payment: Money,
    /// `payment − price` (zero in Case A).
    pub profit: Money,
    /// Regret per *possible* plan: `(plan index, regret)` (eqs. 1–2).
    pub regrets: Vec<(usize, Money)>,
}

/// The (time, price, existing) rows the case analysis actually reads —
/// positions `0..len` address `rows[i]`-th entries of the SoA view, so
/// the selection scans touch three dense slices and nothing else.
#[derive(Clone, Copy)]
struct HotRows<'a> {
    hot: &'a PlanHot,
    rows: &'a [usize],
}

impl HotRows<'_> {
    fn len(&self) -> usize {
        self.rows.len()
    }
    fn time(&self, i: usize) -> SimDuration {
        self.hot.time[self.rows[i]]
    }
    fn price(&self, i: usize) -> Money {
        self.hot.price[self.rows[i]]
    }
    fn existing(&self, i: usize) -> bool {
        self.hot.existing[self.rows[i]]
    }
}

/// Runs the case analysis over the skyline `plans`.
///
/// `plans` must be the skyline set (existing and possible mixed); at least
/// one existing plan must be present (the backend plan guarantees this).
/// Generic over plan storage so callers can pass `&[&QueryPlan]` built
/// from skyline indices without cloning the plans. Hot paths skip the
/// projection this wrapper performs and call [`select_plan_hot`] on the
/// SoA view they already hold.
///
/// # Panics
/// Panics if no existing plan is present.
#[must_use]
pub fn select_plan<P: std::borrow::Borrow<QueryPlan>>(
    plans: &[P],
    budget: &BudgetFunction,
    objective: SelectionObjective,
) -> Selection {
    let mut hot = PlanHot::new();
    for p in plans {
        let p = p.borrow();
        hot.time.push(p.exec_time);
        hot.price.push(p.price);
        hot.existing.push(p.is_existing());
    }
    let rows: Vec<usize> = (0..plans.len()).collect();
    select_plan_hot(&hot, &rows, budget, objective)
}

/// The case analysis over a struct-of-arrays plan view: `rows[i]` indexes
/// into `hot` (typically the skyline indices from
/// [`planner::skyline_partition_hot`]), and the returned
/// [`Selection::selected`] / regret indices address positions of `rows`.
/// Bit-identical decisions to [`select_plan`] over the equivalent plans.
///
/// This materializes the regret list: the reference form. The
/// economy's serve runs the same decision and regret visit without it.
///
/// # Panics
/// Panics if no existing plan is present among the rows.
#[must_use]
pub fn select_plan_hot(
    hot: &PlanHot,
    rows: &[usize],
    budget: &BudgetFunction,
    objective: SelectionObjective,
) -> Selection {
    let decision = decide_hot(hot, rows, budget, objective);
    let mut regrets = Vec::new();
    for_each_regret(hot, rows, budget, &decision, |i, r| regrets.push((i, r)));
    Selection {
        case: decision.case,
        selected: decision.selected,
        payment: decision.payment,
        profit: decision.profit,
        regrets,
    }
}

/// The payment [`select_plan_hot`] settles on, and nothing else: a quote
/// is a bid, so it neither materializes a plan nor visits the regrets.
#[must_use]
pub fn select_payment_hot(
    hot: &PlanHot,
    rows: &[usize],
    budget: &BudgetFunction,
    objective: SelectionObjective,
) -> Money {
    decide_hot(hot, rows, budget, objective).payment
}

/// The decision half of the case analysis (a [`Selection`] without its
/// regret list).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decision {
    pub case: SelectionCase,
    pub selected: usize,
    pub payment: Money,
    pub profit: Money,
}

/// Calls `f(i, regret)` for each rejected possible plan with positive
/// regret under `decision` (eqs. 1–2), in ascending position `i` of
/// `rows`: exactly [`Selection::regrets`], without the list.
pub(crate) fn for_each_regret(
    hot: &PlanHot,
    rows: &[usize],
    budget: &BudgetFunction,
    decision: &Decision,
    mut f: impl FnMut(usize, Money),
) {
    let v = HotRows { hot, rows };
    match decision.case {
        SelectionCase::A => regrets_case_a(v, decision.selected, &mut f),
        SelectionCase::B | SelectionCase::C => {
            regrets_case_bc(v, budget, decision.selected, &mut f);
        }
    }
}

/// The case analysis proper: which case applies, which plan is selected,
/// what the user pays and what the cloud profits ([`select_plan_hot`]
/// without the regrets). Shared verbatim by the serve, the materializing
/// reference and the payment-only quote path so they can never diverge.
///
/// # Panics
/// Panics if no existing plan is present among the rows.
pub(crate) fn decide_hot(
    hot: &PlanHot,
    rows: &[usize],
    budget: &BudgetFunction,
    objective: SelectionObjective,
) -> Decision {
    let v = HotRows { hot, rows };
    // One pass: whether any plan exists, how many plans are affordable,
    // and the objective's best affordable existing plan with its budget
    // value — the first best in row order, as `Iterator::min_by` picks.
    let precedes = |a: (SimDuration, Money, Money), b: (SimDuration, Money, Money)| {
        let ((ta, pa, va), (tb, pb, vb)) = (a, b);
        let order = match objective {
            SelectionObjective::MinProfit => (va - pa).cmp(&(vb - pb)).then(ta.cmp(&tb)),
            SelectionObjective::Cheapest => pa.cmp(&pb).then(ta.cmp(&tb)),
            SelectionObjective::Fastest => ta.cmp(&tb).then(pa.cmp(&pb)),
        };
        order.is_lt()
    };
    let mut any_existing = false;
    let mut n_affordable = 0;
    let mut best: Option<(usize, (SimDuration, Money, Money))> = None;
    for i in 0..v.len() {
        let (time, price, existing) = (v.time(i), v.price(i), v.existing(i));
        any_existing |= existing;
        let value = budget.value_at(time);
        if value < price {
            continue;
        }
        n_affordable += 1;
        if existing && best.is_none_or(|(_, b)| precedes((time, price, value), b)) {
            best = Some((i, (time, price, value)));
        }
    }
    assert!(
        any_existing,
        "P_exist must not be empty (the backend plan always exists)"
    );

    if n_affordable == 0 {
        return decide_case_a(v);
    }
    let case = if n_affordable == v.len() {
        SelectionCase::B
    } else {
        SelectionCase::C
    };
    // If every affordable plan is possible-only (needs builds), the query
    // still has to run now: fall back to Case A semantics on P_exist.
    let Some((selected, (_, chosen_price, payment))) = best else {
        return decide_case_a(v);
    };
    let profit = payment - chosen_price;
    debug_assert!(!profit.is_negative(), "affordable ⇒ non-negative profit");
    Decision {
        case,
        selected,
        payment,
        profit,
    }
}

/// Case A decision: nothing affordable — the user picks (and pays the
/// price of) the cheapest existing plan.
fn decide_case_a(v: HotRows<'_>) -> Decision {
    let selected = (0..v.len())
        .filter(|&i| v.existing(i))
        .min_by(|&a, &b| v.price(a).cmp(&v.price(b)).then(v.time(a).cmp(&v.time(b))))
        .expect("checked: P_exist non-empty");
    Decision {
        case: SelectionCase::A,
        selected,
        payment: v.price(selected),
        profit: Money::ZERO,
    }
}

/// Case A regret: eq. 1 for possible plans cheaper than the chosen one.
fn regrets_case_a(v: HotRows<'_>, selected: usize, f: &mut impl FnMut(usize, Money)) {
    let chosen_price = v.price(selected);
    (0..v.len())
        .filter(|&i| i != selected && !v.existing(i) && v.price(i) <= chosen_price)
        .map(|i| (i, chosen_price - v.price(i)))
        .filter(|(_, r)| r.is_positive())
        .for_each(|(i, r)| f(i, r));
}

/// Cases B/C regret, for every rejected possible plan (Section IV-C: "we
/// compute and distribute regret of all plans"):
///  * plans at least as expensive as the chosen one, if affordable, use
///    eq. 2 — the profit `B_Q(t_j) − B_PQ(t_j)` the cloud passed up;
///  * cheaper plans use the eq. 1 value — the cost reduction
///    `B_PQ(t_i) − B_PQ(t_j)` the cloud failed to offer. This is what
///    lets a cheaper-but-unbuilt column set accumulate regret even
///    though the budget comfortably covers the backend.
fn regrets_case_bc(
    v: HotRows<'_>,
    budget: &BudgetFunction,
    selected: usize,
    f: &mut impl FnMut(usize, Money),
) {
    let affordable = |i: usize| budget.affords(v.time(i), v.price(i));
    let chosen_price = v.price(selected);
    (0..v.len())
        .filter(|&i| i != selected && !v.existing(i))
        .filter_map(|i| {
            let r = if v.price(i) >= chosen_price {
                if affordable(i) {
                    budget.value_at(v.time(i)) - v.price(i)
                } else {
                    return None;
                }
            } else {
                chosen_price - v.price(i)
            };
            r.is_positive().then_some((i, r))
        })
        .for_each(|(i, r)| f(i, r));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetShape;
    use metrics::CostBreakdown;
    use planner::plan::PlanShape;
    use simcore::SimDuration;

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
                vec![cache::StructureKey::Node(0)]
            },
            build_cost: Money::ZERO,
            build_time: SimDuration::ZERO,
            amortized_cost: Money::ZERO,
            maintenance_cost: Money::ZERO,
            price: Money::from_dollars(price),
        }
    }

    fn step(amount: f64, t_max: f64) -> BudgetFunction {
        BudgetFunction::of_shape(
            BudgetShape::Step,
            Money::from_dollars(amount),
            SimDuration::from_secs(t_max),
        )
    }

    #[test]
    fn case_a_when_budget_below_everything() {
        // Skyline: (1s, $10 possible), (5s, $6 existing).
        let plans = vec![plan(1.0, 10.0, false), plan(5.0, 6.0, true)];
        let sel = select_plan(&plans, &step(1.0, 10.0), SelectionObjective::MinProfit);
        assert_eq!(sel.case, SelectionCase::A);
        assert_eq!(sel.selected, 1, "cheapest existing plan");
        assert_eq!(sel.payment, Money::from_dollars(6.0), "pays the price");
        assert_eq!(sel.profit, Money::ZERO);
    }

    #[test]
    fn case_a_regret_for_cheaper_possible_plans() {
        // Chosen existing costs $6; a possible plan at $2 ⇒ regret $4 (eq. 1).
        let plans = vec![plan(2.0, 2.0, false), plan(5.0, 6.0, true)];
        let sel = select_plan(&plans, &step(0.5, 10.0), SelectionObjective::MinProfit);
        assert_eq!(sel.case, SelectionCase::A);
        assert_eq!(sel.regrets, vec![(0, Money::from_dollars(4.0))]);
    }

    #[test]
    fn case_b_minprofit_credits_smallest_profit() {
        // Budget $10 flat. Existing plans: (1s, $9) profit 1; (4s, $5) profit 5.
        let plans = vec![plan(1.0, 9.0, true), plan(4.0, 5.0, true)];
        let sel = select_plan(&plans, &step(10.0, 10.0), SelectionObjective::MinProfit);
        assert_eq!(sel.case, SelectionCase::B);
        assert_eq!(sel.selected, 0);
        assert_eq!(sel.payment, Money::from_dollars(10.0), "pays B_Q(t)");
        assert_eq!(sel.profit, Money::from_dollars(1.0));
    }

    #[test]
    fn case_b_cheapest_objective() {
        let plans = vec![plan(1.0, 9.0, true), plan(4.0, 5.0, true)];
        let sel = select_plan(&plans, &step(10.0, 10.0), SelectionObjective::Cheapest);
        assert_eq!(sel.selected, 1, "econ-cheap takes the $5 plan");
        assert_eq!(sel.profit, Money::from_dollars(5.0));
    }

    #[test]
    fn case_b_fastest_objective() {
        let plans = vec![plan(1.0, 9.0, true), plan(4.0, 5.0, true)];
        let sel = select_plan(&plans, &step(10.0, 10.0), SelectionObjective::Fastest);
        assert_eq!(sel.selected, 0, "econ-fast takes the 1 s plan");
    }

    #[test]
    fn case_b_regret_for_pricier_possible_plans() {
        // Chosen existing: (4s, $5). Possible: (1s, $8): regret = B(1s)−8 = $2 (eq. 2).
        let plans = vec![plan(1.0, 8.0, false), plan(4.0, 5.0, true)];
        let sel = select_plan(&plans, &step(10.0, 10.0), SelectionObjective::Cheapest);
        assert_eq!(sel.case, SelectionCase::B);
        assert_eq!(sel.regrets, vec![(0, Money::from_dollars(2.0))]);
    }

    #[test]
    fn case_c_restricts_to_affordable_subset() {
        // Convex budget: $10 at t=0 decaying to 0 at t=10.
        let budget = BudgetFunction::of_shape(
            BudgetShape::Convex,
            Money::from_dollars(10.0),
            SimDuration::from_secs(10.0),
        );
        // (2s, $7 existing): B(2)=8 ≥ 7 affordable.
        // (8s, $4 existing): B(8)=2 < 4 unaffordable.
        let plans = vec![plan(2.0, 7.0, true), plan(8.0, 4.0, true)];
        let sel = select_plan(&plans, &budget, SelectionObjective::Cheapest);
        assert_eq!(sel.case, SelectionCase::C);
        assert_eq!(sel.selected, 0, "cheapest *affordable*");
        assert_eq!(sel.payment, Money::from_dollars(8.0));
        assert_eq!(sel.profit, Money::from_dollars(1.0));
    }

    #[test]
    fn case_c_with_only_possible_affordable_falls_back_to_a() {
        // The affordable plan needs builds; the existing one is out of
        // budget. The query must still run: Case-A semantics.
        let plans = vec![plan(1.0, 2.0, false), plan(5.0, 6.0, true)];
        let sel = select_plan(&plans, &step(3.0, 10.0), SelectionObjective::MinProfit);
        assert_eq!(sel.case, SelectionCase::A);
        assert_eq!(sel.selected, 1);
        assert_eq!(sel.payment, Money::from_dollars(6.0));
        // eq. 1 regret for the cheaper possible plan.
        assert_eq!(sel.regrets, vec![(0, Money::from_dollars(4.0))]);
    }

    #[test]
    fn deadline_excludes_slow_plans() {
        // Both plans cost $1, but the slow one exceeds t_max ⇒ Case C.
        let plans = vec![plan(1.0, 1.0, true), plan(20.0, 1.0, true)];
        let sel = select_plan(&plans, &step(5.0, 10.0), SelectionObjective::Cheapest);
        assert_eq!(sel.case, SelectionCase::C);
        assert_eq!(sel.selected, 0);
    }

    #[test]
    fn no_regret_without_possible_plans() {
        let plans = vec![plan(1.0, 3.0, true), plan(2.0, 2.0, true)];
        let sel = select_plan(&plans, &step(5.0, 10.0), SelectionObjective::MinProfit);
        assert!(sel.regrets.is_empty());
    }

    #[test]
    #[should_panic(expected = "P_exist must not be empty")]
    fn all_possible_plans_rejected() {
        let plans = vec![plan(1.0, 1.0, false)];
        let _ = select_plan(&plans, &step(5.0, 10.0), SelectionObjective::MinProfit);
    }
}

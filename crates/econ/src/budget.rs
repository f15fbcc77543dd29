//! User budget functions `B_Q(t)` (Section IV-C, Fig. 1).
//!
//! The user submits, with each query, the price she is willing to pay as a
//! function of the delivered execution time. The paper requires only that
//! the function is non-increasing on `(0, t_max]`; Fig. 1 sketches the
//! three canonical shapes (step, convex, concave), and the experiments use
//! the step shape ("The user defines a step preference function B_Q").

use pricing::Money;
use serde::Serialize;
use simcore::SimDuration;

/// Which of the canonical shapes to generate for users (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BudgetShape {
    /// Fig. 1(a): flat `|a|` until `t_max`, then zero.
    Step,
    /// Fig. 1(b): linear decay `|a| · (1 − t/t_max)` (the convex bound).
    Convex,
    /// Fig. 1(c): concave decay `|a| · (1 − (t/t_max)²)` — stays near the
    /// full amount for fast answers, collapses near the deadline.
    Concave,
}

/// A concrete budget function.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum BudgetFunction {
    /// Flat amount until the deadline.
    Step {
        /// Willingness to pay for any time within the deadline.
        amount: Money,
        /// Deadline `t_max`.
        t_max: SimDuration,
    },
    /// Linearly decaying amount.
    Convex {
        /// Willingness to pay at `t = 0`.
        amount: Money,
        /// Deadline.
        t_max: SimDuration,
    },
    /// Concave (quadratic) decay.
    Concave {
        /// Willingness to pay at `t = 0`.
        amount: Money,
        /// Deadline.
        t_max: SimDuration,
    },
    /// Arbitrary tabulated non-increasing function: `(time, amount)` pairs
    /// sorted by time; the value at `t` is the amount of the last point
    /// with `time ≤ t` (piecewise constant), zero beyond the last point.
    Table(Vec<(SimDuration, Money)>),
}

impl BudgetFunction {
    /// Builds the given shape.
    ///
    /// # Panics
    /// Panics if `amount` is negative or `t_max` is zero.
    #[must_use]
    pub fn of_shape(shape: BudgetShape, amount: Money, t_max: SimDuration) -> Self {
        assert!(!amount.is_negative(), "budget amount must be non-negative");
        assert!(!t_max.is_zero(), "budget deadline must be positive");
        match shape {
            BudgetShape::Step => BudgetFunction::Step { amount, t_max },
            BudgetShape::Convex => BudgetFunction::Convex { amount, t_max },
            BudgetShape::Concave => BudgetFunction::Concave { amount, t_max },
        }
    }

    /// Builds a tabulated function.
    ///
    /// # Panics
    /// Panics unless points are sorted by time with non-increasing amounts
    /// (the paper's descending requirement).
    #[must_use]
    pub fn table(points: Vec<(SimDuration, Money)>) -> Self {
        assert!(!points.is_empty(), "table needs at least one point");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "table times must be strictly increasing");
            assert!(w[0].1 >= w[1].1, "budget must be non-increasing");
        }
        BudgetFunction::Table(points)
    }

    /// The deadline beyond which the budget is zero.
    #[must_use]
    pub fn t_max(&self) -> SimDuration {
        match self {
            BudgetFunction::Step { t_max, .. }
            | BudgetFunction::Convex { t_max, .. }
            | BudgetFunction::Concave { t_max, .. } => *t_max,
            BudgetFunction::Table(points) => points.last().expect("non-empty").0,
        }
    }

    /// Evaluates `B_Q(t)`. Zero beyond `t_max`; never negative.
    #[must_use]
    #[inline]
    pub fn value_at(&self, t: SimDuration) -> Money {
        match self {
            BudgetFunction::Step { amount, t_max } => {
                if t <= *t_max {
                    *amount
                } else {
                    Money::ZERO
                }
            }
            BudgetFunction::Convex { amount, t_max } => {
                if t <= *t_max {
                    let frac = 1.0 - t.as_secs() / t_max.as_secs();
                    amount.scale(frac.max(0.0))
                } else {
                    Money::ZERO
                }
            }
            BudgetFunction::Concave { amount, t_max } => {
                if t <= *t_max {
                    let x = t.as_secs() / t_max.as_secs();
                    amount.scale((1.0 - x * x).max(0.0))
                } else {
                    Money::ZERO
                }
            }
            BudgetFunction::Table(points) => {
                // Last point with time <= t, else the first point applies
                // from t=0 (paper defines budgets on (0, t_max]).
                let mut value = points[0].1;
                for &(pt, amount) in points {
                    if pt <= t {
                        value = amount;
                    } else {
                        break;
                    }
                }
                if t > self.t_max() {
                    Money::ZERO
                } else {
                    value
                }
            }
        }
    }

    /// True if `price` is within budget at time `t`.
    #[must_use]
    #[inline]
    pub fn affords(&self, t: SimDuration, price: Money) -> bool {
        self.value_at(t) >= price
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }
    fn m(x: f64) -> Money {
        Money::from_dollars(x)
    }

    #[test]
    fn step_is_flat_then_zero() {
        let b = BudgetFunction::of_shape(BudgetShape::Step, m(10.0), d(5.0));
        assert_eq!(b.value_at(d(0.0)), m(10.0));
        assert_eq!(b.value_at(d(5.0)), m(10.0));
        assert_eq!(b.value_at(d(5.0001)), Money::ZERO);
        assert_eq!(b.t_max(), d(5.0));
    }

    #[test]
    fn convex_decays_linearly() {
        let b = BudgetFunction::of_shape(BudgetShape::Convex, m(10.0), d(10.0));
        assert_eq!(b.value_at(d(0.0)), m(10.0));
        assert_eq!(b.value_at(d(5.0)), m(5.0));
        assert_eq!(b.value_at(d(10.0)), Money::ZERO);
        assert_eq!(b.value_at(d(11.0)), Money::ZERO);
    }

    #[test]
    fn concave_dominates_convex_inside_deadline() {
        let concave = BudgetFunction::of_shape(BudgetShape::Concave, m(10.0), d(10.0));
        let convex = BudgetFunction::of_shape(BudgetShape::Convex, m(10.0), d(10.0));
        for t in [1.0, 3.0, 5.0, 7.0, 9.0] {
            assert!(
                concave.value_at(d(t)) > convex.value_at(d(t)),
                "concave must stay above the chord at t={t}"
            );
        }
    }

    #[test]
    fn all_shapes_are_non_increasing() {
        for shape in [BudgetShape::Step, BudgetShape::Convex, BudgetShape::Concave] {
            let b = BudgetFunction::of_shape(shape, m(7.0), d(20.0));
            let mut prev = b.value_at(d(0.0));
            for i in 1..=40 {
                let v = b.value_at(d(f64::from(i)));
                assert!(v <= prev, "{shape:?} increased at t={i}");
                prev = v;
            }
        }
    }

    #[test]
    fn table_is_piecewise_constant() {
        let b = BudgetFunction::table(vec![(d(0.0), m(10.0)), (d(2.0), m(6.0)), (d(4.0), m(1.0))]);
        assert_eq!(b.value_at(d(0.0)), m(10.0));
        assert_eq!(b.value_at(d(1.9)), m(10.0));
        assert_eq!(b.value_at(d(2.0)), m(6.0));
        assert_eq!(b.value_at(d(3.9)), m(6.0));
        assert_eq!(b.value_at(d(4.0)), m(1.0));
        assert_eq!(b.value_at(d(4.1)), Money::ZERO);
    }

    #[test]
    fn affords_compares_at_the_plan_time() {
        let b = BudgetFunction::of_shape(BudgetShape::Convex, m(10.0), d(10.0));
        assert!(b.affords(d(2.0), m(8.0)));
        assert!(!b.affords(d(2.1), m(8.0)));
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn increasing_table_rejected() {
        let _ = BudgetFunction::table(vec![(d(0.0), m(1.0)), (d(1.0), m(2.0))]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_table_rejected() {
        let _ = BudgetFunction::table(vec![(d(1.0), m(2.0)), (d(1.0), m(1.0))]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_deadline_rejected() {
        let _ = BudgetFunction::of_shape(BudgetShape::Step, m(1.0), SimDuration::ZERO);
    }
}

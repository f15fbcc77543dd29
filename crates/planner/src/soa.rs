//! Struct-of-arrays view of a plan set's selection-hot fields.
//!
//! The skyline reduction and the case analysis read exactly three fields
//! per plan — execution time, price, and the existing flag — yet a
//! [`QueryPlan`] scatters them across a struct holding vectors, cost
//! breakdowns and shape data. [`PlanHot`] packs those three fields into
//! parallel slices so the per-query selection loops become
//! branch-predictable linear scans over dense memory instead of strided
//! pointer-chasing through ~200-byte plan records.
//!
//! The view is a *projection*: filling it never clones a plan, and every
//! value is bit-identical to the source field, so selections computed
//! over the view equal selections computed over the plans. Fused
//! enumeration writes these rows directly as the hot half of
//! [`crate::PlanRows`]; [`PlanHot::fill`] projects them from a
//! materialized plan slice.

use pricing::Money;
use simcore::SimDuration;

use crate::plan::QueryPlan;

/// Parallel slices of the selection-hot plan fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanHot {
    /// Execution time per plan (the `t` of `B_PQ(t)`).
    pub time: Vec<SimDuration>,
    /// Price per plan (`B_PQ`).
    pub price: Vec<Money>,
    /// True iff the plan is in `P_exist` (its `missing` list is empty).
    pub existing: Vec<bool>,
}

impl PlanHot {
    /// Empty view.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// True if no rows are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Clears the view, keeping capacity.
    pub fn clear(&mut self) {
        self.time.clear();
        self.price.clear();
        self.existing.clear();
    }

    /// Refills the view from a plan slice (clearing first).
    pub fn fill(&mut self, plans: &[QueryPlan]) {
        self.clear();
        self.time.reserve(plans.len());
        self.price.reserve(plans.len());
        self.existing.reserve(plans.len());
        for p in plans {
            self.time.push(p.exec_time);
            self.price.push(p.price);
            self.existing.push(p.is_existing());
        }
    }

    /// A filled view over `plans`.
    #[must_use]
    pub fn of(plans: &[QueryPlan]) -> Self {
        let mut hot = Self::default();
        hot.fill(plans);
        hot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanShape;
    use metrics::CostBreakdown;

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

    #[test]
    fn fill_projects_the_hot_fields() {
        let plans = vec![plan(1.0, 2.0, true), plan(3.0, 0.5, false)];
        let hot = PlanHot::of(&plans);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot.time[1], SimDuration::from_secs(3.0));
        assert_eq!(hot.price[0], Money::from_dollars(2.0));
        assert_eq!(hot.existing, vec![true, false]);
    }

    #[test]
    fn refill_replaces_previous_rows() {
        let mut hot = PlanHot::of(&[plan(1.0, 1.0, true)]);
        hot.fill(&[plan(2.0, 2.0, false), plan(4.0, 1.0, true)]);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot.existing, vec![false, true]);
        assert!(!hot.is_empty());
        hot.clear();
        assert!(hot.is_empty());
    }
}

//! Query plan representation.

use cache::{IndexId, StructureKey};
use metrics::CostBreakdown;
use pricing::Money;
use serde::Serialize;
use simcore::SimDuration;

/// Where and how a plan executes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum PlanShape {
    /// Run entirely on the back-end database, ship the result to the cloud
    /// (eq. 9 of the paper). Always available.
    Backend,
    /// Run in the cloud cache.
    Cache {
        /// Indexes assigned per table access (parallel to the query's
        /// access list; `None` = full column scan for that access).
        indexes: Vec<Option<IndexId>>,
        /// Total CPU nodes employed (1 = just the base node).
        nodes: u32,
    },
}

impl PlanShape {
    /// Number of nodes the plan occupies (backend plans use none of the
    /// cache's nodes).
    #[must_use]
    pub fn cache_nodes(&self) -> u32 {
        match self {
            PlanShape::Backend => 0,
            PlanShape::Cache { nodes, .. } => *nodes,
        }
    }

    /// True if any access uses an index.
    #[must_use]
    pub fn uses_indexes(&self) -> bool {
        match self {
            PlanShape::Backend => false,
            PlanShape::Cache { indexes, .. } => indexes.iter().any(Option::is_some),
        }
    }
}

/// A fully costed query plan — one point of the paper's `B_PQ` function.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueryPlan {
    /// Execution shape.
    pub shape: PlanShape,
    /// Estimated wall-clock execution time (the `t` of `B_PQ(t)`).
    pub exec_time: SimDuration,
    /// Execution resource cost `Ce` (eq. 8 / eq. 9).
    pub exec_cost: Money,
    /// Per-resource split of `exec_cost` (for operating-cost booking).
    pub exec_breakdown: CostBreakdown,
    /// Every structure the plan employs (existing and missing).
    pub uses: Vec<StructureKey>,
    /// Structures that would have to be built first. Empty ⇒ the plan is
    /// in `P_exist`; non-empty ⇒ `P_pos`.
    pub missing: Vec<StructureKey>,
    /// Total build cost of the missing structures (eqs. 10/12/14).
    pub build_cost: Money,
    /// Wall-clock to build the missing structures (builds proceed in
    /// parallel, so this is the max, not the sum).
    pub build_time: SimDuration,
    /// Amortisation installments due from this plan (`Ca`, eqs. 5–7).
    pub amortized_cost: Money,
    /// Maintenance accrued since each used structure was last paid
    /// (footnote 3 of the paper).
    pub maintenance_cost: Money,
    /// The plan's price to the user:
    /// `B_PQ = Ce + Ca + maintenance` (eq. 4 extended per footnote 3).
    pub price: Money,
}

impl QueryPlan {
    /// True if the plan runs on existing structures only (`P_exist`).
    #[must_use]
    pub fn is_existing(&self) -> bool {
        self.missing.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(shape: PlanShape, missing: Vec<StructureKey>) -> QueryPlan {
        QueryPlan {
            shape,
            exec_time: SimDuration::from_secs(1.0),
            exec_cost: Money::from_dollars(0.01),
            exec_breakdown: CostBreakdown::ZERO,
            uses: vec![],
            missing,
            build_cost: Money::ZERO,
            build_time: SimDuration::ZERO,
            amortized_cost: Money::ZERO,
            maintenance_cost: Money::ZERO,
            price: Money::from_dollars(0.01),
        }
    }

    #[test]
    fn existing_iff_missing_empty() {
        assert!(plan(PlanShape::Backend, vec![]).is_existing());
        assert!(!plan(PlanShape::Backend, vec![StructureKey::Node(0)]).is_existing());
    }

    #[test]
    fn shape_helpers() {
        let backend = PlanShape::Backend;
        assert_eq!(backend.cache_nodes(), 0);
        assert!(!backend.uses_indexes());
        let cache = PlanShape::Cache {
            indexes: vec![None, Some(IndexId(3))],
            nodes: 3,
        };
        assert_eq!(cache.cache_nodes(), 3);
        assert!(cache.uses_indexes());
        let scan = PlanShape::Cache {
            indexes: vec![None],
            nodes: 1,
        };
        assert!(!scan.uses_indexes());
    }
}

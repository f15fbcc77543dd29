//! Per-query outcome reporting.

use cache::StructureKey;
use metrics::CostBreakdown;
use pricing::Money;
use serde::{Deserialize, Serialize};
use simcore::SimDuration;

/// Which branch of the Section IV-C case analysis applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionCase {
    /// Budget below every plan.
    A,
    /// Budget covers every plan.
    B,
    /// Budget covers a strict subset.
    C,
}

/// Everything the simulator needs to know about one processed query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Case that applied.
    pub case: SelectionCase,
    /// Wall-clock response time of the executed plan.
    pub response_time: SimDuration,
    /// What the user paid.
    pub payment: Money,
    /// Cloud profit on this query (`payment − price`; zero in Case A).
    pub profit: Money,
    /// The executed plan's resource cost (the cloud's expenditure for the
    /// execution itself).
    pub exec_cost: Money,
    /// Per-resource split of `exec_cost`.
    pub exec_breakdown: CostBreakdown,
    /// True if the plan ran in the cache (vs the back-end).
    pub ran_in_cache: bool,
    /// Structures the economy decided to build after this query, with the
    /// build cost paid for each.
    pub investments: Vec<(StructureKey, Money)>,
    /// Structures evicted (failed) before planning this query.
    pub evictions: Vec<StructureKey>,
    /// Maintenance reimbursed by this query's payment.
    pub maintenance_collected: Money,
    /// Amortisation installments collected.
    pub amortization_collected: Money,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_distinct() {
        assert_ne!(SelectionCase::A, SelectionCase::B);
        assert_ne!(SelectionCase::B, SelectionCase::C);
    }

    #[test]
    fn outcome_roundtrips_serde() {
        let o = QueryOutcome {
            case: SelectionCase::B,
            response_time: SimDuration::from_secs(1.5),
            payment: Money::from_dollars(0.02),
            profit: Money::from_dollars(0.005),
            exec_cost: Money::from_dollars(0.01),
            exec_breakdown: CostBreakdown::ZERO,
            ran_in_cache: true,
            investments: vec![],
            evictions: vec![],
            maintenance_collected: Money::ZERO,
            amortization_collected: Money::ZERO,
        };
        let json = serde_json::to_string(&o).unwrap();
        let back: QueryOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }
}

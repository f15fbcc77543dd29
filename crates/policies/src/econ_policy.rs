//! The three economic schemes, as thin configurations of the economy.

use econ::{EconConfig, EconomyManager, QueryOutcome, SelectionObjective};
use planner::{ExecRows, PlannerContext};
use pricing::Money;
use simcore::SimTime;
use workload::Query;

use crate::policy::{CachePolicy, PolicyOutcome};

/// An economic caching scheme: the [`EconomyManager`] plus a display name.
#[derive(Debug)]
pub struct EconPolicy {
    name: &'static str,
    manager: EconomyManager,
}

impl EconPolicy {
    /// econ-col: "query plan execution employs only cached columns and no
    /// indexes" (and no extra nodes) — Section VII-A.
    #[must_use]
    pub fn econ_col(base: EconConfig) -> Self {
        EconPolicy {
            name: "econ-col",
            manager: EconomyManager::new(EconConfig {
                objective: SelectionObjective::Cheapest,
                allow_indexes: false,
                allow_extra_nodes: false,
                ..base
            }),
        }
    }

    /// econ-cheap: "builds and uses indexes, and adds extra CPU nodes …
    /// the plan with the least cost is chosen".
    #[must_use]
    pub fn econ_cheap(base: EconConfig) -> Self {
        EconPolicy {
            name: "econ-cheap",
            manager: EconomyManager::new(EconConfig {
                objective: SelectionObjective::Cheapest,
                allow_indexes: true,
                allow_extra_nodes: true,
                ..base
            }),
        }
    }

    /// econ-fast: "similar to econ-cheap, but selects the query plan with
    /// the fastest response time".
    #[must_use]
    pub fn econ_fast(base: EconConfig) -> Self {
        EconPolicy {
            name: "econ-fast",
            manager: EconomyManager::new(EconConfig {
                objective: SelectionObjective::Fastest,
                allow_indexes: true,
                allow_extra_nodes: true,
                ..base
            }),
        }
    }

    /// The altruistic default of Section IV-C (min-profit objective) —
    /// not one of the paper's measured schemes, but the Definition 1 cloud.
    #[must_use]
    pub fn altruistic(base: EconConfig) -> Self {
        EconPolicy {
            name: "econ-altruistic",
            manager: EconomyManager::new(EconConfig {
                objective: SelectionObjective::MinProfit,
                allow_indexes: true,
                allow_extra_nodes: true,
                ..base
            }),
        }
    }

    /// The underlying economy (diagnostics).
    #[must_use]
    pub fn manager(&self) -> &EconomyManager {
        &self.manager
    }
}

impl CachePolicy for EconPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn process_query(
        &mut self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> PolicyOutcome {
        policy_outcome(self.manager.process_query(ctx, query, exec, now))
    }

    fn quote(
        &self,
        ctx: &PlannerContext<'_>,
        query: &Query,
        exec: &ExecRows,
        now: SimTime,
    ) -> Money {
        self.manager.quote_query(ctx, query, exec, now)
    }

    fn economy(&self) -> Option<&EconomyManager> {
        Some(&self.manager)
    }

    fn disk_used(&self) -> u64 {
        self.manager.cache().disk_used()
    }

    fn disk_byte_seconds(&self) -> f64 {
        self.manager.cache().disk_byte_seconds()
    }

    fn active_extra_nodes(&self, now: SimTime) -> u32 {
        self.manager.cache().available_extra_nodes(now)
    }

    fn advance(&mut self, now: SimTime) {
        // Route through the cache's occupancy accrual; the manager's
        // process_query advances on arrivals, this covers the run tail.
        self.manager.advance_to(now);
    }

    fn rebase_occupancy(&mut self, now: SimTime) {
        self.manager.rebase_occupancy(now);
    }
}

/// The simulator's view of an economy's outcome.
fn policy_outcome(o: QueryOutcome) -> PolicyOutcome {
    let build_spend: Money = o.investments.iter().map(|&(_, cost)| cost).sum();
    PolicyOutcome {
        response_time: o.response_time,
        ran_in_cache: o.ran_in_cache,
        exec_breakdown: o.exec_breakdown,
        build_spend,
        payment: o.payment,
        profit: o.profit,
        investments: o.investments.len() as u32,
        evictions: o.evictions.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use planner::{generate_candidates, CostParams, Estimator};
    use pricing::PriceCatalog;
    use simcore::NetworkModel;
    use std::sync::Arc;
    use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

    fn fixture() -> (
        Arc<catalog::Schema>,
        Vec<cache::IndexDef>,
        Estimator,
        WorkloadGenerator,
    ) {
        let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        let gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 3);
        (schema, candidates, estimator, gen)
    }

    #[test]
    fn names_match_the_paper() {
        let base = EconConfig::default();
        assert_eq!(EconPolicy::econ_col(base.clone()).name(), "econ-col");
        assert_eq!(EconPolicy::econ_cheap(base.clone()).name(), "econ-cheap");
        assert_eq!(EconPolicy::econ_fast(base.clone()).name(), "econ-fast");
        assert_eq!(EconPolicy::altruistic(base).name(), "econ-altruistic");
    }

    #[test]
    fn econ_col_forbids_indexes_and_nodes() {
        let p = EconPolicy::econ_col(EconConfig::default());
        assert!(!p.manager().config().allow_indexes);
        assert!(!p.manager().config().allow_extra_nodes);
    }

    #[test]
    fn outcome_fields_are_consistent() {
        let (schema, candidates, estimator, mut gen) = fixture();
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
        let ctx = PlannerContext {
            schema: &schema,
            candidates: &candidates,
            cand_index: &cand_index,
            estimator: &estimator,
        };
        let mut p = EconPolicy::econ_cheap(EconConfig::default());
        for i in 0..50 {
            let q = gen.next_query();
            let o = p.process_query(
                &ctx,
                &q,
                &ExecRows::build(&ctx, &q),
                SimTime::from_secs((i + 1) as f64),
            );
            assert!(!o.payment.is_negative());
            assert!(!o.profit.is_negative());
            assert!(o.payment >= o.profit);
        }
        assert!(p.manager().account().balances_exactly());
    }

    #[test]
    fn disk_accounting_reaches_the_trait() {
        let (schema, candidates, estimator, mut gen) = fixture();
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
        let ctx = PlannerContext {
            schema: &schema,
            candidates: &candidates,
            cand_index: &cand_index,
            estimator: &estimator,
        };
        let mut p = EconPolicy::econ_cheap(EconConfig::default());
        for i in 0..10 {
            let q = gen.next_query();
            let _ = p.process_query(
                &ctx,
                &q,
                &ExecRows::build(&ctx, &q),
                SimTime::from_secs((i + 1) as f64),
            );
        }
        p.advance(SimTime::from_secs(1000.0));
        // Whether or not anything was built, the integral must be
        // internally consistent with usage.
        if p.disk_used() == 0 {
            assert_eq!(p.disk_byte_seconds(), p.disk_byte_seconds());
        } else {
            assert!(p.disk_byte_seconds() > 0.0);
        }
    }
}

//! Cross-crate integration of the economy: ledger conservation, the
//! self-tuning loop, and case coverage, at a scale where every mechanism
//! (investment, amortisation, maintenance, failure) fires.

use std::sync::Arc;

use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::econ::{EconConfig, EconomyManager, InvestmentRule, SelectionCase};
use cloudcache::planner::{generate_candidates, CostParams, Estimator, ExecRows, PlannerContext};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimTime};
use cloudcache::workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

struct Harness {
    schema: Arc<cloudcache::catalog::Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: planner::CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn new(sf: f64) -> Self {
        let schema = Arc::new(tpch_schema(ScaleFactor(sf)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    }

    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

fn fast_config() -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        ..EconConfig::default()
    }
}

#[test]
fn every_outcome_keeps_the_ledger_conserved() {
    let h = Harness::new(10.0);
    let ctx = h.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), 3);
    let mut m = EconomyManager::new(fast_config());
    let mut paid = Money::ZERO;
    let mut invested = Money::ZERO;
    for i in 0..3000u64 {
        let q = gen.next_query();
        let o = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs(i as f64 + 1.0),
        );
        paid += o.payment;
        invested += o.investments.iter().map(|&(_, c)| c).sum::<Money>();
        assert!(!o.profit.is_negative());
        assert!(o.payment >= o.profit, "profit cannot exceed payment");
    }
    // Account balance = initial + payments − investments, exactly.
    let expected = Money::from_dollars(0.02) + paid - invested;
    assert_eq!(m.account().balance(), expected);
    assert!(m.account().balances_exactly());
    assert_eq!(m.account().total_payments(), paid);
    assert_eq!(m.account().total_investments(), invested);
}

#[test]
fn the_self_tuning_loop_closes() {
    // Regret → investment → cache execution → profit: all four stages
    // must be observable in one run.
    let h = Harness::new(10.0);
    let ctx = h.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), 5);
    let mut m = EconomyManager::new(fast_config());
    let mut invested = 0usize;
    let mut cache_runs = 0usize;
    let mut profit = Money::ZERO;
    for i in 0..3000u64 {
        let q = gen.next_query();
        let o = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs(i as f64 + 1.0),
        );
        invested += o.investments.len();
        cache_runs += usize::from(o.ran_in_cache);
        profit += o.profit;
    }
    assert!(invested > 0, "no investments");
    assert!(cache_runs > 0, "no cache executions");
    assert!(profit.is_positive(), "no profit");
    assert!(
        m.cache().disk_used() > 0,
        "cache should hold structures at the end"
    );
}

#[test]
fn amortization_collected_never_exceeds_build_spending() {
    let h = Harness::new(10.0);
    let ctx = h.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), 8);
    let mut m = EconomyManager::new(fast_config());
    let mut collected = Money::ZERO;
    let mut built = Money::ZERO;
    for i in 0..4000u64 {
        let q = gen.next_query();
        let o = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs(i as f64 + 1.0),
        );
        collected += o.amortization_collected;
        built += o.investments.iter().map(|&(_, c)| c).sum::<Money>();
    }
    assert!(built.is_positive());
    assert!(
        collected <= built,
        "recouped {collected} of {built} — amortisation overcharged"
    );
    assert!(collected.is_positive(), "installments should flow");
}

#[test]
fn cases_b_and_c_both_occur_under_step_budgets() {
    let h = Harness::new(10.0);
    let ctx = h.ctx();
    let mut gen = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), 9);
    let mut m = EconomyManager::new(fast_config());
    let mut seen_b = false;
    let mut seen_c = false;
    for i in 0..2000u64 {
        let q = gen.next_query();
        let o = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs(i as f64 + 1.0),
        );
        match o.case {
            SelectionCase::B => seen_b = true,
            SelectionCase::C => seen_c = true,
            SelectionCase::A => {}
        }
    }
    assert!(seen_b, "case B never occurred");
    assert!(seen_c, "case C never occurred");
}

#[test]
fn network_only_prices_reproduce_the_bypass_blindspot() {
    // Under the network-only catalog (the paper's emulation of
    // bypass-yield), disk and CPU are free, so the economy happily holds
    // structures it would otherwise fail: no maintenance-driven evictions.
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::network_only(),
        NetworkModel::paper_sdss(),
    );
    let cand_index = planner::CandidateIndex::build(&schema, &candidates);
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 10);
    let mut m = EconomyManager::new(fast_config());
    let mut evictions = 0usize;
    for i in 0..3000u64 {
        let q = gen.next_query();
        let o = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs((i as f64 + 1.0) * 30.0),
        );
        evictions += o.evictions.len();
    }
    assert_eq!(
        evictions, 0,
        "free disk ⇒ maintenance never accrues ⇒ nothing fails"
    );
}

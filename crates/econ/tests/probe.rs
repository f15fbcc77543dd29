//! Diagnostic probe (run with --ignored) to inspect the per-query economics.
use catalog::tpch::{tpch_schema, ScaleFactor};
use econ::budget::{BudgetFunction, BudgetShape};
use planner::enumerate::EnumerationOptions;
use planner::{
    enumerate_plans, generate_candidates, CostParams, Estimator, ExecRows, PlannerContext,
};
use pricing::PriceCatalog;
use simcore::{NetworkModel, SimTime};
use std::sync::Arc;
use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

#[test]
#[ignore = "diagnostic"]
fn probe() {
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = planner::CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 2);
    let cache = cache::CacheState::new();
    for i in 0..5 {
        let q = gen.next_query();
        let plans = enumerate_plans(
            &ctx,
            &q,
            &cache,
            SimTime::from_secs(i as f64 + 1.0),
            EnumerationOptions::default(),
        );
        let backend = plans
            .iter()
            .find(|p| p.shape == planner::plan::PlanShape::Backend)
            .unwrap();
        let budget = BudgetFunction::of_shape(
            BudgetShape::Step,
            backend.price.scale(q.budget_scale),
            backend.exec_time * 2.0,
        );
        println!(
            "--- q{} template {} sel {:.2e} result {} bytes",
            i, q.template.0, q.selectivities[0], q.result_bytes
        );
        println!(
            "budget: {} tmax {:.3}s",
            budget.value_at(simcore::SimDuration::ZERO),
            budget.t_max().as_secs()
        );
        for p in &plans {
            println!(
                "  {:?} time {:.3}s exec ${:.6} amort ${:.6} price ${:.6} missing {} build ${:.4}",
                p.shape,
                p.exec_time.as_secs(),
                p.exec_cost.as_dollars(),
                p.amortized_cost.as_dollars(),
                p.price.as_dollars(),
                p.missing.len(),
                p.build_cost.as_dollars()
            );
        }
    }
}

#[test]
#[ignore = "diagnostic"]
fn probe_manager() {
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = planner::CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 2);
    let cfg = econ::EconConfig {
        initial_credit: pricing::Money::from_dollars(0.02),
        investment: econ::InvestmentRule {
            min_regret: pricing::Money::from_dollars(1e-5),
            ..econ::InvestmentRule::default()
        },
        ..econ::EconConfig::default()
    };
    let mut m = econ::EconomyManager::new(cfg);
    let mut builds = 0usize;
    for i in 0..2500 {
        let q = gen.next_query();
        let o = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs((i + 1) as f64),
        );
        builds += o.investments.len();
        if i % 250 == 0 {
            let bal = m.account().balance();
            let thr = m.config().investment.threshold(bal);
            let hits = builds; // reuse counter var for printing
            println!("q{i}: case {:?} cache={} balance ${:.4} threshold ${:.5} pool {} total_regret ${:.5} builds {hits} cached_structs {}",
                o.case, o.ran_in_cache, bal.as_dollars(), thr.as_dollars(), m.regret().len(), m.regret().total().as_dollars(), m.cache().len());
        }
    }
}

#[test]
#[ignore = "diagnostic"]
fn probe_top_regrets() {
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = planner::CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 2);
    let cfg = econ::EconConfig {
        initial_credit: pricing::Money::from_dollars(0.02),
        investment: econ::InvestmentRule {
            min_regret: pricing::Money::from_dollars(1e-5),
            ..econ::InvestmentRule::default()
        },
        ..econ::EconConfig::default()
    };
    let mut m = econ::EconomyManager::new(cfg);
    for i in 0..400 {
        let q = gen.next_query();
        let _ = m.process_query(
            &ctx,
            &q,
            &ExecRows::build(&ctx, &q),
            SimTime::from_secs((i + 1) as f64),
        );
    }
    let bal = m.account().balance();
    println!(
        "balance ${:.4} threshold ${:.5}",
        bal.as_dollars(),
        m.config().investment.threshold(bal).as_dollars()
    );
    let tops = m.regret().over_threshold(pricing::Money::from_nanos(1));
    for (k, r) in tops.iter().take(12) {
        let cost = match k {
            cache::StructureKey::Column(c) => estimator.build_column(&schema, *c).0,
            cache::StructureKey::Index(id) => {
                estimator
                    .build_index(&schema, &candidates[id.index()], |_| false)
                    .0
            }
            cache::StructureKey::Node(_) => estimator.build_node().0,
        };
        println!(
            "{k}: regret ${:.5} build ${:.4}",
            r.as_dollars(),
            cost.as_dollars()
        );
    }
}

#[test]
#[ignore = "diagnostic"]
fn probe_late_plans() {
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = planner::CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 2);
    let cfg = econ::EconConfig {
        initial_credit: pricing::Money::from_dollars(0.02),
        investment: econ::InvestmentRule {
            min_regret: pricing::Money::from_dollars(1e-5),
            ..econ::InvestmentRule::default()
        },
        ..econ::EconConfig::default()
    };
    let mut m = econ::EconomyManager::new(cfg);
    let mut cache_hits = 0;
    for i in 0..2500 {
        let q = gen.next_query();
        let now = SimTime::from_secs((i + 1) as f64);
        if i >= 2400 {
            let plans = enumerate_plans(&ctx, &q, m.cache(), now, EnumerationOptions::default());
            let nexist = plans.iter().filter(|p| p.is_existing()).count();
            let best_exist = plans
                .iter()
                .filter(|p| p.is_existing() && p.shape != planner::plan::PlanShape::Backend)
                .map(|p| p.price.as_dollars())
                .fold(f64::INFINITY, f64::min);
            let backend = plans
                .iter()
                .find(|p| p.shape == planner::plan::PlanShape::Backend)
                .unwrap();
            if i < 2420 {
                println!("q{i} t{} exist={} backend ${:.6} best_cache_exist ${:.6} missing_of_scan1: {:?}",
                q.template.0, nexist, backend.price.as_dollars(), best_exist,
                plans.iter().find(|p| matches!(&p.shape, planner::plan::PlanShape::Cache{indexes, nodes:1} if indexes.iter().all(Option::is_none))).map(|p| p.missing.len()));
            }
        }
        let o = m.process_query(&ctx, &q, &ExecRows::build(&ctx, &q), now);
        if o.ran_in_cache {
            cache_hits += 1;
        }
    }
    println!("total cache hits: {cache_hits}");
}

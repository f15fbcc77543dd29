//! Criterion micro-benches for the hot components of the simulator:
//! budget evaluation, skyline filtering, regret bookkeeping, money
//! arithmetic and workload generation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cache::StructureKey;
use catalog::tpch::{tpch_schema, ScaleFactor};
use catalog::ColumnId;
use econ::budget::{BudgetFunction, BudgetShape};
use econ::regret::{RegretAttribution, RegretLedger};
use metrics::CostBreakdown;
use planner::plan::{PlanShape, QueryPlan};
use planner::skyline_filter;
use pricing::Money;
use simcore::sample::Zipf;
use simcore::{SimDuration, SimRng};
use std::sync::Arc;
use workload::{WorkloadConfig, WorkloadGenerator};

fn synthetic_plans(n: usize) -> Vec<QueryPlan> {
    (0..n)
        .map(|i| {
            let t = 1.0 + (i as f64 * 7.3) % 13.0;
            let p = 0.001 + ((i as f64 * 3.1) % 11.0) / 1000.0;
            QueryPlan {
                shape: PlanShape::Backend,
                exec_time: SimDuration::from_secs(t),
                exec_cost: Money::from_dollars(p),
                exec_breakdown: CostBreakdown::ZERO,
                uses: vec![],
                missing: vec![],
                build_cost: Money::ZERO,
                build_time: SimDuration::ZERO,
                amortized_cost: Money::ZERO,
                maintenance_cost: Money::ZERO,
                price: Money::from_dollars(p),
            }
        })
        .collect()
}

fn bench_budget(c: &mut Criterion) {
    let budget = BudgetFunction::of_shape(
        BudgetShape::Concave,
        Money::from_dollars(10.0),
        SimDuration::from_secs(20.0),
    );
    c.bench_function("budget_eval_concave", |b| {
        b.iter(|| budget.value_at(black_box(SimDuration::from_secs(7.5))))
    });
}

fn bench_skyline(c: &mut Criterion) {
    let plans = synthetic_plans(64);
    c.bench_function("skyline_filter_64_plans", |b| {
        b.iter(|| skyline_filter(black_box(plans.clone())))
    });
}

fn bench_regret(c: &mut Criterion) {
    let uses: Vec<StructureKey> = (0..12).map(|i| StructureKey::Column(ColumnId(i))).collect();
    c.bench_function("regret_distribute_12_structures", |b| {
        let mut ledger = RegretLedger::new(512);
        b.iter(|| {
            ledger.distribute(
                black_box(&uses),
                Money::from_dollars(0.01),
                RegretAttribution::FullValue,
            )
        })
    });
}

fn bench_money(c: &mut Criterion) {
    c.bench_function("money_sum_1000", |b| {
        let amounts: Vec<Money> = (0..1000).map(|i| Money::from_nanos(i * 37)).collect();
        b.iter(|| amounts.iter().copied().sum::<Money>())
    });
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(10_000, 1.1);
    let mut rng = SimRng::new(42);
    c.bench_function("zipf_sample_10k_ranks", |b| {
        b.iter(|| zipf.sample(&mut rng))
    });
}

fn bench_workload(c: &mut Criterion) {
    let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
    c.bench_function("workload_next_query", |b| {
        let mut gen = WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 7);
        b.iter(|| black_box(gen.next_query()))
    });
}

criterion_group!(
    benches,
    bench_budget,
    bench_skyline,
    bench_regret,
    bench_money,
    bench_zipf,
    bench_workload
);
criterion_main!(benches);

//! Criterion benches for the planner: full plan enumeration against cold
//! and warm caches at the paper's 2.5 TB scale, fresh enumeration over
//! the paper template mix at SF 100 (the `paper-single` regime, where
//! each query's compiled shape is a table hit) split into its two
//! halves — filling a query's execution rows and binding them to a cold
//! or warm cache — a single economy step, one cheapest-quote round over
//! 8 Convex-budget nodes, and one `fleet-market` arrival: the rows
//! filled once, the decided round over 8 Step-budget nodes and the
//! winner's serve over the same rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cache::{CacheState, StructureKey};
use catalog::tpch::{tpch_schema, ScaleFactor};
use econ::{BudgetShape, EconConfig, EconomyManager};
use fleet::{CacheNode, CheapestQuote, FleetConfig, NodeSpec, Router};
use planner::enumerate::EnumerationOptions;
use planner::{
    bind_plans_into, enumerate_plans, generate_candidates, CostParams, Estimator, ExecRows,
    PlanRows, PlannerContext,
};
use pricing::{Money, PriceCatalog};
use simcore::{NetworkModel, SimDuration, SimTime};
use simulator::Scheme;
use std::sync::Arc;
use workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};

struct Fx {
    schema: Arc<catalog::Schema>,
    candidates: Vec<cache::IndexDef>,
    cand_index: planner::CandidateIndex,
    estimator: Estimator,
    queries: Vec<Query>,
}

impl Fx {
    fn new(sf: f64, queries: usize) -> Self {
        let schema = Arc::new(tpch_schema(ScaleFactor(sf)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        let queries: Vec<Query> =
            WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 11)
                .take(queries)
                .collect();
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
        Fx {
            schema,
            candidates,
            cand_index,
            estimator,
            queries,
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

    fn warm_cache(&self) -> CacheState {
        let mut cache = CacheState::new();
        for q in &self.queries {
            for c in q.all_columns() {
                let key = StructureKey::Column(c);
                if !cache.contains(key) {
                    cache.install(
                        key,
                        self.schema.column_bytes(c),
                        SimTime::ZERO,
                        SimDuration::ZERO,
                        Money::from_dollars(1.0),
                        10_000,
                    );
                }
            }
        }
        cache
    }
}

fn bench_enumeration(c: &mut Criterion) {
    let fx = Fx::new(2500.0, 256);
    let ctx = fx.ctx();
    let cold = CacheState::new();
    let warm = fx.warm_cache();
    let now = SimTime::from_secs(100.0);
    let opts = EnumerationOptions::default();

    let mut i = 0;
    c.bench_function("enumerate_plans_cold_cache_sf2500", |b| {
        b.iter(|| {
            i = (i + 1) % fx.queries.len();
            black_box(enumerate_plans(&ctx, &fx.queries[i], &cold, now, opts))
        })
    });
    let mut j = 0;
    c.bench_function("enumerate_plans_warm_cache_sf2500", |b| {
        b.iter(|| {
            j = (j + 1) % fx.queries.len();
            black_box(enumerate_plans(&ctx, &fx.queries[j], &warm, now, opts))
        })
    });
}

fn bench_fresh_enumeration(c: &mut Criterion) {
    let fx = Fx::new(100.0, 4096);
    let ctx = fx.ctx();
    let now = SimTime::from_secs(100.0);
    let opts = EnumerationOptions::default();
    let mut group = c.benchmark_group("enumerate_plans_fresh_sf100");
    let mut exec = ExecRows::new();
    let mut i = 0;
    group.bench_function("fill", |b| {
        b.iter(|| {
            i = (i + 1) % fx.queries.len();
            exec.fill(&ctx, &fx.queries[i]);
            black_box(exec.backend_cost)
        })
    });
    let filled: Vec<ExecRows> = fx
        .queries
        .iter()
        .map(|q| ExecRows::build(&ctx, q))
        .collect();
    for (name, cache) in [
        ("bind_cold", CacheState::new()),
        ("bind_warm", fx.warm_cache()),
    ] {
        let mut rows = PlanRows::new();
        let mut i = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % filled.len();
                bind_plans_into(&ctx, &filled[i], &cache, now, opts, &mut rows);
                black_box(rows.len())
            })
        });
    }
    group.finish();
}

fn bench_economy_step(c: &mut Criterion) {
    let fx = Fx::new(2500.0, 256);
    let ctx = fx.ctx();
    c.bench_function("economy_process_query_sf2500", |b| {
        let mut manager = EconomyManager::new(EconConfig::default());
        let mut gen = WorkloadGenerator::new(Arc::clone(&fx.schema), WorkloadConfig::default(), 23);
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            let q = gen.next_query();
            black_box(manager.process_query(&ctx, &q, SimTime::from_secs(t)))
        })
    });
}

/// Cheapest-quote rounds in fleet-market's shape with Convex budgets, so
/// no round is decided from the budgets alone: 8 econ-cheap nodes at
/// SF 5, warmed by routing and serving the first half of a pre-drawn
/// stream, then timed routing (the quote round alone, no serve; routing
/// changes no node's state) over the second half.
fn bench_quote_round(c: &mut Criterion) {
    let fx = Fx::new(5.0, 4096);
    let ctx = fx.ctx();
    let mut econ = FleetConfig::uniform(1, 8, 1, 1.0).econ;
    econ.budget_shape = BudgetShape::Convex;
    let (warm, timed) = fx.queries.split_at(fx.queries.len() / 2);
    let mut nodes: Vec<CacheNode> = (0..8)
        .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &fx.schema, &econ))
        .collect();
    let mut router = CheapestQuote::default();
    let mut now = SimTime::ZERO;
    for q in warm {
        now += SimDuration::from_secs(1.0);
        for node in &mut nodes {
            node.accrue(now);
        }
        let winner = router.route(&nodes, &ctx, q, now);
        let _ = nodes[winner].serve(&ctx, q, now);
    }
    now += SimDuration::from_secs(1.0);
    let mut i = 0;
    c.bench_function("quote_round_convex_8_nodes", |b| {
        b.iter(|| {
            i = (i + 1) % timed.len();
            black_box(router.route(&nodes, &ctx, &timed[i], now))
        })
    });
}

/// One `fleet-market` arrival after warm-up: 8 econ-cheap nodes under
/// the default Step budget at SF 5, the arrival's execution rows filled
/// once, the budget-decided round over them (one distinct budget, so one
/// check) and the winner's serve binding the same rows. Each iteration
/// is the next arrival of a pre-drawn stream, one second apart, as the
/// cell loop runs it.
fn bench_market_arrival(c: &mut Criterion) {
    let fx = Fx::new(5.0, 4096);
    let ctx = fx.ctx();
    let econ = FleetConfig::uniform(1, 8, 1, 1.0).econ;
    let mut nodes: Vec<CacheNode> = (0..8)
        .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &fx.schema, &econ))
        .collect();
    let mut router = CheapestQuote::default();
    let mut exec = ExecRows::new();
    let mut now = SimTime::ZERO;
    let mut arrive = |i: usize, now: SimTime, nodes: &mut [CacheNode]| {
        for node in nodes.iter_mut() {
            node.accrue(now);
        }
        let q = &fx.queries[i % fx.queries.len()];
        exec.fill(&ctx, q);
        let winner = router.route_with(nodes, &ctx, q, &exec, now);
        nodes[winner].serve_with(&ctx, q, &exec, now, 0.0)
    };
    for i in 0..fx.queries.len() {
        now += SimDuration::from_secs(1.0);
        let _ = arrive(i, now, &mut nodes);
    }
    let mut i = 0;
    c.bench_function("fleet_market_arrival_step_8_nodes", |b| {
        b.iter(|| {
            i += 1;
            now += SimDuration::from_secs(1.0);
            black_box(arrive(i, now, &mut nodes))
        })
    });
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_fresh_enumeration,
    bench_economy_step,
    bench_quote_round,
    bench_market_arrival
);
criterion_main!(benches);

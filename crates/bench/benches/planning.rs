//! Criterion benches for the planner: full plan enumeration against cold
//! and warm caches at the paper's 2.5 TB scale, fresh enumeration into
//! reused rows over the paper template mix at SF 100 (the `paper-single`
//! regime, where each query's compiled shape is a table hit), and a
//! single economy step.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cache::{CacheState, StructureKey};
use catalog::tpch::{tpch_schema, ScaleFactor};
use econ::{EconConfig, EconomyManager};
use planner::enumerate::EnumerationOptions;
use planner::{
    enumerate_plans, enumerate_plans_into, generate_candidates, CostParams, Estimator, PlanRows,
    PlannerContext,
};
use pricing::{Money, PriceCatalog};
use simcore::{NetworkModel, SimDuration, SimTime};
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
    for (name, cache) in [("cold", CacheState::new()), ("warm", fx.warm_cache())] {
        let mut rows = PlanRows::new();
        let mut i = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                i = (i + 1) % fx.queries.len();
                enumerate_plans_into(&ctx, &fx.queries[i], &cache, now, opts, &mut rows);
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

criterion_group!(
    benches,
    bench_enumeration,
    bench_fresh_enumeration,
    bench_economy_step
);
criterion_main!(benches);

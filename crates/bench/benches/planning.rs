//! Criterion benches for the planner: full plan enumeration against cold
//! and warm caches at the paper's 2.5 TB scale, fresh enumeration over
//! the paper template mix at SF 100 (the `paper-single` regime, where
//! each query's compiled shape is a table hit) split into its two
//! halves — filling a query's execution rows and binding them to a cold
//! or warm cache — a single economy step at SF 2500 and one warmed
//! `paper-single` step at SF 100, one cheapest-quote round over 8
//! Convex-budget nodes, and one `fleet-market` arrival: the rows filled
//! once, the decided round over 8 Step-budget nodes and the winner's
//! serve over the same rows.
//!
//! Each bench builds its fixture inside its closure, on first use, so a
//! name filter (`cargo bench -p bench --bench planning -- fill`) builds
//! only the fixtures of the rows it selects.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cache::{CacheState, StructureKey};
use catalog::tpch::{tpch_schema, ScaleFactor};
use econ::{BudgetShape, EconConfig, EconomyManager, InvestmentRule};
use fleet::{CacheNode, CheapestQuote, FleetConfig, NodeSpec, Router};
use planner::enumerate::EnumerationOptions;
use planner::{
    bind_plans_into, enumerate_plans, generate_candidates, CostParams, Estimator, ExecRows,
    PlanRows, PlannerContext,
};
use policies::{CachePolicy, EconPolicy, PolicyOutcome};
use pricing::{Money, PriceCatalog};
use simcore::{NetworkModel, SimDuration, SimTime};
use simulator::Scheme;
use std::cell::OnceCell;
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
    let fixture = OnceCell::new();
    let fixture = || {
        fixture.get_or_init(|| {
            let fx = Fx::new(2500.0, 256);
            let warm = fx.warm_cache();
            (fx, warm)
        })
    };
    let cold = CacheState::new();
    let now = SimTime::from_secs(100.0);
    let opts = EnumerationOptions::default();

    let mut i = 0;
    c.bench_function("enumerate_plans_cold_cache_sf2500", |b| {
        let (fx, _) = fixture();
        let ctx = fx.ctx();
        b.iter(|| {
            i = (i + 1) % fx.queries.len();
            black_box(enumerate_plans(&ctx, &fx.queries[i], &cold, now, opts))
        })
    });
    let mut j = 0;
    c.bench_function("enumerate_plans_warm_cache_sf2500", |b| {
        let (fx, warm) = fixture();
        let ctx = fx.ctx();
        b.iter(|| {
            j = (j + 1) % fx.queries.len();
            black_box(enumerate_plans(&ctx, &fx.queries[j], warm, now, opts))
        })
    });
}

fn bench_fresh_enumeration(c: &mut Criterion) {
    let fx = OnceCell::new();
    let fx = || fx.get_or_init(|| Fx::new(100.0, 4096));
    let filled = OnceCell::new();
    let filled = || {
        filled.get_or_init(|| {
            let fx = fx();
            let ctx = fx.ctx();
            fx.queries
                .iter()
                .map(|q| ExecRows::build(&ctx, q))
                .collect::<Vec<_>>()
        })
    };
    let now = SimTime::from_secs(100.0);
    let opts = EnumerationOptions::default();
    let mut group = c.benchmark_group("enumerate_plans_fresh_sf100");
    let mut exec = ExecRows::new();
    let mut i = 0;
    group.bench_function("fill", |b| {
        let fx = fx();
        let ctx = fx.ctx();
        b.iter(|| {
            i = (i + 1) % fx.queries.len();
            exec.fill(&ctx, &fx.queries[i]);
            black_box(exec.backend_cost)
        })
    });
    for warm in [false, true] {
        let mut rows = PlanRows::new();
        let mut i = 0;
        let name = if warm { "bind_warm" } else { "bind_cold" };
        group.bench_function(name, |b| {
            let (fx, filled) = (fx(), filled());
            let ctx = fx.ctx();
            let cache = if warm {
                fx.warm_cache()
            } else {
                CacheState::new()
            };
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
    c.bench_function("economy_process_query_sf2500", |b| {
        let fx = Fx::new(2500.0, 256);
        let ctx = fx.ctx();
        let mut manager = EconomyManager::new(EconConfig::default());
        let mut gen = WorkloadGenerator::new(Arc::clone(&fx.schema), WorkloadConfig::default(), 23);
        let mut exec = ExecRows::new();
        let mut t = 0.0;
        b.iter(|| {
            t += 1.0;
            let q = gen.next_query();
            exec.fill(&ctx, &q);
            black_box(manager.process_query(&ctx, &q, &exec, SimTime::from_secs(t)))
        })
    });
}

/// One `paper-single` query: an econ-cheap cache at SF 100 with
/// paper-single's economics (initial credit $0.02, regret floor $1e-5),
/// warmed over the first half of a pre-drawn stream at 1 s arrivals,
/// then serving the stream on, one second apart — the per-query
/// planning path (the rows' fill, then `process_query` over them)
/// without the simulator's booking.
fn bench_paper_single_step(c: &mut Criterion) {
    let mut state = None;
    c.bench_function("economy_process_query_sf100", |b| {
        let (fx, policy, exec, now) = state.get_or_insert_with(|| {
            let fx = Fx::new(100.0, 4096);
            let mut policy = EconPolicy::econ_cheap(EconConfig {
                initial_credit: Money::from_dollars(0.02),
                investment: InvestmentRule {
                    min_regret: Money::from_dollars(1e-5),
                    ..InvestmentRule::default()
                },
                ..EconConfig::default()
            });
            let mut exec = ExecRows::new();
            let mut now = SimTime::ZERO;
            for q in &fx.queries[..fx.queries.len() / 2] {
                now += SimDuration::from_secs(1.0);
                exec.fill(&fx.ctx(), q);
                let _ = policy.process_query(&fx.ctx(), q, &exec, now);
            }
            (fx, policy, exec, now)
        });
        let ctx = fx.ctx();
        let mut i = fx.queries.len() / 2;
        b.iter(|| {
            i = (i + 1) % fx.queries.len();
            *now += SimDuration::from_secs(1.0);
            exec.fill(&ctx, &fx.queries[i]);
            black_box(policy.process_query(&ctx, &fx.queries[i], exec, *now))
        })
    });
}

/// Cheapest-quote rounds in fleet-market's shape with Convex budgets, so
/// no round is decided from the budgets alone: 8 econ-cheap nodes at
/// SF 5, warmed by routing and serving the first half of a pre-drawn
/// stream, then timed routing (the quote round alone, no serve; routing
/// changes no node's state) over the second half.
fn bench_quote_round(c: &mut Criterion) {
    let mut state = None;
    let mut i = 0;
    c.bench_function("quote_round_convex_8_nodes", |b| {
        let (fx, nodes, router, now) = state.get_or_insert_with(|| {
            let fx = Fx::new(5.0, 4096);
            let ctx = fx.ctx();
            let mut econ = FleetConfig::uniform(1, 8, 1, 1.0).econ;
            econ.budget_shape = BudgetShape::Convex;
            let mut nodes: Vec<CacheNode> = (0..8)
                .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &fx.schema, &econ))
                .collect();
            let mut router = CheapestQuote::default();
            let mut now = SimTime::ZERO;
            for q in &fx.queries[..fx.queries.len() / 2] {
                now += SimDuration::from_secs(1.0);
                for node in &mut nodes {
                    node.accrue(now);
                }
                let exec = ExecRows::build(&ctx, q);
                let winner = router.route_with(&nodes, &ctx, q, &exec, now);
                let _ = nodes[winner].serve(&ctx, q, &exec, now, 0.0);
            }
            now += SimDuration::from_secs(1.0);
            (fx, nodes, router, now)
        });
        let ctx = fx.ctx();
        let timed = &fx.queries[fx.queries.len() / 2..];
        b.iter(|| {
            i = (i + 1) % timed.len();
            black_box(router.route(nodes, &ctx, &timed[i], *now))
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
    let mut state = None;
    c.bench_function("fleet_market_arrival_step_8_nodes", |b| {
        let (fx, market, now) = state.get_or_insert_with(|| {
            let fx = Fx::new(5.0, 4096);
            let mut market = Market::new(&fx);
            let mut now = SimTime::ZERO;
            for i in 0..fx.queries.len() {
                now += SimDuration::from_secs(1.0);
                let _ = market.arrive(&fx, i, now);
            }
            (fx, market, now)
        });
        let mut i = 0;
        b.iter(|| {
            i += 1;
            *now += SimDuration::from_secs(1.0);
            black_box(market.arrive(fx, i, *now))
        })
    });
}

/// The `fleet-market` arrival bench's nodes, router and shared rows.
struct Market {
    nodes: Vec<CacheNode>,
    router: CheapestQuote,
    exec: ExecRows,
}

impl Market {
    fn new(fx: &Fx) -> Self {
        let econ = FleetConfig::uniform(1, 8, 1, 1.0).econ;
        Market {
            nodes: (0..8)
                .map(|i| CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &fx.schema, &econ))
                .collect(),
            router: CheapestQuote::default(),
            exec: ExecRows::new(),
        }
    }

    /// Arrival `i` of the stream (wrapping) at `now`: accrue every node,
    /// fill the rows once, route and serve over them.
    fn arrive(&mut self, fx: &Fx, i: usize, now: SimTime) -> PolicyOutcome {
        let ctx = fx.ctx();
        for node in &mut self.nodes {
            node.accrue(now);
        }
        let q = &fx.queries[i % fx.queries.len()];
        self.exec.fill(&ctx, q);
        let winner = self
            .router
            .route_with(&self.nodes, &ctx, q, &self.exec, now);
        self.nodes[winner].serve(&ctx, q, &self.exec, now, 0.0)
    }
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_fresh_enumeration,
    bench_economy_step,
    bench_paper_single_step,
    bench_quote_round,
    bench_market_arrival
);
criterion_main!(benches);

//! Plan rows — the bit-identity contracts of the planner's row forms:
//!
//! 1. Fused enumeration's `PlanRows` materialize row by row exactly the
//!    plans of `to_plans`, and selection straight on the rows — the
//!    economy's serve and bid path — picks, charges and regrets exactly
//!    what the plan-vector path did.
//! 2. `ExecRows` refilled in place across a query sequence equal fresh
//!    builds, and one shared fill bound to random caches under the
//!    econ-cheap, econ-col and econ-fast options writes exactly the plans
//!    (and hot rows) of a reference enumerator that computes every plan
//!    from the estimator's unshaped oracles and its own cache probes, as
//!    fused enumeration did before arrivals shared their rows.
//!
//! The fleet's quote rounds and serves bind one shared `ExecRows` fill
//! per arrival, so their bids rest on these properties
//! (`tests/fleet_determinism.rs` pins the router layer).

use std::sync::{Arc, OnceLock};

use cloudcache::cache::{CacheState, StructureKey};
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::{ColumnId, Schema};
use cloudcache::econ::{
    select_plan_hot, BudgetFunction, BudgetShape, EconConfig, SelectionCase, SelectionObjective,
};
use cloudcache::planner::plan::QueryPlan;
use cloudcache::planner::{
    bind_plans_into, enumerate_plans_into, generate_candidates, skyline_partition_hot,
    CandidateIndex, CostParams, EnumerationOptions, Estimator, ExecRows, PlanHot, PlanRows,
    PlanShape, PlannerContext,
};
use cloudcache::policies::EconPolicy;
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

struct Harness {
    schema: Arc<Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    })
}

fn query_pool(seed: u64, n: usize) -> Vec<Query> {
    WorkloadGenerator::new(
        Arc::clone(&harness().schema),
        WorkloadConfig::default(),
        seed,
    )
    .take(n)
    .collect()
}

/// Every column the pool's queries read, in first-seen order.
fn pool_columns(pool: &[Query]) -> Vec<ColumnId> {
    let mut columns: Vec<ColumnId> = Vec::new();
    for q in pool {
        for c in q.all_columns() {
            if !columns.contains(&c) {
                columns.push(c);
            }
        }
    }
    columns
}

/// Applies one random cache-history op at `t`: installs (with builds in
/// flight), evictions and idle advances over the pool's columns, the
/// candidate indexes and extra CPU nodes.
fn apply_op(cache: &mut CacheState, columns: &[ColumnId], op: u8, sel: u8, t: SimTime, build: f64) {
    let h = harness();
    let key = match sel % 3 {
        0 => StructureKey::Column(columns[sel as usize % columns.len()]),
        1 => StructureKey::Index(h.candidates[sel as usize % h.candidates.len()].id),
        _ => StructureKey::Node(u32::from(sel) % 3),
    };
    match op {
        0 | 1 => {
            if !cache.contains(key) {
                cache.install(
                    key,
                    64 + u64::from(sel) * 1_000,
                    t,
                    SimDuration::from_secs(build),
                    Money::from_dollars(0.01 + f64::from(sel) * 1e-3),
                    10 + u64::from(sel),
                );
            }
        }
        2 => {
            let _ = cache.evict(key, t);
        }
        _ => cache.advance(t),
    }
}

/// Per-node options: structural switches and rate-derived halves both
/// vary across the nodes.
fn node_opts(i: usize, salt: u64) -> EnumerationOptions {
    EnumerationOptions {
        allow_indexes: !(i as u64 + salt).is_multiple_of(3),
        allow_extra_nodes: (i as u64 + salt) % 4 != 1,
        amortize_n: 1 + (salt * 31 + i as u64 * 7) % 2_000,
        maint_window: SimDuration::from_secs(1.0 + ((salt + i as u64) % 7) as f64 * 97.0),
    }
}

/// What the economy's serve path takes from a plan set: the case,
/// payment and profit, the chosen plan, and `(regret, structures
/// regretted)` per rejected possible plan.
type Served = (
    SelectionCase,
    Money,
    Money,
    QueryPlan,
    Vec<(Money, Vec<StructureKey>)>,
);

/// Serve selection straight on the rows: their hot rows, the two-tier
/// skyline and the case analysis, the chosen row materialized alone, and
/// each regret list read from its row — the missing data structures, or
/// the missing extra nodes when no data structure is missing.
fn serve_rows(rows: &PlanRows, budget: &BudgetFunction, objective: SelectionObjective) -> Served {
    let (mut order, mut sky) = (Vec::new(), Vec::new());
    skyline_partition_hot(rows.hot(), &mut order, &mut sky);
    let sel = select_plan_hot(rows.hot(), &sky, budget, objective);
    let regrets = sel
        .regrets
        .iter()
        .map(|&(i, amount)| {
            let row = sky[i];
            let data = rows.missing_data(row);
            let keys = if data.is_empty() {
                rows.missing_nodes(row)
            } else {
                data
            };
            (amount, keys.to_vec())
        })
        .collect();
    (
        sel.case,
        sel.payment,
        sel.profit,
        rows.plan(sky[sel.selected]),
        regrets,
    )
}

/// The reference serve selection over a plan vector: `PlanHot::fill`,
/// the same skyline and case analysis, a clone of the chosen plan, and a
/// clone of each regretted plan's `missing` list with extra CPU nodes
/// filtered out unless nothing else is missing.
fn serve_plans(
    plans: &[QueryPlan],
    budget: &BudgetFunction,
    objective: SelectionObjective,
) -> Served {
    let mut hot = PlanHot::new();
    hot.fill(plans);
    let (mut order, mut sky) = (Vec::new(), Vec::new());
    skyline_partition_hot(&hot, &mut order, &mut sky);
    let sel = select_plan_hot(&hot, &sky, budget, objective);
    let regrets = sel
        .regrets
        .iter()
        .map(|&(i, amount)| {
            let missing = &plans[sky[i]].missing;
            let data: Vec<StructureKey> = missing
                .iter()
                .copied()
                .filter(|k| !matches!(k, StructureKey::Node(_)))
                .collect();
            (
                amount,
                if data.is_empty() {
                    missing.clone()
                } else {
                    data
                },
            )
        })
        .collect();
    (
        sel.case,
        sel.payment,
        sel.profit,
        plans[sky[sel.selected]].clone(),
        regrets,
    )
}

/// Fused enumeration's rows against their own materialization: row by
/// row plan, borrowed-row and missing-list equality, and the same serve
/// selection under `budget` on the rows as on the plans.
fn check_rows(rows: &PlanRows, budget: &BudgetFunction, objective: SelectionObjective, what: &str) {
    let plans = rows.to_plans();
    assert_eq!(rows.len(), plans.len(), "{what}: row count");
    for (i, plan) in plans.iter().enumerate() {
        assert_eq!(rows.plan(i), *plan, "{what}: row {i}");
        let row = rows.row(i);
        assert_eq!(
            row.backend,
            plan.shape == PlanShape::Backend,
            "{what}: row {i} backend"
        );
        assert_eq!(
            row.uses().collect::<Vec<_>>(),
            plan.uses,
            "{what}: row {i} uses"
        );
        let missing: Vec<StructureKey> = rows
            .missing_data(i)
            .iter()
            .chain(rows.missing_nodes(i))
            .copied()
            .collect();
        assert_eq!(missing, plan.missing, "{what}: row {i} missing list");
    }
    assert_eq!(*rows.hot(), PlanHot::of(&plans), "{what}: hot rows");
    assert_eq!(
        serve_rows(rows, budget, objective),
        serve_plans(&plans, budget, objective),
        "{what}: serve selection"
    );
}

/// Node caches for a round of `n_nodes`: even nodes start with every
/// column the pool reads, so cache rows can win the selection, column
/// plans exist there and extra-CPU-node cells decide whether a row is
/// existing; odd nodes start cold.
fn seeded_caches(columns: &[ColumnId], n_nodes: usize) -> Vec<CacheState> {
    (0..n_nodes)
        .map(|i| {
            let mut cache = CacheState::new();
            if i % 2 == 0 {
                for &c in columns {
                    cache.install(
                        StructureKey::Column(c),
                        1_000,
                        SimTime::ZERO,
                        SimDuration::ZERO,
                        Money::from_dollars(0.01),
                        10,
                    );
                }
            }
            cache
        })
        .collect()
}

proptest! {
    /// Fused enumeration writes rows that materialize to the plan set
    /// and select like it: over random per-node cache histories, each
    /// row's materialized plan and missing list match `to_plans`, and
    /// the serve selection straight on the rows (case, payment, profit,
    /// chosen plan, regret lists) equals the plan-vector path — under
    /// step, convex and concave budgets, every objective, and budgets
    /// scaled from half to four times the backend price.
    #[test]
    fn rows_materialize_the_plans_and_select_like_them(
        seed in 0u64..1_000,
        n_nodes in 1usize..6,
        ops in prop::collection::vec((0u8..4, 0u8..32, 0u8..8, 0.0f64..90.0, 0.0f64..40.0), 8..24),
        budgets in prop::collection::vec((0u8..3, 0u8..3, 0.5f64..4.0, 0.5f64..3.0), 24..25),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed.wrapping_add(23), 4);
        let columns = pool_columns(&pool);
        let mut caches = seeded_caches(&columns, n_nodes);
        let mut now = 0.0f64;
        let mut rows = PlanRows::new();
        for (step, (&(op, sel, node_pick, gap, build), &(shape, objective, scale, patience))) in
            ops.iter().zip(&budgets).enumerate()
        {
            now += gap;
            let t = SimTime::from_secs(now);
            apply_op(&mut caches[node_pick as usize % n_nodes], &columns, op, sel, t, build);

            let q = &pool[sel as usize % pool.len()];
            let shape = [BudgetShape::Step, BudgetShape::Convex, BudgetShape::Concave][shape as usize];
            let objective = [
                SelectionObjective::MinProfit,
                SelectionObjective::Cheapest,
                SelectionObjective::Fastest,
            ][objective as usize];
            for (i, cache) in caches.iter().enumerate() {
                let opts = node_opts(i, seed + step as u64);
                enumerate_plans_into(&ctx, q, cache, t, opts, &mut rows);
                let budget = BudgetFunction::of_shape(
                    shape,
                    rows.hot().price[0].scale(scale),
                    rows.hot().time[0] * patience,
                );
                check_rows(&rows, &budget, objective, &format!("step {step} node {i}"));
            }
        }
    }
}

/// A context at SF 30 with only three candidate indexes, so some
/// template shapes have a serving candidate (an index variant) and
/// others have none.
fn sparse_harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let schema = Arc::new(tpch_schema(ScaleFactor(30.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 3);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    })
}

/// The plan set as fused enumeration planned it before arrivals shared
/// their execution rows: every plan materialized on its own, its
/// execution row from the estimator's unshaped oracles
/// (`backend_execution`, `cache_execution`), its build quotes from
/// `build_column` / `build_index` / `build_node`, and one cache probe per
/// structure per plan. The best-index variant's assignment is the
/// compiled shape's (`tests/query_shapes.rs` checks it against the
/// registry-order scorer).
fn reference_plans(
    ctx: &PlannerContext<'_>,
    q: &Query,
    cache: &CacheState,
    now: SimTime,
    opts: EnumerationOptions,
) -> Vec<QueryPlan> {
    let est = ctx.estimator;
    let backend = est.backend_execution(ctx.schema, q);
    let (backend_cost, backend_breakdown) = est.price_execution(&backend);
    let mut plans = vec![QueryPlan {
        shape: PlanShape::Backend,
        exec_time: backend.time,
        exec_cost: backend_cost,
        exec_breakdown: backend_breakdown,
        uses: Vec::new(),
        missing: Vec::new(),
        build_cost: Money::ZERO,
        build_time: SimDuration::ZERO,
        amortized_cost: Money::ZERO,
        maintenance_cost: Money::ZERO,
        price: backend_cost,
    }];
    let mut columns: Vec<ColumnId> = Vec::new();
    for c in q.all_columns() {
        if !columns.contains(&c) {
            columns.push(c);
        }
    }
    let picks: Vec<Option<usize>> = ctx.shape(q).picks().collect();
    let mut variants = vec![vec![None; picks.len()]];
    if opts.allow_indexes && picks.iter().any(Option::is_some) {
        variants.push(picks);
    }
    for indexes in &variants {
        let defs: Vec<_> = indexes
            .iter()
            .map(|p| p.map(|pos| &ctx.candidates[pos]))
            .collect();
        for &k in &est.params().node_options {
            if k > 1 && !opts.allow_extra_nodes {
                continue;
            }
            let exec = est.cache_execution(ctx.schema, q, &defs, k);
            let (exec_cost, exec_breakdown) = est.price_execution(&exec);
            let uses: Vec<StructureKey> = columns
                .iter()
                .map(|&c| StructureKey::Column(c))
                .chain(defs.iter().flatten().map(|d| StructureKey::Index(d.id)))
                .chain((0..k.saturating_sub(1)).map(StructureKey::Node))
                .collect();
            let mut missing = Vec::new();
            let (mut build_cost, mut build_time) = (Money::ZERO, SimDuration::ZERO);
            let (mut amortized, mut maintenance) = (Money::ZERO, Money::ZERO);
            for &key in &uses {
                if let Some(s) = cache.get(key).filter(|s| s.is_available(now)) {
                    let span = now
                        .saturating_since(s.maint_paid_until)
                        .min(opts.maint_window);
                    amortized += s.amortization_due();
                    maintenance += est.maintenance(s, span);
                    continue;
                }
                let (cost, time) = match key {
                    StructureKey::Column(c) => est.build_column(ctx.schema, c),
                    StructureKey::Index(id) => {
                        let def = &ctx.candidates[id.index()];
                        est.build_index(ctx.schema, def, |c| {
                            cache.contains(StructureKey::Column(c)) || columns.contains(&c)
                        })
                    }
                    StructureKey::Node(_) => est.build_node(),
                };
                missing.push(key);
                build_cost += cost;
                if time > build_time {
                    build_time = time;
                }
                amortized += cost.amortize_over(opts.amortize_n);
            }
            plans.push(QueryPlan {
                shape: PlanShape::Cache {
                    indexes: defs.iter().map(|d| d.map(|d| d.id)).collect(),
                    nodes: k,
                },
                exec_time: exec.time,
                exec_cost,
                exec_breakdown,
                uses,
                missing,
                build_cost,
                build_time,
                amortized_cost: amortized,
                maintenance_cost: maintenance,
                price: exec_cost + amortized + maintenance,
            });
        }
    }
    plans
}

/// The enumeration options of the paper's three economic schemes built
/// on one base config, at a random observed arrival rate.
fn scheme_options(rate: f64, window_gaps: f64) -> [(&'static str, EnumerationOptions); 3] {
    let base = EconConfig {
        maint_window_gaps: window_gaps,
        ..EconConfig::default()
    };
    [
        EconPolicy::econ_cheap(base.clone()),
        EconPolicy::econ_col(base.clone()),
        EconPolicy::econ_fast(base),
    ]
    .map(|p| {
        let name = match (
            p.manager().config().allow_indexes,
            p.manager().config().objective,
        ) {
            (false, _) => "econ-col",
            (true, SelectionObjective::Fastest) => "econ-fast",
            _ => "econ-cheap",
        };
        (name, p.manager().config().enumeration(rate))
    })
}

proptest! {
    /// One `ExecRows`, refilled in place over a random query sequence
    /// that alternates shapes with and without an index variant (SF 30,
    /// three candidates), equals a fresh `ExecRows::build` after every
    /// fill.
    #[test]
    fn refilled_exec_rows_equal_fresh_builds(
        seed in 0u64..1_000,
        picks in prop::collection::vec((0usize..64, 0usize..64), 4..16),
    ) {
        let h = sparse_harness();
        let ctx = h.ctx();
        let pool = WorkloadGenerator::new(Arc::clone(&h.schema), WorkloadConfig::default(), seed)
            .take(200)
            .collect::<Vec<_>>();
        let (indexed, unindexed): (Vec<&Query>, Vec<&Query>) =
            pool.iter().partition(|q| ctx.shape(q).indexed);
        prop_assert!(!indexed.is_empty() && !unindexed.is_empty(), "the pool mixes shapes");
        let mut rows = ExecRows::new();
        for &(a, b) in &picks {
            for q in [indexed[a % indexed.len()], unindexed[b % unindexed.len()]] {
                rows.fill(&ctx, q);
                let fresh = ExecRows::build(&ctx, q);
                prop_assert_eq!(&rows, &fresh, "refill of query {:?}", q.id);
                prop_assert_eq!(rows.variant_count(), 1 + usize::from(ctx.shape(q).indexed));
            }
        }
    }

    /// One fill per arrival, bound to several random caches under the
    /// econ-cheap, econ-col and econ-fast options, writes exactly the
    /// plans and hot rows of the reference enumerator for every node and
    /// every scheme.
    #[test]
    fn shared_rows_bind_like_reference_enumeration(
        seed in 0u64..1_000,
        n_nodes in 1usize..5,
        ops in prop::collection::vec((0u8..4, 0u8..32, 0u8..8, 0.0f64..90.0, 0.0f64..40.0), 8..24),
        rate in 0.0f64..4.0,
        window_gaps in 0.5f64..20.0,
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed.wrapping_add(59), 6);
        let columns = pool_columns(&pool);
        let mut caches = seeded_caches(&columns, n_nodes);
        let (mut exec, mut rows) = (ExecRows::new(), PlanRows::new());
        let mut now = 0.0f64;
        for (step, &(op, sel, node_pick, gap, build)) in ops.iter().enumerate() {
            now += gap;
            let t = SimTime::from_secs(now);
            apply_op(&mut caches[node_pick as usize % n_nodes], &columns, op, sel, t, build);
            let q = &pool[(sel as usize + step) % pool.len()];
            exec.fill(&ctx, q);
            for (i, cache) in caches.iter().enumerate() {
                for (scheme, opts) in scheme_options(rate, window_gaps) {
                    bind_plans_into(&ctx, &exec, cache, t, opts, &mut rows);
                    let reference = reference_plans(&ctx, q, cache, t, opts);
                    prop_assert_eq!(
                        rows.to_plans(),
                        reference.clone(),
                        "{} plans at step {} node {}",
                        scheme,
                        step,
                        i
                    );
                    prop_assert_eq!(rows.hot(), &PlanHot::of(&reference));
                }
            }
        }
    }
}

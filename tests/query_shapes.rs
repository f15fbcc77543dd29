//! Compiled query shapes — the equivalence contract.
//!
//! Fresh enumeration, `ExecRows::build` and `PlanSkeleton::build` read a
//! query's backend row width, access widths and index picks from its
//! compiled `(template, mask)` shape. The unchanged `Estimator` methods
//! (`backend_execution`, `cache_execution`) stay the oracle: for every
//! generated query, under random scale factors, candidate caps,
//! optional-column probabilities, node-count options and seeds, every
//! execution row must equal the oracle's bit for bit, every pick must
//! equal the registry-order scorer's at the query's own selectivity, and
//! every variant's `uses` list must be the deduplicated query columns
//! followed by its indexes.

use std::sync::Arc;

use cloudcache::cache::{CacheState, IndexDef, IndexId, StructureKey, ROW_LOCATOR_BYTES};
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::{ColumnId, Schema};
use cloudcache::metrics::CostBreakdown;
use cloudcache::planner::{
    enumerate_plans_into, generate_candidates, CandidateIndex, CostParams, EnumerationOptions,
    Estimator, ExecRows, PlanRows, PlanShape, PlanSkeleton, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{
    paper_templates, Query, TableAccess, WorkloadConfig, WorkloadGenerator,
};
use proptest::prelude::*;

const CAPS: [usize; 8] = [0, 1, 2, 4, 9, 20, 40, 65];

const NODE_OPTIONS: [&[u32]; 5] = [
    &[1],
    &[1, 3, 5],
    &[2, 4],
    &[5, 1, 3],
    &[1, 2, 3, 4, 5, 6, 7, 8],
];

struct Fixture {
    schema: Arc<Schema>,
    candidates: Vec<IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Fixture {
    fn new(sf: f64, cap: usize, node_options: &[u32]) -> Self {
        let schema = Arc::new(tpch_schema(ScaleFactor(sf)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, cap);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams {
                node_options: node_options.to_vec(),
                ..CostParams::default()
            },
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Fixture {
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

/// The registry-order scorer as enumeration ran it per query before
/// shapes were compiled: over the whole registry, the serving candidate
/// on the access's table reading the fewest bytes at the access's own
/// selectivity, the earliest among equals.
fn reference_pick(
    ctx: &PlannerContext<'_>,
    access: &TableAccess,
    selectivity: f64,
) -> Option<usize> {
    let rows = ctx.schema.table(access.table).row_count as f64;
    let width = |c: ColumnId| ctx.schema.column(c).byte_width();
    let mut best: Option<(usize, f64)> = None;
    for (pos, idx) in ctx.candidates.iter().enumerate() {
        if idx.table != access.table
            || !access
                .predicate_columns
                .iter()
                .any(|&p| idx.serves_predicate(p))
        {
            continue;
        }
        let entry: u64 = idx.key_columns.iter().map(|&c| width(c)).sum::<u64>() + ROW_LOCATOR_BYTES;
        let uncovered: u64 = access
            .columns
            .iter()
            .filter(|c| !idx.key_columns.contains(c))
            .map(|&c| width(c))
            .sum();
        let bytes = rows * selectivity * (entry + uncovered) as f64;
        match best {
            Some((_, b)) if b <= bytes => {}
            _ => best = Some((pos, bytes)),
        }
    }
    best.map(|(pos, _)| pos)
}

/// The query's accessed columns, deduplicated in first-seen order.
fn dedup_columns(query: &Query) -> Vec<StructureKey> {
    let mut out = Vec::new();
    for c in query.all_columns() {
        let key = StructureKey::Column(c);
        if !out.contains(&key) {
            out.push(key);
        }
    }
    out
}

fn position_of(ctx: &PlannerContext<'_>, id: IndexId) -> usize {
    ctx.candidates
        .iter()
        .position(|d| d.id == id)
        .expect("plan index is a candidate")
}

/// The oracle's priced cache row for `picks` at `nodes`.
fn oracle_cache_row(
    ctx: &PlannerContext<'_>,
    query: &Query,
    picks: &[Option<usize>],
    nodes: u32,
) -> (SimDuration, Money, CostBreakdown) {
    let refs: Vec<Option<&IndexDef>> = picks
        .iter()
        .map(|p| p.map(|pos| &ctx.candidates[pos]))
        .collect();
    let est = ctx
        .estimator
        .cache_execution(ctx.schema, query, &refs, nodes);
    let (cost, breakdown) = ctx.estimator.price_execution(&est);
    (est.time, cost, breakdown)
}

fn check_query(ctx: &PlannerContext<'_>, query: &Query, rows: &mut PlanRows) {
    let backend = ctx.estimator.backend_execution(ctx.schema, query);
    let (backend_cost, backend_breakdown) = ctx.estimator.price_execution(&backend);
    let scan: Vec<Option<usize>> = vec![None; query.accesses().len()];
    let picks: Vec<Option<usize>> = query
        .accesses()
        .map(|(a, selectivity)| reference_pick(ctx, a, selectivity))
        .collect();
    let indexed = picks.iter().any(Option::is_some);
    let node_options = &ctx.estimator.params().node_options;
    let columns = dedup_columns(query);

    // ExecRows: backend row, picks, and every variant's cells.
    let exec = ExecRows::build(ctx, query);
    assert_eq!(
        (exec.backend_time, exec.backend_cost, exec.backend_breakdown),
        (backend.time, backend_cost, backend_breakdown),
        "ExecRows backend row of query {:?}",
        query.id
    );
    assert_eq!(exec.variants.len(), 1 + usize::from(indexed));
    for (variant_picks, cells) in &exec.variants {
        assert!(*variant_picks == scan || *variant_picks == picks);
        assert_eq!(cells.nodes, *node_options);
        for (i, &k) in cells.nodes.iter().enumerate() {
            assert_eq!(
                (cells.time[i], cells.cost[i], cells.breakdown[i]),
                oracle_cache_row(ctx, query, variant_picks, k),
                "ExecRows cell ({variant_picks:?}, {k} nodes) of query {:?}",
                query.id
            );
        }
    }
    assert_eq!(exec.variants[0].0, scan);
    if indexed {
        assert_eq!(exec.variants[1].0, picks, "picks of query {:?}", query.id);
    }

    // Skeleton variants: the deduplicated columns, then the indexes.
    let skeleton = PlanSkeleton::build(ctx, query);
    for variant in &skeleton.variants {
        let mut expected = columns.clone();
        expected.extend(
            variant
                .indexes
                .iter()
                .flatten()
                .map(|&id| StructureKey::Index(id)),
        );
        assert_eq!(
            variant.uses, expected,
            "skeleton uses of query {:?}",
            query.id
        );
    }

    // Fresh enumeration: every row against the oracle.
    let now = SimTime::from_secs(10.0);
    enumerate_plans_into(
        ctx,
        query,
        &CacheState::new(),
        now,
        EnumerationOptions::default(),
        rows,
    );
    let plans = rows.to_plans();
    let mut seen_indexed = false;
    for plan in &plans {
        let row = (plan.exec_time, plan.exec_cost, plan.exec_breakdown);
        match &plan.shape {
            PlanShape::Backend => assert_eq!(
                row,
                (backend.time, backend_cost, backend_breakdown),
                "enumerated backend row of query {:?}",
                query.id
            ),
            PlanShape::Cache { indexes, nodes } => {
                let plan_picks: Vec<Option<usize>> = indexes
                    .iter()
                    .map(|o| o.map(|id| position_of(ctx, id)))
                    .collect();
                if plan_picks != scan {
                    assert_eq!(
                        plan_picks, picks,
                        "enumerated picks of query {:?}",
                        query.id
                    );
                    seen_indexed = true;
                }
                assert_eq!(
                    row,
                    oracle_cache_row(ctx, query, &plan_picks, *nodes),
                    "enumerated cache row ({plan_picks:?}, {nodes} nodes) of query {:?}",
                    query.id
                );
                let mut expected = columns.clone();
                expected.extend(indexes.iter().flatten().map(|&id| StructureKey::Index(id)));
                let data_uses: Vec<StructureKey> = plan
                    .uses
                    .iter()
                    .copied()
                    .filter(|k| !matches!(k, StructureKey::Node(_)))
                    .collect();
                assert_eq!(
                    data_uses, expected,
                    "enumerated uses of query {:?}",
                    query.id
                );
            }
        }
    }
    assert_eq!(
        seen_indexed, indexed,
        "index variant presence of query {:?}",
        query.id
    );
    assert_eq!(
        plans.len(),
        1 + node_options.len() * (1 + usize::from(indexed))
    );
}

proptest! {
    /// Every generated query's rows, picks and uses lists equal the
    /// oracle's, across scale factors, candidate caps (0 and 1
    /// included), optional-column probabilities, node-count options and
    /// seeds.
    #[test]
    fn compiled_shapes_match_the_estimator_oracle(
        sf_log10 in -3.0f64..3.5,
        cap_code in 0usize..8,
        prob_code in (0u8..3, 0.0f64..1.0),
        node_code in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let f = Fixture::new(10f64.powf(sf_log10), CAPS[cap_code], NODE_OPTIONS[node_code]);
        let ctx = f.ctx();
        let optional_column_prob = match prob_code.0 {
            0 => 0.0,
            1 => 1.0,
            _ => prob_code.1,
        };
        let config = WorkloadConfig {
            optional_column_prob,
            ..WorkloadConfig::default()
        };
        let mut rows = PlanRows::new();
        for query in WorkloadGenerator::new(Arc::clone(&f.schema), config, seed).take(48) {
            check_query(&ctx, &query, &mut rows);
        }
        prop_assert!(f.cand_index.compiled_shapes() <= 17, "7 paper templates have 17 shapes");
    }
}

/// Shapes compile on first use only: building the index compiles none,
/// and the 7 paper templates never yield more than their 17 shapes.
#[test]
fn shapes_compile_lazily_per_template_and_mask() {
    let f = Fixture::new(10.0, 65, &[1, 3, 5]);
    let ctx = f.ctx();
    assert_eq!(f.cand_index.compiled_shapes(), 0);
    let mut keys = Vec::new();
    for query in
        WorkloadGenerator::new(Arc::clone(&f.schema), WorkloadConfig::default(), 5).take(20_000)
    {
        let shape = ctx.shape(&query);
        assert_eq!((shape.template, shape.mask), (query.template, query.mask));
        if !keys.contains(&(query.template, query.mask)) {
            keys.push((query.template, query.mask));
        }
    }
    assert_eq!(f.cand_index.compiled_shapes(), keys.len());
    assert_eq!(
        keys.len(),
        17,
        "Q1, Q3, Q5: 2 each; Q10: 8; Q6, Q14, Q18: 1 each"
    );
}

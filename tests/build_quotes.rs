//! The estimator's compiled build quotes equal the eq. 12/14 oracle
//! (`Estimator::build_column` / `build_index`) bit for bit: for every
//! column and candidate of the TPC-H schema at several scale factors and
//! of the SDSS schema, under every present/missing key-column
//! combination, and when one estimator serves two schemas in turn.

use std::sync::Arc;

use cloudcache::cache::{CacheState, IndexDef, IndexId};
use cloudcache::catalog::sdss::sdss_schema;
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::Schema;
use cloudcache::planner::{
    enumerate_plans, generate_candidates, CandidateIndex, CostParams, EnumerationOptions,
    Estimator, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog, ResourceRates};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

fn estimator() -> Estimator {
    Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    )
}

/// A quote as bits: nano-dollars and the duration's `f64` bits.
fn bits((cost, time): (Money, SimDuration)) -> (i128, u64) {
    (cost.as_nanos(), time.as_secs().to_bits())
}

/// Every single-column index and every ordered column pair of each table.
fn exhaustive_candidates(schema: &Schema) -> Vec<IndexDef> {
    let mut out = Vec::new();
    for table in schema.tables() {
        for &a in &table.columns {
            let mut keys = vec![vec![a]];
            keys.extend(
                table
                    .columns
                    .iter()
                    .filter(|&&b| b != a)
                    .map(|&b| vec![a, b]),
            );
            for key_columns in keys {
                out.push(IndexDef {
                    id: IndexId(out.len() as u32),
                    table: table.id,
                    key_columns,
                });
            }
        }
    }
    out
}

/// Checks every column and candidate quote of `schema` against the
/// oracle, twice: the first pass fills the tables, the second reads them.
fn check(est: &Estimator, schema: &Schema, candidates: &[IndexDef]) {
    for _ in 0..2 {
        for column in schema.columns() {
            assert_eq!(
                bits(est.column_quote(schema, column.id)),
                bits(est.build_column(schema, column.id)),
                "column {}",
                column.name
            );
        }
        for (pos, def) in candidates.iter().enumerate() {
            assert_eq!(
                bits(est.index_sort_quote(schema, candidates, pos)),
                bits(est.build_index(schema, def, |_| true)),
                "sort term of candidate {pos}"
            );
            let keys = def.key_columns.len();
            for present in 0..1u32 << keys {
                let cached = |c| {
                    def.key_columns
                        .iter()
                        .position(|&k| k == c)
                        .is_some_and(|i| present & 1 << i != 0)
                };
                assert_eq!(
                    bits(est.index_quote(schema, candidates, pos, cached)),
                    bits(est.build_index(schema, def, cached)),
                    "candidate {pos}, present key columns {present:#b}"
                );
            }
        }
    }
}

#[test]
fn tpch_quotes_equal_the_oracle_at_every_scale() {
    for sf in [1.0, 10.0, 100.0, 2500.0] {
        let schema = tpch_schema(ScaleFactor(sf));
        let paper = generate_candidates(&schema, &paper_templates(&schema), 65);
        let est = estimator();
        check(&est, &schema, &paper);
        // A second registry through the same estimator: equal positions
        // name other indexes.
        check(&est, &schema, &exhaustive_candidates(&schema));
        check(&estimator(), &schema, &exhaustive_candidates(&schema));
    }
}

/// At ten dollars per byte moved and a billion per I/O, the large tables'
/// quotes exceed `i64` nano-dollars and are recomputed on every lookup
/// instead of stored; the small tables' still fit and are stored.
#[test]
fn quotes_beyond_i64_nanos_equal_the_oracle() {
    let prices = PriceCatalog::custom(
        "ruinous",
        ResourceRates {
            transfer_per_byte: 10.0,
            io_per_op: 1e9,
            ..PriceCatalog::ec2_2009().rates
        },
        60.0,
    );
    let est = Estimator::new(CostParams::default(), prices, NetworkModel::paper_sdss());
    let schema = tpch_schema(ScaleFactor(100.0));
    let candidates = generate_candidates(&schema, &paper_templates(&schema), 65);
    let nanos = |c: &str| {
        let id = schema.column_by_name(c).unwrap().id;
        est.build_column(&schema, id).0.as_nanos()
    };
    assert!(nanos("lineitem.l_shipdate") > i128::from(i64::MAX));
    assert!(nanos("nation.n_name") < i128::from(i64::MAX));
    check(&est, &schema, &candidates);
}

#[test]
fn sdss_quotes_equal_the_oracle() {
    let schema = sdss_schema(1_000_000);
    check(&estimator(), &schema, &exhaustive_candidates(&schema));
}

#[test]
fn one_estimator_alternated_between_schemas_quotes_each_its_own() {
    let small = tpch_schema(ScaleFactor(1.0));
    let large = tpch_schema(ScaleFactor(100.0));
    let small_candidates = generate_candidates(&small, &paper_templates(&small), 65);
    let large_candidates = generate_candidates(&large, &paper_templates(&large), 65);
    let est = estimator();
    for _ in 0..3 {
        check(&est, &small, &small_candidates);
        check(&est, &large, &large_candidates);
    }
    let column = small.column_by_name("lineitem.l_shipdate").unwrap().id;
    assert_ne!(
        est.column_quote(&small, column),
        est.column_quote(&large, column),
        "the two schemas price the same column id differently"
    );
}

#[test]
fn plans_through_a_shared_estimator_equal_a_dedicated_ones() {
    let shared = estimator();
    let schemas: Vec<Arc<Schema>> = [1.0, 100.0]
        .map(|sf| Arc::new(tpch_schema(ScaleFactor(sf))))
        .into();
    for round in 0..2u64 {
        for schema in &schemas {
            let candidates = generate_candidates(schema, &paper_templates(schema), 65);
            let cand_index = CandidateIndex::build(schema, &candidates);
            let dedicated = estimator();
            let ctx = |estimator| PlannerContext {
                schema,
                candidates: &candidates,
                cand_index: &cand_index,
                estimator,
            };
            let mut generator =
                WorkloadGenerator::new(Arc::clone(schema), WorkloadConfig::default(), round);
            let cache = CacheState::new();
            let opts = EnumerationOptions::default();
            for query in (&mut generator).take(50) {
                assert_eq!(
                    enumerate_plans(&ctx(&shared), &query, &cache, SimTime::ZERO, opts),
                    enumerate_plans(&ctx(&dedicated), &query, &cache, SimTime::ZERO, opts),
                    "query {:?}",
                    query.id
                );
            }
        }
    }
}

//! An SDSS-like survey workload on the astronomical schema.
//!
//! The paper motivates the economy with massive scientific archives like
//! the Sloan Digital Sky Survey. This example leaves TPC-H behind: it
//! declares three SkyServer-style query templates (cone search, colour
//! cut, neighbour join) over the [`catalog::sdss`] schema and drives the
//! economy directly through [`econ::EconomyManager`] — the lower-level
//! API the simulator wraps.
//!
//! Run with: `cargo run --release --example sdss_survey`

use std::sync::Arc;

use cloudcache::catalog::sdss::sdss_schema;
use cloudcache::catalog::Schema;
use cloudcache::econ::{EconConfig, EconomyManager};
use cloudcache::planner::{generate_candidates, CostParams, Estimator, ExecRows, PlannerContext};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimTime};
use cloudcache::workload::templates::{ResolvedAccess, ResolvedTemplate, TemplateId};
use cloudcache::workload::{WorkloadConfig, WorkloadGenerator};

fn cols(schema: &Schema, names: &[&str]) -> Vec<cloudcache::catalog::ColumnId> {
    names
        .iter()
        .map(|n| schema.column_by_name(n).expect("column exists").id)
        .collect()
}

fn survey_templates(schema: &Schema) -> Vec<ResolvedTemplate> {
    let photo = schema.table_by_name("photoobj").unwrap().id;
    let neighbors = schema.table_by_name("neighbors").unwrap().id;
    vec![
        // Cone search: positional range scan returning bright objects.
        ResolvedTemplate {
            id: TemplateId(0),
            name: "cone_search".into(),
            accesses: vec![ResolvedAccess {
                table: photo,
                required: cols(
                    schema,
                    &[
                        "photoobj.objid",
                        "photoobj.ra",
                        "photoobj.dec",
                        "photoobj.psfmag_r",
                    ],
                ),
                optional: cols(schema, &["photoobj.petrorad_r"]),
                predicates: cols(schema, &["photoobj.ra", "photoobj.dec"]),
                selectivity_factor: 1.0,
            }],
            sort_columns: cols(schema, &["photoobj.psfmag_r"]),
            sel_log10_range: (-5.0, -3.5),
            result_fanout: 1.0,
            result_rows_cap: 400_000,
            result_row_width: 36,
        },
        // Colour cut: quasar candidates via u-g / g-r colour box.
        ResolvedTemplate {
            id: TemplateId(1),
            name: "color_cut".into(),
            accesses: vec![ResolvedAccess {
                table: photo,
                required: cols(
                    schema,
                    &[
                        "photoobj.objid",
                        "photoobj.psfmag_u",
                        "photoobj.psfmag_g",
                        "photoobj.psfmag_r",
                        "photoobj.obj_type",
                    ],
                ),
                optional: cols(schema, &["photoobj.extinction_r"]),
                predicates: cols(schema, &["photoobj.psfmag_g", "photoobj.obj_type"]),
                selectivity_factor: 1.0,
            }],
            sort_columns: vec![],
            sel_log10_range: (-4.5, -3.0),
            result_fanout: 1.0,
            result_rows_cap: 250_000,
            result_row_width: 44,
        },
        // Neighbour join: objects with close companions (lensing pairs).
        ResolvedTemplate {
            id: TemplateId(2),
            name: "neighbor_pairs".into(),
            accesses: vec![
                ResolvedAccess {
                    table: neighbors,
                    required: cols(
                        schema,
                        &[
                            "neighbors.objid",
                            "neighbors.neighborobjid",
                            "neighbors.distance_arcmin",
                        ],
                    ),
                    optional: vec![],
                    predicates: cols(schema, &["neighbors.distance_arcmin"]),
                    selectivity_factor: 1.0,
                },
                ResolvedAccess {
                    table: photo,
                    required: cols(schema, &["photoobj.objid", "photoobj.psfmag_r"]),
                    optional: vec![],
                    predicates: vec![],
                    selectivity_factor: 3.0,
                },
            ],
            sort_columns: cols(schema, &["neighbors.distance_arcmin"]),
            sel_log10_range: (-5.5, -4.0),
            result_fanout: 2.0,
            result_rows_cap: 300_000,
            result_row_width: 28,
        },
    ]
}

fn main() {
    // DR7-scale photometry: 3.5 × 10⁸ objects ≈ 250 GB across the tables.
    let schema = Arc::new(sdss_schema(350_000_000));
    println!(
        "SDSS-like archive: {} tables, {:.1} GB",
        schema.tables().len(),
        schema.total_bytes() as f64 / 1e9
    );

    let templates = survey_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    println!("advisor proposed {} candidate indexes", candidates.len());

    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let cand_index = planner::CandidateIndex::build(&schema, &candidates);
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };

    let mut generator = WorkloadGenerator::with_templates(
        Arc::clone(&schema),
        templates,
        WorkloadConfig::default(),
        2026,
    );
    let mut economy = EconomyManager::new(EconConfig::default());
    // The query's execution rows, filled once per arrival and reused.
    let mut exec = ExecRows::new();

    let n = 120_000u64;
    let mut hits = 0u64;
    let mut builds = 0u64;
    let mut response_sum = 0.0;
    for i in 0..n {
        let query = generator.next_query();
        exec.fill(&ctx, &query);
        let outcome =
            economy.process_query(&ctx, &query, &exec, SimTime::from_secs(i as f64 + 1.0));
        hits += u64::from(outcome.ran_in_cache);
        builds += outcome.investments.len() as u64;
        response_sum += outcome.response_time.as_secs();
        if (i + 1) % 20_000 == 0 {
            println!(
                "after {:>6} queries: {:>2} structures cached ({:>6.1} GB), {:>5.1}% cache hits, balance {}",
                i + 1,
                economy.cache().len(),
                economy.cache().disk_used() as f64 / 1e9,
                hits as f64 / (i + 1) as f64 * 100.0,
                economy.account().balance()
            );
        }
    }
    println!(
        "\nsurvey served: mean response {:.2}s, {builds} structures built, \
         cloud profit {} on payments {}",
        response_sum / n as f64,
        economy.account().balance() - Money::from_dollars(5.0),
        economy.account().total_payments()
    );
    assert!(economy.account().balances_exactly());
}

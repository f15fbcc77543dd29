//! Calibration probe at paper scale (not a shipped figure).

use econ::{EconConfig, EconomyManager};
use planner::{generate_candidates, CostParams, Estimator, ExecRows, PlannerContext};
use pricing::PriceCatalog;
use simcore::{NetworkModel, SimTime};
use std::sync::Arc;
use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2500.0);
    let n: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let gap: f64 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let variant = std::env::args().nth(4).unwrap_or_else(|| "col".into());

    let schema = Arc::new(catalog::tpch::tpch_schema(catalog::tpch::ScaleFactor(sf)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
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
    let mut gen = WorkloadGenerator::new(
        Arc::clone(&schema),
        WorkloadConfig::default(),
        0x57A7_1571C5 ^ 0xC10D_CA5E,
    );

    let base = EconConfig::default();
    let cfg = match variant.as_str() {
        "cheap" => EconConfig {
            allow_indexes: true,
            allow_extra_nodes: true,
            ..base
        },
        "fast" => EconConfig {
            objective: econ::SelectionObjective::Fastest,
            allow_indexes: true,
            allow_extra_nodes: true,
            ..base
        },
        _ => EconConfig {
            allow_indexes: false,
            allow_extra_nodes: false,
            ..base
        },
    };
    let mut m = EconomyManager::new(cfg);
    let mut exec = ExecRows::new();
    let mut hits = 0u64;
    let mut builds = 0u64;
    for i in 0..n {
        let q = gen.next_query();
        exec.fill(&ctx, &q);
        let o = m.process_query(&ctx, &q, &exec, SimTime::from_secs((i + 1) as f64 * gap));
        if o.ran_in_cache {
            hits += 1;
        }
        builds += o.investments.len() as u64;
        if i % (n / 10).max(1) == 0 {
            let bal = m.account().balance();
            let thr = m.config().investment.threshold(bal);
            let top = m.regret().over_threshold(pricing::Money::from_nanos(1));
            let top3: Vec<String> = top
                .iter()
                .take(3)
                .map(|(k, r)| format!("{k}=${:.3}", r.as_dollars()))
                .collect();
            println!("q{i}: bal ${:.2} thr ${:.3} pool {} builds {builds} hits {hits} cached {} disk {:.0}GB top {:?}",
                bal.as_dollars(), thr.as_dollars(), m.regret().len(), m.cache().len(),
                m.cache().disk_used() as f64 / 1e9, top3);
        }
    }
    println!(
        "final: builds {builds} hits {hits} ({:.1}%)",
        hits as f64 / n as f64 * 100.0
    );
}

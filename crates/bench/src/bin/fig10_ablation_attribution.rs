//! **Ablation 5** — regret attribution (see "Deviations from the paper"
//! in PAPER.md).
//!
//! The paper's "distributed uniformly to every physical structure" admits
//! two readings: an equal *split* of the plan's regret, or *full* credit
//! to each structure (each was individually necessary — Definition 2).
//! This sweep shows why the reproduction defaults to full credit: under
//! the split reading the per-structure signal races the `a · CR`
//! threshold of eq. 3 and investment can freeze at 2.5 TB scale.
//!
//! Usage: `cargo run --release -p bench --bin fig10_ablation_attribution [sf] [queries]`

use bench::{
    bench_config_json, cli_scale, print_header, run_cells, write_csv, write_figure_bench_json, Row,
    RowSet,
};
use econ::RegretAttribution;
use simulator::{Scheme, SimConfig};

fn main() {
    let (sf, n) = cli_scale();
    print_header(
        "Ablation 5 (regret attribution)",
        "econ-cheap at 1 s and 10 s inter-arrival",
        sf,
        n,
    );
    let variants = [
        ("share-1s", RegretAttribution::UniformShare, 1.0),
        ("full-1s", RegretAttribution::FullValue, 1.0),
        ("share-10s", RegretAttribution::UniformShare, 10.0),
        ("full-10s", RegretAttribution::FullValue, 10.0),
    ];
    let cells: Vec<SimConfig> = variants
        .iter()
        .map(|&(_, attribution, interval)| {
            let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, interval, sf, n);
            cfg.econ.regret_attribution = attribution;
            cfg
        })
        .collect();
    let started = std::time::Instant::now();
    let results = run_cells(cells);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{:<12} {:>12} {:>12} {:>8} {:>8}",
        "variant", "cost ($)", "resp (s)", "hits %", "builds"
    );
    let mut set = RowSet::new();
    for ((name, _, _), r) in variants.iter().zip(&results) {
        let row = Row::new()
            .str_cell("variant", name, 12, true)
            .f64_cell(
                "total_cost_usd",
                r.total_operating_cost().as_dollars(),
                12,
                2,
                4,
            )
            .f64_cell("mean_response_s", r.mean_response_secs(), 12, 3, 4)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .num_cell("builds", r.investments, 8, false);
        println!("{}", set.push(row));
    }
    write_csv(
        "fig10_ablation_attribution",
        &set.csv_header(),
        set.csv_rows(),
    );
    write_figure_bench_json(
        "fig10_ablation_attribution",
        sf,
        n,
        &bench_config_json(sf, n, n * variants.len() as u64, wall),
        set.json_rows(),
    );
}

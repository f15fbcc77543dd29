//! Regenerates every figure of [`bench::figures::FIGURES`]: Figs. 4 and
//! 5 of the paper and the five ablations.
//!
//! Each distinct cell runs once, so a cell that several figures share
//! (fig4 and fig5's grid, econ-cheap at 10 s) costs one simulation. Each
//! figure prints its table and writes `results/<name>.csv`, best-effort.
//! At the paper-scale default it also rewrites `BENCH_<name>.json` in
//! the working directory; a record it cannot write makes it exit 1.
//! Bad arguments print a usage line and exit 2.
//!
//! Usage: `cargo run --release -p bench --bin figures [sf] [queries]`

use std::collections::HashSet;
use std::path::Path;

use bench::figures::{
    cell_key, csv, is_paper_cell, record, run_cells, Cell, DEFAULT_QUERIES, DEFAULT_SF, FIGURES,
};
use simulator::SimConfig;

const USAGE: &str = "[scale_factor] [num_queries]\n       \
                     defaults: scale_factor 2500, num_queries 500000";

/// Prints `error: <message>` and the usage line, and exits 2.
fn usage_error(message: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_else(|| "figures".into());
    eprintln!("error: {message}");
    eprintln!("usage: {bin} {USAGE}");
    std::process::exit(2);
}

/// Parses `[scale_factor] [num_queries]`: a missing argument takes the
/// paper-scale default; a present one must parse and be positive, since
/// defaulting on a typo (`2500x`) would run the wrong experiment under
/// the default's label.
fn scale_args() -> (f64, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage_error(&format!("expected at most 2 arguments, got {}", args.len()));
    }
    let sf = args.first().map_or(DEFAULT_SF, |raw| {
        raw.parse()
            .unwrap_or_else(|_| usage_error(&format!("cannot parse scale factor `{raw}`")))
    });
    let n = args.get(1).map_or(DEFAULT_QUERIES, |raw| {
        raw.parse()
            .unwrap_or_else(|_| usage_error(&format!("cannot parse query count `{raw}`")))
    });
    if !sf.is_finite() || sf <= 0.0 {
        usage_error(&format!("scale factor must be positive, got {sf}"));
    }
    if n == 0 {
        usage_error("query count must be positive");
    }
    (sf, n)
}

fn main() {
    let (sf, n) = scale_args();
    let cells: Vec<Vec<Cell>> = FIGURES.iter().map(|figure| (figure.cells)(sf, n)).collect();
    let configs: Vec<SimConfig> = cells.iter().flatten().map(|c| c.config.clone()).collect();
    let distinct = configs.iter().map(cell_key).collect::<HashSet<_>>().len();
    println!(
        "{} cells ({distinct} distinct) at TPC-H SF {sf} ≈ {:.1} TB backend, {n} queries each, \
         25 Mbps, EC2-2009 prices",
        configs.len(),
        sf / 1000.0
    );
    let started = std::time::Instant::now();
    let results = run_cells(&configs);
    let wall_secs = started.elapsed().as_secs_f64();
    let queries_per_sec = (distinct as u64 * n) as f64 / wall_secs.max(1e-9);
    println!("simulated in {wall_secs:.3} s ({queries_per_sec:.0} queries/s)");

    let mut results = results.into_iter();
    let mut failed = false;
    for (figure, cells) in FIGURES.iter().zip(&cells) {
        let rows: Vec<_> = cells
            .iter()
            .zip(results.by_ref())
            .map(|(cell, result)| figure.row(cell, &result))
            .collect();
        println!();
        println!("{}: {}", figure.name, figure.caption);
        print!("{}", figure.table(&rows));

        let csv_path = Path::new("results").join(format!("{}.csv", figure.name));
        match std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&csv_path, csv(&rows)))
        {
            Ok(()) => println!("(wrote {})", csv_path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", csv_path.display()),
        }

        let record_path = format!("BENCH_{}.json", figure.name);
        if !is_paper_cell(sf, n) {
            println!("(non-default scale: {record_path} left untouched)");
            continue;
        }
        let text = record(figure.name, sf, n, wall_secs, queries_per_sec, &rows);
        match std::fs::write(&record_path, text) {
            Ok(()) => println!("(wrote {record_path})"),
            Err(e) => {
                eprintln!("error: cannot write {record_path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

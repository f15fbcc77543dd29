//! # bench — the experiment harness
//!
//! One binary per figure of the paper (PAPER.md maps each figure to its
//! binary; its "Deviations from the paper" lists where the reproduction
//! departs from the text):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `fig4_operating_cost` | Fig. 4 — operating cost vs inter-arrival interval |
//! | `fig5_response_time`  | Fig. 5 — mean response time vs inter-arrival interval |
//! | `fig6_ablation_regret` | eq. 3 threshold fraction `a` sweep |
//! | `fig7_ablation_amortization` | eq. 7 horizon `n` sweep (fixed vs adaptive) |
//! | `fig8_ablation_cachesize` | bypass cache-cap sweep (the paper's "ideal 30 %") |
//! | `fig9_ablation_budget` | budget-shape sweep (Fig. 1 shapes) |
//! | `fig10_ablation_attribution` | regret attribution: uniform share vs full value |
//! | `pilot`, `probe_paper` | calibration tools (not shipped figures) |
//!
//! Every binary accepts `[scale_factor] [num_queries]` positional
//! arguments (defaults: SF 2500 — the paper's 2.5 TB — and a query count
//! sized so the run finishes in about a minute), prints the paper-style
//! table, and drops a CSV under `results/`.
//!
//! Criterion micro-benches live in `benches/`.

#![forbid(unsafe_code)]

use simulator::{run_simulation, RunResult, Scheme, SimConfig};
use std::io::Write;
use std::path::Path;

pub mod cli;
pub mod row;

pub use cli::{cli_arg, cli_scale, cli_usage_error};
pub use row::{Row, RowSet};

/// The paper's inter-arrival grid (seconds), Figures 4 and 5.
pub const PAPER_INTERVALS: [f64; 4] = [1.0, 10.0, 30.0, 60.0];

/// Default scale factor for shipped figures: the paper's 2.5 TB backend.
pub const DEFAULT_SF: f64 = 2500.0;

/// Default query count for shipped figures. The paper simulates 10⁶
/// queries; 5 × 10⁵ reproduces the same post-warm-up regime in about a
/// minute of harness time.
pub const DEFAULT_QUERIES: u64 = 500_000;

/// Runs a set of independent cells in parallel, capped at the machine's
/// available parallelism (an unbounded thread-per-cell spawn used to
/// oversubscribe small runners on large grids).
///
/// Results are returned in input order.
///
/// # Panics
/// Panics if any cell's config is invalid.
#[must_use]
pub fn run_cells(cells: Vec<SimConfig>) -> Vec<RunResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = parallelism.min(cells.len()).max(1);

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = cells.get(i) else { break };
                let result = run_simulation(cfg.clone());
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell simulated")
        })
        .collect()
}

/// Runs the full paper grid: every scheme × every interval.
#[must_use]
pub fn run_paper_grid(sf: f64, n: u64) -> Vec<(f64, Vec<RunResult>)> {
    PAPER_INTERVALS
        .iter()
        .map(|&interval| {
            let cells: Vec<SimConfig> = Scheme::paper_schemes()
                .into_iter()
                .map(|scheme| SimConfig::paper_cell(scheme, interval, sf, n))
                .collect();
            (interval, run_cells(cells))
        })
        .collect()
}

/// Prints a figure header.
pub fn print_header(figure: &str, caption: &str, sf: f64, n: u64) {
    println!("================================================================");
    println!("{figure}: {caption}");
    println!(
        "(TPC-H SF {sf} ≈ {:.1} TB backend, {n} queries, 25 Mbps, EC2-2009 prices)",
        sf / 1000.0
    );
    println!("================================================================");
}

/// Writes rows as CSV under `results/<name>.csv`; ignores I/O errors after
/// warning (figures must still print when the directory is read-only).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for row in rows {
                let _ = writeln!(f, "{row}");
            }
            println!("(wrote {})", path.display());
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Formats one grid for CSV: `interval,scheme,value`.
#[must_use]
pub fn grid_csv_rows<F: Fn(&RunResult) -> String>(
    grid: &[(f64, Vec<RunResult>)],
    value: F,
) -> Vec<String> {
    let mut rows = Vec::new();
    for (interval, results) in grid {
        for r in results {
            rows.push(format!("{interval},{},{}", r.scheme, value(r)));
        }
    }
    rows
}

/// True if `(sf, n)` is the paper-scale default cell — the only cell
/// whose run may refresh a committed `BENCH_*.json` record.
#[must_use]
pub fn is_paper_cell(sf: f64, n: u64) -> bool {
    (sf - DEFAULT_SF).abs() < f64::EPSILON && n == DEFAULT_QUERIES
}

/// [`write_bench_json`] guarded by the figure harness's default-cell
/// rule: reduced-scale runs (CI, smoke tests) must not clobber the
/// committed paper-scale record.
pub fn write_figure_bench_json(name: &str, sf: f64, n: u64, config: &str, cells: &[String]) {
    if is_paper_cell(sf, n) {
        write_bench_json(name, config, cells);
    } else {
        println!("(non-default cell: BENCH_{name}.json left untouched)");
    }
}

/// Writes `BENCH_<name>.json` in the working directory (the repo root
/// when run via `cargo run`), the machine-readable perf record
/// (`tests/bench_records.rs` checks the committed ones stay readable).
/// `config` is a JSON object string
/// (including the measured wall-clock, so a record is never mistaken for
/// one at a different scale); `cells` are JSON object strings.
pub fn write_bench_json(name: &str, config: &str, cells: &[String]) {
    let json = format!(
        "{{\n\"bench\": \"{name}\",\n\"config\": {config},\n\"cells\": [\n{}\n]\n}}\n",
        cells.join(",\n")
    );
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// The standard figure-bench JSON config object: grid scale plus the
/// measured wall-clock and simulated-queries-per-second throughput of
/// the whole run.
#[must_use]
pub fn bench_config_json(sf: f64, n: u64, total_queries: u64, wall_secs: f64) -> String {
    format!(
        "{{\"scale_factor\": {sf}, \"queries_per_cell\": {n}, \"total_queries\": {total_queries}, \
         \"wall_secs\": {wall_secs:.3}, \"queries_per_sec\": {:.0}}}",
        total_queries as f64 / wall_secs.max(1e-9)
    )
}

/// The aggregate fingerprint the fleet invariance checks compare
/// bit-for-bit: every economic aggregate plus the serialized elastic
/// decision ledger (empty for fixed-population fleets) and the fault
/// summary (empty for fault-free fleets). The fault summary enters as an
/// explicit list of its result-bearing fields and its serialized record
/// stream, so an inert summary field neither moves the fingerprint nor
/// hides a drift. Shared by `explain selfcheck`, `explain health` and the
/// repository benchmark's run-to-run and traced-replay checks — one
/// definition, so the gates cannot quietly diverge on what "identical"
/// means.
///
/// # Panics
/// Panics if the elastic ledger or fault records fail to serialize
/// (they always serialize — the types derive `Serialize`
/// unconditionally).
#[must_use]
pub fn fleet_fingerprint(r: &fleet::FleetResult) -> String {
    let ledger = r
        .elastic
        .as_ref()
        .map(|e| serde_json::to_string(&e.ledger).expect("ledger serializes"))
        .unwrap_or_default();
    let faults = r.faults.as_ref().map_or_else(String::new, |f| {
        format!(
            "crashes={} recoveries={} reconciled={} timeouts={} write_off={:?} \
             requeued_bits={:016x} retries={} cascade_crashes={} max_cascade_depth={} \
             records={}",
            f.crashes,
            f.recoveries,
            f.reconciled,
            f.timeouts,
            f.write_off,
            f.requeued_secs.to_bits(),
            f.retries,
            f.cascade_crashes,
            f.max_cascade_depth,
            serde_json::to_string(&f.records).expect("fault records serialize"),
        )
    });
    format!(
        "queries={} cost={:?} payments={:?} profit={:?} mean_bits={:016x} hits={} builds={} \
         evictions={} spawns={} retires={} node_seconds_bits={:016x} ledger={ledger} \
         faults={faults}",
        r.queries,
        r.total_operating_cost(),
        r.payments,
        r.profit,
        r.mean_response_secs().to_bits(),
        r.cache_hits,
        r.investments,
        r.evictions,
        r.elastic.as_ref().map_or(0, |e| e.spawns),
        r.elastic.as_ref().map_or(0, |e| e.retires),
        r.elastic.as_ref().map_or(0.0, |e| e.node_seconds).to_bits(),
    )
}

/// Formats one scheme×interval grid as JSON cell objects; `fields` maps a
/// run to `"key": value` pairs appended after the interval and scheme.
#[must_use]
pub fn grid_json_rows<F: Fn(&RunResult) -> String>(
    grid: &[(f64, Vec<RunResult>)],
    fields: F,
) -> Vec<String> {
    let mut rows = Vec::new();
    for (interval, results) in grid {
        for r in results {
            rows.push(format!(
                "  {{\"interval_s\": {interval}, \"scheme\": \"{}\", {}}}",
                r.scheme,
                fields(r)
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{run_fleet, FaultPlan, FleetConfig};
    use pricing::Money;

    /// The fault summary enters the fingerprint through its result-bearing
    /// fields: the inert `salvaged` moves nothing, a nanodollar of
    /// write-off moves it.
    #[test]
    fn fleet_fingerprint_reads_only_result_bearing_fault_fields() {
        let mut config = FleetConfig::uniform(4, 2, 20, 1.0);
        config.scale_factor = 1.0;
        config.cells = 1;
        let r = run_fleet(config.with_faults(FaultPlan::new(20.0).with_crash(0, 5.0)));
        assert_eq!(r.faults.as_ref().map(|f| f.crashes), Some(1));

        let mut inert = r.clone();
        if let Some(f) = inert.faults.as_mut() {
            f.salvaged = Money::from_nanos(7);
        }
        assert_eq!(fleet_fingerprint(&inert), fleet_fingerprint(&r));

        let mut moved = r.clone();
        if let Some(f) = moved.faults.as_mut() {
            f.write_off += Money::from_nanos(1);
        }
        assert_ne!(fleet_fingerprint(&moved), fleet_fingerprint(&r));
    }
}

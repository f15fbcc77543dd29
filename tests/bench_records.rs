//! The committed `BENCH_*.json` perf records stay readable and current.
//!
//! Every figure harness writes a `BENCH_<bench>.json` record at its
//! paper-scale default cell, and those records are committed at the
//! repository root. Each one must parse as JSON, name in `bench` a
//! binary under `crates/bench/src/bin` (and the file it lives in), carry
//! a positive whole-run `config.queries_per_sec`, and hold at least one
//! cell.
//!
//! Two fig4 cells (econ-cheap and bypass, both at 1 s) and one fig5
//! cell are also re-run at the record's own config
//! (`SimConfig::paper_cell` at its `scale_factor` and
//! `queries_per_cell`, default seed) and compared field by field at the
//! record's printed precision, four decimals. A change that moves a
//! committed number (a build profile included) fails here until the
//! record is regenerated and the move declared.

use std::path::Path;

use cloudcache::simulator::{run_simulation, RunResult, Scheme, SimConfig};
use serde::Value;

#[test]
fn committed_bench_records_parse_and_name_a_bench_bin() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut records: Vec<String> = std::fs::read_dir(root)
        .expect("repository root is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    records.sort();
    assert!(!records.is_empty(), "no BENCH_*.json record at the root");

    let bins = root.join("crates/bench/src/bin");
    for name in &records {
        let doc = record(name);
        let bench = doc
            .get("bench")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{name}: no `bench` name"));
        assert_eq!(*name, format!("BENCH_{bench}.json"), "{name}: file name");
        assert!(
            bins.join(format!("{bench}.rs")).is_file(),
            "{name}: `bench` {bench:?} names no binary in crates/bench/src/bin"
        );
        let qps = doc
            .get("config")
            .and_then(|config| config.get("queries_per_sec"))
            .and_then(Value::as_f64);
        assert!(
            qps.is_some_and(|q| q > 0.0),
            "{name}: config.queries_per_sec is {qps:?}, not positive"
        );
        let cells = doc
            .get("cells")
            .and_then(Value::as_seq)
            .map_or(0, <[Value]>::len);
        assert!(cells > 0, "{name}: no cells");
    }
}

#[test]
fn fig4_cell_reproduces_its_committed_record() {
    // The cell with every cost term live: econ-cheap at 1 s builds,
    // serves from cache and pays disk rent.
    check_cell(
        "BENCH_fig4_operating_cost.json",
        1.0,
        "econ-cheap",
        FIG4_FIELDS,
    );
}

#[test]
fn fig4_bypass_cell_reproduces_its_committed_record() {
    // The baseline at the same cell: bypass plans nothing, so it serves
    // over execution rows its caller leaves unfilled.
    check_cell("BENCH_fig4_operating_cost.json", 1.0, "bypass", FIG4_FIELDS);
}

#[test]
fn fig5_cell_reproduces_its_committed_record() {
    // Another scheme at another interval: econ-fast at 10 s, whose hit
    // rate (0.376) is the highest of its row.
    check_cell(
        "BENCH_fig5_response_time.json",
        10.0,
        "econ-fast",
        &[
            ("mean_response_s", RunResult::mean_response_secs),
            ("p50_s", |r| r.response_hist.quantile(0.5).unwrap_or(0.0)),
            ("p99_s", |r| r.response_hist.quantile(0.99).unwrap_or(0.0)),
            ("hit_rate", RunResult::hit_rate),
        ],
    );
}

type Field = (&'static str, fn(&RunResult) -> f64);

/// Every cost column of a fig4 cell.
const FIG4_FIELDS: &[Field] = &[
    ("total_cost_usd", |r| r.total_operating_cost().as_dollars()),
    ("cpu_usd", |r| r.operating.cpu.as_dollars()),
    ("disk_usd", |r| r.operating.disk.as_dollars()),
    ("network_usd", |r| r.operating.network.as_dollars()),
    ("io_usd", |r| r.operating.io.as_dollars()),
    ("builds_usd", |r| r.build_spend.as_dollars()),
];

fn record(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: unparseable: {e}"))
}

/// Re-runs the `(interval, scheme)` cell of record `name` at the
/// record's config and compares every field, printed as the figure
/// harness prints it (`{:.4}`).
fn check_cell(name: &str, interval: f64, scheme: &str, fields: &[Field]) {
    let doc = record(name);
    let config = |key: &str| {
        doc.get("config")
            .and_then(|config| config.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name}: no config.{key}"))
    };
    let (sf, queries) = (config("scale_factor"), config("queries_per_cell") as u64);
    let cell = doc
        .get("cells")
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("{name}: no cells"))
        .iter()
        .find(|cell| {
            cell.get("interval_s").and_then(Value::as_f64) == Some(interval)
                && cell.get("scheme").and_then(Value::as_str) == Some(scheme)
        })
        .unwrap_or_else(|| panic!("{name}: no cell for {scheme} at {interval} s"));
    let paper_scheme = Scheme::paper_schemes()
        .into_iter()
        .find(|s| s.name() == scheme)
        .unwrap_or_else(|| panic!("{scheme} is not a paper scheme"));

    let result = run_simulation(SimConfig::paper_cell(paper_scheme, interval, sf, queries));
    for (field, value) in fields {
        let committed = cell
            .get(field)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name}: {scheme} at {interval} s has no {field}"));
        assert_eq!(
            format!("{:.4}", value(&result)),
            format!("{committed:.4}"),
            "{name}: {scheme} at {interval} s, {field} (SF {sf}, {queries} queries): \
             regenerate the record and declare the move"
        );
    }
}

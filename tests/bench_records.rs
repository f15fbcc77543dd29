//! The committed `BENCH_*.json` perf records stay readable.
//!
//! Every figure harness writes a `BENCH_<bench>.json` record at its
//! paper-scale default cell, and those records are committed at the
//! repository root. Each one must parse as JSON, name in `bench` a
//! binary under `crates/bench/src/bin` (and the file it lives in), carry
//! a positive whole-run `config.queries_per_sec`, and hold at least one
//! cell.

use std::path::Path;

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
        let text = std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let doc: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: unparseable: {e}"));
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

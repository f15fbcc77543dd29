//! The committed `BENCH_*.json` perf records stay readable and current.
//!
//! The `figures` binary writes one `BENCH_<name>.json` record per figure
//! of `bench::figures::FIGURES` at its paper-scale default, and those
//! records are committed at the repository root. Every record must
//! parse, name a figure of the table (and every figure must have a
//! record), carry a positive whole-run `config.queries_per_sec`, and
//! hold one cell per table cell, keyed by the figure's labels and
//! columns in order and labelled as the table labels it.
//!
//! One cell of every record, each at a non-default knob, is also re-run
//! at the record's own config (`scale_factor`, `queries_per_cell`) and
//! printed through the table: the printed cell must equal the committed
//! line byte for byte, so every column matches at its printed precision.
//! The ignored `every_distinct_cell_reproduces_its_committed_records`
//! re-runs every distinct cell of every record; CI runs it under the
//! release profile. A change that moves a committed number fails here
//! until the records are regenerated and the move declared.

use std::path::Path;

use bench::figures::{json_cell, run_cells, Cell, Figure, Label, FIGURES};
use serde::Value;

#[test]
fn committed_bench_records_parse_and_name_a_table_figure() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root)
        .expect("repository root is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();

    for name in &names {
        let bench = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .expect("filtered on both ends");
        let record = Record::read(bench);
        assert_eq!(
            record.doc.get("bench").and_then(Value::as_str),
            Some(bench),
            "{name}: `bench` must name its file"
        );
        let figure = figure(bench);
        let qps = config(&record.doc, "queries_per_sec");
        assert!(
            qps > 0.0,
            "{name}: config.queries_per_sec is {qps}, not positive"
        );

        let cells = (figure.cells)(record.sf, record.n);
        let committed = record
            .doc
            .get("cells")
            .and_then(Value::as_seq)
            .unwrap_or_else(|| panic!("{name}: no cells"));
        assert_eq!(
            committed.len(),
            cells.len(),
            "{name}: one cell per table cell"
        );
        let keys: Vec<&str> = figure
            .labels
            .iter()
            .copied()
            .chain(figure.columns.iter().map(|column| column.key))
            .collect();
        for (cell, json) in cells.iter().zip(committed) {
            let Value::Map(entries) = json else {
                panic!("{name}: a cell is not an object");
            };
            let json_keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
            assert_eq!(json_keys, keys, "{name}: cell keys");
            for (key, label) in figure.labels.iter().zip(&cell.labels) {
                let value = json.get(key);
                let matches = match *label {
                    Label::Num(v) => value.and_then(Value::as_f64) == Some(v),
                    Label::Text(text) => value.and_then(Value::as_str) == Some(text),
                };
                assert!(
                    matches,
                    "{name}: cell {key} is {value:?}, the table says {label}"
                );
            }
        }
    }

    for figure in &FIGURES {
        let name = format!("BENCH_{}.json", figure.name);
        assert!(
            names.contains(&name),
            "figure {} has no committed {name}",
            figure.name
        );
    }
}

#[test]
fn fig4_cell_reproduces_its_committed_record() {
    // The cell with every cost term live: econ-cheap at 1 s builds,
    // serves from cache and pays disk rent.
    check_cell("fig4_operating_cost", &["1", "econ-cheap"]);
}

#[test]
fn fig4_bypass_cell_reproduces_its_committed_record() {
    // The baseline at the same cell: bypass plans nothing, so it serves
    // over execution rows its caller leaves unfilled.
    check_cell("fig4_operating_cost", &["1", "bypass"]);
}

#[test]
fn fig5_cell_reproduces_its_committed_record() {
    // Another scheme at another interval: econ-fast at 10 s, whose hit
    // rate (0.376) is the highest of its row.
    check_cell("fig5_response_time", &["10", "econ-fast"]);
}

#[test]
fn fig6_cell_reproduces_its_committed_record() {
    // The latest investor of the regret-threshold sweep.
    check_cell("fig6_ablation_regret", &["0.4"]);
}

#[test]
fn fig7_cell_reproduces_its_committed_record() {
    // A fixed amortisation horizon long enough to invest.
    check_cell("fig7_ablation_amortization", &["fixed-100k"]);
}

#[test]
fn fig8_cell_reproduces_its_committed_record() {
    // A bypass cap below the working set: it evicts and never hits.
    check_cell("fig8_ablation_cachesize", &["0.05"]);
}

#[test]
fn fig9_cell_reproduces_its_committed_record() {
    // A decaying budget, which shrinks the affordable plan set.
    check_cell("fig9_ablation_budget", &["convex"]);
}

#[test]
fn fig10_cell_reproduces_its_committed_record() {
    // The split reading of regret attribution at 1 s.
    check_cell("fig10_ablation_attribution", &["share-1s"]);
}

#[test]
#[ignore = "re-runs all 32 distinct cells; CI runs it under the release profile"]
fn every_distinct_cell_reproduces_its_committed_records() {
    let records: Vec<Record> = FIGURES.iter().map(|f| Record::read(f.name)).collect();
    let cells: Vec<Vec<Cell>> = FIGURES
        .iter()
        .zip(&records)
        .map(|(figure, record)| (figure.cells)(record.sf, record.n))
        .collect();
    let configs: Vec<_> = cells.iter().flatten().map(|c| c.config.clone()).collect();
    let mut results = run_cells(&configs).into_iter();

    let mut moved = Vec::new();
    for ((figure, record), cells) in FIGURES.iter().zip(&records).zip(&cells) {
        for (cell, committed) in cells.iter().zip(&record.cells) {
            let result = results.next().expect("one result per cell");
            let printed = json_cell(&figure.row(cell, &result));
            if printed != *committed {
                moved.push(format!(
                    "{}:\n  committed {committed}\n  re-run    {printed}",
                    figure.name
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "{} cell(s) moved; regenerate the records and declare the move:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

/// One committed record: its parsed document, its scale and its cell
/// lines as written.
struct Record {
    doc: Value,
    sf: f64,
    n: u64,
    cells: Vec<String>,
}

impl Record {
    fn read(bench: &str) -> Record {
        let name = format!("BENCH_{bench}.json");
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(&name);
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: unreadable: {e}"));
        let doc: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: unparseable: {e}"));
        let cells = text
            .lines()
            .filter(|line| line.starts_with("  {"))
            .map(|line| line.trim_end_matches(',').to_string())
            .collect();
        Record {
            sf: config(&doc, "scale_factor"),
            n: config(&doc, "queries_per_cell") as u64,
            doc,
            cells,
        }
    }
}

fn config(doc: &Value, key: &str) -> f64 {
    doc.get("config")
        .and_then(|config| config.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no config.{key}"))
}

fn figure(name: &str) -> &'static Figure {
    FIGURES
        .iter()
        .find(|figure| figure.name == name)
        .unwrap_or_else(|| panic!("`{name}` names no figure of bench::figures::FIGURES"))
}

/// Re-runs the cell of record `bench` whose labels print as `labels`,
/// at the record's config, and compares its printed cell with the
/// committed line.
fn check_cell(bench: &str, labels: &[&str]) {
    let figure = figure(bench);
    let record = Record::read(bench);
    let cells = (figure.cells)(record.sf, record.n);
    let i = cells
        .iter()
        .position(|cell| {
            cell.labels
                .iter()
                .map(ToString::to_string)
                .eq(labels.iter().copied())
        })
        .unwrap_or_else(|| panic!("{bench}: no cell labelled {labels:?}"));
    let result = run_cells(std::slice::from_ref(&cells[i].config)).remove(0);
    assert_eq!(
        json_cell(&figure.row(&cells[i], &result)),
        record.cells[i],
        "{bench}: cell {labels:?} (SF {}, {} queries): regenerate the record and declare the move",
        record.sf,
        record.n
    );
}

//! The figure table: every shipped figure as data, and the one runner,
//! printer and record writer they share.
//!
//! A [`Figure`] is its record name (`BENCH_<name>.json`), a caption,
//! its labelled cells and its columns. A [`Column`] is a key, a read of
//! [`RunResult`] and the [`Form`] it prints in. The `figures` binary
//! builds every figure's cells, runs each distinct cell once
//! ([`run_cells`]), and prints each row once ([`Figure::row`]); the
//! table, the CSV under `results/` and the record's JSON cells are three
//! layouts of that one printed row. `tests/bench_records.rs` re-runs the
//! committed records' cells through the same table, and
//! `tests/paper_claims.rs` builds its cells from [`paper_grid`].

use std::collections::HashMap;
use std::fmt::Write as _;

use econ::{AmortizationPolicy, BudgetShape, EconConfig, RegretAttribution};
use simulator::{run_simulation, RunResult, Scheme, SimConfig};

/// The paper's inter-arrival grid (seconds), Figures 4 and 5.
pub const PAPER_INTERVALS: [f64; 4] = [1.0, 10.0, 30.0, 60.0];

/// Default scale factor for shipped figures: the paper's 2.5 TB backend.
pub const DEFAULT_SF: f64 = 2500.0;

/// Default query count per cell. The paper simulates 10⁶ queries;
/// 5 × 10⁵ reproduces the same post-warm-up regime in half the time.
pub const DEFAULT_QUERIES: u64 = 500_000;

/// True if `(sf, n)` is the paper-scale default cell — the only scale
/// whose run may refresh a committed `BENCH_*.json` record.
#[must_use]
pub fn is_paper_cell(sf: f64, n: u64) -> bool {
    (sf - DEFAULT_SF).abs() < f64::EPSILON && n == DEFAULT_QUERIES
}

/// One label of a cell: a grid knob printed as it was written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// A number, printed in its shortest form (`0.05`, `1`); unquoted
    /// in JSON.
    Num(f64),
    /// A name, quoted in JSON.
    Text(&'static str),
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Label::Num(v) => write!(f, "{v}"),
            Label::Text(name) => f.write_str(name),
        }
    }
}

/// One labelled cell of a figure.
#[derive(Debug, Clone)]
pub struct Cell {
    /// One label per key of the figure's `labels`, in order.
    pub labels: Vec<Label>,
    /// The simulation the cell runs.
    pub config: SimConfig,
}

/// How a column prints its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// Four decimals, the precision of every committed real value.
    Fixed4,
    /// A whole number.
    Count,
}

/// One measured column of a figure.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// The key in the CSV header and in the record's cells.
    pub key: &'static str,
    /// The value, read from the cell's result.
    pub read: fn(&RunResult) -> f64,
    /// How the value prints.
    pub form: Form,
}

/// One printed value of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// The column key.
    pub key: &'static str,
    /// The printed value.
    pub text: String,
    /// Quoted in JSON (a name, not a number).
    pub quoted: bool,
}

/// One figure: a record, its cells and its columns.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The record name: the figure writes `BENCH_<name>.json` and
    /// `results/<name>.csv`.
    pub name: &'static str,
    /// What the figure shows.
    pub caption: &'static str,
    /// The label keys, which lead every row.
    pub labels: &'static [&'static str],
    /// The figure's cells at a scale factor and a query count per cell.
    pub cells: fn(f64, u64) -> Vec<Cell>,
    /// The measured columns, after the labels.
    pub columns: &'static [Column],
}

impl Figure {
    /// The printed row of one cell: its labels, then every column read
    /// from its result.
    #[must_use]
    pub fn row(&self, cell: &Cell, result: &RunResult) -> Vec<Field> {
        let labels = self
            .labels
            .iter()
            .zip(&cell.labels)
            .map(|(&key, label)| Field {
                key,
                text: label.to_string(),
                quoted: matches!(label, Label::Text(_)),
            });
        let columns = self.columns.iter().map(|column| Field {
            key: column.key,
            text: match column.form {
                Form::Fixed4 => format!("{:.4}", (column.read)(result)),
                Form::Count => format!("{:.0}", (column.read)(result)),
            },
            quoted: false,
        });
        labels.chain(columns).collect()
    }

    /// The rows as an aligned text table under a header of their keys:
    /// labels left-aligned, values right-aligned.
    #[must_use]
    pub fn table(&self, rows: &[Vec<Field>]) -> String {
        let Some(first) = rows.first() else {
            return String::new();
        };
        let header = first.iter().map(|f| f.key).collect();
        let lines: Vec<Vec<&str>> = std::iter::once(header)
            .chain(
                rows.iter()
                    .map(|row| row.iter().map(|f| f.text.as_str()).collect()),
            )
            .collect();
        let widths: Vec<usize> = (0..first.len())
            .map(|i| lines.iter().map(|line| line[i].len()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for line in &lines {
            let mut text = String::new();
            for (i, (cell, width)) in line.iter().zip(&widths).enumerate() {
                let gap = if i == 0 { "" } else { "  " };
                let _ = if i < self.labels.len() {
                    write!(text, "{gap}{cell:<width$}")
                } else {
                    write!(text, "{gap}{cell:>width$}")
                };
            }
            out.push_str(text.trim_end());
            out.push('\n');
        }
        out
    }
}

/// The figures the `figures` binary regenerates, in print order.
pub const FIGURES: [Figure; 7] = [
    Figure {
        name: "fig4_operating_cost",
        caption: "Figure 4: operating cost ($) per caching scheme vs query inter-arrival time",
        labels: &["interval_s", "scheme"],
        cells: paper_grid,
        columns: &[
            COST,
            fixed4("cpu_usd", |r| r.operating.cpu.as_dollars()),
            fixed4("disk_usd", |r| r.operating.disk.as_dollars()),
            fixed4("network_usd", |r| r.operating.network.as_dollars()),
            fixed4("io_usd", |r| r.operating.io.as_dollars()),
            fixed4("builds_usd", |r| r.build_spend.as_dollars()),
        ],
    },
    Figure {
        name: "fig5_response_time",
        caption: "Figure 5: mean response time (s) per caching scheme vs query inter-arrival time",
        labels: &["interval_s", "scheme"],
        cells: paper_grid,
        columns: &[
            RESPONSE,
            fixed4("p50_s", |r| r.response_hist.quantile(0.5).unwrap_or(0.0)),
            fixed4("p99_s", |r| r.response_hist.quantile(0.99).unwrap_or(0.0)),
            HIT_RATE,
        ],
    },
    Figure {
        name: "fig6_ablation_regret",
        caption: "Ablation 1 (regret threshold a, eq. 3): econ-cheap at 10 s inter-arrival",
        labels: &["a"],
        cells: |sf, n| {
            let knobs = [0.02, 0.05, 0.1, 0.2, 0.4].map(|a| (Label::Num(a), 10.0, a));
            econ_cheap_cells(sf, n, &knobs, |econ, a| econ.investment.regret_fraction = a)
        },
        columns: &[COST, RESPONSE, HIT_RATE, BUILDS, EVICTS],
    },
    Figure {
        name: "fig7_ablation_amortization",
        caption: "Ablation 2 (amortisation horizon n, eq. 7): econ-cheap at 10 s inter-arrival",
        labels: &["policy"],
        cells: |sf, n| {
            let adaptive = AmortizationPolicy::Adaptive {
                window_secs: 30.0 * 86_400.0,
                min_n: 1_000,
                max_n: 500_000,
            };
            let knobs = [
                ("fixed-1k", AmortizationPolicy::Fixed(1_000)),
                ("fixed-10k", AmortizationPolicy::Fixed(10_000)),
                ("fixed-100k", AmortizationPolicy::Fixed(100_000)),
                ("adaptive-30d", adaptive),
            ]
            .map(|(name, policy)| (Label::Text(name), 10.0, policy));
            econ_cheap_cells(sf, n, &knobs, |econ, policy| econ.amortization = policy)
        },
        columns: &[COST, RESPONSE, HIT_RATE, BUILDS],
    },
    Figure {
        name: "fig8_ablation_cachesize",
        caption: "Ablation 3 (bypass cache cap): bypass at 10 s inter-arrival, \
                  cap as fraction of the database",
        labels: &["cache_fraction"],
        cells: |sf, n| {
            [0.0002, 0.001, 0.05, 0.30, 0.60, 1.0]
                .into_iter()
                .map(|cache_fraction| Cell {
                    labels: vec![Label::Num(cache_fraction)],
                    config: SimConfig::paper_cell(Scheme::Bypass { cache_fraction }, 10.0, sf, n),
                })
                .collect()
        },
        columns: &[
            COST,
            RESPONSE,
            HIT_RATE,
            EVICTS,
            count("final_disk_bytes", |r| r.final_disk_bytes as f64),
        ],
    },
    Figure {
        name: "fig9_ablation_budget",
        caption: "Ablation 4 (budget shape, Fig. 1): econ-cheap at 10 s inter-arrival",
        labels: &["shape"],
        cells: |sf, n| {
            let knobs = [
                ("step", BudgetShape::Step),
                ("convex", BudgetShape::Convex),
                ("concave", BudgetShape::Concave),
            ]
            .map(|(name, shape)| (Label::Text(name), 10.0, shape));
            econ_cheap_cells(sf, n, &knobs, |econ, shape| econ.budget_shape = shape)
        },
        columns: &[
            COST,
            RESPONSE,
            HIT_RATE,
            fixed4("payments_usd", |r| r.payments.as_dollars()),
            fixed4("profit_usd", |r| r.profit.as_dollars()),
        ],
    },
    Figure {
        name: "fig10_ablation_attribution",
        caption: "Ablation 5 (regret attribution): econ-cheap at 1 s and 10 s inter-arrival",
        labels: &["variant"],
        cells: |sf, n| {
            let knobs = [
                ("share-1s", 1.0, RegretAttribution::UniformShare),
                ("full-1s", 1.0, RegretAttribution::FullValue),
                ("share-10s", 10.0, RegretAttribution::UniformShare),
                ("full-10s", 10.0, RegretAttribution::FullValue),
            ]
            .map(|(name, interval, attribution)| (Label::Text(name), interval, attribution));
            econ_cheap_cells(sf, n, &knobs, |econ, a| econ.regret_attribution = a)
        },
        columns: &[COST, RESPONSE, HIT_RATE, BUILDS],
    },
];

const COST: Column = fixed4("total_cost_usd", |r| r.total_operating_cost().as_dollars());
const RESPONSE: Column = fixed4("mean_response_s", RunResult::mean_response_secs);
const HIT_RATE: Column = fixed4("hit_rate", RunResult::hit_rate);
const BUILDS: Column = count("builds", |r| r.investments as f64);
const EVICTS: Column = count("evicts", |r| r.evictions as f64);

const fn fixed4(key: &'static str, read: fn(&RunResult) -> f64) -> Column {
    Column {
        key,
        read,
        form: Form::Fixed4,
    }
}

const fn count(key: &'static str, read: fn(&RunResult) -> f64) -> Column {
    Column {
        key,
        read,
        form: Form::Count,
    }
}

/// One econ-cheap cell per `(label, interval, knob)`, with `set`
/// applying the knob to the cell's economy.
fn econ_cheap_cells<K: Copy>(
    sf: f64,
    n: u64,
    knobs: &[(Label, f64, K)],
    set: fn(&mut EconConfig, K),
) -> Vec<Cell> {
    knobs
        .iter()
        .map(|&(label, interval, knob)| {
            let mut config = SimConfig::paper_cell(Scheme::EconCheap, interval, sf, n);
            set(&mut config.econ, knob);
            Cell {
                labels: vec![label],
                config,
            }
        })
        .collect()
}

/// The paper's grid (Figs. 4 and 5): each paper scheme at each interval
/// of [`PAPER_INTERVALS`], interval-major, labelled
/// `(interval_s, scheme)`.
#[must_use]
pub fn paper_grid(sf: f64, n: u64) -> Vec<Cell> {
    PAPER_INTERVALS
        .into_iter()
        .flat_map(|interval| {
            Scheme::paper_schemes().into_iter().map(move |scheme| Cell {
                labels: vec![Label::Num(interval), Label::Text(scheme.name())],
                config: SimConfig::paper_cell(scheme, interval, sf, n),
            })
        })
        .collect()
}

/// A cell's identity: its serialized config. Two cells with equal keys
/// simulate the same bits.
///
/// # Panics
/// Panics if the config fails to serialize, which a `SimConfig` never
/// does.
#[must_use]
pub fn cell_key(config: &SimConfig) -> String {
    serde_json::to_string(config).expect("SimConfig serializes")
}

/// Runs each distinct config once ([`cell_key`]), in parallel on at most
/// the machine's available parallelism, and returns one result per
/// input config, in input order.
///
/// # Panics
/// Panics if any cell's config is invalid.
#[must_use]
pub fn run_cells(configs: &[SimConfig]) -> Vec<RunResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let mut first: HashMap<String, usize> = HashMap::new();
    let mut distinct: Vec<&SimConfig> = Vec::new();
    let slots: Vec<usize> = configs
        .iter()
        .map(|config| {
            *first.entry(cell_key(config)).or_insert_with(|| {
                distinct.push(config);
                distinct.len() - 1
            })
        })
        .collect();

    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(distinct.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunResult>>> =
        distinct.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&config) = distinct.get(i) else {
                    break;
                };
                let result = run_simulation(config.clone());
                *results[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    let results: Vec<RunResult> = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell simulated")
        })
        .collect();
    slots.into_iter().map(|i| results[i].clone()).collect()
}

/// The rows as CSV: a header of their keys, then one line per row.
#[must_use]
pub fn csv(rows: &[Vec<Field>]) -> String {
    let mut out = String::new();
    if let Some(first) = rows.first() {
        let keys: Vec<&str> = first.iter().map(|f| f.key).collect();
        out.push_str(&keys.join(","));
        out.push('\n');
    }
    for row in rows {
        let texts: Vec<&str> = row.iter().map(|f| f.text.as_str()).collect();
        out.push_str(&texts.join(","));
        out.push('\n');
    }
    out
}

/// One row as a record cell: `  {"key": value, ...}`.
#[must_use]
pub fn json_cell(row: &[Field]) -> String {
    let fields: Vec<String> = row
        .iter()
        .map(|f| {
            if f.quoted {
                format!("\"{}\": \"{}\"", f.key, f.text)
            } else {
                format!("\"{}\": {}", f.key, f.text)
            }
        })
        .collect();
    format!("  {{{}}}", fields.join(", "))
}

/// The text of record `BENCH_<name>.json`: the figure's name, the run's
/// config (`scale_factor`, `queries_per_cell`, the record's
/// `total_queries` = cells × queries per cell, and the whole run's
/// `wall_secs` and `queries_per_sec`) and one cell per row.
#[must_use]
pub fn record(
    name: &str,
    sf: f64,
    n: u64,
    wall_secs: f64,
    queries_per_sec: f64,
    rows: &[Vec<Field>],
) -> String {
    let cells: Vec<String> = rows.iter().map(|row| json_cell(row)).collect();
    format!(
        "{{\n\"bench\": \"{name}\",\n\"config\": {{\"scale_factor\": {sf}, \"queries_per_cell\": {n}, \
         \"total_queries\": {}, \"wall_secs\": {wall_secs:.3}, \"queries_per_sec\": {queries_per_sec:.0}}},\n\
         \"cells\": [\n{}\n]\n}}\n",
        rows.len() as u64 * n,
        cells.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        let mut r = run_simulation(SimConfig::paper_cell(Scheme::EconCheap, 1.0, 1.0, 20));
        r.investments = 283;
        r
    }

    #[test]
    fn one_row_feeds_all_three_layouts() {
        let figure = FIGURES[3];
        let cell = &(figure.cells)(1.0, 20)[2];
        let r = result();
        let row = figure.row(cell, &r);
        let keys: Vec<&str> = row.iter().map(|f| f.key).collect();
        assert_eq!(
            keys,
            [
                "policy",
                "total_cost_usd",
                "mean_response_s",
                "hit_rate",
                "builds"
            ]
        );
        assert_eq!(row[0].text, "fixed-100k");
        assert_eq!(row[4].text, "283");
        let cost = format!("{:.4}", r.total_operating_cost().as_dollars());
        assert_eq!(row[1].text, cost);

        let rows = [row];
        let csv = csv(&rows);
        assert!(csv.starts_with("policy,total_cost_usd,mean_response_s,hit_rate,builds\n"));
        assert!(csv.contains(&format!("fixed-100k,{cost},")));
        let json = json_cell(&rows[0]);
        assert!(json.starts_with(&format!(
            "  {{\"policy\": \"fixed-100k\", \"total_cost_usd\": {cost}, "
        )));
        assert!(json.ends_with("\"builds\": 283}"));
        let table = figure.table(&rows);
        assert!(table.starts_with("policy      total_cost_usd"), "{table}");
        assert!(
            table.lines().nth(1).unwrap().starts_with("fixed-100k  "),
            "{table}"
        );
    }

    #[test]
    fn numeric_labels_print_shortest_and_unquoted() {
        let figure = FIGURES[4];
        let cells = (figure.cells)(1.0, 20);
        let r = result();
        let texts: Vec<String> = cells
            .iter()
            .map(|cell| json_cell(&figure.row(cell, &r)[..1]))
            .collect();
        assert_eq!(
            texts,
            [
                "  {\"cache_fraction\": 0.0002}",
                "  {\"cache_fraction\": 0.001}",
                "  {\"cache_fraction\": 0.05}",
                "  {\"cache_fraction\": 0.3}",
                "  {\"cache_fraction\": 0.6}",
                "  {\"cache_fraction\": 1}",
            ]
        );
    }

    #[test]
    fn every_cell_carries_one_label_per_key() {
        for figure in FIGURES {
            for cell in (figure.cells)(1.0, 20) {
                assert_eq!(cell.labels.len(), figure.labels.len(), "{}", figure.name);
            }
        }
    }

    #[test]
    fn duplicate_cells_share_one_result_in_input_order() {
        let a = SimConfig::paper_cell(Scheme::EconCheap, 1.0, 1.0, 20);
        let b = SimConfig::paper_cell(Scheme::EconCol, 1.0, 1.0, 20);
        let results = run_cells(&[a.clone(), b, a]);
        let schemes: Vec<&str> = results.iter().map(|r| r.scheme.as_str()).collect();
        assert_eq!(schemes, ["econ-cheap", "econ-col", "econ-cheap"]);
        assert_eq!(
            serde_json::to_string(&results[0]).unwrap(),
            serde_json::to_string(&results[2]).unwrap()
        );
    }

    #[test]
    fn the_table_shares_32_distinct_cells_among_54() {
        let configs: Vec<SimConfig> = FIGURES
            .iter()
            .flat_map(|figure| (figure.cells)(DEFAULT_SF, DEFAULT_QUERIES))
            .map(|cell| cell.config)
            .collect();
        let distinct: std::collections::HashSet<String> = configs.iter().map(cell_key).collect();
        assert_eq!((configs.len(), distinct.len()), (54, 32));
    }
}

//! Perf-trend tooling over the committed `BENCH_*.json` records.
//!
//! Every bench writes a machine-readable `BENCH_<name>.json` at the
//! paper-scale default cell, and those records are committed — one per
//! PR that re-measured. This module turns that history into a review
//! artifact: for each record it extracts a **headline throughput**
//! (queries/second), walks the record's git history for the trajectory,
//! and flags regressions. The `trend` binary prints one line per bench;
//! `trend --check` (CI) exits non-zero when the working-tree record
//! regresses against the last committed one, when the committed
//! `fleet_scale` quote-thread sweep contains rows below its own
//! sequential baseline, when its health-sweep row shows the vitals
//! snapshots perturbing the run (aggregates drifting bitwise from the
//! snapshots-off baseline, or throughput leaking), or when a committed
//! `fleet_faults` record violates its fault-plane claims (a ledger
//! replay that no longer reconciles, an elastic fleet that no longer
//! beats the static one on cost through a crash, or a drift-alarm
//! fixture that cries wolf on fault-free cells or goes blind on the
//! degraded one).

use serde::Value;

/// Relative throughput drop treated as a regression (5 %): small enough
/// to catch real slides, large enough to ignore run-to-run noise in the
/// committed records.
pub const REGRESSION_TOLERANCE: f64 = 0.05;

/// The headline queries/second of one parsed `BENCH_*.json` document:
/// the whole-run `config.queries_per_sec` when the bench records one
/// (the figure harness), otherwise the first cell's `qps` (grid benches
/// like `fleet_scale` and `hotpath`, whose first cell is the
/// single-threaded baseline).
#[must_use]
pub fn headline_qps(doc: &Value) -> Option<f64> {
    if let Some(qps) = doc.get("config").and_then(|c| c.get("queries_per_sec")) {
        return qps.as_f64();
    }
    doc.get("cells")?
        .as_seq()?
        .iter()
        .find_map(|cell| cell.get("qps").and_then(Value::as_f64))
}

/// Relative rep spread of one record cell — `(best − min) / best` from
/// its `qps` / `qps_min` keys; `None` when the cell carries no spread
/// (or a zero best). The single definition both the headline check and
/// the quote-sweep check measure noise with.
#[must_use]
pub fn cell_spread(cell: &Value) -> Option<f64> {
    let best = cell.get("qps")?.as_f64()?;
    let min = cell.get("qps_min")?.as_f64()?;
    (best > 0.0).then(|| ((best - min) / best).max(0.0))
}

/// Relative rep spread of the headline cell — [`cell_spread`] of the
/// first cell carrying one. Grid benches record each cell's best *and*
/// min/median over interleaved reps precisely so this check can tell
/// run-to-run machine noise from a real slide: a step down that stays
/// inside the record's own measured spread is noise, not a regression.
/// `None` for records without per-cell spreads (the figure harness'
/// whole-run headline).
#[must_use]
pub fn headline_spread(doc: &Value) -> Option<f64> {
    doc.get("cells")?.as_seq()?.iter().find_map(cell_spread)
}

/// The user budget shape a `fleet_scale` row ran under (its `budget`
/// column). Rows of different budgets run different quote paths (a step
/// budget decides every round from the budget alone, a convex one plans
/// every round), so the record checks below only ever compare rows of
/// one budget. `None` for records that predate the column, whose rows
/// all ran the default step budget and so form one group.
fn cell_budget(cell: &Value) -> Option<&str> {
    cell.get("budget").and_then(Value::as_str)
}

/// Whether two record rows ran under the same budget shape.
fn same_budget(a: &Value, b: &Value) -> bool {
    cell_budget(a) == cell_budget(b)
}

/// Quote-thread-sweep regression rows of a `fleet_scale` record: every
/// `quote-thread-sweep` cell whose q/s falls below the record's own
/// sequential baseline of the same budget (the first `shards 1,
/// quote_threads 1` cell under that budget) by more
/// than the noise band — [`REGRESSION_TOLERANCE`] widened to the rep
/// spread of both cells when the record carries `qps_min`. Dips inside
/// the band are measurement noise between cells running identical code
/// (on a saturated single-core runner the spread routinely exceeds the
/// blanket 5 %), while the regression this check exists for was an 87 %
/// collapse. Returns one human-readable description per offending row;
/// empty for records of other benches.
#[must_use]
pub fn quote_sweep_regressions(doc: &Value) -> Vec<String> {
    let Some(cells) = doc.get("cells").and_then(Value::as_seq) else {
        return Vec::new();
    };
    let rel_spread = |cell: &Value| -> f64 { cell_spread(cell).unwrap_or(0.0) };
    let baseline_of = |row: &Value| {
        cells
            .iter()
            .filter(|c| same_budget(c, row))
            .find_map(|cell| {
                let shards = cell.get("shards")?.as_f64()?;
                let threads = cell.get("quote_threads")?.as_f64()?;
                if shards == 1.0 && threads == 1.0 {
                    Some((cell.get("qps")?.as_f64()?, rel_spread(cell)))
                } else {
                    None
                }
            })
    };
    cells
        .iter()
        .filter(|cell| cell.get("sweep").and_then(Value::as_str) == Some("quote-thread-sweep"))
        .filter_map(|cell| {
            let (baseline, baseline_spread) = baseline_of(cell)?;
            let threads = cell.get("quote_threads")?.as_f64()?;
            let qps = cell.get("qps")?.as_f64()?;
            let tolerance = REGRESSION_TOLERANCE
                .max(baseline_spread)
                .max(rel_spread(cell));
            (qps < baseline * (1.0 - tolerance)).then(|| {
                format!(
                    "quote_threads={threads:.0} at {qps:.0} q/s falls below the \
                     1-thread baseline ({baseline:.0} q/s) beyond the {:.1}% noise band",
                    tolerance * 100.0
                )
            })
        })
        .collect()
}

/// Completion-path regression of a `fleet_scale` record: the recorded
/// default completion path (batched, `batching: true`) must also be the
/// fastest one. Any `batching: false` reference row beating the *best*
/// batched row of its own budget beyond the spread-widened noise band
/// means the default
/// ships the slower path — exactly the inversion the committed PR 7
/// record carried (per-node 51.2k q/s over batched 50.4k). Records
/// without a `batching` column (other benches) produce no flags.
#[must_use]
pub fn completion_path_regressions(doc: &Value) -> Vec<String> {
    let Some(cells) = doc.get("cells").and_then(Value::as_seq) else {
        return Vec::new();
    };
    let rel_spread = |cell: &Value| -> f64 { cell_spread(cell).unwrap_or(0.0) };
    let best_batched_of = |row: &Value| {
        cells
            .iter()
            .filter(|c| c.get("batching").and_then(Value::as_bool) == Some(true))
            .filter(|c| same_budget(c, row))
            .filter_map(|c| Some((c.get("qps")?.as_f64()?, rel_spread(c))))
            .max_by(|a, b| a.0.total_cmp(&b.0))
    };
    cells
        .iter()
        .filter(|c| c.get("batching").and_then(Value::as_bool) == Some(false))
        .filter_map(|cell| {
            let (best_batched, batched_spread) = best_batched_of(cell)?;
            let qps = cell.get("qps")?.as_f64()?;
            let threads = cell.get("quote_threads")?.as_f64()?;
            let tolerance = REGRESSION_TOLERANCE
                .max(batched_spread)
                .max(rel_spread(cell));
            (qps > best_batched * (1.0 + tolerance)).then(|| {
                format!(
                    "per-node completion at quote_threads={threads:.0} measures {qps:.0} q/s, \
                     beating the best batched row ({best_batched:.0} q/s) beyond the {:.1}% \
                     noise band — the recorded default is not the fastest path",
                    tolerance * 100.0
                )
            })
        })
        .collect()
}

/// Pinning-invariance regression of a `fleet_scale` record: core
/// affinity is a placement hint, so a record carrying a `pinning` column
/// must show bit-identical economic aggregates (`total_cost_usd`,
/// `mean_response_s`, `builds`) between its first unpinned row and the
/// first pinned row of the same budget.
/// The live run gates this bitwise before writing; this check keeps the
/// *committed* record honest between re-measurements. Historical records
/// without the column (pre-pinning) produce no flags.
#[must_use]
pub fn pinning_invariance_regressions(doc: &Value) -> Vec<String> {
    let Some(cells) = doc.get("cells").and_then(Value::as_seq) else {
        return Vec::new();
    };
    let pinned = |c: &&Value, pin: bool| c.get("pinning").and_then(Value::as_bool) == Some(pin);
    let Some(off) = cells.iter().find(|c| pinned(c, false)) else {
        return Vec::new();
    };
    let Some(on) = cells
        .iter()
        .find(|c| pinned(c, true) && same_budget(c, off))
    else {
        return Vec::new();
    };
    ["total_cost_usd", "mean_response_s", "builds"]
        .iter()
        .filter_map(|key| {
            let a = on.get(key)?.as_f64()?;
            let b = off.get(key)?.as_f64()?;
            (a.to_bits() != b.to_bits()).then(|| {
                format!("{key} differs between pinned ({a}) and unpinned ({b}) rows — affinity must not affect results")
            })
        })
        .collect()
}

/// Health-plane regression rows of a `fleet_scale` record: the vitals
/// scraper and SLO ledger are pure observers, so a record carrying a
/// `health-sweep` row must show bit-identical economic aggregates
/// between that row (snapshots on) and the sequential baseline of its
/// budget (snapshots off), and the row's throughput must stay inside the
/// noise band of the baseline — the snapshot path stays off the hot
/// path or it is a regression. The live run gates the bit-identity
/// before writing; this check keeps the *committed* record honest
/// between re-measurements. Historical records without the row
/// (pre-health-plane) produce no flags.
#[must_use]
pub fn health_sweep_regressions(doc: &Value) -> Vec<String> {
    let Some(cells) = doc.get("cells").and_then(Value::as_seq) else {
        return Vec::new();
    };
    let Some(health) = cells
        .iter()
        .find(|c| c.get("sweep").and_then(Value::as_str) == Some("health-sweep"))
    else {
        return Vec::new();
    };
    let baseline = cells.iter().find(|cell| {
        let shards = cell.get("shards").and_then(Value::as_f64);
        let threads = cell.get("quote_threads").and_then(Value::as_f64);
        let sweep = cell.get("sweep").and_then(Value::as_str);
        shards == Some(1.0)
            && threads == Some(1.0)
            && sweep != Some("health-sweep")
            && same_budget(cell, health)
    });
    let Some(baseline) = baseline else {
        return Vec::new();
    };
    let mut flags: Vec<String> = ["total_cost_usd", "mean_response_s", "builds"]
        .iter()
        .filter_map(|key| {
            let on = health.get(key)?.as_f64()?;
            let off = baseline.get(key)?.as_f64()?;
            (on.to_bits() != off.to_bits()).then(|| {
                format!(
                    "{key} differs between snapshots-on ({on}) and snapshots-off ({off}) rows — \
                     the health plane must be a pure observer"
                )
            })
        })
        .collect();
    if let (Some(on_qps), Some(off_qps)) = (
        health.get("qps").and_then(Value::as_f64),
        baseline.get("qps").and_then(Value::as_f64),
    ) {
        let tolerance = REGRESSION_TOLERANCE
            .max(cell_spread(health).unwrap_or(0.0))
            .max(cell_spread(baseline).unwrap_or(0.0));
        if on_qps < off_qps * (1.0 - tolerance) {
            flags.push(format!(
                "health-sweep at {on_qps:.0} q/s falls below the snapshots-off baseline \
                 ({off_qps:.0} q/s) beyond the {:.1}% noise band — snapshots leaked onto \
                 the hot path",
                tolerance * 100.0
            ));
        }
    }
    flags
}

/// A named counter from the record's committed registry snapshot
/// (`config.registry.entries[]`), e.g. `pool.pinned_workers` or
/// `plan_cache.victim_hits`. `None` when the record predates the key —
/// absence is fine, historical records are not re-measured.
#[must_use]
pub fn registry_counter(doc: &Value, name: &str) -> Option<f64> {
    doc.get("config")?
        .get("registry")?
        .get("entries")?
        .as_seq()?
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(name))?
        .get("value")?
        .get("Counter")?
        .get("value")?
        .as_f64()
}

/// Fault-plane regression rows of a `fleet_faults` record: the claims
/// the committed record pins, re-checked from the record itself so they
/// cannot silently rot between re-measurements. (1) Every recovery in
/// every cell reconciled exactly — `reconciled` equals `recoveries` —
/// because a drifting ledger replay is a correctness bug, not noise.
/// (2) In the crash scenario the elastic fleet beats the static fleet
/// on total operating cost: surviving the crash via the population
/// floor must not cost extra. (3) In the cascade pair, capital-
/// preserving evacuation salvages real capital and its ledgered loss —
/// write-off *plus* the full eq. 12 transfer bill — stays below the
/// pure write-off of the identical cascade (salvage-beats-write-off
/// ordering). (4) The evacuating elastic fleet also wins on loss-
/// adjusted total cost (operating + builds + capital destroyed).
/// Records that predate the cascade rows produce no cascade flags.
/// Returns one human-readable description per violated claim; empty
/// for records of other benches.
#[must_use]
pub fn fault_plane_regressions(doc: &Value) -> Vec<String> {
    if doc.get("bench").and_then(Value::as_str) != Some("fleet_faults") {
        return Vec::new();
    }
    let Some(cells) = doc.get("cells").and_then(Value::as_seq) else {
        return Vec::new();
    };
    let mut flags = Vec::new();
    for cell in cells {
        let (Some(recoveries), Some(reconciled)) = (
            cell.get("recoveries").and_then(Value::as_f64),
            cell.get("reconciled").and_then(Value::as_f64),
        ) else {
            continue;
        };
        if reconciled < recoveries {
            let scenario = cell.get("scenario").and_then(Value::as_str).unwrap_or("?");
            let mode = cell.get("mode").and_then(Value::as_str).unwrap_or("?");
            flags.push(format!(
                "{scenario}/{mode}: only {reconciled:.0} of {recoveries:.0} ledger replays reconciled"
            ));
        }
    }
    let cell_value = |scenario: &str, mode: &str, key: &str| {
        cells.iter().find_map(|cell| {
            if cell.get("scenario").and_then(Value::as_str) == Some(scenario)
                && cell.get("mode").and_then(Value::as_str) == Some(mode)
            {
                cell.get(key).and_then(Value::as_f64)
            } else {
                None
            }
        })
    };
    if let (Some(st), Some(el)) = (
        cell_value("crash", "static", "total_cost_usd"),
        cell_value("crash", "elastic", "total_cost_usd"),
    ) {
        if el >= st {
            flags.push(format!(
                "crash scenario: elastic-with-respawn at ${el:.4} no longer beats \
                 static-with-crash (${st:.4})"
            ));
        }
    }
    // The evacuation claims, gated only when the record carries the
    // cascade pair (historical records predate it).
    let evac = |key: &str| cell_value("cascade-evacuate", "elastic", key);
    let casc = |key: &str| cell_value("cascade", "elastic", key);
    if let (Some(ewo), Some(sal), Some(tr), Some(cwo)) = (
        evac("write_off_usd"),
        evac("salvaged_usd"),
        evac("transfer_usd"),
        casc("write_off_usd"),
    ) {
        if sal <= 0.0 {
            flags.push(format!(
                "cascade-evacuate/elastic: evacuation salvaged nothing (${sal:.4})"
            ));
        }
        if ewo + tr >= cwo {
            flags.push(format!(
                "cascade scenario: evacuation loss ${ewo:.4} + ${tr:.4} transfers no longer \
                 beats the pure write-off (${cwo:.4})"
            ));
        }
        if let (Some(ecost), Some(ccost), Some(cwo2)) = (
            evac("total_cost_usd"),
            casc("total_cost_usd"),
            casc("write_off_usd"),
        ) {
            if ecost + ewo >= ccost + cwo2 {
                flags.push(format!(
                    "cascade scenario: elastic-with-evacuation loss-adjusted cost \
                     ${:.4} no longer beats elastic-with-write-off (${:.4})",
                    ecost + ewo,
                    ccost + cwo2
                ));
            }
        }
    }
    // The drift-alarm fixture, gated only when the record carries the
    // `drift_alarms` column (historical records predate the health
    // plane): fault-free cells must stay alarm-silent — a detector that
    // cries wolf on a healthy fleet is useless — and the 6x degraded
    // elastic cell must burn the p99 budget past the e-value threshold.
    let alarm = |scenario: &str, mode: &str| cell_value(scenario, mode, "drift_alarms");
    if let (Some(none_static), Some(none_elastic), Some(degraded_elastic)) = (
        alarm("none", "static"),
        alarm("none", "elastic"),
        alarm("degraded", "elastic"),
    ) {
        if none_static > 0.0 || none_elastic > 0.0 {
            flags.push(format!(
                "none scenario: fault-free run raised {:.0} drift alarm(s) — the detector \
                 cries wolf",
                none_static.max(none_elastic)
            ));
        }
        if degraded_elastic < 1.0 {
            flags.push(
                "degraded/elastic: 6x degradation raised no drift alarm — the detector is blind"
                    .to_string(),
            );
        }
    }
    flags
}

/// Runs `git` with `args` in the current directory, returning stdout on
/// success.
#[must_use]
pub fn git(args: &[&str]) -> Option<String> {
    let out = std::process::Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

/// The abbreviated hashes of every commit that touched `path`, oldest
/// first; empty when git (or any history) is unavailable.
#[must_use]
pub fn record_history(path: &str) -> Vec<String> {
    git(&["log", "--format=%h", "--reverse", "--", path])
        .map(|out| out.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

/// The record's content as committed at `rev`.
#[must_use]
pub fn record_at(rev: &str, path: &str) -> Option<String> {
    git(&["show", &format!("{rev}:{path}")])
}

/// One bench's assembled trend line.
#[derive(Debug)]
pub struct BenchTrend {
    /// Record file name (`BENCH_<name>.json`).
    pub file: String,
    /// Headline q/s at each commit touching the record, oldest first,
    /// with the working-tree value appended when it differs from the
    /// last committed content.
    pub points: Vec<f64>,
    /// Relative change of the last step (`points[n-1]` vs
    /// `points[n-2]`); 0 for single-point histories.
    pub last_delta: f64,
    /// The tolerance the last step was held to:
    /// [`REGRESSION_TOLERANCE`] widened to the larger of the two
    /// endpoints' recorded rep spreads ([`headline_spread`]) — a noisy
    /// runner's spread is visible in its committed record, and a drop
    /// within that spread is noise by the record's own measurement.
    pub tolerance: f64,
    /// True when the last step regresses beyond [`Self::tolerance`].
    pub regressed: bool,
    /// Offending `fleet_scale` quote-sweep rows in the newest content
    /// (empty for other benches and healthy records).
    pub sweep_regressions: Vec<String>,
    /// `fleet_scale` rows showing the recorded default completion path
    /// is not the fastest one (empty for other benches and healthy
    /// records).
    pub completion_regressions: Vec<String>,
    /// `fleet_scale` pinned-vs-unpinned rows whose economic aggregates
    /// differ — affinity leaked into results (empty for records without
    /// a `pinning` column and for healthy records).
    pub pinning_regressions: Vec<String>,
    /// `fleet_scale` health-sweep violations — the snapshots-on row
    /// disagreeing with the snapshots-off baseline on economic
    /// aggregates, or its throughput falling out of the noise band
    /// (empty for records without the row and for healthy records).
    pub health_regressions: Vec<String>,
    /// Violated `fleet_faults` fault-plane claims in the newest content
    /// — unreconciled ledger replays or a crash scenario where the
    /// elastic fleet no longer beats the static one on cost (empty for
    /// other benches and healthy records).
    pub fault_regressions: Vec<String>,
    /// Parse failure, if the newest content was unreadable.
    pub error: Option<String>,
}

impl BenchTrend {
    /// The failure description for a regressed headline, naming the
    /// metric, its newest value, the baseline it is held to, the
    /// relative drop and the tolerance it exceeded — a `--check` failure
    /// must say exactly what slid and by how much, not just that
    /// *something* did. `None` while the last step is within tolerance.
    #[must_use]
    pub fn regression_message(&self) -> Option<String> {
        if !self.regressed || self.points.len() < 2 {
            return None;
        }
        let current = self.points[self.points.len() - 1];
        let baseline = self.points[self.points.len() - 2];
        Some(format!(
            "headline q/s regressed: {current:.0} q/s vs committed baseline {baseline:.0} q/s \
             ({:+.1}%), exceeding the {:.1}% tolerance",
            self.last_delta * 100.0,
            self.tolerance * 100.0
        ))
    }
}

/// Judges the last step of a headline trend, returning the tolerance it
/// was held to and whether it counts as a regression.
///
/// Either endpoint's own measured noise can explain a step down, so the
/// tolerance is [`REGRESSION_TOLERANCE`] widened to the larger of the
/// two endpoints' recorded rep spreads. A step beyond even that is
/// still forgiven when the new best lands inside the previous record's
/// own delivery envelope: the committed record's worst rep
/// (`prev * (1 - spread_prev)`) is throughput the runner demonstrably
/// produced while measuring that very record, so a new best above that
/// floor (less the blanket tolerance) is cross-session runner drift,
/// not a code regression. A genuine collapse clears both bars.
fn headline_step(prev: f64, cur: f64, spread_prev: f64, spread_cur: f64) -> (f64, bool) {
    let tolerance = REGRESSION_TOLERANCE.max(spread_prev).max(spread_cur);
    let delta = if prev > 0.0 { (cur - prev) / prev } else { 0.0 };
    let prev_floor = prev * (1.0 - spread_prev) * (1.0 - REGRESSION_TOLERANCE);
    (tolerance, delta < -tolerance && cur < prev_floor)
}

/// Assembles the trend of one record file from its git history plus the
/// working-tree content.
#[must_use]
pub fn bench_trend(file: &str) -> BenchTrend {
    let mut points = Vec::new();
    // Per-point rep spreads, parallel to `points` (0 when unrecorded).
    let mut spreads = Vec::new();
    let mut last_committed_content: Option<String> = None;
    for rev in record_history(file) {
        if let Some(content) = record_at(&rev, file) {
            if let Ok(doc) = serde_json::from_str::<Value>(&content) {
                if let Some(qps) = headline_qps(&doc) {
                    points.push(qps);
                    spreads.push(headline_spread(&doc).unwrap_or(0.0));
                }
            }
            last_committed_content = Some(content);
        }
    }

    let working = std::fs::read_to_string(file);
    let mut error = None;
    let mut sweep_regressions = Vec::new();
    let mut completion_regressions = Vec::new();
    let mut pinning_regressions = Vec::new();
    let mut health_regressions = Vec::new();
    let mut fault_regressions = Vec::new();
    match &working {
        Ok(content) => match serde_json::from_str::<Value>(content) {
            Ok(doc) => {
                sweep_regressions = quote_sweep_regressions(&doc);
                completion_regressions = completion_path_regressions(&doc);
                pinning_regressions = pinning_invariance_regressions(&doc);
                health_regressions = health_sweep_regressions(&doc);
                fault_regressions = fault_plane_regressions(&doc);
                match headline_qps(&doc) {
                    Some(qps) => {
                        // Count the working tree as a point only when it
                        // differs from the last committed content, so a
                        // clean checkout's trend is purely historical.
                        if last_committed_content.as_deref() != Some(content.as_str()) {
                            points.push(qps);
                            spreads.push(headline_spread(&doc).unwrap_or(0.0));
                        }
                    }
                    None => error = Some("no headline q/s in record".to_string()),
                }
            }
            Err(e) => error = Some(format!("unparseable: {e}")),
        },
        Err(e) => error = Some(format!("unreadable: {e}")),
    }

    let last_delta = if points.len() >= 2 {
        let prev = points[points.len() - 2];
        if prev > 0.0 {
            (points[points.len() - 1] - prev) / prev
        } else {
            0.0
        }
    } else {
        0.0
    };
    let (tolerance, regressed) = if points.len() >= 2 {
        headline_step(
            points[points.len() - 2],
            points[points.len() - 1],
            spreads[spreads.len() - 2],
            spreads[spreads.len() - 1],
        )
    } else {
        (REGRESSION_TOLERANCE, false)
    };
    BenchTrend {
        file: file.to_string(),
        regressed,
        points,
        last_delta,
        tolerance,
        sweep_regressions,
        completion_regressions,
        pinning_regressions,
        health_regressions,
        fault_regressions,
        error,
    }
}

/// The committed `BENCH_*.json` record files in the working directory,
/// sorted by name.
#[must_use]
pub fn record_files() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(".")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).expect("test json")
    }

    #[test]
    fn headline_prefers_config_throughput() {
        let doc = parse(
            r#"{"bench": "fig6", "config": {"queries_per_sec": 41000},
                "cells": [{"qps": 9}]}"#,
        );
        assert_eq!(headline_qps(&doc), Some(41000.0));
    }

    #[test]
    fn headline_falls_back_to_first_cell_qps() {
        let doc = parse(
            r#"{"bench": "fleet_scale", "config": {"nodes": 8},
                "cells": [{"shards": 1, "qps": 45557}, {"shards": 2, "qps": 44000}]}"#,
        );
        assert_eq!(headline_qps(&doc), Some(45557.0));
    }

    #[test]
    fn quote_sweep_regressions_flag_rows_below_baseline() {
        let doc = parse(
            r#"{"cells": [
                {"sweep": "shard-sweep", "shards": 1, "quote_threads": 1, "qps": 45557},
                {"sweep": "quote-thread-sweep", "shards": 1, "quote_threads": 2, "qps": 46000},
                {"sweep": "quote-thread-sweep", "shards": 1, "quote_threads": 8, "qps": 5908}
            ]}"#,
        );
        let flags = quote_sweep_regressions(&doc);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("quote_threads=8"));
    }

    #[test]
    fn non_fleet_records_have_no_sweep_regressions() {
        let doc = parse(r#"{"cells": [{"a": 0.1, "total_cost_usd": 3.2}]}"#);
        assert!(quote_sweep_regressions(&doc).is_empty());
        assert!(completion_path_regressions(&doc).is_empty());
        assert!(pinning_invariance_regressions(&doc).is_empty());
        assert!(health_sweep_regressions(&doc).is_empty());
    }

    #[test]
    fn completion_path_flags_per_node_beating_the_batched_default() {
        // The PR 7 inversion: per-node 51,585 over best batched 50,414 is
        // inside the rows' own rep spread, so it is noise, not a flag …
        let committed = parse(
            r#"{"cells": [
                {"sweep": "shard-sweep", "shards": 1, "quote_threads": 1, "batching": true,
                 "qps": 50414, "qps_min": 40472},
                {"sweep": "per-node-completion", "shards": 1, "quote_threads": 8,
                 "batching": false, "qps": 51585, "qps_min": 43077}
            ]}"#,
        );
        assert!(completion_path_regressions(&committed).is_empty());
        // … but a per-node row clearing the band means the recorded
        // default ships the slower path.
        let inverted = parse(
            r#"{"cells": [
                {"sweep": "shard-sweep", "shards": 1, "quote_threads": 1, "batching": true,
                 "qps": 50000, "qps_min": 49000},
                {"sweep": "per-node-completion", "shards": 1, "quote_threads": 1,
                 "batching": false, "qps": 60000, "qps_min": 59000}
            ]}"#,
        );
        let flags = completion_path_regressions(&inverted);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("not the fastest path"), "{flags:?}");
    }

    /// A `fleet_scale` record with step rows (every quote round decided
    /// from the budget, fast) beside convex rows (every round planned):
    /// `{pooled}` is the 8-thread convex row's q/s, `{per_node}` the
    /// convex per-node row's.
    fn two_budget_record(pooled: u32, per_node: u32) -> Value {
        let step =
            r#""budget": "step", "total_cost_usd": 1.5, "mean_response_s": 0.02, "builds": 300"#;
        let convex =
            r#""budget": "convex", "total_cost_usd": 1.2, "mean_response_s": 0.03, "builds": 280"#;
        parse(&format!(
            r#"{{"cells": [
                {{"sweep": "shard-sweep", "shards": 1, "quote_threads": 1, "batching": true,
                  "pinning": true, "qps": 150000, "qps_min": 148000, {step}}},
                {{"sweep": "health-sweep", "shards": 1, "quote_threads": 1, "batching": true,
                  "pinning": true, "qps": 149000, "qps_min": 147000, {step}}},
                {{"sweep": "quote-thread-sweep", "shards": 1, "quote_threads": 1, "batching": true,
                  "pinning": true, "qps": 40000, "qps_min": 39600, {convex}}},
                {{"sweep": "quote-thread-sweep", "shards": 1, "quote_threads": 8, "batching": true,
                  "pinning": true, "qps": {pooled}, "qps_min": {pooled}, {convex}}},
                {{"sweep": "per-node-completion", "shards": 1, "quote_threads": 1, "batching": false,
                  "pinning": true, "qps": {per_node}, "qps_min": {per_node}, {convex}}},
                {{"sweep": "pinning-sweep", "shards": 1, "quote_threads": 8, "batching": true,
                  "pinning": false, "qps": 40500, "qps_min": 40000, {convex}}}
            ]}}"#
        ))
    }

    #[test]
    fn record_checks_compare_rows_within_one_budget() {
        // Convex rows sit far below the step baseline, yet each is held
        // only to rows of its own budget: nothing to flag.
        let healthy = two_budget_record(41000, 38000);
        assert!(quote_sweep_regressions(&healthy).is_empty());
        assert!(completion_path_regressions(&healthy).is_empty());
        assert!(pinning_invariance_regressions(&healthy).is_empty());
        assert!(health_sweep_regressions(&healthy).is_empty());
        // A convex per-node row beating every convex batched row is the
        // inversion, even though the step batched rows are faster still.
        let inverted = two_budget_record(41000, 50000);
        let flags = completion_path_regressions(&inverted);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("quote_threads=1"), "{flags:?}");
        // A pooled convex row below the convex 1-thread row is flagged.
        let collapsed = two_budget_record(20000, 38000);
        let flags = quote_sweep_regressions(&collapsed);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("(40000 q/s)"), "{flags:?}");
    }

    #[test]
    fn pinning_rows_must_agree_on_every_economic_aggregate() {
        let healthy = parse(
            r#"{"cells": [
                {"sweep": "pinning-sweep", "pinning": true, "qps": 52000,
                 "total_cost_usd": 1.2345, "mean_response_s": 0.017, "builds": 283},
                {"sweep": "pinning-sweep", "pinning": false, "qps": 50000,
                 "total_cost_usd": 1.2345, "mean_response_s": 0.017, "builds": 283}
            ]}"#,
        );
        assert!(pinning_invariance_regressions(&healthy).is_empty());
        let leaky = parse(
            r#"{"cells": [
                {"pinning": true, "total_cost_usd": 1.2345, "mean_response_s": 0.017, "builds": 283},
                {"pinning": false, "total_cost_usd": 1.2399, "mean_response_s": 0.017, "builds": 284}
            ]}"#,
        );
        let flags = pinning_invariance_regressions(&leaky);
        assert_eq!(flags.len(), 2, "{flags:?}");
        assert!(flags[0].contains("total_cost_usd"), "{flags:?}");
        assert!(flags[1].contains("builds"), "{flags:?}");
    }

    #[test]
    fn health_sweep_rows_must_match_the_baseline_bitwise() {
        let healthy = parse(
            r#"{"cells": [
                {"sweep": "shard-sweep", "shards": 1, "quote_threads": 1, "qps": 50000,
                 "total_cost_usd": 1.2345, "mean_response_s": 0.017, "builds": 283},
                {"sweep": "health-sweep", "shards": 1, "quote_threads": 1, "qps": 49000,
                 "total_cost_usd": 1.2345, "mean_response_s": 0.017, "builds": 283}
            ]}"#,
        );
        assert!(health_sweep_regressions(&healthy).is_empty());
        // Aggregates drifting or throughput collapsing on the
        // snapshots-on row both flag.
        let leaky = parse(
            r#"{"cells": [
                {"sweep": "shard-sweep", "shards": 1, "quote_threads": 1, "qps": 50000,
                 "total_cost_usd": 1.2345, "mean_response_s": 0.017, "builds": 283},
                {"sweep": "health-sweep", "shards": 1, "quote_threads": 1, "qps": 30000,
                 "total_cost_usd": 1.2399, "mean_response_s": 0.017, "builds": 283}
            ]}"#,
        );
        let flags = health_sweep_regressions(&leaky);
        assert_eq!(flags.len(), 2, "{flags:?}");
        assert!(flags[0].contains("total_cost_usd"), "{flags:?}");
        assert!(flags[1].contains("hot path"), "{flags:?}");
        // Records from before the health plane carry no row and are
        // never held to the claim.
        let legacy = parse(
            r#"{"cells": [{"sweep": "shard-sweep", "shards": 1, "quote_threads": 1,
                 "qps": 50000, "total_cost_usd": 1.2345}]}"#,
        );
        assert!(health_sweep_regressions(&legacy).is_empty());
    }

    #[test]
    fn fault_plane_checks_the_drift_alarm_fixture() {
        // A wolf-crying detector (alarms on `none`) and a blind one (no
        // alarm on degraded) both flag; a healthy fixture passes.
        let broken = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "none", "mode": "static", "drift_alarms": 2},
                {"scenario": "none", "mode": "elastic", "drift_alarms": 0},
                {"scenario": "degraded", "mode": "elastic", "drift_alarms": 0}
            ]}"#,
        );
        let flags = fault_plane_regressions(&broken);
        assert_eq!(flags.len(), 2, "{flags:?}");
        assert!(flags[0].contains("cries wolf"), "{flags:?}");
        assert!(flags[1].contains("blind"), "{flags:?}");
        let healthy = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "none", "mode": "static", "drift_alarms": 0},
                {"scenario": "none", "mode": "elastic", "drift_alarms": 0},
                {"scenario": "degraded", "mode": "elastic", "drift_alarms": 56}
            ]}"#,
        );
        assert!(fault_plane_regressions(&healthy).is_empty());
        // Records predating the column are never held to the claim.
        let legacy = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "none", "mode": "static", "total_cost_usd": 18.0}
            ]}"#,
        );
        assert!(fault_plane_regressions(&legacy).is_empty());
    }

    #[test]
    fn registry_counters_tolerate_historical_absence() {
        let doc = parse(
            r#"{"config": {"registry": {"entries": [
                {"name": "pool.pinned_workers", "value": {"Counter": {"value": 7}}},
                {"name": "fleet.payments", "value": {"Gauge": {"amount": 12}}}
            ]}}}"#,
        );
        assert_eq!(registry_counter(&doc, "pool.pinned_workers"), Some(7.0));
        // Absent key, non-counter kind, and pre-registry records all read
        // as None rather than flagging.
        assert_eq!(registry_counter(&doc, "plan_cache.victim_hits"), None);
        assert_eq!(registry_counter(&doc, "fleet.payments"), None);
        assert_eq!(registry_counter(&parse(r#"{"cells": []}"#), "x"), None);
    }

    #[test]
    fn fault_plane_flags_unreconciled_replays() {
        let doc = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "crash-recover", "mode": "static", "recoveries": 8, "reconciled": 8},
                {"scenario": "crash-recover", "mode": "elastic", "recoveries": 8, "reconciled": 5}
            ]}"#,
        );
        let flags = fault_plane_regressions(&doc);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("crash-recover/elastic"), "{flags:?}");
        assert!(flags[0].contains("5 of 8"), "{flags:?}");
    }

    #[test]
    fn fault_plane_flags_cost_claim_inversion() {
        let doc = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "crash", "mode": "static", "total_cost_usd": 10.0},
                {"scenario": "crash", "mode": "elastic", "total_cost_usd": 12.5}
            ]}"#,
        );
        let flags = fault_plane_regressions(&doc);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("no longer beats"), "{flags:?}");
    }

    #[test]
    fn fault_plane_flags_salvage_ordering_inversion() {
        // Evacuation that salvages nothing AND whose loss line exceeds
        // the pure write-off trips both cascade gates.
        let doc = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "cascade", "mode": "elastic", "total_cost_usd": 10.0,
                 "write_off_usd": 0.20},
                {"scenario": "cascade-evacuate", "mode": "elastic", "total_cost_usd": 10.1,
                 "write_off_usd": 0.18, "salvaged_usd": 0.0, "transfer_usd": 0.05}
            ]}"#,
        );
        let flags = fault_plane_regressions(&doc);
        assert_eq!(flags.len(), 3, "{flags:?}");
        assert!(flags[0].contains("salvaged nothing"), "{flags:?}");
        assert!(
            flags[1].contains("no longer beats the pure write-off"),
            "{flags:?}"
        );
        assert!(flags[2].contains("loss-adjusted cost"), "{flags:?}");
    }

    #[test]
    fn fault_plane_accepts_healthy_cascade_pair_and_legacy_records() {
        let healthy = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "cascade", "mode": "elastic", "total_cost_usd": 10.0,
                 "write_off_usd": 0.20},
                {"scenario": "cascade-evacuate", "mode": "elastic", "total_cost_usd": 10.01,
                 "write_off_usd": 0.03, "salvaged_usd": 0.02, "transfer_usd": 0.15}
            ]}"#,
        );
        assert!(fault_plane_regressions(&healthy).is_empty());
        // A record from before the cascade rows existed is never held to
        // the evacuation claims.
        let legacy = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "crash", "mode": "static", "total_cost_usd": 18.0},
                {"scenario": "crash", "mode": "elastic", "total_cost_usd": 11.8}
            ]}"#,
        );
        assert!(fault_plane_regressions(&legacy).is_empty());
    }

    #[test]
    fn healthy_fault_records_and_other_benches_pass() {
        let healthy = parse(
            r#"{"bench": "fleet_faults", "cells": [
                {"scenario": "crash", "mode": "static", "total_cost_usd": 18.0,
                 "recoveries": 0, "reconciled": 0},
                {"scenario": "crash", "mode": "elastic", "total_cost_usd": 11.8,
                 "recoveries": 0, "reconciled": 0},
                {"scenario": "crash-recover", "mode": "elastic", "recoveries": 8, "reconciled": 8}
            ]}"#,
        );
        assert!(fault_plane_regressions(&healthy).is_empty());
        // A different bench whose cells happen to carry similar keys is
        // never held to the fault-plane claims.
        let other = parse(
            r#"{"bench": "fleet_elastic", "cells": [
                {"scenario": "crash", "mode": "elastic", "total_cost_usd": 99.0}
            ]}"#,
        );
        assert!(fault_plane_regressions(&other).is_empty());
    }

    #[test]
    fn headline_spread_reads_the_first_cell_with_min_and_best() {
        let doc = parse(
            r#"{"cells": [
                {"shards": 1, "qps": 50000, "qps_min": 45000, "qps_median": 48000},
                {"shards": 2, "qps": 52000, "qps_min": 1000}
            ]}"#,
        );
        let spread = headline_spread(&doc).expect("spread recorded");
        assert!((spread - 0.1).abs() < 1e-12, "spread {spread}");
    }

    #[test]
    fn regression_message_names_metric_value_baseline_and_tolerance() {
        let trend = BenchTrend {
            file: "BENCH_hotpath.json".to_string(),
            points: vec![50000.0, 40000.0],
            last_delta: -0.2,
            tolerance: 0.05,
            regressed: true,
            sweep_regressions: Vec::new(),
            completion_regressions: Vec::new(),
            pinning_regressions: Vec::new(),
            health_regressions: Vec::new(),
            fault_regressions: Vec::new(),
            error: None,
        };
        let message = trend.regression_message().expect("regressed");
        assert!(message.contains("headline q/s"), "{message}");
        assert!(message.contains("40000 q/s"), "{message}");
        assert!(message.contains("baseline 50000 q/s"), "{message}");
        assert!(message.contains("-20.0%"), "{message}");
        assert!(message.contains("5.0% tolerance"), "{message}");

        let healthy = BenchTrend {
            regressed: false,
            ..trend
        };
        assert_eq!(healthy.regression_message(), None);
    }

    #[test]
    fn headline_step_forgives_drops_inside_the_previous_envelope() {
        // Previous record: best 50000 with a 10% rep spread, so its own
        // worst rep was 45000. A new best of 43000 is a -14% step —
        // beyond the 10% tolerance — but above the envelope floor
        // (45000 * 0.95 = 42750), so it reads as runner drift.
        let (tolerance, regressed) = headline_step(50000.0, 43000.0, 0.10, 0.08);
        assert!((tolerance - 0.10).abs() < 1e-12, "tolerance {tolerance}");
        assert!(!regressed, "drop inside the previous envelope flagged");

        // Below the floor, the same spread no longer excuses the step.
        let (_, regressed) = headline_step(50000.0, 42000.0, 0.10, 0.08);
        assert!(regressed, "drop beyond the previous envelope forgiven");
    }

    #[test]
    fn headline_step_without_spreads_reduces_to_the_blanket_tolerance() {
        let (tolerance, regressed) = headline_step(50000.0, 47600.0, 0.0, 0.0);
        assert!((tolerance - REGRESSION_TOLERANCE).abs() < 1e-12);
        assert!(!regressed, "-4.8% flagged under a 5% tolerance");
        let (_, regressed) = headline_step(50000.0, 47000.0, 0.0, 0.0);
        assert!(regressed, "-6.0% with no recorded spread forgiven");
    }

    #[test]
    fn headline_spread_is_none_without_rep_records() {
        let doc = parse(r#"{"config": {"queries_per_sec": 41000}, "cells": [{"qps": 9}]}"#);
        assert_eq!(headline_spread(&doc), None);
        let doc = parse(r#"{"cells": [{"qps": 0, "qps_min": 0}]}"#);
        assert_eq!(headline_spread(&doc), None, "zero best is unusable");
    }
}

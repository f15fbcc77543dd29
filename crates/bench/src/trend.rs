//! Perf-trend tooling over the committed `BENCH_*.json` records.
//!
//! Every figure bench and `hotpath` writes a machine-readable
//! `BENCH_<name>.json` at its paper-scale default cell, and those
//! records are committed — one per PR that re-measured. This module
//! turns that history into a review artifact: for each record it
//! extracts a **headline throughput** (queries/second), walks the
//! record's git history for the trajectory, and flags a last step that
//! drops by more than [`REGRESSION_TOLERANCE`]. The `trend` binary
//! prints one line per record; `trend --check` (CI) exits non-zero on a
//! flagged record or when there is no record to check at all.

use serde::Value;

/// Relative throughput drop treated as a regression (5 %): small enough
/// to catch real slides, large enough to ignore run-to-run noise in the
/// committed records.
pub const REGRESSION_TOLERANCE: f64 = 0.05;

/// The headline queries/second of one parsed `BENCH_*.json` document:
/// the whole-run `config.queries_per_sec` when the bench records one
/// (the figure harness), otherwise the first cell's `qps` (`hotpath`,
/// whose first cell is its baseline).
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
    /// True when the last step drops by more than
    /// [`REGRESSION_TOLERANCE`].
    pub regressed: bool,
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
            REGRESSION_TOLERANCE * 100.0
        ))
    }

    /// Whether the record fails the check: unreadable, or regressed.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.error.is_some() || self.regressed
    }
}

/// Assembles the trend of one record file from its git history plus the
/// working-tree content.
#[must_use]
pub fn bench_trend(file: &str) -> BenchTrend {
    let mut points = Vec::new();
    let mut last_committed_content: Option<String> = None;
    for rev in record_history(file) {
        if let Some(content) = record_at(&rev, file) {
            if let Some(qps) = serde_json::from_str::<Value>(&content)
                .ok()
                .as_ref()
                .and_then(headline_qps)
            {
                points.push(qps);
            }
            last_committed_content = Some(content);
        }
    }

    let mut error = None;
    match std::fs::read_to_string(file) {
        Ok(content) => match serde_json::from_str::<Value>(&content) {
            Ok(doc) => match headline_qps(&doc) {
                // Count the working tree as a point only when it differs
                // from the last committed content, so a clean checkout's
                // trend is purely historical.
                Some(qps) => {
                    if last_committed_content.as_deref() != Some(content.as_str()) {
                        points.push(qps);
                    }
                }
                None => error = Some("no headline q/s in record".to_string()),
            },
            Err(e) => error = Some(format!("unparseable: {e}")),
        },
        Err(e) => error = Some(format!("unreadable: {e}")),
    }

    let (last_delta, regressed) = last_step(&points);
    BenchTrend {
        file: file.to_string(),
        points,
        last_delta,
        regressed,
        error,
    }
}

/// The relative change of a trajectory's last step, and whether it drops
/// by more than [`REGRESSION_TOLERANCE`]. `(0, false)` for fewer than two
/// points or a non-positive baseline.
#[must_use]
pub fn last_step(points: &[f64]) -> (f64, bool) {
    let delta = match points {
        [.., prev, cur] if *prev > 0.0 => (cur - prev) / prev,
        _ => 0.0,
    };
    (delta, delta < -REGRESSION_TOLERANCE)
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

/// The process exit status of a `trend` run over `records` record files
/// of which `flagged` failed. Outside `--check` mode the tool only
/// reports, so it always succeeds. In `--check` mode any flagged record
/// fails the run, and so does an empty record set: a check that found
/// nothing to check (a wrong working directory, a deleted record set)
/// must not pass.
#[must_use]
pub fn exit_status(check: bool, records: usize, flagged: usize) -> i32 {
    i32::from(check && (records == 0 || flagged > 0))
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
            r#"{"bench": "hotpath", "config": {"scale_factor": 100},
                "cells": [{"mode": "fresh", "qps": 45557}, {"mode": "memo", "qps": 44000}]}"#,
        );
        assert_eq!(headline_qps(&doc), Some(45557.0));
    }

    #[test]
    fn regression_message_names_metric_value_baseline_and_tolerance() {
        let trend = BenchTrend {
            file: "BENCH_hotpath.json".to_string(),
            points: vec![50000.0, 40000.0],
            last_delta: -0.2,
            regressed: true,
            error: None,
        };
        assert!(trend.flagged());
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
        assert!(!healthy.flagged());
    }

    #[test]
    fn last_step_is_held_to_the_flat_tolerance() {
        let (delta, regressed) = last_step(&[50000.0, 47600.0]);
        assert!((delta + 0.048).abs() < 1e-12, "delta {delta}");
        assert!(!regressed, "-4.8% flagged under a 5% tolerance");
        assert!(last_step(&[60000.0, 50000.0, 47000.0]).1, "-6.0% forgiven");
        assert_eq!(last_step(&[50000.0]), (0.0, false));
        assert_eq!(last_step(&[0.0, 50000.0]), (0.0, false));
    }

    #[test]
    fn check_fails_on_flagged_records_and_on_an_empty_record_set() {
        assert_eq!(exit_status(true, 9, 0), 0);
        assert_ne!(exit_status(true, 9, 1), 0);
        assert_ne!(exit_status(true, 0, 0), 0, "--check passed on nothing");
        // Without --check the tool only reports.
        assert_eq!(exit_status(false, 9, 1), 0);
        assert_eq!(exit_status(false, 0, 0), 0);
    }
}

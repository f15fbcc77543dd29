//! **Perf trend** — diffs the committed `BENCH_*.json` records across
//! PRs so the figure harnesses' and `hotpath`'s throughput trajectory is
//! reviewable at a glance.
//!
//! For every `BENCH_*.json` in the working directory the tool walks the
//! record's git history, extracts the headline queries/second at each
//! commit, and prints one line per record: the q/s trajectory (oldest →
//! newest, the working tree appended when dirty), the last step's
//! delta, and a flag when that step drops by more than the tolerance.
//!
//! `--check` (CI mode) exits non-zero when any record is unreadable or
//! regressed, and when the working directory holds no record at all.
//!
//! Usage: `cargo run --release -p bench --bin trend [-- --check]`

use bench::trend::{bench_trend, exit_status, record_files, REGRESSION_TOLERANCE};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let files = record_files();
    if files.is_empty() {
        eprintln!("no BENCH_*.json records in the working directory");
        std::process::exit(exit_status(check, 0, 0));
    }

    println!("================================================================");
    println!(
        "bench trend: {} committed records (regression tolerance {:.0}%)",
        files.len(),
        REGRESSION_TOLERANCE * 100.0
    );
    println!("================================================================");
    println!(
        "{:<36} {:>28} {:>8}  flags",
        "record", "headline q/s trajectory", "last"
    );

    let mut flagged = 0usize;
    for file in &files {
        let trend = bench_trend(file);
        let trajectory = if trend.points.is_empty() {
            "-".to_string()
        } else {
            trend
                .points
                .iter()
                .map(|qps| format!("{qps:.0}"))
                .collect::<Vec<_>>()
                .join(" → ")
        };
        let delta = if trend.points.len() >= 2 {
            format!("{:+.1}%", trend.last_delta * 100.0)
        } else {
            "-".to_string()
        };
        let mut flags = Vec::new();
        if let Some(e) = &trend.error {
            flags.push(format!("ERROR: {e}"));
        }
        if let Some(message) = trend.regression_message() {
            flags.push(format!("REGRESSED: {message}"));
        }
        if trend.flagged() {
            flagged += 1;
        }
        println!(
            "{:<36} {:>28} {:>8}  {}",
            trend.file,
            trajectory,
            delta,
            if flags.is_empty() {
                "ok".to_string()
            } else {
                flags.join(" | ")
            }
        );
    }

    if flagged > 0 {
        eprintln!("{flagged} record(s) flagged");
    } else {
        println!("all records healthy");
    }
    std::process::exit(exit_status(check, files.len(), flagged));
}

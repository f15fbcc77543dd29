//! The `figures` binary rejects bad arguments before it simulates
//! anything: it prints an error and a usage line on stderr, nothing on
//! stdout, writes no file, and exits 2.

use std::path::PathBuf;
use std::process::Command;

fn rejects(case: &str, args: &[&str], error: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("figures_cli_{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(error), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} simulated: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let written = std::fs::read_dir(&dir).expect("scratch directory").count();
    assert_eq!(written, 0, "{args:?} wrote into its working directory");
}

#[test]
fn an_unparseable_scale_factor_is_a_usage_error() {
    rejects(
        "nonsense",
        &["nonsense"],
        "cannot parse scale factor `nonsense`",
    );
}

#[test]
fn a_negative_scale_factor_is_a_usage_error() {
    rejects(
        "negative",
        &["-3", "10"],
        "scale factor must be positive, got -3",
    );
}

#[test]
fn a_zero_query_count_is_a_usage_error() {
    rejects("zero", &["10", "0"], "query count must be positive");
}

#[test]
fn a_third_argument_is_a_usage_error() {
    rejects(
        "extra",
        &["10", "2000", "3"],
        "expected at most 2 arguments, got 3",
    );
}

//! The `explain` binary end to end through a trace file: `record` writes
//! the reference run's trace, every query subcommand answers from that
//! file, and bad arguments print the usage text and exit 2.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

use telemetry::{ElasticAction, FaultOutcome, Trace, TraceEvent};

fn explain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explain"))
        .args(args)
        .output()
        .expect("explain runs")
}

/// The recorded trace file, written once for every test in this file,
/// and the trace parsed back from it.
fn recorded() -> &'static (String, Trace) {
    static RECORDED: OnceLock<(String, Trace)> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("explain_cli");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        let path = dir.join("t.json").to_string_lossy().into_owned();
        let out = explain(&["record", &path]);
        assert!(
            out.status.success(),
            "record: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("record wrote the trace");
        let trace: Trace = serde_json::from_str(&text).expect("the trace file parses");
        (path, trace)
    })
}

fn answers(args: &[&str]) {
    let out = explain(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
}

fn rejects(args: &[&str]) {
    let out = explain(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: explain"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} answered");
}

#[test]
fn every_query_answers_from_a_recorded_trace() {
    let (path, trace) = recorded();
    let retired = trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeLifecycle(l) => match l.action {
                ElasticAction::Retire { node } => Some(node),
                _ => None,
            },
            _ => None,
        })
        .expect("the recording retires a node");
    let crashed = trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Fault(r) => match &r.event {
                FaultOutcome::Crash(c) => Some(c.node),
                FaultOutcome::Recover(_) => None,
            },
            _ => None,
        })
        .expect("the recording crashes a node");
    let structure = trace
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Settlement(s) => s.used_structures.first().cloned(),
            _ => None,
        })
        .expect("the recording serves from cache");
    let (retired, crashed) = (retired.to_string(), crashed.to_string());
    answers(&["retire", &retired, path]);
    answers(&["crash", &crashed, path]);
    answers(&["timeline", &retired, path]);
    answers(&["blame", "node", path]);
    answers(&["structure", &structure, path]);
    for sub in ["slo", "top", "metrics"] {
        answers(&[sub, path]);
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let (path, _) = recorded();
    rejects(&["retire", "three", path]);
    rejects(&["nonsense"]);
    rejects(&["slo", path, "extra"]);
}

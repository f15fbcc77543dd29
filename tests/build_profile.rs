//! The repository's build profiles stay in one place and stay
//! whole-program.
//!
//! `.cargo/config.toml` holds every build profile, so the root workspace
//! and `perfbench/` (a workspace of its own, run from the repository
//! root) build with the same settings. Release builds use fat LTO over
//! one codegen unit, which inlines the per-query glue across crates.
//! Under the default release profile perfbench's `fleet-market` runs
//! about a fifth slower with every result bit the same, so no other
//! test would notice the profile going. Test builds keep
//! `opt-level = 1`. A `[profile` section in either manifest would reach
//! only its own workspace, so neither may declare one.
//!
//! The files are read line by line (no TOML parser is vendored): a line
//! is a `[section]` header or a `key = value` pair, and `#` starts a
//! comment.

use std::path::Path;

/// The `key = value` pairs of `section` in the TOML file at `path`
/// (relative to the repository root), comments and blanks dropped.
fn section(path: &str, section: &str) -> Vec<(String, String)> {
    let mut current = String::new();
    let mut pairs = Vec::new();
    for line in read(path).lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            current = header.trim_end_matches(']').trim().to_owned();
        } else if let Some((key, value)) = line.split_once('=') {
            if current == section {
                pairs.push((key.trim().to_owned(), value.trim().to_owned()));
            }
        }
    }
    pairs
}

fn read(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("{path}: unreadable: {e}"))
}

/// The value of `key`, failing when it is not set.
fn value<'a>(pairs: &'a [(String, String)], key: &str, context: &str) -> &'a str {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("{context} sets no {key}"))
}

#[test]
fn release_builds_are_fat_lto_over_one_codegen_unit() {
    let release = section(".cargo/config.toml", "profile.release");
    let context = ".cargo/config.toml [profile.release]";
    // `true` is cargo's other spelling of fat LTO.
    let lto = value(&release, "lto", context);
    assert!(
        lto == "\"fat\"" || lto == "true",
        "{context}: lto = {lto}, not fat"
    );
    assert_eq!(value(&release, "codegen-units", context), "1", "{context}");
}

#[test]
fn test_builds_stay_at_opt_level_one() {
    let dev = section(".cargo/config.toml", "profile.dev");
    let context = ".cargo/config.toml [profile.dev]";
    assert_eq!(value(&dev, "opt-level", context), "1", "{context}");
}

#[test]
fn no_manifest_declares_a_profile() {
    for manifest in ["Cargo.toml", "perfbench/Cargo.toml"] {
        for line in read(manifest).lines() {
            assert!(
                !line.trim_start().starts_with("[profile"),
                "{manifest} declares `{}`: build profiles live in .cargo/config.toml",
                line.trim()
            );
        }
    }
}

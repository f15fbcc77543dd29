//! Shared bench-binary CLI handling.
//!
//! Every bench binary takes positional `[scale_factor] [num_queries]`
//! arguments, validates the same domains, and fails the same way on
//! typos: an argument that is present
//! but unparseable is fatal, because defaulting silently on a typo
//! (`fig4 2500x`) used to run the wrong experiment for a minute and
//! label it with the default scale. This module is that boilerplate,
//! extracted once.

/// Prints `error: <message>` plus a usage block (with the invoked binary
/// substituted for `{bin}`) and exits with status 2.
pub fn cli_usage_error(message: &str, usage: &str) -> ! {
    let bin = std::env::args()
        .next()
        .unwrap_or_else(|| "<bin>".to_string());
    eprintln!("error: {message}");
    eprintln!("usage: {}", usage.replace("{bin}", &bin));
    std::process::exit(2);
}

/// Parses one positional argument, or exits with a usage error.
pub fn cli_arg<T: std::str::FromStr>(position: usize, what: &str, default: T, usage: &str) -> T {
    match std::env::args().nth(position) {
        None => default,
        Some(raw) => raw
            .parse()
            .unwrap_or_else(|_| cli_usage_error(&format!("cannot parse {what} `{raw}`"), usage)),
    }
}

/// Parses the common `[scale_factor] [num_queries]` prefix with
/// bin-specific defaults, enforcing the shared domain rules (finite
/// positive scale, non-zero query count).
#[must_use]
fn scale_args(default_sf: f64, default_n: u64, usage: &str) -> (f64, u64) {
    let sf: f64 = cli_arg(1, "scale factor", default_sf, usage);
    let n: u64 = cli_arg(2, "query count", default_n, usage);
    if !sf.is_finite() || sf <= 0.0 {
        cli_usage_error(&format!("scale factor must be positive, got {sf}"), usage);
    }
    if n == 0 {
        cli_usage_error("query count must be positive", usage);
    }
    (sf, n)
}

/// Usage block for the common figure-harness CLI.
const SCALE_USAGE: &str =
    "{bin} [scale_factor] [num_queries]\n       defaults: scale_factor 2500, num_queries 500000";

/// Parses the figure harness's `[sf] [num_queries]` CLI arguments with
/// the paper-scale defaults.
///
/// Missing arguments fall back to the paper-scale defaults; present but
/// unparseable or out-of-domain arguments print a usage error and exit
/// non-zero (rather than panicking a worker thread later in config
/// validation).
#[must_use]
pub fn cli_scale() -> (f64, u64) {
    scale_args(crate::DEFAULT_SF, crate::DEFAULT_QUERIES, SCALE_USAGE)
}

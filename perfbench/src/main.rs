//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-market|fleet-churn|paper-single> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the benchmark's traced drivers for the per-layer
//! metrics and writes every span to `perfbench/out/spans-<workload>.tsv`.
//! Both check that every query settled and that the outputs match, print
//! progress lines, and end with one JSON result line. A failed check
//! exits 1; bad arguments exit 2. `perfbench/README.md` documents the
//! workloads and metrics.

mod fleet_driver;
mod measure;
mod planning;
mod report;
mod single_driver;
mod spans;
mod traced;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use fleet::FleetSim;
use workloads::{Prepared, Workload};

const USAGE: &str = "usage: perfbench --workload <fleet-market|fleet-churn|paper-single> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage_exit(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage_exit(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage_exit(&format!("bad seed {value:?}"))),
                );
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .unwrap_or_else(|| usage_exit(&format!("bad seconds {value:?}"))),
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_exit(&format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => usage_exit(&format!("unknown flag {flag:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage_exit("--workload is required")),
        seed: seed.unwrap_or_else(|| usage_exit("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage_exit("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage_exit("--trace is required")),
    }
}

/// Prints the run context, host parallelism and the executor settings
/// that decide how the workload uses it, and returns the queries one run
/// submits.
fn print_context(args: &Args, prepared: &Prepared) -> u64 {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match prepared {
        Prepared::Fleet(config) => {
            let sim = FleetSim::new((**config).clone());
            println!(
                "fleet: SF {} {} tenants x {} queries = {} queries, {} nodes, {} cells, \
                 {} shards, router {}, quote pool {} thread(s)",
                config.scale_factor,
                config.tenants.len(),
                config.tenants.first().map_or(0, |t| t.queries),
                config.total_queries(),
                config.nodes.len(),
                config.cells,
                config.shards,
                config.router.name(),
                sim.quote_pool_threads()
            );
        }
        Prepared::Single(configs) => {
            println!(
                "single: SF {} {} caches x {} queries = {} queries, scheme {}",
                configs[0].scale_factor,
                configs.len(),
                configs[0].num_queries,
                prepared.submitted(),
                configs[0].scheme.name()
            );
        }
    }
    prepared.submitted()
}

fn main() {
    let args = parse_args();
    let prepared = args.workload.prepare(args.seed);
    let submitted = print_context(&args, &prepared);

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if args.trace {
            let path = PathBuf::from(format!("perfbench/out/spans-{}.tsv", args.workload.name()));
            let traced = traced::per_layer(&prepared, args.seconds, &path);
            let (failed, json) = if traced.failures.is_empty() {
                (0, traced.metrics.json(&report::PER_LAYER))
            } else {
                (traced.attempted, "{}".to_string())
            };
            (traced.attempted, failed, traced.failures, json)
        } else {
            let (measured, metrics) = measure::end_to_end(&prepared, args.seconds);
            let json = metrics.json(&report::END_TO_END);
            (measured.attempted, measured.failed, measured.failures, json)
        }
    }));

    let (attempted, failed, failures, json) = outcome.unwrap_or_else(|_| {
        (
            submitted,
            submitted,
            vec!["the run panicked".to_string()],
            "{}".to_string(),
        )
    });
    for failure in &failures {
        eprintln!("check failed: {failure}");
    }
    let correct = failures.is_empty();
    println!("{}", report::result_line(correct, attempted, failed, &json));
    if !correct {
        std::process::exit(1);
    }
}

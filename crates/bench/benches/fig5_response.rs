//! Criterion wrapper for the **Figure 5** experiment: times one reduced
//! response-time cell per inter-arrival interval (econ-cheap, SF 200,
//! 4 000 queries). A name filter that selects no row runs no simulation.
//!
//! The `fig5_response_time` binary regenerates the figure and prints its
//! rows; this bench keeps the interval sweep's code path exercised by
//! `cargo bench` and tracks its runtime.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simulator::{run_simulation, Scheme, SimConfig};

const SF: f64 = 200.0;
const QUERIES: u64 = 4_000;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_response_cell");
    group.sample_size(10);
    for interval in [1.0_f64, 10.0, 60.0] {
        let cfg = SimConfig::paper_cell(Scheme::EconCheap, interval, SF, QUERIES);
        group.bench_function(format!("interval_{interval}s"), |b| {
            b.iter_batched(|| cfg.clone(), run_simulation, BatchSize::LargeInput)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);

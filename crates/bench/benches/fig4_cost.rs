//! Criterion wrapper for the **Figure 4** experiment: times one reduced
//! operating-cost cell per scheme (SF 200, 4 000 queries, 1 s
//! inter-arrival). A name filter that selects no row runs no simulation.
//!
//! The `fig4_operating_cost` binary regenerates the figure and prints
//! its rows; this bench keeps the figure's code path exercised by
//! `cargo bench` and tracks its runtime.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simulator::{run_simulation, Scheme, SimConfig};

const SF: f64 = 200.0;
const QUERIES: u64 = 4_000;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_operating_cost_cell");
    group.sample_size(10);
    for scheme in Scheme::paper_schemes() {
        let cfg = SimConfig::paper_cell(scheme.clone(), 1.0, SF, QUERIES);
        group.bench_function(scheme.name(), |b| {
            b.iter_batched(|| cfg.clone(), run_simulation, BatchSize::LargeInput)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);

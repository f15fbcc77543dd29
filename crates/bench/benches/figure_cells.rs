//! Criterion wrapper for the **Figure 4 and 5** cells: times one reduced
//! cell per scheme at 1 s (Fig. 4's axis) and econ-cheap at each of
//! three intervals (Fig. 5's), at SF 200 and 4 000 queries. A name
//! filter that selects no row runs no simulation.
//!
//! The `figures` binary regenerates both figures and prints their rows;
//! this bench keeps their cells' code path exercised by `cargo bench`
//! and tracks its runtime.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simulator::{run_simulation, Scheme, SimConfig};

const SF: f64 = 200.0;
const QUERIES: u64 = 4_000;

fn bench_cells(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_operating_cost_cell");
    group.sample_size(10);
    for scheme in Scheme::paper_schemes() {
        let cfg = SimConfig::paper_cell(scheme.clone(), 1.0, SF, QUERIES);
        group.bench_function(scheme.name(), |b| {
            b.iter_batched(|| cfg.clone(), run_simulation, BatchSize::LargeInput)
        });
    }
    group.finish();

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

criterion_group!(benches, bench_cells);
criterion_main!(benches);

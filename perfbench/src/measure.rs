//! The untraced run: end-to-end metrics, correctness checks, and the
//! regime guard.

use std::time::{Duration, Instant};

use fleet::{FaultOutcome, FleetConfig, FleetResult};
use metrics::{LogHistogram, StreamingStats};
use pricing::Money;
use simulator::{RunResult, SimConfig};

use crate::report::{self, Metrics};
use crate::single_driver;
use crate::spans;
use crate::workloads::{Built, Prepared};

/// Extra set-ups timed before each measured run: set-up takes well under
/// a millisecond, so its figure needs many samples to hold still.
pub const SETUPS_PER_REP: usize = 40;
/// Fewest measured runs, however long each takes.
pub const MIN_REPS: usize = 3;

/// Lowest bucket edge of `LogHistogram::latency()`, seconds.
const LATENCY_MIN_SECS: f64 = 1e-3;
/// Buckets per decade of `LogHistogram::latency()`.
const LATENCY_BUCKETS_PER_DECADE: f64 = 20.0;

/// The `q`-quantile of a `LogHistogram::latency()` histogram, placed
/// within its bucket by log-linear interpolation over the bucket's
/// counts. `LogHistogram::quantile` reports the bucket's midpoint, which
/// reads the same for every seed whose quantile lands in that bucket;
/// the interpolation keeps the bucket and resolves the position in it.
/// Falls back to the midpoint when the histogram's geometry is not the
/// latency histogram's.
#[must_use]
pub fn interpolated_quantile(hist: &LogHistogram, q: f64) -> Option<f64> {
    let midpoint = hist.quantile(q)?;
    #[allow(clippy::cast_possible_truncation)]
    let bucket = ((midpoint / LATENCY_MIN_SECS).log10() * LATENCY_BUCKETS_PER_DECADE).floor();
    if bucket < 1.0 {
        return Some(midpoint);
    }
    let edge = |i: f64| LATENCY_MIN_SECS * 10f64.powf(i / LATENCY_BUCKETS_PER_DECADE);
    let (lo, hi) = (edge(bucket), edge(bucket + 1.0));
    if !(lo < midpoint && midpoint < hi) {
        return Some(midpoint);
    }
    // `count_at_or_above(x)` counts the buckets strictly above x's.
    let above = hist.count_at_or_above(midpoint);
    let from_bucket = hist.count_at_or_above(edge(bucket - 0.5));
    let in_bucket = from_bucket.saturating_sub(above);
    let below = hist.count().saturating_sub(from_bucket);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let target = (q * hist.count() as f64).ceil().max(1.0) as u64;
    if in_bucket == 0 || target <= below {
        return Some(midpoint);
    }
    #[allow(clippy::cast_precision_loss)]
    let fraction = ((target - below) as f64 / in_bucket as f64).min(1.0);
    Some(lo * (hi / lo).powf(fraction))
}

/// The simulated figures of one run (deterministic for a seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimFigures {
    /// Fig. 4 operating cost, USD.
    pub total_cost_usd: f64,
    /// Fig. 5 mean response time, simulated seconds.
    pub mean_response_s: f64,
    /// p99 of the response histogram, simulated seconds.
    pub p99_response_s: f64,
    /// Share of queries answered from cache.
    pub hit_rate: f64,
}

/// One measured run, checked.
pub struct Checked {
    /// Queries the run settled.
    pub settled: u64,
    /// Bit-for-bit fingerprint of the run's aggregates.
    pub fingerprint: String,
    /// The run's simulated figures.
    pub figures: SimFigures,
    /// Failed correctness checks (empty when the run is correct).
    pub failures: Vec<String>,
    /// Layer counters worth a line of output.
    pub note: String,
    /// Host seconds of each independently timed unit of the run: the
    /// whole fleet run, or each cache's `Simulation::run`.
    pub unit_walls: Vec<f64>,
}

/// Checks a fleet run: every submitted query settled with one latency
/// sample, the cache served hits, and every recovery reconciled.
#[must_use]
pub fn check_fleet(config: &FleetConfig, r: &FleetResult) -> Checked {
    let submitted = config.total_queries();
    let mut failures = Vec::new();
    if r.queries != submitted {
        failures.push(format!(
            "settled {} of {submitted} submitted queries",
            r.queries
        ));
    }
    if r.response.count() != r.queries || r.response_hist.count() != r.queries {
        failures.push(format!(
            "{} settled queries but {} latency samples",
            r.queries,
            r.response.count()
        ));
    }
    let tenant_total: u64 = r.tenants.iter().map(|t| t.queries).sum();
    if tenant_total != r.queries {
        failures.push(format!(
            "tenants settled {tenant_total}, nodes {}",
            r.queries
        ));
    }
    if r.hit_rate() <= 0.0 {
        failures.push("regime guard: no query was answered from cache".into());
    }
    if let Some(faults) = &r.faults {
        for record in &faults.records {
            if let FaultOutcome::Recover(recover) = &record.event {
                if !recover.drift.is_zero() {
                    failures.push(format!(
                        "cell {} recovery of node {} drifted: {:?}",
                        record.cell, recover.crashed, recover.drift
                    ));
                }
            }
        }
    }
    Checked {
        settled: r.queries,
        fingerprint: bench::fleet_fingerprint(r),
        figures: SimFigures {
            total_cost_usd: r.total_operating_cost().as_dollars(),
            mean_response_s: r.mean_response_secs(),
            p99_response_s: interpolated_quantile(&r.response_hist, 0.99).unwrap_or(0.0),
            hit_rate: r.hit_rate(),
        },
        failures,
        note: String::new(),
        unit_walls: Vec::new(),
    }
}

/// Checks the caches of a single-cache run, pooled in cache order: every
/// query settled with one latency sample and the caches served hits.
#[must_use]
pub fn check_single(configs: &[SimConfig], results: &[RunResult]) -> Checked {
    let mut failures = Vec::new();
    if configs.len() != results.len() {
        failures.push(format!(
            "{} caches configured, {} ran",
            configs.len(),
            results.len()
        ));
    }
    let mut settled = 0u64;
    let mut hits = 0u64;
    let mut cost = Money::ZERO;
    let mut response = StreamingStats::new();
    let mut hist = LogHistogram::latency();
    let mut prints = Vec::new();
    for (k, (config, r)) in configs.iter().zip(results).enumerate() {
        if r.queries != config.num_queries {
            failures.push(format!(
                "cache {k} settled {} of {} submitted queries",
                r.queries, config.num_queries
            ));
        }
        if r.response.count() != r.queries || r.response_hist.count() != r.queries {
            failures.push(format!(
                "cache {k}: {} settled queries but {} latency samples",
                r.queries,
                r.response.count()
            ));
        }
        settled += r.queries;
        hits += r.cache_hits;
        cost += r.total_operating_cost();
        response.merge(&r.response);
        hist.merge(&r.response_hist);
        prints.push(single_driver::fingerprint(r));
    }
    if hits == 0 {
        failures.push("regime guard: no query was answered from cache".into());
    }
    Checked {
        settled,
        fingerprint: prints.join("; "),
        figures: SimFigures {
            total_cost_usd: cost.as_dollars(),
            mean_response_s: response.mean(),
            p99_response_s: interpolated_quantile(&hist, 0.99).unwrap_or(0.0),
            hit_rate: spans::ratio(hits as f64, settled as f64),
        },
        failures,
        note: String::new(),
        unit_walls: Vec::new(),
    }
}

/// Runs a built workload once and checks it.
#[must_use]
pub fn run_checked(prepared: &Prepared, built: &Built) -> Checked {
    match (prepared, built) {
        (Prepared::Fleet(config), Built::Fleet(sim)) => {
            let started = Instant::now();
            let r = sim.run();
            let wall = started.elapsed().as_secs_f64();
            let skeletons = sim.skeleton_cache_counters();
            let mut checked = check_fleet(config, &r);
            checked.unit_walls = vec![wall];
            checked.note = format!(
                ", hit rate {:.4}, skeleton cache {} hits / {} misses / {} admissions",
                r.hit_rate(),
                skeletons.hits,
                skeletons.misses,
                skeletons.admissions
            );
            checked
        }
        (Prepared::Single(configs), Built::Single(sims)) => {
            let mut unit_walls = Vec::with_capacity(sims.len());
            let results: Vec<RunResult> = sims
                .iter()
                .map(|sim| {
                    let started = Instant::now();
                    let r = sim.run();
                    unit_walls.push(started.elapsed().as_secs_f64());
                    r
                })
                .collect();
            let mut checked = check_single(configs, &results);
            checked.unit_walls = unit_walls;
            checked.note = format!(", hit rate {:.4}", checked.figures.hit_rate);
            checked
        }
        _ => unreachable!("a workload builds its own kind of simulation"),
    }
}

/// What a measured run loop produced.
pub struct Measured {
    /// Queries submitted over every run.
    pub attempted: u64,
    /// Queries submitted but not settled, or every query of the loop if a
    /// check failed.
    pub failed: u64,
    /// Every failed check.
    pub failures: Vec<String>,
    /// The first run's checked outcome.
    pub first: Checked,
    /// Host seconds of each run (set-up and checks excluded).
    pub walls: Vec<f64>,
    /// Each unit's fastest time over the runs (see [`Checked::unit_walls`]).
    pub best_units: Vec<f64>,
    /// Host seconds of each set-up.
    pub setups: Vec<f64>,
}

/// Repeats fresh set-up plus run until `budget` has passed (and at least
/// `MIN_REPS` runs), checking every run and holding each to the first
/// run's fingerprint. Before each run, `SETUPS_PER_REP` extra set-ups are
/// timed and dropped, so set-up samples spread over the whole budget.
#[must_use]
pub fn repeat(prepared: &Prepared, budget: Duration) -> Measured {
    let timed_setup = || {
        let input = prepared.clone();
        let t = Instant::now();
        let built = input.build();
        (t.elapsed().as_secs_f64(), built)
    };
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut best_units: Vec<f64> = Vec::new();
    let mut setups = Vec::new();
    let mut failures = Vec::new();
    let mut first: Option<Checked> = None;
    let mut settled = 0u64;
    while walls.len() < MIN_REPS || started.elapsed() < budget {
        for _ in 0..SETUPS_PER_REP {
            setups.push(timed_setup().0);
        }
        let (setup_s, built) = timed_setup();
        setups.push(setup_s);
        let checked = run_checked(prepared, &built);
        drop(built);
        let wall: f64 = checked.unit_walls.iter().sum();
        if best_units.is_empty() {
            best_units.clone_from(&checked.unit_walls);
        }
        for (best, &unit) in best_units.iter_mut().zip(&checked.unit_walls) {
            *best = best.min(unit);
        }
        println!(
            "run {}: {:.3} s, {} queries, {:.0} queries/s{}",
            walls.len() + 1,
            wall,
            checked.settled,
            checked.settled as f64 / wall,
            checked.note
        );
        walls.push(wall);
        settled += checked.settled;
        failures.extend(checked.failures.iter().cloned());
        match &first {
            None => first = Some(checked),
            Some(reference) if reference.fingerprint != checked.fingerprint => {
                failures.push(format!(
                    "run {} differs from run 1 of the same seed",
                    walls.len()
                ));
            }
            Some(_) => {}
        }
    }
    let attempted = prepared.submitted() * walls.len() as u64;
    let failed = if failures.is_empty() {
        attempted.saturating_sub(settled)
    } else {
        attempted
    };
    Measured {
        attempted,
        failed,
        failures,
        first: first.expect("at least one run"),
        walls,
        best_units,
        setups,
    }
}

/// The untraced run: end-to-end metrics over `seconds` of measured runs.
#[must_use]
pub fn end_to_end(prepared: &Prepared, seconds: f64) -> (Measured, Metrics) {
    let measured = repeat(prepared, Duration::from_secs_f64(seconds));
    let qps: Vec<f64> = measured
        .walls
        .iter()
        .map(|w| measured.first.settled as f64 / w)
        .collect();
    let setups = &measured.setups;
    // Every run and every set-up repeats identical work, and other
    // tenants of a shared host only ever slow one down (up to twice over,
    // for seconds to minutes at a time), so the fastest sample is the one
    // that holds still from invocation to invocation; the median is
    // printed beside it. A run made of independently timed units (the
    // caches of `paper-single`) takes each unit's fastest time.
    let best_qps = spans::ratio(
        measured.first.settled as f64,
        measured.best_units.iter().sum(),
    );
    let best_setup = setups.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "queries/s over {} runs: best {best_qps:.0}, median {:.0}; set-up over {} samples: best {best_setup:.3e} s, median {:.3e} s",
        qps.len(),
        report::median(&qps),
        setups.len(),
        report::median(setups),
    );
    let figures = measured.first.figures;
    let mut metrics = Metrics::default();
    metrics.set("sim_qps", best_qps);
    metrics.set("setup_s", best_setup);
    metrics.set("peak_rss_mib", report::peak_rss_mib().unwrap_or(0.0));
    metrics.set(
        "settled_query_share",
        spans::ratio(
            (measured.attempted - measured.failed) as f64,
            measured.attempted as f64,
        ),
    );
    metrics.set("sim.total_cost_usd", figures.total_cost_usd);
    metrics.set("sim.mean_response_s", figures.mean_response_s);
    metrics.set("sim.p99_response_s", figures.p99_response_s);
    metrics.set("sim.hit_rate", figures.hit_rate);
    (measured, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_in_the_midpoint_bucket_and_tracks_the_data() {
        let mut hist = LogHistogram::latency();
        // 10 000 samples spread evenly over 0.1 s .. 10 s.
        let samples: Vec<f64> = (0..10_000)
            .map(|i| 0.1 + 9.9 * f64::from(i) / 9_999.0)
            .collect();
        for &x in &samples {
            hist.record(x);
        }
        let midpoint = hist.p99().unwrap();
        let interpolated = interpolated_quantile(&hist, 0.99).unwrap();
        let exact = samples[9_899];
        // One latency bucket spans a factor of 10^(1/20) ≈ 1.122.
        let width = 10f64.powf(1.0 / 20.0);
        assert!(interpolated / midpoint < width && midpoint / interpolated < width);
        assert!(
            (interpolated - exact).abs() / exact < 0.01,
            "{interpolated} vs {exact}"
        );
        assert!((midpoint - exact).abs() > (interpolated - exact).abs());
    }

    #[test]
    fn interpolated_quantile_handles_empty_and_tiny_histograms() {
        let mut hist = LogHistogram::latency();
        assert_eq!(interpolated_quantile(&hist, 0.99), None);
        hist.record(1e-4);
        assert_eq!(interpolated_quantile(&hist, 0.99), hist.p99());
        hist.record(5.0);
        let q = interpolated_quantile(&hist, 0.99).unwrap();
        assert!(q > 4.0 && q < 6.0, "{q}");
    }
}

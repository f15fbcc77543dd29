//! The traced run: per-layer metrics from the benchmark's own drivers,
//! checked bit for bit against untraced runs of the same seed.

use std::path::Path;
use std::time::{Duration, Instant};

use fleet::{FleetConfig, FleetSim};
use simulator::{RunResult, SimConfig, Simulation};

use crate::fleet_driver;
use crate::measure::{check_fleet, check_single, Checked, MIN_REPS};
use crate::planning::{Planning, SetupTimes};
use crate::report::{median, Metrics};
use crate::single_driver;
use crate::spans::{ratio, write_tsv, Layer, Summary};
use crate::workloads::Prepared;

/// Set-ups timed for the per-phase set-up breakdown.
const SETUP_BREAKDOWN_SAMPLES: usize = 21;

/// What a traced run checked.
pub struct Traced {
    /// Queries submitted over every run the traced run made.
    pub attempted: u64,
    /// Every failed check.
    pub failures: Vec<String>,
    /// The per-layer metrics.
    pub metrics: Metrics,
}

/// Checks accumulated over the runs of one traced run; every run must
/// match the first run's fingerprint.
#[derive(Default)]
struct Ledger {
    runs: u64,
    failures: Vec<String>,
    reference: Option<String>,
}

impl Ledger {
    fn book(&mut self, what: &str, checked: &Checked) {
        self.runs += 1;
        self.failures
            .extend(checked.failures.iter().map(|f| format!("{what}: {f}")));
        match &self.reference {
            None => self.reference = Some(checked.fingerprint.clone()),
            Some(reference) if *reference != checked.fingerprint => {
                self.failures
                    .push(format!("{what}: aggregates differ from the untraced run"));
            }
            Some(_) => {}
        }
    }
}

/// Builds the planning context `SETUP_BREAKDOWN_SAMPLES` times and
/// reports the median of each phase.
fn setup_breakdown(build: impl Fn() -> (Planning, SetupTimes)) -> (Planning, Metrics) {
    let mut phases = [Vec::new(), Vec::new(), Vec::new()];
    let mut planning = None;
    for _ in 0..SETUP_BREAKDOWN_SAMPLES {
        let (built, times) = build();
        phases[0].push(times.schema_ns as f64);
        phases[1].push(times.candidates_ns as f64);
        phases[2].push(times.cand_index_ns as f64);
        planning = Some(built);
    }
    let mut metrics = Metrics::default();
    metrics.set("setup.schema_ns", median(&phases[0]));
    metrics.set("setup.candidates_ns", median(&phases[1]));
    metrics.set("setup.cand_index_ns", median(&phases[2]));
    (planning.expect("at least one set-up"), metrics)
}

/// Repeats untraced runs until `budget` has passed (at least `MIN_REPS`),
/// alternating with runs of `alternate` when given. `run` returns a run's
/// host seconds (set-up excluded) and its checks. Returns the median
/// seconds of each config.
fn reference_walls<C>(
    budget: Duration,
    config: &C,
    alternate: Option<&C>,
    mut run: impl FnMut(&C) -> (f64, Checked),
    ledger: &mut Ledger,
) -> (f64, f64) {
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut alternate_walls = Vec::new();
    while walls.len() < MIN_REPS || started.elapsed() < budget {
        for (which, walls, label) in [
            (Some(config), &mut walls, "untraced run"),
            (alternate, &mut alternate_walls, "health-off run"),
        ] {
            let Some(cfg) = which else { continue };
            let (wall, checked) = run(cfg);
            walls.push(wall);
            ledger.book(label, &checked);
        }
    }
    (median(&walls), median(&alternate_walls))
}

/// Writes the spans where a reader of the run can find them; a failed
/// write is reported and does not fail the run.
fn save_spans(path: &Path, spans: &[crate::spans::Span]) {
    match write_tsv(path, spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
    }
}

/// The traced run of a prepared workload.
#[must_use]
pub fn per_layer(prepared: &Prepared, seconds: f64, spans_path: &Path) -> Traced {
    let budget = Duration::from_secs_f64(seconds * 0.5);
    match prepared {
        Prepared::Fleet(config) => fleet_layers(config, budget, spans_path),
        Prepared::Single(configs) => single_layers(configs, budget, spans_path),
    }
}

#[allow(clippy::too_many_lines)]
fn fleet_layers(config: &FleetConfig, budget: Duration, spans_path: &Path) -> Traced {
    let (planning, mut metrics) = setup_breakdown(|| {
        Planning::build(
            config.scale_factor,
            config.candidate_indexes,
            &config.cost_params,
            &config.prices,
        )
    });
    let mut ledger = Ledger::default();
    let health_off = config.health.is_some().then(|| {
        let mut off = config.clone();
        off.health = None;
        off
    });
    let (untraced_s, health_off_s) = reference_walls(
        budget,
        config,
        health_off.as_ref(),
        |cfg| {
            let sim = FleetSim::new(cfg.clone());
            let started = Instant::now();
            let r = sim.run();
            (started.elapsed().as_secs_f64(), check_fleet(cfg, &r))
        },
        &mut ledger,
    );

    let trace = match fleet_driver::replay(config, &planning) {
        Ok(trace) => trace,
        Err(e) => {
            ledger.failures.push(e);
            return Traced {
                attempted: config.total_queries() * ledger.runs.max(1),
                failures: ledger.failures,
                metrics,
            };
        }
    };
    ledger.book("traced driver", &check_fleet(config, &trace.result));
    save_spans(spans_path, &trace.spans);

    let sim = FleetSim::new(config.clone());
    let started = Instant::now();
    let (recorded, recorder) = sim.run_traced();
    let recorder_s = started.elapsed().as_secs_f64();
    ledger.book("flight-recorder run", &check_fleet(config, &recorded));

    let r = &trace.result;
    let q = r.queries;
    let summary = Summary::of(&trace.spans);
    let layer = |l: Layer| summary.layer(l);
    let traced_ns = trace.wall_ns;
    metrics.set(
        "fleet.router.route_ns_per_query",
        layer(Layer::Route).ns_per_query(q),
    );
    metrics.set(
        "fleet.router.route_p50_us",
        layer(Layer::Route).percentile_us(0.5).unwrap_or(0.0),
    );
    metrics.set(
        "fleet.router.route_p99_us",
        layer(Layer::Route).percentile_us(0.99).unwrap_or(0.0),
    );
    metrics.set("fleet.router.share", layer(Layer::Route).share(traced_ns));
    metrics.set(
        "fleet.node.serve_ns_per_query",
        layer(Layer::Serve).ns_per_query(q),
    );
    metrics.set(
        "fleet.node.serve_p99_us",
        layer(Layer::Serve).percentile_us(0.99).unwrap_or(0.0),
    );
    metrics.set("fleet.node.share", layer(Layer::Serve).share(traced_ns));
    metrics.set("simulator.step_ns_per_query", 0.0);
    metrics.set("simulator.step_p99_us", 0.0);
    metrics.set("simulator.share", 0.0);
    metrics.set(
        "workload.next_ns_per_query",
        layer(Layer::Workload).ns_per_query(q),
    );
    metrics.set("workload.share", layer(Layer::Workload).share(traced_ns));
    metrics.set(
        "fleet.elastic.review_ns_per_query",
        layer(Layer::Elastic).ns_per_query(q),
    );
    let elastic = r.elastic.as_ref();
    metrics.set(
        "fleet.elastic.reviews",
        elastic.map_or(0, |e| e.ledger.len()) as f64,
    );
    metrics.set(
        "fleet.elastic.spawns",
        elastic.map_or(0, |e| e.spawns) as f64,
    );
    metrics.set(
        "fleet.elastic.retires",
        elastic.map_or(0, |e| e.retires) as f64,
    );
    metrics.set(
        "fleet.faults.process_ns_per_query",
        layer(Layer::Faults).ns_per_query(q),
    );
    let faults = r.faults.as_ref();
    metrics.set(
        "fleet.faults.crashes",
        faults.map_or(0, |f| f.crashes) as f64,
    );
    metrics.set(
        "fleet.faults.recoveries",
        faults.map_or(0, |f| f.recoveries) as f64,
    );
    metrics.set(
        "fleet.faults.write_off_usd",
        faults.map_or(0.0, |f| f.write_off.as_dollars()),
    );
    metrics.set(
        "fleet.faults.salvaged_usd",
        faults.map_or(0.0, |f| f.salvaged.as_dollars()),
    );
    metrics.set(
        "fleet.population.accrue_ns_per_query",
        layer(Layer::Accrue).ns_per_query(q),
    );
    metrics.set(
        "fleet.population.finish_ns",
        layer(Layer::Finish).total_ns as f64,
    );
    let registry = &recorder.registry;
    let memo_hits = registry.counter("plan_cache.hits");
    let memo_misses = registry.counter("plan_cache.misses");
    metrics.set("econ.plan_cache.hits", memo_hits as f64);
    metrics.set("econ.plan_cache.misses", memo_misses as f64);
    metrics.set(
        "econ.plan_cache.refreshes",
        registry.counter("plan_cache.refreshes") as f64,
    );
    metrics.set(
        "econ.plan_cache.completions",
        registry.counter("plan_cache.completions") as f64,
    );
    metrics.set(
        "econ.plan_cache.victim_hits",
        registry.counter("plan_cache.victim_hits") as f64,
    );
    metrics.set(
        "econ.plan_cache.hit_ratio",
        ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
    );
    let skeletons = trace.skeletons;
    metrics.set("planner.skeleton_cache.hits", skeletons.hits as f64);
    metrics.set("planner.skeleton_cache.misses", skeletons.misses as f64);
    metrics.set(
        "planner.skeleton_cache.admissions",
        skeletons.admissions as f64,
    );
    metrics.set(
        "planner.skeleton_cache.hit_ratio",
        ratio(
            skeletons.hits as f64,
            (skeletons.hits + skeletons.misses) as f64,
        ),
    );
    metrics.set("cache.hits", r.cache_hits as f64);
    metrics.set("cache.investments", r.investments as f64);
    metrics.set("cache.evictions", r.evictions as f64);
    metrics.set(
        "econ.build_per_payment",
        ratio(r.build_spend.as_dollars(), r.payments.as_dollars()),
    );
    let health_overhead_ns = if health_off.is_some() {
        (untraced_s - health_off_s) * 1e9
    } else {
        0.0
    };
    metrics.set(
        "telemetry.health.overhead_ns_per_query",
        ratio(health_overhead_ns, q as f64),
    );
    metrics.set(
        "telemetry.recorder.overhead_ns_per_query",
        ratio((recorder_s - untraced_s) * 1e9, q as f64),
    );
    metrics.set("trace.coverage", summary.coverage(traced_ns));
    metrics.set(
        "trace.overhead_ratio",
        ratio(trace.wall_ns as f64 / 1e9, untraced_s),
    );
    Traced {
        attempted: config.total_queries() * ledger.runs,
        failures: ledger.failures,
        metrics,
    }
}

fn single_layers(configs: &[SimConfig], budget: Duration, spans_path: &Path) -> Traced {
    let first = &configs[0];
    let (planning, mut metrics) = setup_breakdown(|| {
        Planning::build(
            first.scale_factor,
            first.candidate_indexes,
            &first.cost_params,
            &first.prices,
        )
    });
    let mut ledger = Ledger::default();
    let (untraced_s, _) = reference_walls(
        budget,
        &configs,
        None,
        |cfgs| {
            let sims: Vec<Simulation> = cfgs.iter().cloned().map(Simulation::new).collect();
            let started = Instant::now();
            let results: Vec<RunResult> = sims.iter().map(Simulation::run).collect();
            (
                started.elapsed().as_secs_f64(),
                check_single(cfgs, &results),
            )
        },
        &mut ledger,
    );
    let trace = single_driver::replay(configs, &planning);
    let checked = check_single(configs, &trace.results);
    ledger.book("traced driver", &checked);
    save_spans(spans_path, &trace.spans);

    let q = checked.settled;
    let summary = Summary::of(&trace.spans);
    let step = summary.layer(Layer::Step);
    let traced_ns = trace.wall_ns;
    for name in [
        "fleet.router.route_ns_per_query",
        "fleet.router.route_p50_us",
        "fleet.router.route_p99_us",
        "fleet.router.share",
        "fleet.node.serve_ns_per_query",
        "fleet.node.serve_p99_us",
        "fleet.node.share",
        "fleet.elastic.review_ns_per_query",
        "fleet.elastic.reviews",
        "fleet.elastic.spawns",
        "fleet.elastic.retires",
        "fleet.faults.process_ns_per_query",
        "fleet.faults.crashes",
        "fleet.faults.recoveries",
        "fleet.faults.write_off_usd",
        "fleet.faults.salvaged_usd",
        "fleet.population.accrue_ns_per_query",
        "fleet.population.finish_ns",
        "planner.skeleton_cache.hits",
        "planner.skeleton_cache.misses",
        "planner.skeleton_cache.admissions",
        "planner.skeleton_cache.hit_ratio",
        "telemetry.health.overhead_ns_per_query",
        "telemetry.recorder.overhead_ns_per_query",
    ] {
        metrics.set(name, 0.0);
    }
    metrics.set("simulator.step_ns_per_query", step.ns_per_query(q));
    metrics.set(
        "simulator.step_p99_us",
        step.percentile_us(0.99).unwrap_or(0.0),
    );
    metrics.set("simulator.share", step.share(traced_ns));
    let workload = summary.layer(Layer::Workload);
    metrics.set("workload.next_ns_per_query", workload.ns_per_query(q));
    metrics.set("workload.share", workload.share(traced_ns));
    let memo = trace.plan_cache;
    metrics.set("econ.plan_cache.hits", memo.hits as f64);
    metrics.set("econ.plan_cache.misses", memo.misses as f64);
    metrics.set("econ.plan_cache.refreshes", memo.refreshes as f64);
    metrics.set("econ.plan_cache.completions", memo.completions as f64);
    metrics.set("econ.plan_cache.victim_hits", memo.victim_hits as f64);
    metrics.set(
        "econ.plan_cache.hit_ratio",
        ratio(memo.hits as f64, (memo.hits + memo.misses) as f64),
    );
    let results = &trace.results;
    let total = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    metrics.set("cache.hits", total(|r| r.cache_hits));
    metrics.set("cache.investments", total(|r| r.investments));
    metrics.set("cache.evictions", total(|r| r.evictions));
    let dollars = |f: fn(&RunResult) -> pricing::Money| {
        results
            .iter()
            .map(f)
            .fold(pricing::Money::ZERO, |a, b| a + b)
            .as_dollars()
    };
    metrics.set(
        "econ.build_per_payment",
        ratio(dollars(|r| r.build_spend), dollars(|r| r.payments)),
    );
    metrics.set("trace.coverage", summary.coverage(traced_ns));
    metrics.set(
        "trace.overhead_ratio",
        ratio(trace.wall_ns as f64 / 1e9, untraced_s),
    );
    Traced {
        attempted: configs.iter().map(|c| c.num_queries).sum::<u64>() * ledger.runs,
        failures: ledger.failures,
        metrics,
    }
}

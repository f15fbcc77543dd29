//! **Fleet scaling grid** — throughput of the sharded fleet executor and
//! the batched, pooled cheapest-quote fan-out.
//!
//! Sweeps over a 100-tenant fleet with cheapest-quote routing, under two
//! user budget shapes (the `budget` column). The default step budget
//! decides every quote round from the budget alone (no memo lookup,
//! skeleton, gather or commit — see `fleet::router`), so only the
//! shard and health rows run on it; every sweep that exercises the
//! quote round itself runs under convex budgets, where every round is
//! planned in full:
//!
//! * **shards** {1, 2, 4, 8} at one quote thread, step budget — cells
//!   execute on worker threads (the PR 1 lever);
//! * **quote threads** {1, 2, 4, 8} at one shard, convex budget — each
//!   quote round
//!   resolves the query's plan skeleton through the fleet-wide cache and
//!   fans batched per-chunk completions out over a **persistent** worker
//!   pool (this PR's lever; the executor clamps the pool to the
//!   machine's spare parallelism, so the `pool` column records what
//!   actually ran);
//! * **completion cross-check** — the per-node completion reference path
//!   (`quote_batching = false`) at 1 and 8 quote threads, convex budget;
//! * **pinning cross-check** — convex budget, 8 quote threads with core
//!   pinning forced
//!   on and forced off, regardless of the base setting, so every run
//!   gates on affinity being a pure placement hint and the committed
//!   record shows the pinning win (or documents its absence on hosts
//!   where the executor clamps the pool to one thread);
//! * **health cross-check** — the step reference settings with the
//!   vitals scraper (30 s cadence) and per-tenant SLO ledger attached:
//!   the same bitwise gate becomes the snapshot-on/off identity
//!   contract, and the row's q/s against the baseline bounds snapshot
//!   overhead.
//!
//! `FLEET_SCALE_PIN=off` (or `on`) overrides the default-on
//! `pin_quote_workers` for every *other* cell — CI runs the grid both
//! ways and diffs nothing, because the in-run invariance check already
//! compares every aggregate bitwise.
//!
//! Every lever is wall-clock-only by construction: every economic
//! aggregate must be *identical* down each budget's rows (step rows to
//! the step baseline, convex rows to the convex 1-thread row), and the
//! run exits non-zero if any cell deviates — the fleet determinism
//! contract across
//! {sequential, pooled} × {batched, per-node} quoting. A traced replay
//! of the reference cell (telemetry flight recorder attached) must
//! match bit-for-bit too: observability is a pure observer.
//!
//! At the default cell the run writes `BENCH_fleet_scale.json`,
//! recording measured queries/second (best of several interleaved runs
//! per cell) next to the committed PR 2 baseline; `bench --bin trend
//! --check` then holds the committed quote-thread sweep to its own
//! 1-thread baseline of the same budget.
//!
//! Usage: `cargo run --release -p bench --bin fleet_scale \
//!         [scale_factor] [queries_per_tenant] [tenants] [nodes]`

use bench::{
    cli_arg, cli_usage_error, fleet_fingerprint, scale_args, write_bench_json, write_csv, Row,
    RowSet,
};
use fleet::{FleetConfig, FleetResult, FleetSim, TenantSloSpec};
use pricing::Money;

const SHARD_GRID: [usize; 4] = [1, 2, 4, 8];
const QUOTE_THREAD_GRID: [usize; 4] = [1, 2, 4, 8];

/// Queries/second of the default cell (SF 50, 100 tenants × 100 queries,
/// 8 nodes, cheapest-quote, shards = 1) measured at commit 925d16f
/// (PR 2: memoized planning, still one full enumeration per bidding
/// node) with this harness on the reference machine. Only meaningful for
/// the default cell.
const PR2_BASELINE_QPS: f64 = 23_002.0;

const USAGE: &str = "{bin} [scale_factor] [queries_per_tenant] [tenants] [nodes]\n       \
                     defaults: scale_factor 50, queries_per_tenant 100, tenants 100, nodes 8";

/// Measurement repetitions per cell at the record-writing default cell.
/// Reps are interleaved round-robin across the grid (rep 1 of every
/// cell, then rep 2 of every cell, …) so slow machine drift cannot bias
/// one sweep against another, and each cell keeps its best rep. Later
/// reps also re-run against the sim's warmed fleet-wide skeleton cache
/// (the cache admits on the second sighting of a fingerprint), so the
/// kept number reflects steady-state throughput. Reduced-scale runs
/// (CI) only need the bit-identity check, which one rep establishes.
const MEASURE_REPS: usize = 12;

struct Cell {
    sweep: &'static str,
    /// The users' budget shape (`step` or `convex`): rows gate against
    /// the reference of their own budget.
    budget: &'static str,
    shards: usize,
    quote_threads: usize,
    pool_threads: usize,
    batching: bool,
    pinning: bool,
    sim: FleetSim,
    /// Measured queries/second of every rep, in run order. The committed
    /// record keeps the best *and* the min/median spread
    /// ([`bench::rep_spread`]), so `trend` can tell machine noise from
    /// real regressions.
    rep_qps: Vec<f64>,
    result: Option<FleetResult>,
}

impl Cell {
    fn spread(&self) -> bench::RepSpread {
        bench::rep_spread(&self.rep_qps)
    }
}

/// Prepares one grid cell (schema/candidate prep excluded from timing).
fn prepare_cell(
    base: &FleetConfig,
    sweep: &'static str,
    shards: usize,
    quote_threads: usize,
    batching: bool,
    pinning: bool,
) -> Cell {
    let mut config = base.clone();
    config.shards = shards;
    config.quote_threads = quote_threads;
    config.quote_batching = batching;
    config.pin_quote_workers = pinning;
    let budget = match config.econ.budget_shape {
        econ::BudgetShape::Step => "step",
        econ::BudgetShape::Convex => "convex",
        econ::BudgetShape::Concave => "concave",
    };
    let sim = FleetSim::new(config);
    Cell {
        sweep,
        budget,
        shards,
        quote_threads,
        // The executor's own clamp, so the reported column cannot drift
        // from what actually runs.
        pool_threads: sim.quote_pool_threads(),
        batching,
        pinning,
        sim,
        rep_qps: Vec::new(),
        result: None,
    }
}

/// Base `pin_quote_workers` for every cell outside the pinning-sweep:
/// `FLEET_SCALE_PIN=off|0` forces it off, `on|1` (and unset) on. CI runs
/// the grid under both so the invariance gate exercises affinity both
/// ways end to end.
fn base_pinning() -> bool {
    match std::env::var("FLEET_SCALE_PIN") {
        Ok(v) if v.eq_ignore_ascii_case("off") || v == "0" => false,
        Ok(v) if v.eq_ignore_ascii_case("on") || v == "1" || v.is_empty() => true,
        Ok(v) => cli_usage_error(
            &format!("FLEET_SCALE_PIN must be on or off, got {v:?}"),
            USAGE,
        ),
        Err(_) => true,
    }
}

fn main() {
    let (sf, queries_per_tenant) = scale_args(50.0, 100, USAGE);
    let tenants: u32 = cli_arg(3, "tenant count", 100, USAGE);
    let nodes: usize = cli_arg(4, "node count", 8, USAGE);
    if tenants == 0 || nodes == 0 {
        cli_usage_error("tenants and nodes must both be positive", USAGE);
    }
    let default_cell = (sf - 50.0).abs() < f64::EPSILON
        && queries_per_tenant == 100
        && tenants == 100
        && nodes == 8;

    let pinning = base_pinning();
    let mut base = FleetConfig::uniform(tenants, nodes, queries_per_tenant, 1.0);
    base.scale_factor = sf;
    base.cells = 16;
    base.pin_quote_workers = pinning;

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("================================================================");
    println!(
        "fleet_scale: {tenants} tenants x {nodes} nodes, shard sweep {SHARD_GRID:?} (step budget) + quote-thread sweep {QUOTE_THREAD_GRID:?} + completion and pinning cross-checks (convex budget)"
    );
    println!(
        "(TPC-H SF {sf}, {queries_per_tenant} queries/tenant = {} total, cheapest-quote routing, {parallelism} core(s) available)",
        u64::from(tenants) * queries_per_tenant
    );
    println!("================================================================");
    println!(
        "{:>20} {:>7} {:>7} {:>9} {:>5} {:>9} {:>8} {:>12} {:>12} {:>12} {:>14} {:>12} {:>8} {:>8}",
        "sweep",
        "budget",
        "shards",
        "qthreads",
        "pool",
        "batching",
        "pinning",
        "queries/s",
        "q/s min",
        "q/s median",
        "cost ($)",
        "mean resp",
        "hit rate",
        "builds"
    );

    // The step budget decides every quote round from the budget alone,
    // so its rows measure the fleet around a decided round; the convex
    // base plans every round in full and carries every quote-round axis.
    let mut convex = base.clone();
    convex.econ.budget_shape = econ::BudgetShape::Convex;

    let mut cells: Vec<Cell> = Vec::new();
    for shards in SHARD_GRID {
        cells.push(prepare_cell(&base, "shard-sweep", shards, 1, true, pinning));
    }
    // Health-sweep: the vitals scraper and SLO ledger attached at the
    // reference settings. The row flows through the same bitwise
    // invariance gate as everything else — which *is* the
    // snapshot-on/off bit-identity contract (`fleet_fingerprint`
    // excludes the health series; the economics may not move) — and its
    // q/s next to the baseline row bounds the snapshot overhead.
    {
        let health_base = base.clone().with_health(30.0).with_slo(TenantSloSpec {
            p99_target_secs: 10.0,
            spend_cap: Some(Money::from_dollars(1.0)),
        });
        cells.push(prepare_cell(
            &health_base,
            "health-sweep",
            1,
            1,
            true,
            pinning,
        ));
    }
    // The quote-thread sweep's 1-thread row is the convex reference.
    for threads in QUOTE_THREAD_GRID {
        cells.push(prepare_cell(
            &convex,
            "quote-thread-sweep",
            1,
            threads,
            true,
            pinning,
        ));
    }
    // The per-node completion reference path, sequential and pooled.
    for threads in [1, 8] {
        cells.push(prepare_cell(
            &convex,
            "per-node-completion",
            1,
            threads,
            false,
            pinning,
        ));
    }
    // Affinity both ways at the widest pool, whatever the base setting:
    // these two rows put pinning itself under the bitwise invariance
    // gate and record its throughput effect side by side.
    for pin in [true, false] {
        cells.push(prepare_cell(&convex, "pinning-sweep", 1, 8, true, pin));
    }
    // `FLEET_SCALE_REPS` forces the rep count at any cell — local A/B
    // profiling needs best-of-N at reduced cells too. The record still
    // only refreshes at the default cell.
    let reps = std::env::var("FLEET_SCALE_REPS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&r| r > 0)
        .unwrap_or(if default_cell { MEASURE_REPS } else { 1 });
    for _rep in 0..reps {
        for cell in &mut cells {
            let started = std::time::Instant::now();
            let run = cell.sim.run();
            let wall = started.elapsed().as_secs_f64();
            cell.rep_qps.push(run.queries as f64 / wall.max(1e-9));
            cell.result = Some(run);
        }
    }

    let mut set = RowSet::new();
    let mut invariant = true;
    // Each budget's reference is its first row: the step shard-sweep
    // baseline and the convex 1-thread quote-thread row.
    let reference_of = |budget: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.budget == budget)
            .expect("every budget has a reference row")
    };
    let reference = cells[0].result.clone().expect("reference cell ran");
    for cell in &cells {
        let r = cell.result.as_ref().expect("cell ran");
        let cost = r.total_operating_cost();
        let mean = r.mean_response_secs();
        let reference = reference_of(cell.budget)
            .result
            .as_ref()
            .expect("reference cell ran");
        let row = Row::new()
            .str_cell("sweep", cell.sweep, 20, false)
            .str_cell("budget", cell.budget, 7, false)
            .num_cell("shards", cell.shards, 7, false)
            .num_cell("quote_threads", cell.quote_threads, 9, false)
            .num_cell("pool_threads", cell.pool_threads, 5, false)
            .num_cell("batching", cell.batching, 9, false)
            .num_cell("pinning", cell.pinning, 8, false)
            .f64_cell("qps", cell.spread().best, 12, 0, 0)
            .f64_cell("qps_min", cell.spread().min, 12, 0, 0)
            .f64_cell("qps_median", cell.spread().median, 12, 0, 0)
            .f64_cell("total_cost_usd", cost.as_dollars(), 14, 4, 6)
            .f64_cell("mean_response_s", mean, 12, 3, 6)
            .pct_cell("hit_rate", r.hit_rate(), 7, 4)
            .num_cell("builds", r.investments, 8, false);
        println!("{}", set.push(row));
        if cost != reference.total_operating_cost()
            || r.queries != reference.queries
            || mean.to_bits() != reference.mean_response_secs().to_bits()
        {
            invariant = false;
            eprintln!(
                "error: aggregates drifted at sweep={} budget={} shards={} quote_threads={} batching={} pinning={}",
                cell.sweep, cell.budget, cell.shards, cell.quote_threads, cell.batching, cell.pinning
            );
        }
    }

    // The flight recorder must be a pure observer: a traced replay of
    // the reference cell (every quote round and settlement recorded into
    // a `Recorder` sink plus a metrics registry) must reproduce the
    // no-op-sink aggregates bit-for-bit.
    let traced_registry = {
        let mut config = base.clone();
        config.shards = 1;
        config.quote_threads = 1;
        config.quote_batching = true;
        let (traced, trace) = FleetSim::new(config).run_traced();
        if fleet_fingerprint(&traced) != fleet_fingerprint(&reference) {
            invariant = false;
            eprintln!("error: reference run drifted under tracing");
        } else {
            println!("traced replay bit-identical to the no-op-sink reference: OK");
        }
        trace.registry
    };

    // The regression this PR fixes must stay fixed: pooled q/s at 2+
    // threads may not fall below the 1-thread baseline of the same
    // budget. Reported here (reduced-scale CI runs are too noisy to gate
    // on), enforced on the committed record by `trend --check`.
    let baseline_qps = cells[0].spread().best;
    let convex_qps = reference_of("convex").spread().best;
    for cell in cells.iter().filter(|c| c.sweep == "quote-thread-sweep") {
        let qps = cell.spread().best;
        if qps < convex_qps {
            println!(
                "note: quote_threads={} measured {qps:.0} q/s below the 1-thread convex baseline {convex_qps:.0} ({:+.1}%)",
                cell.quote_threads,
                (qps - convex_qps) / convex_qps * 100.0
            );
        }
    }

    // Snapshot overhead: the health-sweep row against the identical
    // baseline cell. Reported at every scale; the committed record is
    // what `trend --check` holds to the tolerance.
    if let Some(health_cell) = cells.iter().find(|c| c.sweep == "health-sweep") {
        let qps = health_cell.spread().best;
        println!(
            "health-sweep: {qps:.0} q/s with 30s vitals cadence vs {baseline_qps:.0} baseline ({:+.1}%)",
            (qps - baseline_qps) / baseline_qps * 100.0
        );
    }

    write_csv("fleet_scale", &set.csv_header(), set.csv_rows());
    // Only the default acceptance cell refreshes the committed record;
    // reduced-scale runs (CI) must not clobber it.
    if default_cell {
        // The traced replay's metrics-registry snapshot plus the
        // fleet-wide skeleton cache's counters (summed over the baseline
        // cell's reps) — committed so admission-filter tuning has
        // recorded hit/admission rates to work from. The skeleton
        // counters live *outside* the shard-invariance contract:
        // concurrent cells race probes against the shared cache, so the
        // hit/miss split is wall-clock-dependent even though every
        // economic aggregate is not.
        let mut snapshot = traced_registry;
        let skel = cells[0].sim.skeleton_cache_counters();
        snapshot.counter_add("skeleton_cache.hits", skel.hits);
        snapshot.counter_add("skeleton_cache.misses", skel.misses);
        snapshot.counter_add("skeleton_cache.admissions", skel.admissions);
        let registry_json = serde_json::to_string(&snapshot).expect("registry serializes");
        let config = format!(
            "{{\"scale_factor\": {sf}, \"queries_per_tenant\": {queries_per_tenant}, \
             \"tenants\": {tenants}, \"nodes\": {nodes}, \"router\": \"cheapest-quote\", \
             \"parallelism\": {parallelism}, \
             \"qps_note\": \"best of {reps} interleaved runs per cell; qps_min/qps_median record the rep spread\", \
             \"registry_note\": \"traced-replay registry of the reference cell + fleet-global skeleton_cache.* counters (wall-clock-dependent, excluded from the invariance contract)\", \
             \"budget_note\": \"shard-sweep and health-sweep rows run the default step budget, which decides every quote round from the budget alone; quote-thread-sweep, per-node-completion and pinning-sweep rows run convex budgets, where every round is planned in full; each row gates against the first row of its budget\", \
             \"pinning_note\": \"pinning-sweep rows measure affinity on vs off at 8 quote threads; pool.pinned_workers in the registry records how many pins actually took — 0 on hosts where the executor clamps the pool to one thread (no spare parallelism), in which case the rows document the absence of a pinning effect rather than a win\", \
             \"health_note\": \"the health-sweep row runs the reference settings with a 30s vitals cadence and per-tenant SLO ledger attached; its cost/queries/mean must be bit-identical to the baseline row (the snapshot-on/off identity gate) and its q/s bounds the snapshot overhead\", \
             \"registry\": {registry_json}, \
             \"pr2_baseline_qps\": {PR2_BASELINE_QPS:.0}, \"speedup_vs_pr2\": {:.2}, \
             \"baseline_note\": \"pr2_baseline_qps: commit 925d16f (one full enumeration per \
             bidding node) at this cell, shards 1, quote_threads 1\"}}",
            baseline_qps / PR2_BASELINE_QPS
        );
        write_bench_json("fleet_scale", &config, set.json_rows());
    } else {
        println!("(non-default cell: BENCH_fleet_scale.json left untouched)");
    }

    if invariant {
        println!(
            "aggregates identical across shard counts (step budget) and quote-thread counts, completion paths and pinning (convex budget): OK"
        );
    } else {
        eprintln!("error: fleet aggregates varied with a wall-clock-only knob");
        std::process::exit(1);
    }
}

//! **`explain`** — replay a recorded fleet trace and attribute the money.
//!
//! The flight recorder ([`telemetry`]) turns a fleet run into a typed
//! event stream; this tool answers the attribution questions the paper's
//! economy makes answerable:
//!
//! * `record [path]` — run the reference bursty elastic fleet (with a
//!   mid-run crash-and-recover fault injected, so crash questions are
//!   answerable) with the recorder attached and write the
//!   [`telemetry::Trace`] (events + registry snapshot) as JSON, default
//!   `results/fleet_trace.json`;
//! * `retire <node> [path]` — why did node *N* retire: the rule that
//!   fired, the pressure signals at the drain decision, and what the
//!   node earned while alive (exits non-zero when the trace records no
//!   retirement for that node — an unanswerable query is an error);
//! * `crash <node> [path]` — what node *N*'s crash cost: the books
//!   settled at the crash instant, the capital written off, the
//!   re-queued backlog, and whether the ledger replay reconciled;
//! * `blame <tenant|template|structure|node|resource> [path]` — "where
//!   did the $ go": payments, profit, per-resource execution spend and
//!   build spend rolled up by the chosen key;
//! * `structure <S> [path]` — which tenants and templates paid for
//!   structure *S* (settlements whose winning plans used it);
//! * `timeline <node> [path]` — every lifecycle transition recorded for
//!   node *N*;
//! * `slo [path]` — the per-tenant SLO ledger: p50/p99 against targets,
//!   error-budget burn, exact spend against caps, breach narration, and
//!   any drift alarms the e-process detector raises over the trace;
//! * `top [path]` — the cadenced vitals frames as a time series (backlog,
//!   pressure, node cash, hit rates, population counts, write-offs);
//! * `metrics [path]` — the registry plus vitals rendered as
//!   OpenMetrics-style text;
//! * `selfcheck` — the CI gate: runs the recording config twice (no-op
//!   sink vs recorder), demands bit-identical aggregates, then answers a
//!   retirement query and cross-foots the blame rollups against the
//!   run's own economic aggregates. Non-zero exit on any mismatch or
//!   unanswerable query.
//! * `health` — the health-plane CI gate: snapshot-on and snapshot-off
//!   runs must be bit-identical, the SLO ledger must cross-foot with the
//!   run's own aggregates, the vitals cadence must land on the grid, and
//!   the OpenMetrics render must be well-formed.
//!
//! Usage: `cargo run --release -p bench --bin explain -- <subcommand> …`
//!
//! Unknown subcommands, malformed arguments and trailing arguments all
//! exit 2 with the usage text — a misremembered query must fail loudly,
//! not silently answer something else.

use bench::fleet_fingerprint;
use fleet::{narrate_breaches, ElasticConfig, FaultPlan, FleetConfig, FleetSim, TenantSloSpec};
use pricing::Money;
use simulator::ArrivalKind;
use telemetry::{
    blame, detect_alarms, explain_crash, explain_retirement, node_timeline, render_openmetrics,
    Baselines, BlameKey, BlameRow, ElasticAction, FaultOutcome, FaultRecord, Trace, TraceEvent,
};

const USAGE: &str = "usage: explain <subcommand>\n\
       record    [path]                                      record a traced reference run\n\
       retire    <node> [path]                               why did node N retire\n\
       crash     <node> [path]                               what did node N's crash cost\n\
       blame     <tenant|template|structure|node|resource> [path]\n\
       structure <name> [path]                               who paid for structure <name>\n\
       timeline  <node> [path]                               lifecycle transitions of node N\n\
       slo       [path]                                      per-tenant SLO ledger + drift alarms\n\
       top       [path]                                      cadenced vitals frames over time\n\
       metrics   [path]                                      OpenMetrics-style text export\n\
       selfcheck                                             traced-vs-noop bit-identity + smoke queries\n\
       health                                                snapshot-on/off bit-identity + SLO cross-foot\n\
       (default trace path: results/fleet_trace.json)";

const DEFAULT_TRACE: &str = "results/fleet_trace.json";

/// The recording config: bursty MMPP arrivals (25 s calm / 1 s storm
/// gaps, 400 s / 60 s sojourns), proportioned so every question the tool
/// answers has material in the trace. Few cells and many queries per tenant let nodes actually
/// warm (≈19 % cache-hit rate, so settlements carry `used_structures`
/// for the structure/blame queries), while the elastic controller still
/// drains and retires idle capacity through the calms (so `retire` has
/// something to explain). A crash-and-recover fault on node 3 rides
/// along so crash questions are answerable from the same trace: in
/// cell 0 the node dies at t=30 s and a replacement replays its journal
/// 60 s later; cell 1's controller has already drained and retired its
/// node 3 by t=10 s, so that cell's crash is a no-op. Runs in well
/// under a second — cheap enough for the CI selfcheck.
fn recording_config() -> FleetConfig {
    let mut config = FleetConfig::uniform(16, 4, 500, 1.0).with_arrivals(ArrivalKind::Mmpp {
        calm_gap_secs: 25.0,
        storm_gap_secs: 1.0,
        calm_sojourn_secs: 400.0,
        storm_sojourn_secs: 60.0,
    });
    config.scale_factor = 50.0;
    config.cells = 2;
    let config = config.with_faults(FaultPlan::new(20_000.0).with_crash_recover(3, 30.0, 60.0));
    config
        .with_elastic(ElasticConfig {
            review_interval_secs: 5.0,
            ewma_alpha: 0.3,
            scale_up_backlog: 4.0,
            scale_down_backlog: 0.25,
            max_response_secs: 0.0,
            min_nodes: 1,
            max_nodes: 4,
            cooldown_reviews: 4,
            drain_grace_secs: 60.0,
        })
        // The health plane rides along: a 60 s vitals cadence (the run
        // spans hours of simulated time) and a uniform SLO contract
        // tight enough that the storm phases burn real error budget —
        // so `explain slo` always has breaches and burn to narrate.
        .with_health(60.0)
        .with_slo(TenantSloSpec {
            p99_target_secs: 5.0,
            spend_cap: Some(Money::from_dollars(0.4)),
        })
}

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn load_trace(path: &str) -> Trace {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read trace {path}: {e}");
        eprintln!("(run `explain record` first)");
        std::process::exit(1);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("error: cannot parse trace {path}: {e}");
        std::process::exit(1);
    })
}

fn record(path: &str) {
    let (result, trace) = FleetSim::new(recording_config()).run_traced();
    let trace = Trace {
        label: "bursty elastic reference (SF 50, 16 tenants x 500 queries, 4 seed nodes, \
                node 3 crash-and-recover at t=30s)"
            .to_string(),
        events: trace.events,
        registry: trace.registry,
        slo: Some(result.slo.clone()),
        health: result.health.clone(),
    };
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    let json = serde_json::to_string(&trace).expect("trace serializes");
    match std::fs::write(path, json) {
        Ok(()) => println!(
            "(wrote {path}: {} events, {} registry entries, {} queries settled)",
            trace.events.len(),
            trace.registry.len(),
            result.queries
        ),
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn print_rows(rows: &[(String, BlameRow)]) {
    println!(
        "{:>16} {:>9} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "group", "queries", "payments($)", "profit($)", "exec($)", "build($)", "writeoff($)"
    );
    for (name, row) in rows {
        println!(
            "{name:>16} {:>9} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>12.6}",
            row.queries,
            row.payments.as_dollars(),
            row.profit.as_dollars(),
            row.exec.total().as_dollars(),
            row.build_spend.as_dollars(),
            row.write_off.as_dollars()
        );
    }
}

/// The node a crash record names.
fn crashed_node(event: &TraceEvent) -> Option<usize> {
    match event {
        TraceEvent::Fault(FaultRecord {
            event: FaultOutcome::Crash(c),
            ..
        }) => Some(c.node),
        _ => None,
    }
}

/// The node a retirement names.
fn retired_node(event: &TraceEvent) -> Option<usize> {
    match event {
        TraceEvent::NodeLifecycle(l) => match l.action {
            ElasticAction::Retire { node } => Some(node),
            _ => None,
        },
        _ => None,
    }
}

fn crash(node: usize, trace: &Trace) {
    match explain_crash(&trace.events, node) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("error: trace records no crash for node {node}");
            let crashed: Vec<usize> = trace.events.iter().filter_map(crashed_node).collect();
            eprintln!("(crashed nodes in this trace: {crashed:?})");
            std::process::exit(1);
        }
    }
}

fn retire(node: usize, trace: &Trace) {
    match explain_retirement(&trace.events, node) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!("error: trace records no retirement for node {node}");
            let retired: Vec<usize> = trace.events.iter().filter_map(retired_node).collect();
            eprintln!("(retired nodes in this trace: {retired:?})");
            std::process::exit(1);
        }
    }
}

/// The last simulated instant the trace knows about: the later of the
/// final settlement and the final vitals frame.
fn trace_horizon(trace: &Trace) -> f64 {
    let settled = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Settlement(s) => Some(s.at_secs),
            _ => None,
        })
        .fold(0.0_f64, f64::max);
    let framed = trace
        .health
        .as_ref()
        .and_then(|h| h.frames.last())
        .map_or(0.0, |f| f.at_secs);
    settled.max(framed)
}

fn slo_report(trace: &Trace) {
    let Some(ledger) = &trace.slo else {
        eprintln!("error: trace carries no SLO ledger (re-record with `explain record`)");
        std::process::exit(1);
    };
    println!(
        "{:>7} {:>8} {:>6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>11} {:>9} {:>6}",
        "tenant",
        "queries",
        "hit%",
        "p50(s)",
        "p99(s)",
        "target",
        "misses",
        "burn",
        "spend($)",
        "cap($)",
        "flags"
    );
    for r in &ledger.tenants {
        let hit_pct = if r.admitted == 0 {
            0.0
        } else {
            100.0 * r.cache_hits as f64 / r.admitted as f64
        };
        let target = r
            .slo
            .map_or("-".to_string(), |s| format!("{:.3}", s.p99_target_secs));
        let cap = r
            .slo
            .and_then(|s| s.spend_cap)
            .map_or("-".to_string(), |c| format!("{:.4}", c.as_dollars()));
        let burn = if r.slo.is_some() {
            format!("{:.2}", r.burn_rate())
        } else {
            "-".to_string()
        };
        let mut flags = String::new();
        if r.p99_breached() {
            flags.push('P');
        }
        if r.spend_cap_breached() {
            flags.push('$');
        }
        println!(
            "{:>7} {:>8} {:>6.1} {:>9.4} {:>9.4} {:>9} {:>7} {:>7} {:>11.6} {:>9} {:>6}",
            r.tenant,
            r.admitted,
            hit_pct,
            r.response.p50().unwrap_or(0.0),
            r.response.p99().unwrap_or(0.0),
            target,
            r.deadline_misses,
            burn,
            r.spend.as_dollars(),
            cap,
            flags
        );
    }
    println!(
        "({} queries admitted, {} tenants breaching; flags: P = p99 error budget, $ = spend cap)",
        ledger.total_admitted(),
        ledger.breaches().len()
    );
    for line in narrate_breaches(ledger) {
        println!("  {line}");
    }
    let alarms = detect_alarms(
        trace.health.as_ref(),
        ledger,
        trace_horizon(trace),
        &Baselines::default(),
    );
    if alarms.is_empty() {
        println!("drift alarms: none");
    } else {
        println!("drift alarms ({}):", alarms.len());
        for a in &alarms {
            println!(
                "  t={:>8.1}s log(e)={:.2} {}",
                a.at_secs, a.log_e_value, a.message
            );
        }
    }
}

fn top_report(trace: &Trace) {
    let Some(series) = &trace.health else {
        eprintln!(
            "error: trace carries no vitals frames (record with a health-enabled config \
             via `explain record`)"
        );
        std::process::exit(1);
    };
    println!(
        "{:>9} {:>8} {:>6} {:>10} {:>9} {:>11} {:>5} {:>5} {:>5} {:>7} {:>7} {:>11}",
        "t(s)",
        "queries",
        "hit%",
        "backlog(s)",
        "pressure",
        "cash($)",
        "live",
        "rout",
        "drain",
        "spawns",
        "retires",
        "writeoff($)"
    );
    for f in &series.frames {
        println!(
            "{:>9.1} {:>8} {:>6.1} {:>10.3} {:>9.3} {:>11.4} {:>5} {:>5} {:>5} {:>7} {:>7} {:>11.6}",
            f.at_secs,
            f.queries,
            100.0 * f.hit_rate(),
            f.backlog_secs,
            f.pressure_ewma,
            f.node_cash.as_dollars(),
            f.live_nodes,
            f.routable_nodes,
            f.draining_nodes,
            f.spawns,
            f.retires,
            f.write_off.as_dollars()
        );
    }
    println!(
        "({} frames at {:.1}s cadence)",
        series.frames.len(),
        series.interval_secs
    );
}

fn metrics_report(trace: &Trace) {
    print!(
        "{}",
        render_openmetrics(&trace.registry, trace.health.as_ref())
    );
}

/// The health-plane CI gate: the vitals scraper and SLO ledger must
/// never perturb the simulation.
fn health_check() {
    // 1. Snapshot-on vs snapshot-off bit-identity: the fingerprint
    //    excludes the health series itself, so any difference means the
    //    scraper leaked into the simulation.
    let on = FleetSim::new(recording_config()).run();
    let mut off_config = recording_config();
    off_config.health = None;
    for tenant in &mut off_config.tenants {
        tenant.slo = None;
    }
    let off = FleetSim::new(off_config).run();
    if fleet_fingerprint(&on) != fleet_fingerprint(&off) {
        eprintln!("error: snapshot-on run is not bit-identical to snapshot-off run");
        eprintln!("  on:  {}", fleet_fingerprint(&on));
        eprintln!("  off: {}", fleet_fingerprint(&off));
        std::process::exit(1);
    }
    println!("snapshot-on run bit-identical to snapshot-off run: OK");

    // 2. The SLO ledger must cross-foot with the run's own aggregates —
    //    same queries, same cache hits, same dollars, tenant by tenant.
    if on.slo.total_admitted() != on.queries {
        eprintln!(
            "error: SLO ledger admits {} queries, run served {}",
            on.slo.total_admitted(),
            on.queries
        );
        std::process::exit(1);
    }
    let ledger_spend: Money = on.slo.tenants.iter().map(|r| r.spend).sum();
    if ledger_spend != on.payments {
        eprintln!(
            "error: SLO ledger spend {ledger_spend} disagrees with run payments {}",
            on.payments
        );
        std::process::exit(1);
    }
    let ledger_hits: u64 = on.slo.tenants.iter().map(|r| r.cache_hits).sum();
    if ledger_hits != on.cache_hits {
        eprintln!(
            "error: SLO ledger counts {ledger_hits} cache hits, run counted {}",
            on.cache_hits
        );
        std::process::exit(1);
    }
    for (stats, record) in on.tenants.iter().zip(&on.slo.tenants) {
        if stats.tenant.0 != record.tenant
            || stats.queries != record.admitted
            || stats.payments != record.spend
            || stats.cache_hits != record.cache_hits
        {
            eprintln!(
                "error: tenant {} SLO record disagrees with TenantStats",
                record.tenant
            );
            std::process::exit(1);
        }
    }
    println!(
        "SLO ledger cross-foots with FleetResult ({} queries, {} over {} tenants): OK",
        on.queries,
        on.payments,
        on.slo.tenants.len()
    );

    // 3. Vitals frames must exist and land exactly on the cadence grid.
    let series = on.health.as_ref().unwrap_or_else(|| {
        eprintln!("error: health-enabled run produced no vitals series");
        std::process::exit(1);
    });
    if series.frames.is_empty() {
        eprintln!("error: vitals series is empty");
        std::process::exit(1);
    }
    for (i, frame) in series.frames.iter().enumerate() {
        #[allow(clippy::cast_precision_loss)]
        let expected = (i + 1) as f64 * series.interval_secs;
        if frame.at_secs.to_bits() != expected.to_bits() {
            eprintln!(
                "error: frame {i} sampled at {}s, expected the {expected}s grid instant",
                frame.at_secs
            );
            std::process::exit(1);
        }
    }
    let last = series.frames.last().expect("non-empty");
    if last.queries > on.queries {
        eprintln!("error: cumulative frame counters ran past the run total");
        std::process::exit(1);
    }
    println!(
        "vitals cadence on-grid ({} frames every {:.0}s, last at t={:.0}s): OK",
        series.frames.len(),
        series.interval_secs,
        last.at_secs
    );

    // 4. The OpenMetrics render must be well-formed enough to scrape:
    //    non-empty, EOF-terminated, and carrying the vitals gauges.
    let (_, fleet_trace) = FleetSim::new(recording_config()).run_traced();
    let text = render_openmetrics(&fleet_trace.registry, on.health.as_ref());
    if !text.ends_with("# EOF\n") || !text.contains("fleet_vitals_frames_total") {
        eprintln!("error: OpenMetrics render is malformed");
        std::process::exit(1);
    }
    println!(
        "OpenMetrics render well-formed ({} lines): OK",
        text.lines().count()
    );

    // 5. The drift detector must run clean over the reference trace —
    //    the e-process is for real drift, not for the healthy baseline.
    let alarms = detect_alarms(
        on.health.as_ref(),
        &on.slo,
        on.horizon_secs,
        &Baselines::default(),
    );
    println!(
        "drift detector over reference run: {} alarm(s)",
        alarms.len()
    );
    println!("explain health: OK");
}

fn selfcheck() {
    // 1. Bit-identity: the recorder must be a pure observer.
    let noop = FleetSim::new(recording_config()).run();
    let (traced, trace) = FleetSim::new(recording_config()).run_traced();
    if fleet_fingerprint(&noop) != fleet_fingerprint(&traced) {
        eprintln!("error: traced run is not bit-identical to the no-op-sink run");
        eprintln!("  noop:   {}", fleet_fingerprint(&noop));
        eprintln!("  traced: {}", fleet_fingerprint(&traced));
        std::process::exit(1);
    }
    println!("traced run bit-identical to no-op-sink run: OK");

    // 2. The registry must agree with the result's own aggregates.
    let reg = &trace.registry;
    if reg.counter("fleet.queries") != traced.queries
        || reg.gauge("fleet.payments") != traced.payments
        || reg.gauge("fleet.profit") != traced.profit
        || reg.counter("fleet.cache_hits") != traced.cache_hits
    {
        eprintln!("error: registry snapshot disagrees with FleetResult aggregates");
        std::process::exit(1);
    }
    println!("registry snapshot cross-foots with FleetResult aggregates: OK");

    // 3. A retirement question must be answerable: the recording config
    //    is sized so the controller retires at least one node.
    let retired = trace.events.iter().find_map(retired_node);
    let Some(node) = retired else {
        eprintln!("error: recording config produced no retirement to explain");
        std::process::exit(1);
    };
    let Some(answer) = explain_retirement(&trace.events, node) else {
        eprintln!("error: explain_retirement cannot answer for retired node {node}");
        std::process::exit(1);
    };
    println!("retirement query answerable (node {node}):");
    print!("{answer}");

    // 4. Blame rollups must cross-foot: every tenant's payments sum back
    //    to the run's total payments (no dollar lost or double-counted),
    //    and the per-resource decomposition sums to the exec spend.
    let by_tenant = blame(&trace.events, BlameKey::Tenant);
    let tenant_payments: Money = by_tenant.iter().map(|(_, r)| r.payments).sum();
    if tenant_payments != traced.payments {
        eprintln!(
            "error: per-tenant blame sums to {tenant_payments}, run collected {}",
            traced.payments
        );
        std::process::exit(1);
    }
    let by_node = blame(&trace.events, BlameKey::Node);
    let node_queries: u64 = by_node.iter().map(|(_, r)| r.queries).sum();
    if node_queries != traced.queries {
        eprintln!(
            "error: per-node blame covers {node_queries} settlements, run settled {}",
            traced.queries
        );
        std::process::exit(1);
    }
    let by_resource = blame(&trace.events, BlameKey::Resource);
    let exec_total: Money = by_resource.iter().map(|(_, r)| r.exec.total()).sum();
    if exec_total
        != reg.gauge("fleet.exec.cpu")
            + reg.gauge("fleet.exec.disk")
            + reg.gauge("fleet.exec.network")
            + reg.gauge("fleet.exec.io")
    {
        eprintln!("error: per-resource blame disagrees with the registry's exec gauges");
        std::process::exit(1);
    }
    println!(
        "blame rollups cross-foot: {} tenants / {} nodes / {} resource rows cover {} settlements and {} payments: OK",
        by_tenant.len(),
        by_node.len(),
        by_resource.len(),
        traced.queries,
        traced.payments
    );

    // 5. Structure attribution must be answerable: the recording config
    //    is warm enough that some winning plans ran on cached
    //    structures, and "who paid for S" must find their settlements.
    let Some(structure) = trace.events.iter().find_map(|e| match e {
        TraceEvent::Settlement(s) => s.used_structures.first().cloned(),
        _ => None,
    }) else {
        eprintln!("error: recording config produced no cache-run settlement to attribute");
        std::process::exit(1);
    };
    let payers = telemetry::structure_payers(&trace.events, &structure);
    if payers.is_empty() {
        eprintln!("error: structure `{structure}` was used but has no payers");
        std::process::exit(1);
    }
    println!(
        "structure attribution answerable: `{structure}` paid for by {} tenant/template groups: OK",
        payers.len()
    );

    // 6. Crash questions must be answerable: the recording config
    //    injects a crash-and-recover, so the trace carries a crash
    //    record and `explain crash` must narrate it — write-off, re-queue
    //    and reconciliation included.
    let Some(crashed) = trace.events.iter().find_map(crashed_node) else {
        eprintln!("error: recording config produced no crash to explain");
        std::process::exit(1);
    };
    let Some(answer) = explain_crash(&trace.events, crashed) else {
        eprintln!("error: explain_crash cannot answer for crashed node {crashed}");
        std::process::exit(1);
    };
    println!("crash query answerable (node {crashed}):");
    print!("{answer}");

    // 7. Written-off capital must cross-foot: the per-node blame
    //    rollups' write-off column sums to the registry's fault gauge —
    //    no lost dollar between the fault plane and the attribution.
    let node_write_off: Money = by_node.iter().map(|(_, r)| r.write_off).sum();
    if node_write_off != reg.gauge("fault.write_off") {
        eprintln!(
            "error: per-node blame writes off {node_write_off}, registry gauges {}",
            reg.gauge("fault.write_off")
        );
        std::process::exit(1);
    }
    let faults = traced.faults.as_ref().expect("faulted recording config");
    if faults.reconciled != faults.recoveries {
        eprintln!(
            "error: {} of {} recoveries reconciled in the recording run",
            faults.reconciled, faults.recoveries
        );
        std::process::exit(1);
    }
    println!(
        "crash write-offs cross-foot ({node_write_off} over {} crash(es)) and {} recover(ies) reconciled exactly: OK",
        faults.crashes, faults.recoveries
    );
    println!("explain selfcheck: OK");
}

/// Rejects trailing arguments a subcommand does not take: a mistyped
/// query must die with usage, not silently ignore the extra operand.
fn require_max_args(args: &[String], max: usize) {
    if args.len() > max {
        eprintln!("error: unexpected argument `{}`", args[max]);
        usage_exit();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = args.first() else {
        usage_exit();
    };
    match sub.as_str() {
        "record" => {
            require_max_args(&args, 2);
            let path = args.get(1).map_or(DEFAULT_TRACE, String::as_str);
            record(path);
        }
        "retire" | "crash" | "timeline" => {
            require_max_args(&args, 3);
            let Some(node) = args.get(1).and_then(|s| s.parse::<usize>().ok()) else {
                usage_exit();
            };
            let path = args.get(2).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            if sub == "retire" {
                retire(node, &trace);
            } else if sub == "crash" {
                crash(node, &trace);
            } else {
                let timeline = node_timeline(&trace.events, node);
                if timeline.is_empty() {
                    eprintln!("error: trace records no lifecycle transitions for node {node}");
                    std::process::exit(1);
                }
                for l in timeline {
                    println!(
                        "t={:>8.1}s cell {} {:<12} rule `{}` live={} routable={} booting={} draining={} backlog_ewma={:.3}",
                        l.at_secs,
                        l.cell,
                        l.action.label(),
                        l.rule,
                        l.live,
                        l.routable,
                        l.booting,
                        l.draining,
                        l.signals.backlog_ewma
                    );
                }
            }
        }
        "blame" => {
            require_max_args(&args, 3);
            let Some(key) = args.get(1).and_then(|s| BlameKey::parse(s)) else {
                usage_exit();
            };
            let path = args.get(2).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            let rows = blame(&trace.events, key);
            if rows.is_empty() {
                eprintln!("error: trace contains no settlements to blame");
                std::process::exit(1);
            }
            print_rows(&rows);
        }
        "structure" => {
            require_max_args(&args, 3);
            let Some(name) = args.get(1) else {
                usage_exit();
            };
            let path = args.get(2).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            let rows = telemetry::structure_payers(&trace.events, name);
            if rows.is_empty() {
                eprintln!("error: no settlement in the trace used structure `{name}`");
                let mut known: Vec<String> = trace
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::Settlement(s) => Some(s.used_structures.clone()),
                        _ => None,
                    })
                    .flatten()
                    .collect();
                known.sort();
                known.dedup();
                eprintln!("(structures used in this trace: {known:?})");
                std::process::exit(1);
            }
            print_rows(&rows);
        }
        "slo" | "top" | "metrics" => {
            require_max_args(&args, 2);
            let path = args.get(1).map_or(DEFAULT_TRACE, String::as_str);
            let trace = load_trace(path);
            if sub == "slo" {
                slo_report(&trace);
            } else if sub == "top" {
                top_report(&trace);
            } else {
                metrics_report(&trace);
            }
        }
        "selfcheck" => {
            require_max_args(&args, 1);
            selfcheck();
        }
        "health" => {
            require_max_args(&args, 1);
            health_check();
        }
        _ => usage_exit(),
    }
}

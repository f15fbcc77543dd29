//! Telemetry invariants — the flight recorder's two contracts:
//!
//! 1. **Registry algebra** (property-based): [`MetricsRegistry::merge`]
//!    is associative, commutative and partition-invariant — folding one
//!    operation stream through 1, 2, 4 or 8 shard-local registries and
//!    merging produces bit-identical snapshots, the same contract
//!    `CostBreakdown::merge` gives the economic aggregates. This is what
//!    makes a sharded traced run's registry a pure function of the
//!    config.
//! 2. **Pure observation** (integration): a traced fleet run is
//!    bit-identical to the no-op-sink run, and its event stream and
//!    registry are themselves invariant under the executor shard count;
//!    a run with the health plane attached (vitals scraper plus SLO
//!    specs) is bit-identical to the health-off run.
//! 3. **Snapshot/merge commutation** (property-based): serializing a
//!    registry to its JSON snapshot and back is transparent to `merge`
//!    — scraping shard partials and folding the snapshots equals
//!    snapshotting the fold.
//! 4. **SLO ledger algebra** (property-based): [`SloLedger::merge`] is
//!    associative and shard-count invariant, so per-tenant SLO records
//!    folded from any cell partitioning produce the same ledger.
//! 5. **Trace round-trip** (integration): a recorded [`Trace`] — the one
//!    type the workspace parses back from JSON, in `explain` — re-serializes
//!    byte for byte, and blame over the parsed events equals blame over
//!    the live ones.

use cloudcache::fleet::{FaultPlan, FleetConfig, FleetResult, FleetSim, RouterKind};
use cloudcache::pricing::Money;
use cloudcache::telemetry::{
    blame, BlameKey, FaultOutcome, FaultRecord, MetricsRegistry, SloLedger, TenantSloRecord,
    TenantSloSpec, Trace, TraceEvent,
};
use proptest::prelude::*;

/// Fixed name pools, one per metric kind — a name must keep one kind for
/// life (mixing kinds under one name is a programming error the registry
/// panics on), so ops address kind-homogeneous pools.
const COUNTERS: [&str; 3] = ["fleet.queries", "elastic.reviews", "router.full_rounds"];
const GAUGES: [&str; 3] = ["fleet.payments", "fleet.profit", "fleet.exec.cpu"];
const HISTOGRAMS: [&str; 2] = ["fleet.response_secs", "node.backlog_secs"];

/// One registry operation: `(kind, name, magnitude)` drawn from plain
/// integer strategies (kind 0 = counter add, 1 = gauge add, 2 = histogram
/// observation).
type Op = (u8, u8, u64);

fn apply(registry: &mut MetricsRegistry, ops: &[Op]) {
    for &(kind, name, value) in ops {
        match kind % 3 {
            0 => registry.counter_add(COUNTERS[name as usize % COUNTERS.len()], value),
            1 => registry.gauge_add(
                GAUGES[name as usize % GAUGES.len()],
                // Signed so gauges exercise refunds/negative deltas too.
                Money::from_nanos(i128::from(value) - i128::from(u64::MAX / 2)),
            ),
            _ => registry.observe(
                HISTOGRAMS[name as usize % HISTOGRAMS.len()],
                // Spread observations across several log-buckets,
                // including the underflow bucket at 0.
                (value % 10_000) as f64 / 100.0,
            ),
        }
    }
}

fn build(ops: &[Op]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    apply(&mut registry, ops);
    registry
}

fn merged(a: &MetricsRegistry, b: &MetricsRegistry) -> MetricsRegistry {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn registry_merge_is_commutative(
        a in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
        b in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
    ) {
        let (ra, rb) = (build(&a), build(&b));
        prop_assert_eq!(merged(&ra, &rb), merged(&rb, &ra));
    }

    /// merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn registry_merge_is_associative(
        a in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..40),
        b in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..40),
        c in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..40),
    ) {
        let (ra, rb, rc) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(
            merged(&merged(&ra, &rb), &rc),
            merged(&ra, &merged(&rb, &rc))
        );
    }

    /// Shard-count invariance: striding one operation stream across k
    /// shard-local registries (the executor's worker assignment) and
    /// merging in ascending shard order reproduces the 1-shard snapshot
    /// bit-for-bit, for every k the executor runs at.
    #[test]
    fn registry_merge_is_shard_count_invariant(
        ops in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..120),
    ) {
        let reference = build(&ops);
        for shards in [2usize, 4, 8] {
            let mut partials = vec![MetricsRegistry::new(); shards];
            for (i, op) in ops.iter().enumerate() {
                apply(&mut partials[i % shards], &[*op]);
            }
            let mut folded = MetricsRegistry::new();
            for partial in &partials {
                folded.merge(partial);
            }
            prop_assert_eq!(&folded, &reference, "shards = {}", shards);
        }
    }

    /// Snapshot/merge commutation: the registry's JSON snapshot is a
    /// faithful image, so scraping each shard partial and merging the
    /// deserialized snapshots equals snapshotting the live fold — the
    /// exporter can run on partials or on the fold without changing a
    /// bit.
    #[test]
    fn registry_snapshot_then_merge_equals_merge_then_snapshot(
        a in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
        b in prop::collection::vec((0u8..3, 0u8..4, 0u64..1_000_000), 0..60),
    ) {
        let roundtrip = |r: &MetricsRegistry| -> MetricsRegistry {
            serde_json::from_str(&serde_json::to_string(r).expect("serialize"))
                .expect("deserialize")
        };
        let (ra, rb) = (build(&a), build(&b));
        prop_assert_eq!(
            merged(&roundtrip(&ra), &roundtrip(&rb)),
            roundtrip(&merged(&ra, &rb))
        );
    }
}

/// Deterministic per-tenant SLO spec: even tenants carry one (with a
/// cap), odd tenants run unspecced — partials of one run can never
/// disagree on a spec, it is config.
fn spec_for(tenant: u32) -> Option<TenantSloSpec> {
    tenant.is_multiple_of(2).then(|| TenantSloSpec {
        p99_target_secs: 1.0 + f64::from(tenant),
        spend_cap: Some(Money::from_dollars(0.25)),
    })
}

/// One ledger operation: `(tenant, kind, magnitude)` — kind 0 serves a
/// query (response time, payment and hit flag derived from the
/// magnitude), kinds 1–3 bump the timeout / retry / fault-delay
/// counters.
type SloOp = (u8, u8, u64);

fn ledger(ops: &[SloOp]) -> SloLedger {
    let mut records: std::collections::BTreeMap<u32, TenantSloRecord> =
        std::collections::BTreeMap::new();
    for &(tenant, kind, value) in ops {
        let t = u32::from(tenant);
        let r = records
            .entry(t)
            .or_insert_with(|| TenantSloRecord::new(t, spec_for(t)));
        match kind % 4 {
            0 => r.record_served(
                (value % 2_000) as f64 / 100.0,
                Money::from_nanos(i128::from(value % 1_000_000)),
                value % 2 == 0,
            ),
            1 => r.timeouts += 1,
            2 => r.retries += 1,
            _ => r.fault_delays += 1,
        }
    }
    SloLedger::from_records(records.into_values().collect())
}

fn ledger_merged(a: &SloLedger, b: &SloLedger) -> SloLedger {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    /// Ledger merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), spend
    /// in exact money and histograms bucket-for-bucket.
    #[test]
    fn slo_ledger_merge_is_associative(
        a in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..40),
        b in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..40),
        c in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..40),
    ) {
        let (la, lb, lc) = (ledger(&a), ledger(&b), ledger(&c));
        prop_assert_eq!(
            ledger_merged(&ledger_merged(&la, &lb), &lc),
            ledger_merged(&la, &ledger_merged(&lb, &lc))
        );
    }

    /// Shard-count invariance: striding one serve stream across k
    /// shard-local ledgers and folding in ascending shard order
    /// reproduces the 1-shard ledger bit-for-bit — the contract that
    /// makes the fleet's SLO report independent of its cell
    /// partitioning.
    #[test]
    fn slo_ledger_merge_is_shard_count_invariant(
        ops in prop::collection::vec((0u8..6, 0u8..4, 0u64..1_000_000), 0..120),
    ) {
        let reference = ledger(&ops);
        for shards in [2usize, 4, 8] {
            let mut streams = vec![Vec::new(); shards];
            for (i, op) in ops.iter().enumerate() {
                streams[i % shards].push(*op);
            }
            let mut folded = SloLedger::new();
            for stream in &streams {
                folded.merge(&ledger(stream));
            }
            prop_assert_eq!(&folded, &reference, "shards = {}", shards);
        }
    }
}

fn traced_config(shards: usize) -> FleetConfig {
    let mut config = FleetConfig::mixed(12, 3, 80);
    config.scale_factor = 10.0;
    config.cells = 6;
    config.shards = shards;
    config.router = RouterKind::CheapestQuote;
    config
}

/// The flight recorder observes without perturbing: the traced run's
/// `FleetResult` matches the no-op-sink run field for field.
#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let untraced = FleetSim::new(traced_config(1)).run();
    let (traced, trace) = FleetSim::new(traced_config(1)).run_traced();
    assert_eq!(traced, untraced);
    assert!(!trace.events.is_empty(), "recorder captured the run");
    assert_eq!(
        trace.registry.counter("fleet.queries"),
        untraced.queries,
        "registry agrees with the result it observed"
    );
    assert_eq!(trace.registry.gauge("fleet.payments"), untraced.payments);
    assert_eq!(trace.registry.gauge("fleet.profit"), untraced.profit);
}

/// The event stream and registry are pure functions of the config: the
/// shard count reassigns cells to workers but cannot reorder, drop or
/// change a single event (cells are folded in ascending order).
#[test]
fn trace_is_invariant_under_shard_count() {
    let (reference_result, reference) = FleetSim::new(traced_config(1)).run_traced();
    for shards in [2usize, 4, 8] {
        let (result, trace) = FleetSim::new(traced_config(shards)).run_traced();
        assert_eq!(result, reference_result, "shards = {shards}");
        assert_eq!(trace.registry, reference.registry, "shards = {shards}");
        assert_eq!(trace.events, reference.events, "shards = {shards}");
    }
}

/// The health plane observes without perturbing: attaching the vitals
/// scraper and per-tenant SLO specs leaves every field of the result
/// bit-identical to the health-off run, apart from the vitals series
/// itself and the specs the SLO ledger carries, at 1 and 4 shards.
#[test]
fn health_plane_run_is_bit_identical_to_health_off() {
    for shards in [1usize, 4] {
        let off = FleetSim::new(traced_config(shards)).run();
        let on = FleetSim::new(
            traced_config(shards)
                .with_health(30.0)
                .with_slo(TenantSloSpec {
                    p99_target_secs: 10.0,
                    spend_cap: Some(Money::from_dollars(1.0)),
                }),
        )
        .run();
        let series = on.health.as_ref().expect("vitals series recorded");
        assert!(!series.frames.is_empty(), "shards = {shards}");
        assert_eq!(
            on.slo.total_admitted(),
            off.slo.total_admitted(),
            "shards = {shards}"
        );
        let observed = FleetResult {
            health: None,
            slo: off.slo.clone(),
            ..on
        };
        assert_eq!(observed, off, "shards = {shards}");
    }
}

/// A whole recorded trace survives JSON: the shared fixture with the
/// health plane attached and node 0 crashing at t = 30 s and recovering
/// 10 s later serializes, parses and serializes again to the same bytes,
/// and blame by node over the parsed events equals blame over the live
/// ones (crash write-offs included).
#[test]
fn trace_round_trips_through_json() {
    let config = traced_config(1)
        .with_health(30.0)
        .with_slo(TenantSloSpec {
            p99_target_secs: 10.0,
            spend_cap: Some(Money::from_dollars(1.0)),
        })
        .with_faults(FaultPlan::new(1_000.0).with_crash_recover(0, 30.0, 10.0));
    let (result, recorded) = FleetSim::new(config).run_traced();
    let live = Trace {
        label: "telemetry round-trip fixture".to_string(),
        events: recorded.events,
        registry: recorded.registry,
        slo: Some(result.slo),
        health: result.health,
    };
    assert!(live.health.is_some(), "vitals series recorded");
    let has = |pick: fn(&TraceEvent) -> bool| live.events.iter().any(pick);
    assert!(
        has(|e| matches!(
            e,
            TraceEvent::Fault(FaultRecord {
                event: FaultOutcome::Crash(_),
                ..
            })
        )) && has(|e| matches!(
            e,
            TraceEvent::Fault(FaultRecord {
                event: FaultOutcome::Recover(_),
                ..
            })
        )),
        "the fixture crashes and recovers a node"
    );

    let json = serde_json::to_string(&live).expect("trace serializes");
    let parsed: Trace = serde_json::from_str(&json).expect("trace parses");
    assert_eq!(
        serde_json::to_string(&parsed).expect("parsed trace serializes"),
        json
    );
    let by_node = blame(&live.events, BlameKey::Node);
    assert!(by_node.iter().any(|(_, row)| row.write_off.is_positive()));
    assert_eq!(blame(&parsed.events, BlameKey::Node), by_node);
}

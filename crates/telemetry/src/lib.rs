//! # telemetry — the fleet flight recorder
//!
//! The paper's whole argument is economic *attribution*: every cent of
//! operating cost and every second of response time traces back to a
//! priced decision — a quote (eq. 3), a settlement (eq. 11/13), an
//! investment, or a node lifecycle action (footnote 3's "rent one more
//! node" reasoning). This crate is the unified recorder for those
//! decisions:
//!
//! * [`event::TraceEvent`] — a typed event stream: quote-round outcomes,
//!   query settlements with per-resource cost deltas, and node lifecycle
//!   transitions (folding the elastic controller's `LedgerEntry` into the
//!   same stream).
//! * [`sink::TraceSink`] — where events go. The default [`sink::NoopSink`]
//!   reports itself disabled so instrumented code skips event assembly
//!   entirely; [`sink::RingSink`] keeps the last *N* events;
//!   [`sink::Recorder`] keeps everything for replay.
//! * [`registry::MetricsRegistry`] — named counters, exact [`pricing::Money`]
//!   gauges and log-histograms that merge across executor shards
//!   bit-identically (the same associativity contract as
//!   `CostBreakdown::merge`: every merge operation is exact integer
//!   addition, so aggregation order cannot change the result).
//! * [`explain`] — replay rollups over a recorded trace: why a node
//!   retired, which tenants/templates paid for a structure, and where
//!   the dollars went per tenant/template/structure/node/resource.
//!
//! The headline invariant: a run with tracing enabled is bit-identical to
//! one with the no-op sink. Instrumentation only *observes* — it never
//! feeds back into routing, quoting or settlement.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod explain;
pub mod health;
pub mod registry;
pub mod sink;

pub use event::{
    LifecyclePhase, NodeCrashEvent, NodeLifecycleEvent, NodeRecoverEvent, QueryRetryEvent,
    QuoteRoundEvent, SettlementEvent, TraceEvent,
};
pub use explain::{
    blame, explain_crash, explain_retirement, node_timeline, structure_payers, BlameKey, BlameRow,
};
pub use health::{
    detect_alarms, render_openmetrics, Alarm, AlarmKind, Baselines, HealthConfig, HealthSeries,
    SloLedger, TenantSloRecord, TenantSloSpec, VitalsFrame, P99_MISS_BUDGET,
};
pub use registry::{MetricValue, MetricsRegistry};
pub use sink::{NoopSink, Recorder, RingSink, TraceSink};

use serde::{Deserialize, Serialize};

/// A recorded run: the full event stream plus the merged registry
/// snapshot, as serialized by `bench --bin explain record` and replayed
/// by its query subcommands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Free-form label describing the run (scenario, scale, seed).
    pub label: String,
    /// Every event, in deterministic order (ascending cell, then
    /// per-cell arrival order).
    pub events: Vec<TraceEvent>,
    /// Registry snapshot merged across shards in ascending cell order.
    pub registry: MetricsRegistry,
    /// Per-tenant SLO ledger of the recorded run; `None` in traces
    /// recorded before the health plane existed (serde default).
    #[serde(default)]
    pub slo: Option<SloLedger>,
    /// Cadenced vitals frames of the recorded run; `None` when the run
    /// had no health config or the trace predates the health plane.
    #[serde(default)]
    pub health: Option<HealthSeries>,
}

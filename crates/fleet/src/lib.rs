//! # fleet — multi-tenant cache-fleet simulation with price-based routing
//!
//! The paper ("An Economic Model for Self-Tuned Cloud Caching", ICDE
//! 2009) models *one* cloud cache quoting prices `B_Q(t)` to its users.
//! This crate scales that economy out to a **marketplace**: a population
//! of tenants submits superposed query streams, several self-tuned cache
//! nodes compete to serve them, and a router decides who wins each query —
//! by rotation, by load, or by the nodes' own price quotes.
//!
//! ```text
//!  tenants (TenantSpec × N) ──heap-merge──▶ MergedStream
//!                                             │ time-ordered queries
//!                                             ▼
//!                                          Router ──quotes/load──▶ CacheNode × M
//!                                             │                      (each a full
//!                                             ▼                       CachePolicy)
//!                                        FleetResult  ◀─merge()─  per-cell partials
//! ```
//!
//! * [`tenant`] — [`TenantSpec`] populations and the binary-heap
//!   superposition ([`MergedStream`]).
//! * [`elastic`] — the economy-driven control plane: an EWMA pressure
//!   signal drives node spawn/drain/retire decisions on a deterministic
//!   review cadence, every decision explained in a ledger
//!   ([`ElasticController`], [`NodePopulation`], [`LedgerEntry`]).
//! * [`router`] — the [`Router`] trait with [`RoundRobin`],
//!   [`LeastOutstanding`] and [`CheapestQuote`] strategies; the latter
//!   extends the paper's economy into a competitive market where the node
//!   bidding the lowest `B_Q(t)` wins the query.
//! * [`node`] — [`CacheNode`]: one policy plus its accounting and backlog
//!   clock.
//! * [`exec`] — the sharded executor: tenants partition into cells, cells
//!   run on worker threads, and the merge is shard-count invariant (an
//!   8-core run is bit-identical to a 1-core run). Each cell is a
//!   [`Cell`] driven through named phases: control-plane advance,
//!   capacity wait, health scrape, route, serve and record.
//! * [`result`] — mergeable rollups: [`FleetResult`] with per-tenant and
//!   per-node accounting.
//! * [`slo`] — reporting glue over the per-tenant SLO ledger the executor
//!   maintains (the ledger types live in `telemetry::health`): worst-
//!   tenant pickers and breach narration for `explain slo`.
//!
//! Start with [`FleetConfig::uniform`] and [`run_fleet`], or the
//! `fleet_market` example.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod elastic;
pub mod exec;
pub mod faults;
pub mod node;
pub mod result;
pub mod retry;
pub mod router;
pub mod slo;
pub mod tenant;

pub use config::FleetConfig;
pub use elastic::{
    ElasticAction, ElasticConfig, ElasticController, ElasticSummary, LedgerEntry, NodePopulation,
    PressureSignals,
};
pub use exec::{effective_quote_threads, run_fleet, Cell, FleetSim, FleetTrace, Route};
pub use faults::{
    CascadeSpec, CrashPhase, CrashRecord, CrashSpec, DegradeSpec, FaultGroup, FaultInjector,
    FaultOutcome, FaultPlan, FaultRecord, FaultSummary, ReconcileDrift, RecoverRecord, SurgeSpec,
};
pub use node::{CacheNode, NodeSpec};
pub use result::{FleetResult, NodeStats, TenantStats};
pub use retry::RetryPolicy;
pub use router::{
    CheapestQuote, LeastOutstanding, QuoteOptions, QuoteRounds, RoundRobin, Router, RouterKind,
};
pub use slo::{
    narrate_breaches, worst_burn_rate, SloLedger, TenantSloRecord, TenantSloSpec, P99_MISS_BUDGET,
};
pub use tenant::{MergedStream, TenantId, TenantSpec, TenantStream};

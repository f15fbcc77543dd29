//! Typed trace events.
//!
//! Each event is a flat, owned record — no references into simulator
//! state — so a recorded stream serializes losslessly and replays
//! without the simulator. Events carry cell and arrival-time keys; the
//! executor emits them in deterministic order (ascending cell, then
//! per-cell arrival order), so two runs of the same config produce
//! byte-identical streams.

use metrics::CostBreakdown;
use pricing::Money;
use serde::{Deserialize, Serialize};

/// One quote round: the fleet router asked every routable node to price a
/// query (the paper's eq. 3 bid) and picked a winner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuoteRoundEvent {
    /// Fleet cell the round ran in.
    pub cell: usize,
    /// Simulated arrival time, seconds.
    pub at_secs: f64,
    /// Tenant issuing the query.
    pub tenant: u32,
    /// Workload template that produced the query.
    pub template: usize,
    /// Workload-wide query sequence number.
    pub query: u64,
    /// Node id of the winning bidder.
    pub winner: usize,
    /// The winning bid, when the routing strategy quotes (strategies
    /// like round-robin route without pricing).
    pub winning_quote: Option<Money>,
    /// How many nodes were routable (quoted) this round.
    pub routable: usize,
}

/// One query settlement: the winning node executed the query and the
/// books were balanced — the tenant's payment (eq. 11 pricing), the
/// node's profit, and the cloud's per-resource execution spend (eq. 9/13
/// cost deltas).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SettlementEvent {
    /// Fleet cell the query ran in.
    pub cell: usize,
    /// Simulated arrival time, seconds.
    pub at_secs: f64,
    /// Paying tenant.
    pub tenant: u32,
    /// Workload template that produced the query.
    pub template: usize,
    /// Workload-wide query sequence number.
    pub query: u64,
    /// Node that served the query.
    pub node: usize,
    /// Wall-clock response time, seconds.
    pub response_secs: f64,
    /// True when served from cached structures rather than the backend.
    pub ran_in_cache: bool,
    /// What the tenant paid (eq. 11).
    pub payment: Money,
    /// Node profit after costs (payment minus exec + amortization).
    pub profit: Money,
    /// Per-resource execution cost booked this step (eq. 9 backend or
    /// cache I/O; CPU uptime and disk rent accrue separately).
    pub exec: CostBreakdown,
    /// Structure-build spending triggered by this query's revenue.
    pub build_spend: Money,
    /// Cached structures the winning plan actually used (display form of
    /// `cache::StructureKey`); empty for backend runs.
    pub used_structures: Vec<String>,
    /// Structures built on the back of this query.
    pub investments: u32,
    /// Structures evicted to make room.
    pub evictions: u32,
}

/// Node lifecycle transition kinds, mirroring the elastic controller's
/// `ElasticAction` (plus `Hold` for explainable no-ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LifecyclePhase {
    /// A new node was spawned (begins booting).
    Spawn,
    /// A node stopped accepting queries and began draining.
    DrainBegin,
    /// A drained node was removed and its books settled.
    Retire,
    /// A review ran and decided to do nothing.
    Hold,
}

impl LifecyclePhase {
    /// Stable lower-case label (used in explain output).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            LifecyclePhase::Spawn => "spawn",
            LifecyclePhase::DrainBegin => "drain-begin",
            LifecyclePhase::Retire => "retire",
            LifecyclePhase::Hold => "hold",
        }
    }
}

/// One node lifecycle transition, folding the elastic controller's
/// `LedgerEntry` (rule + population counts + pressure signals) into the
/// unified event stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLifecycleEvent {
    /// Fleet cell the review ran in.
    pub cell: usize,
    /// Simulated review time, seconds.
    pub at_secs: f64,
    /// Transition kind.
    pub phase: LifecyclePhase,
    /// The node acted on (`None` for holds).
    pub node: Option<usize>,
    /// The controller rule that fired (e.g. `backlog-pressure`,
    /// `drain-insolvent`, `cooldown`).
    pub rule: String,
    /// Caching scheme a spawned node runs (empty otherwise).
    pub scheme: String,
    /// Live nodes at review time.
    pub live: usize,
    /// Routable (booted, non-draining) nodes at review time.
    pub routable: usize,
    /// Nodes still booting.
    pub booting: usize,
    /// Nodes draining toward retirement.
    pub draining: usize,
    /// Instantaneous backlog (queries queued across live nodes).
    pub backlog: f64,
    /// Smoothed backlog pressure (EWMA).
    pub backlog_ewma: f64,
    /// Mean response time over the review window, seconds.
    pub window_response_secs: f64,
    /// Fleet profit rate over the window, dollars/second.
    pub profit_rate: f64,
    /// Fleet regret rate over the window, dollars/second.
    pub regret_rate: f64,
}

/// One injected node crash, settled: the fault plane removed the node at
/// a configured instant, charged its eq. 11 uptime and eq. 13 disk-rent
/// integrals up to that instant, and wrote its invested build capital
/// off as a ledgered loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCrashEvent {
    /// Fleet cell the crash fired in.
    pub cell: usize,
    /// Simulated crash instant, seconds.
    pub at_secs: f64,
    /// The crashed node's id.
    pub node: usize,
    /// Lifecycle phase at the instant (`active`, `mid-boot`, `mid-drain`).
    pub phase: String,
    /// Queries the node had served.
    pub queries: u64,
    /// Payments it had collected.
    pub payments: Money,
    /// Profit it had accumulated.
    pub profit: Money,
    /// Operating cost settled at the crash instant (eq. 11 + eq. 13).
    pub operating: Money,
    /// Invested build capital written off (structures + boot).
    pub write_off: Money,
    /// Cascade generation (0 for planned crashes).
    #[serde(default)]
    pub cascade_depth: u32,
    /// Cache disk occupied when the node died (bytes).
    pub disk_bytes: u64,
    /// In-flight backlog re-queued onto a survivor, seconds
    /// (post-penalty).
    pub requeued_secs: f64,
    /// The survivor that absorbed the backlog, if any was routable.
    pub requeued_to: Option<usize>,
    /// True when a replay-recovery is scheduled for this crash.
    pub recover_planned: bool,
}

/// One completed crash-recovery: a replacement node was reconstructed by
/// replaying the crashed node's settlement journal into a fresh economy,
/// cross-footed exactly against the pre-crash books.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeRecoverEvent {
    /// Fleet cell the recovery fired in.
    pub cell: usize,
    /// Simulated recovery instant, seconds.
    pub at_secs: f64,
    /// The node whose ledger was replayed.
    pub crashed: usize,
    /// The replacement node's fresh id.
    pub replacement: usize,
    /// Eq. 10 boot capital charged to the replacement.
    pub boot_cost: Money,
    /// When the replacement becomes routable, seconds.
    pub ready_at_secs: f64,
    /// Journal length replayed.
    pub replayed_queries: u64,
    /// True when the replayed balances reconciled with zero drift.
    pub reconciled: bool,
}

/// One deadline-budgeted retry: a query routed at a degraded winner
/// backed off deterministically, burned part of its budget headroom, and
/// re-routed to the next-best node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRetryEvent {
    /// Fleet cell the retry fired in.
    pub cell: usize,
    /// Simulated arrival time of the query, seconds.
    pub at_secs: f64,
    /// Tenant issuing the query.
    pub tenant: u32,
    /// Workload template that produced the query.
    pub template: usize,
    /// Workload-wide query sequence number.
    pub query: u64,
    /// The degraded node the retry abandoned.
    pub from_node: usize,
    /// The node the retry re-routed to.
    pub to_node: usize,
    /// Retry number (1-based).
    pub attempt: u32,
    /// Backoff charged before this retry, seconds.
    pub backoff_secs: f64,
    /// The query's budget scale after this retry's decay (1.0 means the
    /// headroom is gone and the plan has downgraded to backend pricing).
    pub budget_scale: f64,
}

/// A single flight-recorder event.
///
/// Externally tagged on serialization (`{"QuoteRound": {...}}`), so a
/// trace file is self-describing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A routing quote round concluded.
    QuoteRound(QuoteRoundEvent),
    /// A query settled.
    Settlement(SettlementEvent),
    /// A node changed lifecycle state.
    NodeLifecycle(NodeLifecycleEvent),
    /// An injected crash settled a node's books.
    NodeCrash(NodeCrashEvent),
    /// A crashed node was reconstructed by ledger replay.
    NodeRecover(NodeRecoverEvent),
    /// A query retried away from a degraded winner.
    QueryRetry(QueryRetryEvent),
}

impl TraceEvent {
    /// Fleet cell the event belongs to.
    #[must_use]
    pub fn cell(&self) -> usize {
        match self {
            TraceEvent::QuoteRound(e) => e.cell,
            TraceEvent::Settlement(e) => e.cell,
            TraceEvent::NodeLifecycle(e) => e.cell,
            TraceEvent::NodeCrash(e) => e.cell,
            TraceEvent::NodeRecover(e) => e.cell,
            TraceEvent::QueryRetry(e) => e.cell,
        }
    }

    /// Simulated time of the event, seconds.
    #[must_use]
    pub fn at_secs(&self) -> f64 {
        match self {
            TraceEvent::QuoteRound(e) => e.at_secs,
            TraceEvent::Settlement(e) => e.at_secs,
            TraceEvent::NodeLifecycle(e) => e.at_secs,
            TraceEvent::NodeCrash(e) => e.at_secs,
            TraceEvent::NodeRecover(e) => e.at_secs,
            TraceEvent::QueryRetry(e) => e.at_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let q = TraceEvent::QuoteRound(QuoteRoundEvent {
            cell: 3,
            at_secs: 1.5,
            tenant: 7,
            template: 2,
            query: 11,
            winner: 0,
            winning_quote: Some(Money::from_dollars(0.25)),
            routable: 4,
        });
        assert_eq!(q.cell(), 3);
        assert!((q.at_secs() - 1.5).abs() < 1e-12);
        let l = TraceEvent::NodeLifecycle(NodeLifecycleEvent {
            cell: 1,
            at_secs: 9.0,
            phase: LifecyclePhase::Retire,
            node: Some(5),
            rule: "drain-grace".into(),
            scheme: String::new(),
            live: 2,
            routable: 2,
            booting: 0,
            draining: 0,
            backlog: 0.0,
            backlog_ewma: 0.0,
            window_response_secs: 0.0,
            profit_rate: 0.0,
            regret_rate: 0.0,
        });
        assert_eq!(l.cell(), 1);
        assert_eq!(LifecyclePhase::Retire.label(), "retire");
        let r = TraceEvent::QueryRetry(QueryRetryEvent {
            cell: 0,
            at_secs: 7.0,
            tenant: 1,
            template: 4,
            query: 99,
            from_node: 2,
            to_node: 0,
            attempt: 1,
            backoff_secs: 2.0,
            budget_scale: 1.25,
        });
        assert_eq!(r.cell(), 0);
        assert!((r.at_secs() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn crash_events_without_cascade_depth_still_deserialize() {
        let json = r#"{"cell":0,"at_secs":10.0,"node":1,"phase":"active",
            "queries":5,"payments":100,"profit":10,"operating":50,
            "write_off":25,"disk_bytes":1024,"requeued_secs":0.5,
            "requeued_to":2,"recover_planned":false}"#;
        let back: NodeCrashEvent = serde_json::from_str(json).unwrap();
        assert_eq!(back.cascade_depth, 0);
    }
}

//! Typed trace events.
//!
//! Each event is an owned record — no references into simulator state —
//! so a recorded stream serializes losslessly and replays without the
//! simulator. Events carry cell and arrival-time keys; the executor
//! emits them in deterministic order (ascending cell, then per-cell
//! arrival order), so two runs of the same config produce byte-identical
//! streams.
//!
//! The control plane's records are defined here and nowhere else: the
//! elastic controller's [`LedgerEntry`] and the fault injector's
//! [`FaultRecord`] are both the fleet's own ledgers (the `fleet` crate
//! re-exports them) and the payloads of [`TraceEvent::NodeLifecycle`]
//! and [`TraceEvent::Fault`].

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

/// The pressure signals one elastic review evaluated — recorded verbatim
/// in the ledger so every decision is explainable after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PressureSignals {
    /// Mean outstanding backlog per routable node (seconds), raw.
    pub backlog: f64,
    /// EWMA-smoothed backlog — the value the thresholds compare against.
    pub backlog_ewma: f64,
    /// Mean delivered response time over the window since the previous
    /// review (seconds) — the simulated stand-in for quote-round latency.
    pub window_response_secs: f64,
    /// Fleet-cell profit accrual rate over the window ($/s).
    pub profit_rate: f64,
    /// Fleet-cell regret accrual rate over the window ($/s); negative
    /// when investment or retirement cleared more regret than accrued.
    pub regret_rate: f64,
}

/// What a ledgered elastic review decided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ElasticAction {
    /// No population change.
    Hold,
    /// A node was spawned (booting; routable once the boot completes).
    ScaleUp {
        /// The new node's id (unique within its cell).
        node: usize,
        /// Scheme of the cloned template.
        scheme: String,
    },
    /// A node stopped receiving traffic and began draining.
    DrainBegin {
        /// The draining node's id.
        node: usize,
    },
    /// A drained node was settled and removed from the population.
    Retire {
        /// The retired node's id.
        node: usize,
    },
}

impl ElasticAction {
    /// Stable lower-case label (explain output).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ElasticAction::Hold => "hold",
            ElasticAction::ScaleUp { .. } => "spawn",
            ElasticAction::DrainBegin { .. } => "drain-begin",
            ElasticAction::Retire { .. } => "retire",
        }
    }

    /// The node acted on (`None` for holds).
    #[must_use]
    pub fn node(&self) -> Option<usize> {
        match self {
            ElasticAction::Hold => None,
            ElasticAction::ScaleUp { node, .. }
            | ElasticAction::DrainBegin { node }
            | ElasticAction::Retire { node } => Some(*node),
        }
    }
}

/// One explainable control-plane decision: the signal values the review
/// saw, the rule that fired, and the action taken. The elastic
/// controller's ledger holds these, and the flight recorder emits each
/// one as it is as a [`TraceEvent::NodeLifecycle`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Cell whose controller made the decision.
    pub cell: usize,
    /// Simulated instant of the review.
    pub at_secs: f64,
    /// Nodes alive (routable + booting + draining) at the review.
    pub live: usize,
    /// Of those, routable.
    pub routable: usize,
    /// Of those, booting (spawned, boot not yet complete).
    pub booting: usize,
    /// Of those, draining.
    pub draining: usize,
    /// Name of the rule that fired (`backlog-pressure`, `idle-capacity`,
    /// `cooldown`, `within-band`, `drain-insolvent`, …).
    pub rule: String,
    /// The action taken.
    pub action: ElasticAction,
    /// The signals the rule evaluated.
    pub signals: PressureSignals,
}

/// The lifecycle phase a node was in when it crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPhase {
    /// Booted, routable, serving traffic.
    Active,
    /// Spawned but the eq. 10 boot had not completed.
    MidBoot,
    /// Draining toward voluntary retirement when the crash pre-empted it.
    MidDrain,
}

impl CrashPhase {
    /// Stable lower-case label (explain output).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CrashPhase::Active => "active",
            CrashPhase::MidBoot => "mid-boot",
            CrashPhase::MidDrain => "mid-drain",
        }
    }
}

/// The settlement of one injected crash: the fault plane removed the node
/// at a configured instant, charged its eq. 11 uptime and eq. 13
/// disk-rent integrals up to that instant, and wrote its invested build
/// capital off as a ledgered loss.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashRecord {
    /// The crashed node's id.
    pub node: usize,
    /// Lifecycle phase at the crash instant.
    pub phase: CrashPhase,
    /// Queries the node had served.
    pub queries: u64,
    /// Payments it had collected.
    pub payments: Money,
    /// Profit it had accumulated.
    pub profit: Money,
    /// Operating cost settled at the crash instant — eq. 11 uptime and
    /// the eq. 13 disk byte-seconds integral, charged up to the instant.
    pub operating: Money,
    /// Invested build capital (structures + boot) written off as a loss:
    /// the node's whole `build_spend`, to the nanodollar.
    pub write_off: Money,
    /// Cascade generation: 0 for planned crashes, `d + 1` for crashes
    /// triggered by a depth-`d` crash.
    pub cascade_depth: u32,
    /// Cache disk occupied when the node died (bytes).
    pub disk_bytes: u64,
    /// Seconds of in-flight backlog re-queued (post-penalty).
    pub requeued_secs: f64,
    /// Survivor the backlog was re-queued onto (`None` if no routable
    /// node remained at the instant).
    pub requeued_to: Option<usize>,
    /// True when a replay-recovery is scheduled for this crash.
    pub recover_planned: bool,
}

/// Exact differences between a replayed ledger and the pre-crash
/// snapshot; all-zero when the recovery reconciled.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconcileDrift {
    /// Replayed − snapshot query count.
    pub queries: i64,
    /// Replayed − snapshot payments.
    pub payments: Money,
    /// Replayed − snapshot profit.
    pub profit: Money,
    /// Replayed − snapshot cache hits.
    pub cache_hits: i64,
    /// Replayed − snapshot account balance.
    pub balance: Money,
    /// Replayed − snapshot accrued regret.
    pub regret: Money,
    /// Replayed − snapshot disk occupancy (bytes).
    pub disk_bytes: i64,
}

impl ReconcileDrift {
    /// True when every component is exactly zero — the ledger replay
    /// reproduced the crashed node's economics bit for bit.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.queries == 0
            && self.payments == Money::ZERO
            && self.profit == Money::ZERO
            && self.cache_hits == 0
            && self.balance == Money::ZERO
            && self.regret == Money::ZERO
            && self.disk_bytes == 0
    }
}

/// One completed crash-recovery: a replacement node was reconstructed by
/// replaying the crashed node's settlement journal into a fresh economy,
/// cross-footed exactly against the pre-crash books.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverRecord {
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
    /// Replay-vs-snapshot reconciliation result.
    pub drift: ReconcileDrift,
}

/// What one fault event did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// A node crashed and was settled.
    Crash(CrashRecord),
    /// A crashed node was reconstructed by ledger replay.
    Recover(RecoverRecord),
}

/// One ledgered fault event. The fault injector's ledger holds these,
/// and the flight recorder emits each one as it is as a
/// [`TraceEvent::Fault`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Cell the event fired in (each cell applies the plan to its own
    /// fleet replica).
    pub cell: usize,
    /// Simulated instant, seconds.
    pub at_secs: f64,
    /// What happened.
    pub event: FaultOutcome,
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
    /// An elastic review decided (a spawn, drain, retirement or hold).
    NodeLifecycle(LedgerEntry),
    /// An injected crash settled a node's books, or a crashed node was
    /// reconstructed by ledger replay.
    Fault(FaultRecord),
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
            TraceEvent::Fault(e) => e.cell,
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
            TraceEvent::Fault(e) => e.at_secs,
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
        let l = TraceEvent::NodeLifecycle(entry(1, ElasticAction::Retire { node: 5 }));
        assert_eq!(l.cell(), 1);
        assert!((l.at_secs() - 9.0).abs() < 1e-12);
        let f = TraceEvent::Fault(FaultRecord {
            cell: 2,
            at_secs: 40.0,
            event: FaultOutcome::Recover(recover()),
        });
        assert_eq!(f.cell(), 2);
        assert!((f.at_secs() - 40.0).abs() < 1e-12);
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

    fn entry(cell: usize, action: ElasticAction) -> LedgerEntry {
        LedgerEntry {
            cell,
            at_secs: 9.0,
            live: 2,
            routable: 2,
            booting: 0,
            draining: 0,
            rule: "drain-grace".into(),
            action,
            signals: PressureSignals {
                backlog: 0.5,
                backlog_ewma: 0.25,
                window_response_secs: 1.5,
                profit_rate: -0.001,
                regret_rate: 0.0,
            },
        }
    }

    fn recover() -> RecoverRecord {
        RecoverRecord {
            crashed: 1,
            replacement: 4,
            boot_cost: Money::from_dollars(0.2),
            ready_at_secs: 60.0,
            replayed_queries: 12,
            drift: ReconcileDrift::default(),
        }
    }

    #[test]
    fn action_labels_and_nodes() {
        let spawn = ElasticAction::ScaleUp {
            node: 3,
            scheme: "econ-cheap".into(),
        };
        assert_eq!((spawn.label(), spawn.node()), ("spawn", Some(3)));
        let drain = ElasticAction::DrainBegin { node: 4 };
        assert_eq!((drain.label(), drain.node()), ("drain-begin", Some(4)));
        let retire = ElasticAction::Retire { node: 5 };
        assert_eq!((retire.label(), retire.node()), ("retire", Some(5)));
        assert_eq!(
            (ElasticAction::Hold.label(), ElasticAction::Hold.node()),
            ("hold", None)
        );
        assert_eq!(CrashPhase::MidDrain.label(), "mid-drain");
    }

    /// Every control-plane event shape survives JSON: unit, struct and
    /// newtype variants alike.
    #[test]
    fn control_plane_events_round_trip_through_json() {
        let events = vec![
            TraceEvent::NodeLifecycle(entry(0, ElasticAction::Hold)),
            TraceEvent::NodeLifecycle(entry(
                1,
                ElasticAction::ScaleUp {
                    node: 3,
                    scheme: "econ-cheap".into(),
                },
            )),
            TraceEvent::Fault(FaultRecord {
                cell: 1,
                at_secs: 30.0,
                event: FaultOutcome::Crash(CrashRecord {
                    node: 1,
                    phase: CrashPhase::MidBoot,
                    queries: 5,
                    payments: Money::from_dollars(1.0),
                    profit: Money::from_dollars(0.1),
                    operating: Money::from_dollars(0.5),
                    write_off: Money::from_dollars(0.25),
                    cascade_depth: 1,
                    disk_bytes: 1024,
                    requeued_secs: 0.5,
                    requeued_to: None,
                    recover_planned: true,
                }),
            }),
            TraceEvent::Fault(FaultRecord {
                cell: 1,
                at_secs: 40.0,
                event: FaultOutcome::Recover(recover()),
            }),
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<TraceEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
    }
}

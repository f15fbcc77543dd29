//! The deterministic fault-injection plane.
//!
//! Every scenario the fleet measured before this module ran on
//! well-behaved nodes: the paper's economy prices graceful lifecycles —
//! boot capital (eq. 10), uptime rent (eq. 11), disk rent (eq. 13),
//! insolvency-driven retirement (footnote 3) — but no node was ever lost
//! involuntarily. A [`FaultPlan`] closes that gap declaratively:
//!
//! * **Crashes** remove a node at a configured instant, whatever its
//!   lifecycle phase (active, mid-boot, mid-drain). The crash *settles*
//!   the node's books at that instant — uptime and the exact disk
//!   byte-seconds integral are charged as usual — and the capital sunk
//!   into its structures (`build_spend`) is ledgered as a **write-off**:
//!   invested, never to earn again. In-flight backlog is re-queued onto
//!   the lowest-id routable survivor, scaled by a penalty.
//! * **Crash-and-recover** additionally journals every `(instant, query)`
//!   the doomed node serves and, at the recovery instant, replays those
//!   serves into a freshly built policy. Because `process_query` is a
//!   deterministic function of policy state and the `(query, time)`
//!   sequence, the replay must reproduce the crashed node's economics
//!   *exactly*; the reconciliation check cross-foots replayed payments,
//!   profit, cache hits, account balance, regret, and disk occupancy
//!   against the pre-crash snapshot and records any drift. The replayed
//!   span's disk rent was already settled at the crash, so the recovered
//!   policy's occupancy integral is re-based at the recovery instant
//!   (see `policies::CachePolicy::rebase_occupancy`).
//! * **Degradations** slow a node's delivered responses by a multiplier
//!   inside a window; with a timeout configured, quote rounds that pick
//!   a degraded node whose backlog exceeds the timeout re-route to the
//!   next-best candidate — or, with a [`RetryPolicy`] configured, run a
//!   deadline-budgeted retry loop with deterministic backoff charged
//!   against the query's remaining budget headroom.
//! * **Surges** (flash crowds) compress the arrival processes inside
//!   windows via `workload::SurgeOverlay`.
//! * **Fault groups** ([`FaultPlan::with_group`]: one [`CrashSpec`]
//!   naming several nodes) crash them at one instant, rack-failure
//!   style; a [`CascadeSpec`] lets every crash raise per-survivor
//!   follow-on crash probability from the run's deterministic RNG, so
//!   cascades stay a pure function of config.
//!
//! A crash, planned or cascading, writes off the node's whole invested
//! capital: `CrashRecord::write_off` equals its `build_spend` to the
//! nanodollar. A drained node retires with its structures.
//!
//! **Determinism stays the contract.** Faults are part of the config:
//! injection instants are simulated time, every decision is a pure
//! function of simulated state, and each cell applies the same plan to
//! its private fleet replica — so fault-injected runs remain bit-identical
//! across shard counts (`tests/fleet_faults.rs` pins this).
//!
//! Injection instants are processed when the first arrival at or after
//! them is served; instants past the run's last arrival never fire.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use catalog::Schema;
use planner::{ExecRows, PlannerContext};
use pricing::{Money, ResourceRates};
use serde::Serialize;
use simcore::{SimRng, SimTime};
use simulator::make_policy;
use workload::Query;

use crate::elastic::NodePopulation;
use crate::node::{CacheNode, NodeSpec};
use crate::retry::RetryPolicy;

/// Stream-domain separator folded into the run seed for cascade draws, so
/// the fault plane's RNG never collides with workload or tenant streams.
const CASCADE_STREAM_SALT: u64 = 0xFA17_CA5C_ADE0_0001;

/// One scheduled crash: one seed node, or several lost at one instant
/// rack-style (compiled to per-node crash events sharing it).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrashSpec {
    /// Seed node ids (indices into `FleetConfig::nodes`) to crash
    /// together (non-empty, unique).
    pub nodes: Vec<usize>,
    /// Simulated instant of the crash, seconds.
    pub at_secs: f64,
    /// When set, every crashed node is reconstructed by ledger replay
    /// this many seconds after the crash.
    pub recover_after_secs: Option<f64>,
}

/// Correlated follow-on crashes: every crash raises each survivor's
/// probability of crashing `delay_secs` later, drawn from the run's
/// deterministic RNG — a cascade is a pure function of the config.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CascadeSpec {
    /// Per-survivor follow-on crash probability after a depth-0 crash,
    /// in `[0, 1]`.
    pub probability: f64,
    /// Multiplier applied to the probability per cascade depth, in
    /// `(0, 1]` — depth `d` crashes propagate at `probability × decay^d`.
    pub decay: f64,
    /// Seconds between a crash and the follow-on crashes it triggers
    /// (> 0, so a cascade never re-enters the same instant).
    pub delay_secs: f64,
    /// Maximum cascade depth (≥ 1): depth-`max_depth` crashes trigger no
    /// further follow-ons.
    pub max_depth: u32,
}

impl CascadeSpec {
    /// Validates the spec (named-field error messages).
    ///
    /// # Errors
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.probability.is_finite() || !(0.0..=1.0).contains(&self.probability) {
            return Err(format!(
                "cascade.probability {} must be in [0, 1]",
                self.probability
            ));
        }
        if !self.decay.is_finite() || self.decay <= 0.0 || self.decay > 1.0 {
            return Err(format!("cascade.decay {} must be in (0, 1]", self.decay));
        }
        if !self.delay_secs.is_finite() || self.delay_secs <= 0.0 {
            return Err(format!(
                "cascade.delay_secs {} must be positive",
                self.delay_secs
            ));
        }
        if self.max_depth < 1 {
            return Err("cascade.max_depth must be at least 1".into());
        }
        Ok(())
    }
}

/// One scheduled degradation window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegradeSpec {
    /// Seed node id to degrade.
    pub node: usize,
    /// Window start, seconds.
    pub from_secs: f64,
    /// Window end (exclusive), seconds.
    pub until_secs: f64,
    /// Response-time multiplier inside the window (≥ 1).
    pub slowdown: f64,
}

/// One flash-crowd surge window layered on every tenant's arrivals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SurgeSpec {
    /// Surge start, seconds.
    pub at_secs: f64,
    /// Surge duration, seconds.
    pub duration_secs: f64,
    /// Arrival-density multiplier inside the window (≥ 1).
    pub boost: f64,
}

/// A declarative, validated fault plan — part of the fleet config, so a
/// faulted run stays a pure function of its config.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Scheduled crashes (at most one per seed node).
    pub crashes: Vec<CrashSpec>,
    /// Deterministic follow-on crash propagation layered on every crash.
    pub cascade: Option<CascadeSpec>,
    /// Deadline-budgeted retry for queries routed at degraded winners
    /// (replaces the single timeout re-route when set).
    pub retry: Option<RetryPolicy>,
    /// Scheduled degradation windows.
    pub degradations: Vec<DegradeSpec>,
    /// Flash-crowd surge windows.
    pub surges: Vec<SurgeSpec>,
    /// Fraction of a crashed node's outstanding backlog re-queued onto
    /// the lowest-id routable survivor (≥ 0; 1 transfers it whole, the
    /// excess over 1 modelling re-dispatch overhead).
    pub requeue_penalty: f64,
    /// Per-query timeout: a quote round whose winner is degraded *and*
    /// has at least this much outstanding backlog re-routes to the
    /// next-best node (0 disables).
    pub timeout_secs: f64,
    /// The horizon every instant in this plan must fall inside, seconds.
    /// Validation is against this declared horizon; instants the actual
    /// run never reaches simply never fire.
    pub horizon_secs: f64,
}

impl FaultPlan {
    /// An empty plan bounded by `horizon_secs`.
    #[must_use]
    pub fn new(horizon_secs: f64) -> Self {
        FaultPlan {
            crashes: Vec::new(),
            cascade: None,
            retry: None,
            degradations: Vec::new(),
            surges: Vec::new(),
            requeue_penalty: 1.0,
            timeout_secs: 0.0,
            horizon_secs,
        }
    }

    /// Builder style: crash every node in `nodes` together at `at_secs`
    /// (rack failure), no recovery.
    #[must_use]
    pub fn with_group(mut self, nodes: Vec<usize>, at_secs: f64) -> Self {
        self.crashes.push(CrashSpec {
            nodes,
            at_secs,
            recover_after_secs: None,
        });
        self
    }

    /// Builder style: deterministic follow-on crash propagation — every
    /// crash gives each survivor a `probability × decay^depth` chance of
    /// crashing `delay_secs` later, to at most `max_depth` generations.
    #[must_use]
    pub fn with_cascade(
        mut self,
        probability: f64,
        decay: f64,
        delay_secs: f64,
        max_depth: u32,
    ) -> Self {
        self.cascade = Some(CascadeSpec {
            probability,
            decay,
            delay_secs,
            max_depth,
        });
        self
    }

    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Returns the plan unchanged: crashes and
    /// drains write off, nothing is evacuated.
    #[must_use]
    pub fn with_evacuation(self, _warning_secs: f64, _on_drain: bool) -> Self {
        self
    }

    /// Builder style: deadline-budgeted retry for degraded winners.
    #[must_use]
    pub fn with_retry(
        mut self,
        max_attempts: u32,
        backoff_secs: f64,
        backoff_factor: f64,
        budget_decay: f64,
    ) -> Self {
        self.retry = Some(RetryPolicy {
            max_attempts,
            backoff_secs,
            backoff_factor,
            budget_decay,
        });
        self
    }

    /// Builder style: crash `node` at `at_secs`, no recovery.
    #[must_use]
    pub fn with_crash(self, node: usize, at_secs: f64) -> Self {
        self.with_group(vec![node], at_secs)
    }

    /// Builder style: crash `node` at `at_secs` and replay-recover it
    /// `recover_after_secs` later.
    #[must_use]
    pub fn with_crash_recover(
        mut self,
        node: usize,
        at_secs: f64,
        recover_after_secs: f64,
    ) -> Self {
        self.crashes.push(CrashSpec {
            nodes: vec![node],
            at_secs,
            recover_after_secs: Some(recover_after_secs),
        });
        self
    }

    /// Builder style: degrade `node` over `[from_secs, until_secs)`.
    #[must_use]
    pub fn with_degrade(
        mut self,
        node: usize,
        from_secs: f64,
        until_secs: f64,
        slowdown: f64,
    ) -> Self {
        self.degradations.push(DegradeSpec {
            node,
            from_secs,
            until_secs,
            slowdown,
        });
        self
    }

    /// Builder style: a flash-crowd surge.
    #[must_use]
    pub fn with_surge(mut self, at_secs: f64, duration_secs: f64, boost: f64) -> Self {
        self.surges.push(SurgeSpec {
            at_secs,
            duration_secs,
            boost,
        });
        self
    }

    /// Builder style: per-query timeout for degraded winners.
    #[must_use]
    pub fn with_timeout(mut self, timeout_secs: f64) -> Self {
        self.timeout_secs = timeout_secs;
        self
    }

    /// Validates the plan against a fleet with `n_seed_nodes` seed nodes.
    ///
    /// # Errors
    /// Returns a named-field message for the first invalid entry:
    /// out-of-horizon instants, unknown node ids, duplicate crashes for
    /// one node (which is what an overlapping crash/recover window is —
    /// a crashed id never returns, its replacement gets a fresh id),
    /// overlapping degradation windows per node, and overlapping surges.
    pub fn validate(&self, n_seed_nodes: usize) -> Result<(), String> {
        if !self.horizon_secs.is_finite() || self.horizon_secs <= 0.0 {
            return Err("horizon_secs must be positive".into());
        }
        if !self.requeue_penalty.is_finite() || self.requeue_penalty < 0.0 {
            return Err("requeue_penalty must be non-negative".into());
        }
        if !self.timeout_secs.is_finite() || self.timeout_secs < 0.0 {
            return Err("timeout_secs must be non-negative (0 disables)".into());
        }
        let mut crashed = std::collections::HashSet::new();
        for (i, c) in self.crashes.iter().enumerate() {
            if c.nodes.is_empty() {
                return Err(format!("crashes[{i}].nodes must not be empty"));
            }
            if !c.at_secs.is_finite() || c.at_secs <= 0.0 || c.at_secs >= self.horizon_secs {
                return Err(format!(
                    "crashes[{i}].at_secs {} must be within (0, horizon_secs)",
                    c.at_secs
                ));
            }
            if let Some(after) = c.recover_after_secs {
                if !after.is_finite() || after <= 0.0 {
                    return Err(format!(
                        "crashes[{i}].recover_after_secs {after} must be positive"
                    ));
                }
                if c.at_secs + after >= self.horizon_secs {
                    return Err(format!(
                        "crashes[{i}]: recovery at {} falls outside horizon_secs",
                        c.at_secs + after
                    ));
                }
            }
            for &node in &c.nodes {
                if node >= n_seed_nodes {
                    return Err(format!(
                        "crashes[{i}].nodes: {node} is not a seed node (fleet has {n_seed_nodes})"
                    ));
                }
                if !crashed.insert(node) {
                    return Err(format!(
                        "crashes[{i}].nodes: node {node} already crashes \
                         (crash/recover windows overlap; one crash per node)"
                    ));
                }
            }
        }
        if crashed.len() >= n_seed_nodes {
            return Err("crashes must leave at least one seed node alive".into());
        }
        if let Some(c) = &self.cascade {
            c.validate()?;
        }
        if let Some(r) = &self.retry {
            r.validate()?;
        }
        for (i, d) in self.degradations.iter().enumerate() {
            if d.node >= n_seed_nodes {
                return Err(format!(
                    "degradations[{i}].node {} is not a seed node (fleet has {n_seed_nodes})",
                    d.node
                ));
            }
            if !d.from_secs.is_finite()
                || !d.until_secs.is_finite()
                || d.from_secs < 0.0
                || d.from_secs >= d.until_secs
                || d.until_secs > self.horizon_secs
            {
                return Err(format!(
                    "degradations[{i}]: window [{}, {}) must be non-empty within [0, horizon_secs]",
                    d.from_secs, d.until_secs
                ));
            }
            if !d.slowdown.is_finite() || d.slowdown < 1.0 {
                return Err(format!(
                    "degradations[{i}].slowdown {} must be at least 1",
                    d.slowdown
                ));
            }
            for (j, e) in self.degradations.iter().enumerate().take(i) {
                if e.node == d.node && d.from_secs < e.until_secs && e.from_secs < d.until_secs {
                    return Err(format!(
                        "degradations[{i}] overlaps degradations[{j}] on node {}",
                        d.node
                    ));
                }
            }
        }
        for (i, s) in self.surges.iter().enumerate() {
            if !s.at_secs.is_finite()
                || s.at_secs < 0.0
                || !s.duration_secs.is_finite()
                || s.duration_secs <= 0.0
                || s.at_secs + s.duration_secs > self.horizon_secs
            {
                return Err(format!(
                    "surges[{i}]: window [{}, {}) must be non-empty within [0, horizon_secs]",
                    s.at_secs,
                    s.at_secs + s.duration_secs
                ));
            }
            if !s.boost.is_finite() || s.boost < 1.0 {
                return Err(format!("surges[{i}].boost {} must be at least 1", s.boost));
            }
            for (j, p) in self.surges.iter().enumerate().take(i) {
                if s.at_secs < p.at_secs + p.duration_secs
                    && p.at_secs < s.at_secs + s.duration_secs
                {
                    return Err(format!("surges[{i}] overlaps surges[{j}]"));
                }
            }
        }
        Ok(())
    }

    /// The surge windows as sorted `(start, end, boost)` tuples — the
    /// form `workload::SurgeOverlay` consumes.
    #[must_use]
    pub fn surge_windows(&self) -> Vec<(f64, f64, f64)> {
        let mut w: Vec<(f64, f64, f64)> = self
            .surges
            .iter()
            .map(|s| (s.at_secs, s.at_secs + s.duration_secs, s.boost))
            .collect();
        w.sort_by(|a, b| a.0.total_cmp(&b.0));
        w
    }

    /// The degradation windows for one seed node, sorted `(from, until,
    /// slowdown)`.
    #[must_use]
    pub fn degrade_windows(&self, node: usize) -> Vec<(f64, f64, f64)> {
        let mut w: Vec<(f64, f64, f64)> = self
            .degradations
            .iter()
            .filter(|d| d.node == node)
            .map(|d| (d.from_secs, d.until_secs, d.slowdown))
            .collect();
        w.sort_by(|a, b| a.0.total_cmp(&b.0));
        w
    }
}

/// The lifecycle phase a node was in when it crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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

/// The settlement of one crash: what the node had earned, what it was
/// charged at the crash instant, and what capital was written off.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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

/// One completed replay-recovery.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultOutcome {
    /// A node crashed and was settled.
    Crash(CrashRecord),
    /// A crashed node was reconstructed by ledger replay.
    Recover(RecoverRecord),
}

/// One ledgered fault event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultRecord {
    /// Cell the event fired in (each cell applies the plan to its own
    /// fleet replica).
    pub cell: usize,
    /// Simulated instant, seconds.
    pub at_secs: f64,
    /// What happened.
    pub event: FaultOutcome,
}

/// Mergeable rollup of one run's fault activity.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FaultSummary {
    /// Crashes injected across cells.
    pub crashes: u64,
    /// Replay-recoveries completed across cells.
    pub recoveries: u64,
    /// Of those, recoveries whose reconciliation drift was exactly zero.
    pub reconciled: u64,
    /// Degraded-winner timeouts that re-routed a query.
    pub timeouts: u64,
    /// Build capital written off across all crashes: the sum of the
    /// per-crash `CrashRecord::write_off`.
    pub write_off: Money,
    /// Backlog seconds re-queued across all crashes (post-penalty).
    pub requeued_secs: f64,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Always zero: nothing is evacuated.
    pub salvaged: Money,
    /// Deadline-budgeted retries the router executed.
    pub retries: u64,
    /// Crashes triggered by cascade propagation (depth ≥ 1).
    pub cascade_crashes: u64,
    /// Deepest cascade generation reached (0 when no cascade fired).
    pub max_cascade_depth: u32,
    /// Every fault event, ascending `(cell, at_secs)` (cells fold in
    /// ascending order).
    pub records: Vec<FaultRecord>,
}

impl FaultSummary {
    /// Merges another cell's summary (callers merge in ascending cell
    /// order, keeping the records sorted and the floats bit-stable).
    pub fn merge(&mut self, other: &FaultSummary) {
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.reconciled += other.reconciled;
        self.timeouts += other.timeouts;
        self.write_off += other.write_off;
        self.requeued_secs += other.requeued_secs;
        self.retries += other.retries;
        self.cascade_crashes += other.cascade_crashes;
        self.max_cascade_depth = self.max_cascade_depth.max(other.max_cascade_depth);
        self.records.extend(other.records.iter().cloned());
    }
}

/// Pre-crash economics snapshot the recovery replay must reproduce.
struct CrashSnapshot {
    queries: u64,
    payments: Money,
    profit: Money,
    cache_hits: u64,
    balance: Money,
    regret: Money,
    disk_bytes: u64,
}

/// A compiled fault event awaiting its instant.
struct FaultEvent {
    at: f64,
    /// Crashes order before recoveries on instant ties (rank 0 / 1),
    /// then by node id — a total, deterministic order.
    rank: u8,
    node: usize,
    recover_after: Option<f64>,
    /// Cascade generation (0 for planned events).
    depth: u32,
}

const RANK_CRASH: u8 = 0;
const RANK_RECOVER: u8 = 1;

/// One cell's fault-injection engine: the compiled event list, the
/// served-query journals of doomed nodes, and the fault ledger.
pub struct FaultInjector {
    cell: usize,
    timeout_secs: f64,
    requeue_penalty: f64,
    cascade: Option<CascadeSpec>,
    retry: Option<RetryPolicy>,
    /// Cascade draws: forked per cell from the run seed, consumed in the
    /// deterministic event order — a pure function of the config.
    rng: SimRng,
    events: Vec<FaultEvent>,
    next: usize,
    /// Nodes with a pending crash event (planned or cascade-scheduled):
    /// never cascade re-targets.
    doomed: BTreeSet<usize>,
    /// Serve journals, keyed by seed node id: every `(instant, query)`
    /// the node served. Only nodes with a scheduled recovery are
    /// journaled (keys are pre-seeded so the hot path is one hash probe).
    journals: HashMap<usize, Vec<(SimTime, Query)>>,
    snapshots: HashMap<usize, CrashSnapshot>,
    specs: Vec<NodeSpec>,
    econ: econ::EconConfig,
    schema: Arc<Schema>,
    crashes: u64,
    recoveries: u64,
    reconciled: u64,
    timeouts: u64,
    write_off: Money,
    requeued_secs: f64,
    retries: u64,
    cascade_crashes: u64,
    max_cascade_depth: u32,
    records: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Compiles a validated plan for one cell of a fleet whose seed
    /// nodes are `specs`. `seed` is the run seed — cascade draws fork a
    /// per-cell stream off it, keeping faulted runs pure functions of
    /// their config.
    #[must_use]
    pub fn new(
        plan: &FaultPlan,
        specs: &[NodeSpec],
        econ: econ::EconConfig,
        schema: Arc<Schema>,
        cell: usize,
        seed: u64,
    ) -> Self {
        let mut events = Vec::new();
        let mut journals = HashMap::new();
        let mut doomed = BTreeSet::new();
        let planned = plan.crashes.iter().flat_map(|c| {
            c.nodes
                .iter()
                .map(move |&n| (n, c.at_secs, c.recover_after_secs))
        });
        for (node, at_secs, recover_after_secs) in planned {
            events.push(FaultEvent {
                at: at_secs,
                rank: RANK_CRASH,
                node,
                recover_after: recover_after_secs,
                depth: 0,
            });
            doomed.insert(node);
            if let Some(after) = recover_after_secs {
                events.push(FaultEvent {
                    at: at_secs + after,
                    rank: RANK_RECOVER,
                    node,
                    recover_after: None,
                    depth: 0,
                });
                journals.insert(node, Vec::new());
            }
        }
        events.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.rank.cmp(&b.rank))
                .then(a.node.cmp(&b.node))
        });
        let mut root = SimRng::new(seed ^ CASCADE_STREAM_SALT);
        FaultInjector {
            cell,
            timeout_secs: plan.timeout_secs,
            requeue_penalty: plan.requeue_penalty,
            cascade: plan.cascade,
            retry: plan.retry,
            rng: root.fork(cell as u64),
            events,
            next: 0,
            doomed,
            journals,
            snapshots: HashMap::new(),
            specs: specs.to_vec(),
            econ,
            schema,
            crashes: 0,
            recoveries: 0,
            reconciled: 0,
            timeouts: 0,
            write_off: Money::ZERO,
            requeued_secs: 0.0,
            retries: 0,
            cascade_crashes: 0,
            max_cascade_depth: 0,
            records: Vec::new(),
        }
    }

    /// The per-query timeout for degraded winners (0 disables).
    #[must_use]
    pub fn timeout_secs(&self) -> f64 {
        self.timeout_secs
    }

    /// The deadline-budgeted retry policy, when the plan configured one.
    #[must_use]
    pub fn retry(&self) -> Option<&RetryPolicy> {
        self.retry.as_ref()
    }

    /// The instant of the next unprocessed event, due or not (a
    /// scheduled recovery can end a total outage — the executor's
    /// outage wait advances queries to it).
    #[must_use]
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|e| SimTime::from_secs(e.at))
    }

    /// The instant of the next unprocessed event due at or before `now`.
    #[must_use]
    pub fn next_due(&self, now: SimTime) -> Option<SimTime> {
        self.events
            .get(self.next)
            .filter(|e| e.at <= now.as_secs())
            .map(|e| SimTime::from_secs(e.at))
    }

    /// Journals one served query for nodes awaiting recovery. Call after
    /// every serve with the winning node's id — a single hash probe for
    /// nodes that are not doomed.
    pub fn note_served(&mut self, node: usize, now: SimTime, query: &Query) {
        if let Some(journal) = self.journals.get_mut(&node) {
            journal.push((now, query.clone()));
        }
    }

    /// Counts one degraded-winner timeout re-route.
    pub fn note_timeout(&mut self) {
        self.timeouts += 1;
    }

    /// Counts one deadline-budgeted retry.
    pub fn note_retry(&mut self) {
        self.retries += 1;
    }

    /// Processes the next due event (callers loop on [`Self::next_due`]).
    ///
    /// # Panics
    /// Panics if no event is pending (guard with [`Self::next_due`]).
    pub fn process_next(
        &mut self,
        pop: &mut NodePopulation,
        ctx: &PlannerContext<'_>,
        rates: &ResourceRates,
    ) {
        let event = &self.events[self.next];
        self.next += 1;
        let at = SimTime::from_secs(event.at);
        let node = event.node;
        let recover_after = event.recover_after;
        let depth = event.depth;
        match event.rank {
            RANK_CRASH => self.crash(pop, rates, node, at, recover_after.is_some(), depth),
            _ => self.recover(pop, ctx, node, at),
        }
    }

    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Does nothing: a draining node retires
    /// with its structures.
    pub fn sweep_draining(
        &mut self,
        _pop: &mut NodePopulation,
        _ctx: &PlannerContext<'_>,
        _now: SimTime,
    ) {
    }

    /// Crashes node `node` at `at`: settle, write off, re-queue, and
    /// schedule cascade follow-ons. A node the control
    /// plane already retired is a deterministic no-op.
    fn crash(
        &mut self,
        pop: &mut NodePopulation,
        rates: &ResourceRates,
        node: usize,
        at: SimTime,
        recover_planned: bool,
        depth: u32,
    ) {
        self.doomed.remove(&node);
        let Some(idx) = pop.live().iter().position(|n| n.id() == node) else {
            // Already drained and retired by the elastic control plane —
            // nothing left to crash (and nothing to recover later).
            self.journals.remove(&node);
            return;
        };
        let live = &pop.live()[idx];
        let phase = if live.drain_since().is_some() {
            CrashPhase::MidDrain
        } else if at < live.ready_at() {
            CrashPhase::MidBoot
        } else {
            CrashPhase::Active
        };
        let outstanding = live.outstanding(at);
        let (balance, regret) = live
            .economy()
            .map(|m| (m.account().balance(), m.regret().total()))
            .unwrap_or((Money::ZERO, Money::ZERO));

        let (id, run) = pop.crash(idx, rates, at);
        debug_assert_eq!(id, node);
        // The whole invested capital is lost: `write_off == build_spend`.
        let write_off = run.build_spend;
        if recover_planned {
            self.snapshots.insert(
                node,
                CrashSnapshot {
                    queries: run.queries,
                    payments: run.payments,
                    profit: run.profit,
                    cache_hits: run.cache_hits,
                    balance,
                    regret,
                    disk_bytes: run.final_disk_bytes,
                },
            );
        }
        let record = CrashRecord {
            node,
            phase,
            queries: run.queries,
            payments: run.payments,
            profit: run.profit,
            operating: run.operating.total(),
            write_off,
            cascade_depth: depth,
            disk_bytes: run.final_disk_bytes,
            requeued_secs: 0.0,
            requeued_to: None,
            recover_planned,
        };

        // Deterministic re-queue: the lowest-id routable survivor absorbs
        // the dead node's in-flight work, scaled by the penalty.
        let requeue = outstanding * self.requeue_penalty;
        let mut record = record;
        if requeue > 0.0 {
            let survivor = pop
                .live_mut()
                .iter_mut()
                .filter(|n| n.routable(at))
                .min_by_key(|n| n.id());
            if let Some(survivor) = survivor {
                survivor.add_backlog(at, requeue);
                record.requeued_secs = requeue;
                record.requeued_to = Some(survivor.id());
                self.requeued_secs += requeue;
            }
        }
        self.crashes += 1;
        self.write_off += write_off;
        if depth > 0 {
            self.cascade_crashes += 1;
            self.max_cascade_depth = self.max_cascade_depth.max(depth);
        }
        self.records.push(FaultRecord {
            cell: self.cell,
            at_secs: at.as_secs(),
            event: FaultOutcome::Crash(record),
        });
        self.schedule_cascade(pop, at, depth);
    }

    /// Draws follow-on crashes for the survivors of a depth-`depth`
    /// crash. Survivors are visited in ascending node-id order and the
    /// RNG is consumed once per eligible survivor, so the cascade is a
    /// pure function of the config; at least one non-doomed node is
    /// always left standing, and cascade crashes get no recovery (nobody
    /// planned for them).
    fn schedule_cascade(&mut self, pop: &NodePopulation, at: SimTime, depth: u32) {
        let Some(cascade) = self.cascade else { return };
        if depth >= cascade.max_depth {
            return;
        }
        let p = cascade.probability * cascade.decay.powi(depth as i32);
        if p <= 0.0 {
            return;
        }
        let mut survivors: Vec<usize> = pop.live().iter().map(CacheNode::id).collect();
        survivors.sort_unstable();
        let mut standing = survivors
            .iter()
            .filter(|id| !self.doomed.contains(id))
            .count();
        let follow_at = at.as_secs() + cascade.delay_secs;
        for id in survivors {
            if standing <= 1 {
                break;
            }
            if self.doomed.contains(&id) {
                continue;
            }
            if !self.rng.gen_bool(p) {
                continue;
            }
            let event = FaultEvent {
                at: follow_at,
                rank: RANK_CRASH,
                node: id,
                recover_after: None,
                depth: depth + 1,
            };
            let pos = self.events[self.next..]
                .iter()
                .position(|e| {
                    follow_at
                        .total_cmp(&e.at)
                        .then(RANK_CRASH.cmp(&e.rank))
                        .then(id.cmp(&e.node))
                        .is_lt()
                })
                .map_or(self.events.len(), |p| self.next + p);
            self.events.insert(pos, event);
            self.doomed.insert(id);
            standing -= 1;
        }
    }

    /// Reconstructs crashed node `node` at `at` by replaying its journal
    /// into a fresh policy, reconciling against the pre-crash snapshot,
    /// and booting the replacement.
    fn recover(
        &mut self,
        pop: &mut NodePopulation,
        ctx: &PlannerContext<'_>,
        node: usize,
        at: SimTime,
    ) {
        let Some(snapshot) = self.snapshots.remove(&node) else {
            return; // the crash itself was a no-op
        };
        let journal = self.journals.remove(&node).unwrap_or_default();

        let mut policy = make_policy(&self.specs[node].scheme, &self.schema, &self.econ);
        let mut payments = Money::ZERO;
        let mut profit = Money::ZERO;
        let mut cache_hits = 0u64;
        let mut exec = ExecRows::new();
        for (t, q) in &journal {
            if policy.economy().is_some() {
                exec.fill(ctx, q);
            }
            let o = policy.process_query(ctx, q, &exec, *t);
            payments += o.payment;
            profit += o.profit;
            cache_hits += u64::from(o.ran_in_cache);
        }
        let replayed = journal.len() as u64;
        let (balance, regret) = policy
            .economy()
            .map(|m| (m.account().balance(), m.regret().total()))
            .unwrap_or((Money::ZERO, Money::ZERO));
        let drift = ReconcileDrift {
            queries: replayed as i64 - snapshot.queries as i64,
            payments: payments - snapshot.payments,
            profit: profit - snapshot.profit,
            cache_hits: cache_hits as i64 - snapshot.cache_hits as i64,
            balance: balance - snapshot.balance,
            regret: regret - snapshot.regret,
            disk_bytes: policy.disk_used() as i64 - snapshot.disk_bytes as i64,
        };
        // The replayed span's disk rent was settled when the crashed
        // node's books closed; the replacement pays rent from here on.
        policy.rebase_occupancy(at);

        let (boot_cost, boot_time) = ctx.estimator.build_node();
        let replacement = pop.next_id();
        let ready_at = at + boot_time;
        let fresh = CacheNode::from_policy(replacement, policy, at, ready_at, boot_cost);
        pop.admit(fresh, at);

        self.recoveries += 1;
        if drift.is_zero() {
            self.reconciled += 1;
        }
        self.records.push(FaultRecord {
            cell: self.cell,
            at_secs: at.as_secs(),
            event: FaultOutcome::Recover(RecoverRecord {
                crashed: node,
                replacement,
                boot_cost,
                ready_at_secs: ready_at.as_secs(),
                replayed_queries: replayed,
                drift,
            }),
        });
    }

    /// The fault ledger so far (the executor's flight recorder diffs this
    /// to fold new records into the trace stream).
    #[must_use]
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }

    /// Capital written off so far (the health plane's vitals snapshots
    /// sample this mid-run).
    #[must_use]
    pub fn write_off_so_far(&self) -> Money {
        self.write_off
    }

    /// Consumes the injector into the cell's summary.
    #[must_use]
    pub fn into_summary(self) -> FaultSummary {
        FaultSummary {
            crashes: self.crashes,
            recoveries: self.recoveries,
            reconciled: self.reconciled,
            timeouts: self.timeouts,
            write_off: self.write_off,
            requeued_secs: self.requeued_secs,
            retries: self.retries,
            cascade_crashes: self.cascade_crashes,
            max_cascade_depth: self.max_cascade_depth,
            records: self.records,
            ..FaultSummary::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(100.0)
    }

    #[test]
    fn empty_plan_validates() {
        assert!(plan().validate(3).is_ok());
    }

    #[test]
    fn crash_fields_are_validated_by_name() {
        let err = plan().with_crash(5, 10.0).validate(3).unwrap_err();
        assert!(err.contains("crashes[0].node"), "{err}");

        let err = plan().with_crash(0, 100.0).validate(3).unwrap_err();
        assert!(err.contains("crashes[0].at_secs"), "{err}");

        let err = plan().with_crash(0, 0.0).validate(3).unwrap_err();
        assert!(err.contains("crashes[0].at_secs"), "{err}");

        let err = plan()
            .with_crash_recover(0, 10.0, -1.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("crashes[0].recover_after_secs"), "{err}");

        let err = plan()
            .with_crash_recover(0, 60.0, 50.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("outside horizon"), "{err}");
    }

    #[test]
    fn overlapping_crash_recover_windows_are_rejected() {
        let err = plan()
            .with_crash_recover(1, 10.0, 20.0)
            .with_crash(1, 40.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("crashes[1].nodes: node 1"), "{err}");
        assert!(err.contains("overlap"), "{err}");
    }

    #[test]
    fn crashing_every_seed_node_is_rejected() {
        let err = plan()
            .with_crash(0, 10.0)
            .with_crash(1, 20.0)
            .validate(2)
            .unwrap_err();
        assert!(err.contains("at least one seed node"), "{err}");
    }

    #[test]
    fn degrade_fields_are_validated_by_name() {
        let err = plan()
            .with_degrade(7, 0.0, 10.0, 2.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("degradations[0].node"), "{err}");

        let err = plan()
            .with_degrade(0, 10.0, 10.0, 2.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("degradations[0]"), "{err}");

        let err = plan()
            .with_degrade(0, 0.0, 10.0, 0.5)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("degradations[0].slowdown"), "{err}");

        let err = plan()
            .with_degrade(0, 0.0, 10.0, 2.0)
            .with_degrade(0, 5.0, 15.0, 3.0)
            .validate(3)
            .unwrap_err();
        assert!(
            err.contains("degradations[1] overlaps degradations[0]"),
            "{err}"
        );

        // Same windows on different nodes do not overlap.
        assert!(plan()
            .with_degrade(0, 0.0, 10.0, 2.0)
            .with_degrade(1, 5.0, 15.0, 3.0)
            .validate(3)
            .is_ok());
    }

    #[test]
    fn surge_fields_are_validated_by_name() {
        let err = plan().with_surge(90.0, 20.0, 2.0).validate(3).unwrap_err();
        assert!(err.contains("surges[0]"), "{err}");

        let err = plan().with_surge(0.0, 10.0, 0.9).validate(3).unwrap_err();
        assert!(err.contains("surges[0].boost"), "{err}");

        let err = plan()
            .with_surge(0.0, 10.0, 2.0)
            .with_surge(5.0, 10.0, 2.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("surges[1] overlaps surges[0]"), "{err}");
    }

    #[test]
    fn scalar_fields_are_validated() {
        let mut p = plan();
        p.requeue_penalty = -1.0;
        assert!(p.validate(3).unwrap_err().contains("requeue_penalty"));

        let mut p = plan();
        p.timeout_secs = f64::NAN;
        assert!(p.validate(3).unwrap_err().contains("timeout_secs"));

        let p = FaultPlan::new(0.0);
        assert!(p.validate(3).unwrap_err().contains("horizon_secs"));
    }

    #[test]
    fn window_accessors_are_sorted() {
        let p = plan()
            .with_degrade(0, 50.0, 60.0, 2.0)
            .with_degrade(0, 10.0, 20.0, 3.0)
            .with_surge(40.0, 10.0, 2.0)
            .with_surge(5.0, 10.0, 4.0);
        assert_eq!(
            p.degrade_windows(0),
            vec![(10.0, 20.0, 3.0), (50.0, 60.0, 2.0)]
        );
        assert!(p.degrade_windows(1).is_empty());
        assert_eq!(p.surge_windows(), vec![(5.0, 15.0, 4.0), (40.0, 50.0, 2.0)]);
    }

    #[test]
    fn drift_zero_detection() {
        assert!(ReconcileDrift::default().is_zero());
        let d = ReconcileDrift {
            balance: Money::from_dollars(1e-9),
            ..ReconcileDrift::default()
        };
        assert!(!d.is_zero());
    }

    #[test]
    fn summary_merge_accumulates() {
        let record = |cell: usize| FaultRecord {
            cell,
            at_secs: 10.0,
            event: FaultOutcome::Crash(CrashRecord {
                node: 0,
                phase: CrashPhase::Active,
                queries: 5,
                payments: Money::from_dollars(1.0),
                profit: Money::from_dollars(0.1),
                operating: Money::from_dollars(0.5),
                write_off: Money::from_dollars(0.2),
                cascade_depth: 1,
                disk_bytes: 1024,
                requeued_secs: 0.5,
                requeued_to: Some(1),
                recover_planned: false,
            }),
        };
        let mut a = FaultSummary {
            crashes: 1,
            recoveries: 0,
            reconciled: 0,
            timeouts: 2,
            write_off: Money::from_dollars(0.2),
            requeued_secs: 0.5,
            retries: 4,
            cascade_crashes: 1,
            max_cascade_depth: 1,
            records: vec![record(0)],
            ..FaultSummary::default()
        };
        let b = FaultSummary {
            crashes: 1,
            recoveries: 1,
            reconciled: 1,
            timeouts: 0,
            write_off: Money::from_dollars(0.3),
            requeued_secs: 0.25,
            retries: 1,
            cascade_crashes: 2,
            max_cascade_depth: 2,
            records: vec![record(1)],
            ..FaultSummary::default()
        };
        a.merge(&b);
        assert_eq!(a.crashes, 2);
        assert_eq!(a.recoveries, 1);
        assert_eq!(a.reconciled, 1);
        assert_eq!(a.timeouts, 2);
        assert_eq!(a.write_off, Money::from_dollars(0.5));
        assert!((a.requeued_secs - 0.75).abs() < 1e-12);
        assert_eq!(a.retries, 5);
        assert_eq!(a.cascade_crashes, 3);
        assert_eq!(a.max_cascade_depth, 2, "depth merges via max, not sum");
        let cells: Vec<usize> = a.records.iter().map(|r| r.cell).collect();
        assert_eq!(cells, vec![0, 1]);
    }

    #[test]
    fn group_and_cascade_fields_are_validated_by_name() {
        let err = plan().with_group(vec![], 10.0).validate(3).unwrap_err();
        assert!(err.contains("crashes[0].nodes"), "{err}");

        let err = plan().with_group(vec![0, 5], 10.0).validate(3).unwrap_err();
        assert!(err.contains("crashes[0].nodes: 5"), "{err}");

        let err = plan().with_group(vec![0, 0], 10.0).validate(3).unwrap_err();
        assert!(err.contains("already crashes"), "{err}");

        let err = plan()
            .with_crash(1, 20.0)
            .with_group(vec![1, 2], 10.0)
            .validate(4)
            .unwrap_err();
        assert!(err.contains("already crashes"), "{err}");

        let err = plan()
            .with_group(vec![0, 1, 2], 10.0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("at least one seed node"), "{err}");

        let err = plan()
            .with_cascade(1.5, 0.5, 30.0, 2)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("cascade.probability"), "{err}");

        let err = plan()
            .with_cascade(0.5, 0.0, 30.0, 2)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("cascade.decay"), "{err}");

        let err = plan()
            .with_cascade(0.5, 0.5, 0.0, 2)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("cascade.delay_secs"), "{err}");

        let err = plan()
            .with_cascade(0.5, 0.5, 30.0, 0)
            .validate(3)
            .unwrap_err();
        assert!(err.contains("cascade.max_depth"), "{err}");

        let err = plan().with_retry(0, 1.0, 2.0, 0.5).validate(3).unwrap_err();
        assert!(err.contains("retry.max_attempts"), "{err}");

        assert!(plan()
            .with_group(vec![0, 1], 10.0)
            .with_cascade(0.5, 0.5, 30.0, 2)
            .with_retry(3, 1.0, 2.0, 0.5)
            .validate(3)
            .is_ok());
    }

    #[test]
    fn event_order_is_crash_before_recover_then_by_node() {
        let p = plan()
            .with_crash_recover(1, 10.0, 5.0)
            .with_crash(2, 15.0)
            .with_crash(0, 10.0);
        let schema =
            std::sync::Arc::new(catalog::tpch::tpch_schema(catalog::tpch::ScaleFactor(1.0)));
        let specs = vec![
            NodeSpec::new(simulator::Scheme::EconCheap),
            NodeSpec::new(simulator::Scheme::EconCheap),
            NodeSpec::new(simulator::Scheme::EconCheap),
        ];
        let inj = FaultInjector::new(&p, &specs, econ::EconConfig::default(), schema, 0, 42);
        let order: Vec<(f64, u8, usize)> =
            inj.events.iter().map(|e| (e.at, e.rank, e.node)).collect();
        assert_eq!(
            order,
            vec![(10.0, 0, 0), (10.0, 0, 1), (15.0, 0, 2), (15.0, 1, 1)]
        );
        assert_eq!(inj.next_due(SimTime::from_secs(9.0)), None);
        assert_eq!(
            inj.next_due(SimTime::from_secs(12.0)),
            Some(SimTime::from_secs(10.0))
        );
    }
}

//! The live fleet health plane: per-tenant SLO ledgers, cadenced vitals
//! frames, and e-process drift alarms.
//!
//! Three pieces, all pure observers of the simulation:
//!
//! * [`SloLedger`] — mergeable per-tenant service-level records: a
//!   response-time log-histogram (p50/p99 via
//!   [`metrics::LogHistogram::p99`]), exact [`Money`] spend against an
//!   optional [`TenantSloSpec`] spend cap, and admission / deadline-miss
//!   / timeout / retry / fault-delay counters. Every merge is exact
//!   integer addition, so rollups are associative and invariant under
//!   the executor's shard partition — the same contract as
//!   [`crate::registry::MetricsRegistry`].
//! * [`VitalsFrame`] / [`HealthSeries`] — a cadenced snapshot stream
//!   driven by **simulated** time: every `snapshot_interval_secs` of sim
//!   time each cell captures backlog, pressure EWMA, node cash,
//!   fault write-offs and population counts.
//!   Frames at the same tick merge across cells in ascending cell
//!   order. Wall clock never enters, so snapshot-on runs stay
//!   bit-identical to snapshot-off runs.
//! * [`detect_alarms`] — an e-process (test-martingale) drift detector
//!   over the frame stream and the SLO ledger. Each signal accumulates
//!   an e-value (wealth) via Bernoulli likelihood ratios against a
//!   static baseline breach probability and raises a typed [`Alarm`]
//!   when wealth reaches `1/alpha` — a ready-made anytime-valid test
//!   for the ROADMAP's shadow→canary→enforce guardrails.
//!
//! [`render_openmetrics`] exports a registry snapshot plus the frame
//! stream as OpenMetrics-style text; JSON export is plain serde.
//!
//! Capital write-offs are node-level (a crash burns the node's invested
//! capital, which no single tenant owns), so they appear as a fleet
//! vital on [`VitalsFrame`]; the per-tenant ledger counts the tenant's
//! *experience* of faults instead (timeouts, retries, outage delays).

use metrics::LogHistogram;
use pricing::Money;
use serde::{Deserialize, Serialize};

use crate::registry::{MetricValue, MetricsRegistry};

/// Health-plane configuration: how often (in simulated seconds) each
/// cell snapshots a [`VitalsFrame`]. Attached to a fleet config as
/// `Option<HealthConfig>`; `None` keeps the scraper entirely off the
/// hot path (one branch per arrival).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HealthConfig {
    /// Simulated seconds between vitals snapshots. Must be positive and
    /// finite; the cadence is sim-time, never wall clock, so snapshots
    /// cannot perturb determinism.
    pub snapshot_interval_secs: f64,
}

impl HealthConfig {
    /// Validates the cadence.
    ///
    /// # Errors
    /// Returns a human-readable message for an invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.snapshot_interval_secs.is_finite() || self.snapshot_interval_secs <= 0.0 {
            return Err("snapshot_interval_secs must be positive and finite".into());
        }
        Ok(())
    }
}

/// One tenant's service-level objective: a p99 response-time target and
/// an optional exact-[`Money`] spend cap. Lives on the fleet's
/// `TenantSpec` (absent for tenants without an SLO contract).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantSloSpec {
    /// The p99 response-time target in seconds. Responses at or above
    /// this target count as deadline misses; the error budget for a p99
    /// target is a 1% miss rate.
    pub p99_target_secs: f64,
    /// Spend cap over the run; `None` means uncapped.
    pub spend_cap: Option<Money>,
}

impl TenantSloSpec {
    /// Validates the objective.
    ///
    /// # Errors
    /// Returns a human-readable message for an invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.p99_target_secs.is_finite() || self.p99_target_secs <= 0.0 {
            return Err("p99_target_secs must be positive and finite".into());
        }
        Ok(())
    }
}

/// The p99 error budget: a p99 target tolerates 1% of responses at or
/// over the target.
pub const P99_MISS_BUDGET: f64 = 0.01;

/// One tenant's mergeable SLO record. All counters are exact, the
/// histogram merge is exact integer addition, and `spend` is exact
/// fixed-point [`Money`], so merging partials from different cells (or
/// shards) in any grouping yields bit-identical rollups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSloRecord {
    /// Tenant identity (the fleet's `TenantId` payload).
    pub tenant: u32,
    /// The objective this tenant contracted, if any. Deadline misses
    /// are only counted when a spec is present.
    pub slo: Option<TenantSloSpec>,
    /// Queries admitted (served) for this tenant.
    pub admitted: u64,
    /// Of the admitted queries, how many ran in a cache.
    pub cache_hits: u64,
    /// Exact spend over the run, compared against `slo.spend_cap`.
    pub spend: Money,
    /// Response times observed (seconds), latency geometry.
    pub response: LogHistogram,
    /// Responses at or over the spec's p99 target (0 without a spec).
    pub deadline_misses: u64,
    /// Quote rounds this tenant lost to a node timeout.
    pub timeouts: u64,
    /// Re-quote attempts the retry policy spent on this tenant.
    pub retries: u64,
    /// Queries delayed by a total-outage or requeue wait.
    pub fault_delays: u64,
}

impl TenantSloRecord {
    /// An empty record for one tenant.
    #[must_use]
    pub fn new(tenant: u32, slo: Option<TenantSloSpec>) -> Self {
        TenantSloRecord {
            tenant,
            slo,
            admitted: 0,
            cache_hits: 0,
            spend: Money::ZERO,
            response: LogHistogram::latency(),
            deadline_misses: 0,
            timeouts: 0,
            retries: 0,
            fault_delays: 0,
        }
    }

    /// Records one served query: response time, what the tenant paid,
    /// and whether the answer came from a cache. Counts a deadline miss
    /// when a spec is present and the response reached its p99 target.
    pub fn record_served(&mut self, response_secs: f64, payment: Money, cache_hit: bool) {
        self.admitted += 1;
        self.cache_hits += u64::from(cache_hit);
        self.spend += payment;
        self.response.record(response_secs);
        if let Some(slo) = &self.slo {
            if response_secs >= slo.p99_target_secs {
                self.deadline_misses += 1;
            }
        }
    }

    /// Merges another cell's partial for the *same* tenant.
    ///
    /// # Panics
    /// Panics if the tenant identities or SLO specs differ — a spec is
    /// config, so partials of one run can never disagree on it.
    pub fn merge(&mut self, other: &TenantSloRecord) {
        assert_eq!(self.tenant, other.tenant, "cannot merge different tenants");
        assert_eq!(self.slo, other.slo, "SLO spec changed between partials");
        self.admitted += other.admitted;
        self.cache_hits += other.cache_hits;
        self.spend += other.spend;
        self.response.merge(&other.response);
        self.deadline_misses += other.deadline_misses;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.fault_delays += other.fault_delays;
    }

    /// Measured p99 response time (seconds); `None` before any query.
    #[must_use]
    pub fn p99_secs(&self) -> Option<f64> {
        self.response.p99()
    }

    /// Deadline misses as a fraction of admitted queries.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.admitted as f64
        }
    }

    /// How fast this tenant burns its p99 error budget: 1.0 means
    /// exactly on budget (1% of responses miss), above 1.0 the SLO is
    /// burning down.
    #[must_use]
    pub fn burn_rate(&self) -> f64 {
        self.miss_rate() / P99_MISS_BUDGET
    }

    /// Whether the measured miss rate exceeds the p99 error budget
    /// (requires a spec; granularity is exact — misses are counted at
    /// serve time, not reconstructed from histogram buckets).
    #[must_use]
    pub fn p99_breached(&self) -> bool {
        self.slo.is_some() && self.admitted > 0 && self.miss_rate() > P99_MISS_BUDGET
    }

    /// Whether spend exceeded the spec's cap (false without a cap).
    #[must_use]
    pub fn spend_cap_breached(&self) -> bool {
        matches!(&self.slo, Some(TenantSloSpec { spend_cap: Some(cap), .. }) if self.spend > *cap)
    }
}

/// The fleet's per-tenant SLO ledger: records sorted ascending by
/// tenant id. Merging ledgers merges same-tenant records and keeps the
/// sort, so folding cell partials in any grouping produces the same
/// ledger — the shard-invariance contract the proptests pin.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloLedger {
    /// Per-tenant records, ascending tenant id.
    pub tenants: Vec<TenantSloRecord>,
}

impl SloLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        SloLedger::default()
    }

    /// Builds a ledger from per-tenant records (any order).
    #[must_use]
    pub fn from_records(mut tenants: Vec<TenantSloRecord>) -> Self {
        tenants.sort_by_key(|r| r.tenant);
        SloLedger { tenants }
    }

    /// The record for one tenant, if present.
    #[must_use]
    pub fn get(&self, tenant: u32) -> Option<&TenantSloRecord> {
        self.tenants
            .binary_search_by_key(&tenant, |r| r.tenant)
            .ok()
            .map(|i| &self.tenants[i])
    }

    /// Merges another ledger: same-tenant records merge, new tenants
    /// are inserted in id order. Exact arithmetic throughout, so the
    /// operation is associative and commutative.
    ///
    /// # Panics
    /// Panics if a shared tenant's SLO specs differ.
    pub fn merge(&mut self, other: &SloLedger) {
        for record in &other.tenants {
            match self
                .tenants
                .binary_search_by_key(&record.tenant, |r| r.tenant)
            {
                Ok(i) => self.tenants[i].merge(record),
                Err(i) => self.tenants.insert(i, record.clone()),
            }
        }
    }

    /// Queries admitted across all tenants.
    #[must_use]
    pub fn total_admitted(&self) -> u64 {
        self.tenants.iter().map(|r| r.admitted).sum()
    }

    /// Tenants currently violating their p99 error budget or spend cap.
    #[must_use]
    pub fn breaches(&self) -> Vec<&TenantSloRecord> {
        self.tenants
            .iter()
            .filter(|r| r.p99_breached() || r.spend_cap_breached())
            .collect()
    }
}

/// One cadenced snapshot of fleet vitals at a simulated instant. All
/// fields are cumulative since the start of the run (not per-interval),
/// so frames merge across cells by plain addition and rates derive from
/// frame-to-frame deltas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VitalsFrame {
    /// The simulated instant this frame samples (a multiple of the
    /// configured cadence).
    pub at_secs: f64,
    /// Queries served so far.
    pub queries: u64,
    /// Cache hits so far.
    pub cache_hits: u64,
    /// Deadline misses so far (tenants with SLO specs only).
    pub deadline_misses: u64,
    /// Outstanding backlog (seconds of queued work) over routable nodes.
    pub backlog_secs: f64,
    /// The elastic controller's backlog EWMA (its scaling pressure
    /// signal), summed across cells; 0 for static fleets.
    pub pressure_ewma: f64,
    /// Summed cash balance of live economic nodes.
    pub node_cash: Money,
    /// Live nodes (booting + serving + draining).
    pub live_nodes: u64,
    /// Nodes currently accepting routes.
    pub routable_nodes: u64,
    /// Nodes draining toward retirement.
    pub draining_nodes: u64,
    /// Elastic spawns so far.
    pub spawns: u64,
    /// Elastic retirements so far.
    pub retires: u64,
    /// Capital written off to crashes so far.
    pub write_off: Money,
}

impl VitalsFrame {
    /// Merges the same instant's frame from another cell (plain sums —
    /// every field is a cumulative total).
    ///
    /// # Panics
    /// Panics if the instants differ bitwise — frames only align by
    /// cadence tick.
    pub fn merge(&mut self, other: &VitalsFrame) {
        assert_eq!(
            self.at_secs.to_bits(),
            other.at_secs.to_bits(),
            "cannot merge frames from different instants"
        );
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.deadline_misses += other.deadline_misses;
        self.backlog_secs += other.backlog_secs;
        self.pressure_ewma += other.pressure_ewma;
        self.node_cash += other.node_cash;
        self.live_nodes += other.live_nodes;
        self.routable_nodes += other.routable_nodes;
        self.draining_nodes += other.draining_nodes;
        self.spawns += other.spawns;
        self.retires += other.retires;
        self.write_off += other.write_off;
    }

    /// Cumulative cache hit rate at this instant.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// The vitals time series of one run: frames at multiples of the
/// configured cadence, ascending. Cells producing fewer frames (shorter
/// horizons) simply contribute to fewer ticks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthSeries {
    /// The cadence the frames were sampled at (simulated seconds).
    pub interval_secs: f64,
    /// Frames, ascending `at_secs`.
    pub frames: Vec<VitalsFrame>,
}

impl HealthSeries {
    /// An empty series at the given cadence.
    #[must_use]
    pub fn new(interval_secs: f64) -> Self {
        HealthSeries {
            interval_secs,
            frames: Vec::new(),
        }
    }

    /// Merges another cell's series tick-wise: frame `i` of both series
    /// samples the same instant `(i + 1) × interval`, so they merge
    /// index-aligned; a longer series keeps its tail. Callers fold in
    /// ascending cell order for bit-reproducible float sums.
    ///
    /// # Panics
    /// Panics if the cadences differ.
    pub fn merge(&mut self, other: &HealthSeries) {
        assert_eq!(
            self.interval_secs.to_bits(),
            other.interval_secs.to_bits(),
            "cannot merge series with different cadences"
        );
        for (i, frame) in other.frames.iter().enumerate() {
            if i < self.frames.len() {
                self.frames[i].merge(frame);
            } else {
                self.frames.push(frame.clone());
            }
        }
    }
}

/// Static baselines the drift detector tests the run against, plus the
/// e-process error budget `alpha` (alarm when an e-value reaches
/// `1/alpha`; anytime-valid at level `alpha` per signal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Baselines {
    /// Per-signal false-alarm budget; alarms fire at e-value
    /// `1/alpha`.
    pub alpha: f64,
    /// Null breach probability: how often a healthy run is allowed to
    /// breach a baseline per observation (per frame, or per query for
    /// the burn-rate signal).
    pub null_breach_prob: f64,
    /// Alternative breach probability the likelihood ratio bets on; the
    /// further above `null_breach_prob`, the faster sustained breaches
    /// alarm and the slower isolated breaches accumulate.
    pub alt_breach_prob: f64,
    /// Cumulative cache hit rate a healthy fleet stays above; a frame
    /// below this floor is a breach observation. 0 disables the signal.
    pub hit_rate_floor: f64,
    /// Insolvency lookahead: a frame whose cash slope, extrapolated,
    /// reaches zero within this many simulated seconds is a breach
    /// observation. 0 disables the signal.
    pub cash_lookahead_secs: f64,
}

impl Default for Baselines {
    /// Conservative defaults: 1-in-100 false-alarm budget per signal, a
    /// 5% null breach rate vs a 50% alternative, hit-rate and cash
    /// signals enabled with generous floors.
    fn default() -> Self {
        Baselines {
            alpha: 0.01,
            null_breach_prob: 0.05,
            alt_breach_prob: 0.5,
            hit_rate_floor: 0.02,
            cash_lookahead_secs: 120.0,
        }
    }
}

/// What drifted.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AlarmKind {
    /// A tenant is burning its p99 error budget faster than the null
    /// miss rate allows.
    SloBurnRate {
        /// The burning tenant.
        tenant: u32,
    },
    /// Node cash is on a trajectory to insolvency within the lookahead.
    CashTrajectory,
    /// The cumulative cache hit rate fell below the baseline floor.
    CacheHitCollapse,
}

/// A typed drift alarm: which signal fired, when (simulated seconds),
/// and the e-value evidence at the crossing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Alarm {
    /// The drifting signal.
    pub kind: AlarmKind,
    /// Simulated instant of the e-value crossing (the run horizon for
    /// ledger-level signals).
    pub at_secs: f64,
    /// Natural log of the e-value at the crossing (≥ `ln(1/alpha)`).
    pub log_e_value: f64,
    /// Human-readable narration of the breach.
    pub message: String,
}

/// A Bernoulli e-process: wealth multiplies by the likelihood ratio of
/// each breach observation under `alt` vs `null`, floored at 1 (the
/// e-detector restart rule, so long clean prefixes cannot mask a later
/// sustained drift). Crossing `1/alpha` is the alarm.
struct EProcess {
    log_wealth: f64,
    log_lr_breach: f64,
    log_lr_clean: f64,
    log_threshold: f64,
}

impl EProcess {
    fn new(b: &Baselines) -> Self {
        EProcess {
            log_wealth: 0.0,
            log_lr_breach: (b.alt_breach_prob / b.null_breach_prob).ln(),
            log_lr_clean: ((1.0 - b.alt_breach_prob) / (1.0 - b.null_breach_prob)).ln(),
            log_threshold: (1.0 / b.alpha).ln(),
        }
    }

    /// Feeds one observation; returns `true` at the first threshold
    /// crossing.
    fn observe(&mut self, breach: bool) -> bool {
        let before = self.log_wealth;
        self.log_wealth = (self.log_wealth
            + if breach {
                self.log_lr_breach
            } else {
                self.log_lr_clean
            })
        .max(0.0);
        before < self.log_threshold && self.log_wealth >= self.log_threshold
    }
}

/// Runs the drift detector: burn-rate e-values per SLO tenant from the
/// ledger, cash-trajectory and hit-rate-collapse e-processes over the
/// frame stream. Pure function of its inputs — replaying a recorded run
/// reproduces the same alarms.
#[must_use]
pub fn detect_alarms(
    series: Option<&HealthSeries>,
    slo: &SloLedger,
    horizon_secs: f64,
    baselines: &Baselines,
) -> Vec<Alarm> {
    let mut alarms = Vec::new();

    // SLO burn rate, per tenant with a spec: every latency attempt is a
    // Bernoulli trial (breach vs on-time) against the null miss rate —
    // deadline misses among the admitted responses, plus timed-out
    // attempts, which blew the target without ever producing a response
    // — so the e-value has the closed form lr_breach^breaches ×
    // lr_clean^clean.
    let e0 = EProcess::new(baselines);
    for record in slo.tenants.iter().filter(|r| r.slo.is_some()) {
        let breaches = record.deadline_misses + record.timeouts;
        let clean = record.admitted - record.deadline_misses;
        let log_e = (breaches as f64 * e0.log_lr_breach + clean as f64 * e0.log_lr_clean).max(0.0);
        if log_e >= e0.log_threshold {
            alarms.push(Alarm {
                kind: AlarmKind::SloBurnRate {
                    tenant: record.tenant,
                },
                at_secs: horizon_secs,
                log_e_value: log_e,
                message: format!(
                    "tenant {} burn rate {:.1}x: {} of {} responses at/over the {:.3}s p99 \
                     target, {} timed-out attempt(s)",
                    record.tenant,
                    record.burn_rate(),
                    record.deadline_misses,
                    record.admitted,
                    record.slo.as_ref().map_or(0.0, |s| s.p99_target_secs),
                    record.timeouts,
                ),
            });
        }
    }

    let Some(series) = series else {
        return alarms;
    };

    // Cache hit-rate collapse: cumulative hit rate under the floor.
    // The detector arms only once the rate has *attained* the floor — a
    // collapse requires something to collapse from. A cold cache that
    // never warmed is visible in the frames themselves; alarming on the
    // warmup transient would make every fresh fleet cry wolf.
    if baselines.hit_rate_floor > 0.0 {
        let mut e = EProcess::new(baselines);
        let mut armed = false;
        for frame in &series.frames {
            if !armed {
                armed = frame.queries > 0 && frame.hit_rate() >= baselines.hit_rate_floor;
                continue;
            }
            let breach = frame.queries > 0 && frame.hit_rate() < baselines.hit_rate_floor;
            if e.observe(breach) {
                alarms.push(Alarm {
                    kind: AlarmKind::CacheHitCollapse,
                    at_secs: frame.at_secs,
                    log_e_value: e.log_wealth,
                    message: format!(
                        "hit rate {:.1}% below the {:.1}% floor at t={:.0}s",
                        frame.hit_rate() * 100.0,
                        baselines.hit_rate_floor * 100.0,
                        frame.at_secs,
                    ),
                });
                break;
            }
        }
    }

    // Cash-to-insolvency trajectory: extrapolate the frame-to-frame
    // cash slope; reaching zero within the lookahead is a breach. Only
    // stable-population windows count: `node_cash` sums the *live*
    // nodes, so a spawn or retire steps the sum for reasons that have
    // nothing to do with burn rate — a drained idle node taking its
    // balance with it is the control plane working, not insolvency.
    if baselines.cash_lookahead_secs > 0.0 {
        let mut e = EProcess::new(baselines);
        for pair in series.frames.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            let stable = cur.live_nodes == prev.live_nodes
                && cur.spawns == prev.spawns
                && cur.retires == prev.retires;
            if !stable {
                continue;
            }
            let dt = cur.at_secs - prev.at_secs;
            let slope = (cur.node_cash.as_dollars() - prev.node_cash.as_dollars()) / dt.max(1e-9);
            let breach =
                slope < 0.0 && cur.node_cash.as_dollars() / -slope <= baselines.cash_lookahead_secs;
            if e.observe(breach) {
                alarms.push(Alarm {
                    kind: AlarmKind::CashTrajectory,
                    at_secs: cur.at_secs,
                    log_e_value: e.log_wealth,
                    message: format!(
                        "node cash ${:.6} draining at ${:.8}/s reaches insolvency within {:.0}s (t={:.0}s)",
                        cur.node_cash.as_dollars(),
                        -slope,
                        baselines.cash_lookahead_secs,
                        cur.at_secs,
                    ),
                });
                break;
            }
        }
    }

    alarms
}

/// Sanitizes a metric name for OpenMetrics exposition (dots and other
/// punctuation become underscores).
fn openmetrics_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders a registry snapshot (plus, optionally, the vitals series'
/// final frame) as OpenMetrics-style text: counters as `*_total`,
/// [`Money`] gauges in dollars, histograms as summaries with
/// p50/p99/p99.9 quantile samples, terminated by `# EOF`.
#[must_use]
pub fn render_openmetrics(registry: &MetricsRegistry, series: Option<&HealthSeries>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for entry in registry.entries() {
        let name = openmetrics_name(&entry.name);
        match &entry.value {
            MetricValue::Counter { value } => {
                let _ = writeln!(out, "# TYPE {name} counter\n{name}_total {value}");
            }
            MetricValue::Gauge { amount } => {
                let _ = writeln!(
                    out,
                    "# TYPE {name} gauge\n{name}_dollars {:.9}",
                    amount.as_dollars()
                );
            }
            MetricValue::Histogram { hist } => {
                let _ = writeln!(out, "# TYPE {name} summary\n{name}_count {}", hist.count());
                for (label, q) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
                    if let Some(v) = hist.quantile(q) {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v:.9}");
                    }
                }
            }
        }
    }
    if let Some(series) = series {
        let _ = writeln!(
            out,
            "# TYPE fleet_vitals_frames counter\nfleet_vitals_frames_total {}",
            series.frames.len()
        );
        if let Some(last) = series.frames.last() {
            let gauges: [(&str, f64); 7] = [
                ("fleet_vitals_backlog_secs", last.backlog_secs),
                ("fleet_vitals_pressure_ewma", last.pressure_ewma),
                (
                    "fleet_vitals_node_cash_dollars",
                    last.node_cash.as_dollars(),
                ),
                ("fleet_vitals_live_nodes", last.live_nodes as f64),
                ("fleet_vitals_routable_nodes", last.routable_nodes as f64),
                ("fleet_vitals_hit_rate", last.hit_rate()),
                (
                    "fleet_vitals_write_off_dollars",
                    last.write_off.as_dollars(),
                ),
            ];
            for (name, value) in gauges {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value:.9}");
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(tenant: u32, responses: &[f64], target: f64) -> TenantSloRecord {
        let mut r = TenantSloRecord::new(
            tenant,
            Some(TenantSloSpec {
                p99_target_secs: target,
                spend_cap: Some(Money::from_dollars(1.0)),
            }),
        );
        for &s in responses {
            r.record_served(s, Money::from_dollars(0.001), s < 0.5);
        }
        r
    }

    #[test]
    fn record_counts_misses_and_spend_exactly() {
        let r = record(7, &[0.1, 0.2, 3.0, 5.0], 2.0);
        assert_eq!(r.admitted, 4);
        assert_eq!(r.deadline_misses, 2);
        assert_eq!(r.cache_hits, 2);
        assert_eq!(r.spend, Money::from_dollars(0.004));
        assert!(r.p99_breached(), "50% miss rate >> 1% budget");
        assert!(!r.spend_cap_breached());
        assert!((r.burn_rate() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn tenants_without_specs_never_miss_deadlines() {
        let mut r = TenantSloRecord::new(3, None);
        r.record_served(1e4, Money::ZERO, false);
        assert_eq!(r.deadline_misses, 0);
        assert!(!r.p99_breached() && !r.spend_cap_breached());
    }

    #[test]
    fn ledger_merge_is_associative_and_order_invariant() {
        let a = SloLedger::from_records(vec![record(1, &[0.1], 2.0), record(2, &[0.2], 2.0)]);
        let b = SloLedger::from_records(vec![record(2, &[3.0], 2.0)]);
        let c = SloLedger::from_records(vec![record(3, &[0.4, 0.5], 2.0)]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");

        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(ab_c, cba, "commutative");
        let ids: Vec<u32> = ab_c.tenants.iter().map(|r| r.tenant).collect();
        assert_eq!(ids, vec![1, 2, 3], "sorted after merge");
        assert_eq!(ab_c.get(2).unwrap().admitted, 2);
    }

    #[test]
    #[should_panic(expected = "SLO spec changed")]
    fn record_merge_rejects_spec_drift() {
        let mut a = record(1, &[], 2.0);
        a.merge(&record(1, &[], 3.0));
    }

    #[test]
    fn frames_merge_tick_aligned_with_tails() {
        let frame = |at: f64, queries: u64| VitalsFrame {
            at_secs: at,
            queries,
            cache_hits: queries / 2,
            deadline_misses: 0,
            backlog_secs: 1.5,
            pressure_ewma: 0.25,
            node_cash: Money::from_dollars(0.01),
            live_nodes: 4,
            routable_nodes: 4,
            draining_nodes: 0,
            spawns: 0,
            retires: 0,
            write_off: Money::ZERO,
        };
        let mut a = HealthSeries::new(5.0);
        a.frames = vec![frame(5.0, 10)];
        let mut b = HealthSeries::new(5.0);
        b.frames = vec![frame(5.0, 6), frame(10.0, 12)];
        a.merge(&b);
        assert_eq!(a.frames.len(), 2, "longer series keeps its tail");
        assert_eq!(a.frames[0].queries, 16);
        assert_eq!(a.frames[0].node_cash, Money::from_dollars(0.02));
        assert_eq!(a.frames[1].queries, 12);
    }

    #[test]
    #[should_panic(expected = "different instants")]
    fn frame_merge_rejects_misaligned_ticks() {
        let mut series = HealthSeries::new(5.0);
        series.frames = vec![VitalsFrame {
            at_secs: 5.0,
            queries: 0,
            cache_hits: 0,
            deadline_misses: 0,
            backlog_secs: 0.0,
            pressure_ewma: 0.0,
            node_cash: Money::ZERO,
            live_nodes: 0,
            routable_nodes: 0,
            draining_nodes: 0,
            spawns: 0,
            retires: 0,
            write_off: Money::ZERO,
        }];
        let mut other = series.clone();
        other.frames[0].at_secs = 10.0;
        series.merge(&other);
    }

    #[test]
    fn burn_rate_alarm_fires_on_sustained_misses_only() {
        let burning = SloLedger::from_records(vec![record(
            5,
            &[3.0, 3.0, 3.0, 3.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
            2.0,
        )]);
        let alarms = detect_alarms(None, &burning, 100.0, &Baselines::default());
        assert_eq!(alarms.len(), 1);
        assert!(matches!(
            alarms[0].kind,
            AlarmKind::SloBurnRate { tenant: 5 }
        ));
        assert!(alarms[0].message.contains("tenant 5"));

        // One miss in many on-time responses: no alarm — the clean
        // observations keep the wealth floored.
        let healthy = SloLedger::from_records(vec![record(
            5,
            &[3.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
            2.0,
        )]);
        assert!(detect_alarms(None, &healthy, 100.0, &Baselines::default()).is_empty());
    }

    #[test]
    fn burn_rate_counts_timed_out_attempts_as_breach_evidence() {
        // Every response lands on time, but the retry plane burned
        // through timeouts getting there: each timed-out attempt blew
        // the latency target without producing a response, so the
        // e-process must treat it as breach evidence.
        let mut r = record(7, &[0.1; 10], 2.0);
        assert!(
            detect_alarms(
                None,
                &SloLedger::from_records(vec![r.clone()]),
                100.0,
                &Baselines::default()
            )
            .is_empty(),
            "on-time responses alone must stay silent"
        );
        r.timeouts = 6;
        let alarms = detect_alarms(
            None,
            &SloLedger::from_records(vec![r]),
            100.0,
            &Baselines::default(),
        );
        assert_eq!(alarms.len(), 1, "{alarms:?}");
        assert!(matches!(
            alarms[0].kind,
            AlarmKind::SloBurnRate { tenant: 7 }
        ));
        assert!(
            alarms[0].message.contains("6 timed-out attempt(s)"),
            "{}",
            alarms[0].message
        );
    }

    #[test]
    fn hit_collapse_and_cash_trajectory_alarm_over_frames() {
        let frame = |at: f64, queries: u64, hits: u64, cash: f64| VitalsFrame {
            at_secs: at,
            queries,
            cache_hits: hits,
            deadline_misses: 0,
            backlog_secs: 0.0,
            pressure_ewma: 0.0,
            node_cash: Money::from_dollars(cash),
            live_nodes: 1,
            routable_nodes: 1,
            draining_nodes: 0,
            spawns: 0,
            retires: 0,
            write_off: Money::ZERO,
        };
        let mut series = HealthSeries::new(10.0);
        // The collapse detector arms once the rate first attains the
        // floor, so frame 1 starts warm (3 hits in 100 ≥ the 2% floor);
        // hits then freeze while traffic grows — a genuine collapse —
        // and cash drains toward zero: both frame signals must alarm
        // once each.
        for k in 1..=10 {
            let at = 10.0 * k as f64;
            series
                .frames
                .push(frame(at, 100 * k, 3, 0.01 - 0.0009 * k as f64));
        }
        let slo = SloLedger::new();
        let alarms = detect_alarms(Some(&series), &slo, 100.0, &Baselines::default());
        assert_eq!(alarms.len(), 2, "alarms: {alarms:?}");
        assert!(alarms.iter().any(|a| a.kind == AlarmKind::CacheHitCollapse));
        assert!(alarms.iter().any(|a| a.kind == AlarmKind::CashTrajectory));

        // Healthy frames: good hit rate, cash rising — silence.
        let mut healthy = HealthSeries::new(10.0);
        for k in 1..=10 {
            let at = 10.0 * k as f64;
            healthy
                .frames
                .push(frame(at, 100 * k, 50 * k, 0.01 + 0.001 * k as f64));
        }
        assert!(detect_alarms(Some(&healthy), &slo, 100.0, &Baselines::default()).is_empty());

        // A cache that never warmed past the floor is a cold start, not
        // a collapse — the unarmed detector must stay silent however
        // long the sub-floor stretch runs.
        let mut cold = HealthSeries::new(10.0);
        for k in 1..=20 {
            let at = 10.0 * k as f64;
            cold.frames.push(frame(at, 100 * k, 0, 1.0));
        }
        assert!(detect_alarms(Some(&cold), &slo, 200.0, &Baselines::default()).is_empty());
    }

    #[test]
    fn detector_is_a_pure_function_of_its_inputs() {
        let ledger = SloLedger::from_records(vec![record(1, &[3.0, 3.0, 3.0], 2.0)]);
        let a = detect_alarms(None, &ledger, 50.0, &Baselines::default());
        let b = detect_alarms(None, &ledger, 50.0, &Baselines::default());
        assert_eq!(a, b);
    }

    #[test]
    fn openmetrics_renders_all_three_kinds_and_terminates() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("fleet.queries", 42);
        reg.gauge_add("fleet.payments", Money::from_dollars(1.25));
        reg.observe("fleet.response_secs", 0.5);
        let text = render_openmetrics(&reg, None);
        assert!(text.contains("# TYPE fleet_queries counter"));
        assert!(text.contains("fleet_queries_total 42"));
        assert!(text.contains("fleet_payments_dollars 1.250000000"));
        assert!(text.contains("# TYPE fleet_response_secs summary"));
        assert!(text.contains("fleet_response_secs_count 1"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_appends_final_frame_vitals() {
        let mut series = HealthSeries::new(5.0);
        series.frames.push(VitalsFrame {
            at_secs: 5.0,
            queries: 10,
            cache_hits: 5,
            deadline_misses: 0,
            backlog_secs: 2.0,
            pressure_ewma: 0.5,
            node_cash: Money::from_dollars(0.03),
            live_nodes: 3,
            routable_nodes: 3,
            draining_nodes: 0,
            spawns: 1,
            retires: 0,
            write_off: Money::ZERO,
        });
        let text = render_openmetrics(&MetricsRegistry::new(), Some(&series));
        assert!(text.contains("fleet_vitals_frames_total 1"));
        assert!(text.contains("fleet_vitals_node_cash_dollars 0.030000000"));
        assert!(text.contains("fleet_vitals_hit_rate 0.500000000"));
    }

    #[test]
    fn configs_validate() {
        assert!(HealthConfig {
            snapshot_interval_secs: 5.0
        }
        .validate()
        .is_ok());
        assert!(HealthConfig {
            snapshot_interval_secs: 0.0
        }
        .validate()
        .is_err());
        assert!(TenantSloSpec {
            p99_target_secs: 2.0,
            spend_cap: None
        }
        .validate()
        .is_ok());
        assert!(TenantSloSpec {
            p99_target_secs: f64::NAN,
            spend_cap: None
        }
        .validate()
        .is_err());
    }

    #[test]
    fn health_types_roundtrip_serde() {
        let ledger = SloLedger::from_records(vec![record(9, &[0.1, 4.0], 2.0)]);
        let json = serde_json::to_string(&ledger).unwrap();
        let back: SloLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(ledger, back);

        let mut series = HealthSeries::new(5.0);
        series.frames.push(VitalsFrame {
            at_secs: 5.0,
            queries: 1,
            cache_hits: 0,
            deadline_misses: 0,
            backlog_secs: 0.0,
            pressure_ewma: 0.0,
            node_cash: Money::ZERO,
            live_nodes: 1,
            routable_nodes: 1,
            draining_nodes: 0,
            spawns: 0,
            retires: 0,
            write_off: Money::ZERO,
        });
        let json = serde_json::to_string(&series).unwrap();
        let back: HealthSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(series, back);
    }
}

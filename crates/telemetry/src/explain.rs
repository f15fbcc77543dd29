//! Replay rollups: blame-style cost attribution over a recorded trace.
//!
//! The paper's model makes every dollar attributable — tenants pay
//! settlements (eq. 11), settlements decompose into per-resource costs
//! (eq. 9/13), revenue funds structure builds, and node lifecycle
//! decisions are rule-tagged. These functions replay a recorded
//! [`TraceEvent`] stream and answer the attribution questions directly:
//! why a node retired, which tenants/templates paid for a structure, and
//! where the dollars went.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use metrics::CostBreakdown;
use pricing::Money;
use serde::Serialize;

use crate::event::{
    LifecyclePhase, NodeCrashEvent, NodeLifecycleEvent, NodeRecoverEvent, TraceEvent,
};

/// Grouping key for a blame rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BlameKey {
    /// Group settlements by paying tenant.
    Tenant,
    /// Group settlements by workload template.
    Template,
    /// Group settlements by the cached structures their plans used.
    Structure,
    /// Group settlements by serving node.
    Node,
    /// Decompose execution spend by priced resource.
    Resource,
}

impl BlameKey {
    /// Parses the `explain blame` CLI argument.
    #[must_use]
    pub fn parse(s: &str) -> Option<BlameKey> {
        match s {
            "tenant" => Some(BlameKey::Tenant),
            "template" => Some(BlameKey::Template),
            "structure" => Some(BlameKey::Structure),
            "node" => Some(BlameKey::Node),
            "resource" => Some(BlameKey::Resource),
            _ => None,
        }
    }
}

/// One row of a blame rollup: the money that flowed through a group.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct BlameRow {
    /// Settlements attributed to the group.
    pub queries: u64,
    /// Tenant payments received (eq. 11).
    pub payments: Money,
    /// Node profit after costs.
    pub profit: Money,
    /// Per-resource execution spend (eq. 9 backend / cache I/O).
    pub exec: CostBreakdown,
    /// Structure-build spending funded by the group's revenue.
    pub build_spend: Money,
    /// Invested capital written off by injected crashes (the fault
    /// plane's ledgered loss; zero in fault-free traces).
    pub write_off: Money,
}

impl BlameRow {
    /// Total cloud-side spend attributed to the group.
    #[must_use]
    pub fn total_cost(&self) -> Money {
        self.exec.total() + self.build_spend + self.write_off
    }

    fn absorb(&mut self, e: &crate::event::SettlementEvent) {
        self.queries += 1;
        self.payments += e.payment;
        self.profit += e.profit;
        self.exec.merge(&e.exec);
        self.build_spend += e.build_spend;
    }
}

fn sorted_rows(map: BTreeMap<String, BlameRow>) -> Vec<(String, BlameRow)> {
    let mut rows: Vec<(String, BlameRow)> = map.into_iter().collect();
    // Biggest money first; name breaks ties so the order is total.
    rows.sort_by(|(an, ar), (bn, br)| {
        (br.payments + br.total_cost())
            .cmp(&(ar.payments + ar.total_cost()))
            .then_with(|| an.cmp(bn))
    });
    rows
}

/// Rolls settlements up by the given key — "where did the $ go".
///
/// For [`BlameKey::Resource`] the rows are the four priced resources
/// plus a `build` row; payments and profit stay on the per-resource rows
/// at zero because eq. 11 prices whole queries, not resources. Crash
/// write-offs join the rollup where they are attributable: on the
/// crashed node's row under [`BlameKey::Node`], and on a dedicated
/// `write-off` row under [`BlameKey::Resource`].
#[must_use]
pub fn blame(events: &[TraceEvent], key: BlameKey) -> Vec<(String, BlameRow)> {
    let mut map: BTreeMap<String, BlameRow> = BTreeMap::new();
    for event in events {
        if let TraceEvent::NodeCrash(c) = event {
            match key {
                BlameKey::Node => {
                    map.entry(format!("node#{}", c.node)).or_default().write_off += c.write_off;
                }
                BlameKey::Resource => {
                    map.entry("write-off".to_string()).or_default().write_off += c.write_off;
                }
                _ => {}
            }
            continue;
        }
        let TraceEvent::Settlement(s) = event else {
            continue;
        };
        match key {
            BlameKey::Tenant => map.entry(format!("tenant#{}", s.tenant)).or_default(),
            BlameKey::Template => map.entry(format!("template#{}", s.template)).or_default(),
            BlameKey::Node => map.entry(format!("node#{}", s.node)).or_default(),
            BlameKey::Structure => {
                let key = if s.used_structures.is_empty() {
                    "(backend)".to_string()
                } else {
                    // A plan may use several structures; attribute the
                    // whole settlement to each (overlap is intentional —
                    // "who paid for S" is a per-structure question).
                    for st in &s.used_structures {
                        map.entry(st.clone()).or_default().absorb(s);
                    }
                    continue;
                };
                map.entry(key).or_default()
            }
            BlameKey::Resource => {
                for (name, cost) in [
                    ("cpu", s.exec.cpu),
                    ("disk", s.exec.disk),
                    ("network", s.exec.network),
                    ("io", s.exec.io),
                ] {
                    let row = map.entry(name.to_string()).or_default();
                    if !cost.is_zero() {
                        row.queries += 1;
                    }
                    row.exec.add_to(
                        match name {
                            "cpu" => metrics::Resource::Cpu,
                            "disk" => metrics::Resource::Disk,
                            "network" => metrics::Resource::Network,
                            _ => metrics::Resource::Io,
                        },
                        cost,
                    );
                }
                let b = map.entry("build".to_string()).or_default();
                if !s.build_spend.is_zero() {
                    b.queries += 1;
                }
                b.build_spend += s.build_spend;
                continue;
            }
        }
        .absorb(s);
    }
    sorted_rows(map)
}

/// Which tenants and templates paid for structure `s` — the settlements
/// whose winning plans used it, grouped both ways (`tenant#…` and
/// `template#…` rows).
#[must_use]
pub fn structure_payers(events: &[TraceEvent], s: &str) -> Vec<(String, BlameRow)> {
    let mut map: BTreeMap<String, BlameRow> = BTreeMap::new();
    for event in events {
        let TraceEvent::Settlement(st) = event else {
            continue;
        };
        if st.used_structures.iter().any(|u| u == s) {
            map.entry(format!("tenant#{}", st.tenant))
                .or_default()
                .absorb(st);
            map.entry(format!("template#{}", st.template))
                .or_default()
                .absorb(st);
        }
    }
    sorted_rows(map)
}

/// Every lifecycle transition recorded for node `node`, in stream order.
#[must_use]
pub fn node_timeline(events: &[TraceEvent], node: usize) -> Vec<&NodeLifecycleEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeLifecycle(l) if l.node == Some(node) => Some(l),
            _ => None,
        })
        .collect()
}

/// Why did node `node` retire? `None` when the trace records no
/// retirement for it (the `explain` tool treats that as an unanswerable
/// query and exits non-zero).
///
/// The answer narrates the node's lifecycle — spawn, drain decision
/// (rule + the pressure signals that fired it), retirement — plus the
/// queries it served and the profit it booked while alive.
#[must_use]
pub fn explain_retirement(events: &[TraceEvent], node: usize) -> Option<String> {
    let timeline = node_timeline(events, node);
    let retire = timeline
        .iter()
        .find(|l| l.phase == LifecyclePhase::Retire)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "node {node} retired at t={:.1}s (cell {}, rule `{}`)",
        retire.at_secs, retire.cell, retire.rule
    );
    if let Some(spawn) = timeline.iter().find(|l| l.phase == LifecyclePhase::Spawn) {
        let _ = writeln!(
            out,
            "  spawned at t={:.1}s by rule `{}` (scheme {})",
            spawn.at_secs, spawn.rule, spawn.scheme
        );
    }
    if let Some(drain) = timeline
        .iter()
        .find(|l| l.phase == LifecyclePhase::DrainBegin)
    {
        let _ = writeln!(
            out,
            "  drain began at t={:.1}s by rule `{}`: backlog_ewma={:.3}, \
             window_response={:.3}s, profit_rate={:+.6}$/s, regret_rate={:.6}$/s",
            drain.at_secs,
            drain.rule,
            drain.backlog_ewma,
            drain.window_response_secs,
            drain.profit_rate,
            drain.regret_rate
        );
    }
    let mut served = 0u64;
    let mut payments = Money::ZERO;
    let mut profit = Money::ZERO;
    for e in events {
        if let TraceEvent::Settlement(s) = e {
            if s.node == node {
                served += 1;
                payments += s.payment;
                profit += s.profit;
            }
        }
    }
    let _ = writeln!(
        out,
        "  while alive: served {served} queries, collected {payments}, booked {profit} profit"
    );
    let _ = writeln!(
        out,
        "  population at retirement: live={}, routable={}, booting={}, draining={}",
        retire.live, retire.routable, retire.booting, retire.draining
    );
    Some(out)
}

/// Why did node `node` crash, and what did the crash cost? `None` when
/// the trace records no crash for it (the `explain` tool treats that as
/// an unanswerable query and exits non-zero).
///
/// The answer narrates the fault plane's settlement at the crash
/// instant: the eq. 11 uptime and eq. 13 disk-rent charges already
/// folded into the node's books, the capital invested in structures and
/// boot versus the payments recovered from tenants before the crash, the
/// invested balance written off as a ledgered loss, the re-queued
/// backlog, and — when a recovery replayed the ledger — whether the
/// replayed balances cross-footed exactly.
#[must_use]
pub fn explain_crash(events: &[TraceEvent], node: usize) -> Option<String> {
    let crash: &NodeCrashEvent = events.iter().find_map(|e| match e {
        TraceEvent::NodeCrash(c) if c.node == node => Some(c),
        _ => None,
    })?;
    let recover: Option<&NodeRecoverEvent> = events.iter().find_map(|e| match e {
        TraceEvent::NodeRecover(r) if r.crashed == node => Some(r),
        _ => None,
    });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "node {node} crashed at t={:.1}s (cell {}, phase `{}`)",
        crash.at_secs, crash.cell, crash.phase
    );
    let _ = writeln!(
        out,
        "  books settled at the crash instant: {} operating charged \
         (eq. 11 uptime + eq. 13 disk rent, integrated to t={:.1}s)",
        crash.operating, crash.at_secs
    );
    let _ = writeln!(
        out,
        "  capital: {} invested (boot + structure builds) vs {} recovered \
         in payments over {} queries ({} profit)",
        crash.write_off, crash.payments, crash.queries, crash.profit
    );
    if crash.cascade_depth > 0 {
        let _ = writeln!(
            out,
            "  cascade follow-on crash at depth {}",
            crash.cascade_depth
        );
    }
    let _ = writeln!(
        out,
        "  written off as ledgered loss: {} ({} bytes of cached structures abandoned)",
        crash.write_off, crash.disk_bytes
    );
    match crash.requeued_to {
        Some(to) => {
            let _ = writeln!(
                out,
                "  in-flight backlog re-queued: {:.3}s (post-penalty) onto node {to}",
                crash.requeued_secs
            );
        }
        None => {
            let _ = writeln!(out, "  no in-flight backlog re-queued");
        }
    }
    match recover {
        Some(r) => {
            let _ = writeln!(
                out,
                "  recovered at t={:.1}s as node {}: replayed {} journal entries \
                 into a fresh economy ({} boot capital, routable at t={:.1}s) — \
                 reconciliation {}",
                r.at_secs,
                r.replacement,
                r.replayed_queries,
                r.boot_cost,
                r.ready_at_secs,
                if r.reconciled {
                    "exact (zero drift)"
                } else {
                    "DRIFTED"
                }
            );
        }
        None if crash.recover_planned => {
            let _ = writeln!(out, "  recovery planned but not reached within the horizon");
        }
        None => {
            let _ = writeln!(out, "  no recovery planned (capital permanently lost)");
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SettlementEvent;

    fn settlement(tenant: u32, template: usize, node: usize, structures: &[&str]) -> TraceEvent {
        let mut exec = CostBreakdown::ZERO;
        exec.add_to(metrics::Resource::Io, Money::from_dollars(0.01));
        exec.add_to(metrics::Resource::Network, Money::from_dollars(0.02));
        TraceEvent::Settlement(SettlementEvent {
            cell: 0,
            at_secs: 1.0,
            tenant,
            template,
            query: 1,
            node,
            response_secs: 0.5,
            ran_in_cache: !structures.is_empty(),
            payment: Money::from_dollars(0.10),
            profit: Money::from_dollars(0.03),
            exec,
            build_spend: Money::from_dollars(0.005),
            used_structures: structures.iter().map(|s| (*s).to_string()).collect(),
            investments: 0,
            evictions: 0,
        })
    }

    fn lifecycle(node: usize, phase: LifecyclePhase, at: f64, rule: &str) -> TraceEvent {
        TraceEvent::NodeLifecycle(NodeLifecycleEvent {
            cell: 0,
            at_secs: at,
            phase,
            node: Some(node),
            rule: rule.into(),
            scheme: "econ-cheap".into(),
            live: 2,
            routable: 2,
            booting: 0,
            draining: 1,
            backlog: 1.0,
            backlog_ewma: 0.5,
            window_response_secs: 0.2,
            profit_rate: -0.001,
            regret_rate: 0.0,
        })
    }

    #[test]
    fn blame_by_tenant_groups_and_sorts() {
        let events = vec![
            settlement(1, 0, 0, &[]),
            settlement(2, 0, 0, &[]),
            settlement(2, 1, 1, &["idx(a)"]),
        ];
        let rows = blame(&events, BlameKey::Tenant);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "tenant#2");
        assert_eq!(rows[0].1.queries, 2);
        assert_eq!(rows[0].1.payments, Money::from_dollars(0.20));
        assert_eq!(rows[1].0, "tenant#1");
    }

    #[test]
    fn blame_by_structure_attributes_each_used_structure() {
        let events = vec![
            settlement(1, 0, 0, &["idx(a)", "col(b)"]),
            settlement(1, 0, 0, &[]),
        ];
        let rows = blame(&events, BlameKey::Structure);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"idx(a)"));
        assert!(names.contains(&"col(b)"));
        assert!(names.contains(&"(backend)"));
    }

    #[test]
    fn blame_by_resource_decomposes_exec_spend() {
        let events = vec![settlement(1, 0, 0, &[])];
        let rows = blame(&events, BlameKey::Resource);
        let get = |n: &str| {
            rows.iter()
                .find(|(name, _)| name == n)
                .map(|(_, r)| r.clone())
                .unwrap()
        };
        assert_eq!(get("io").exec.io, Money::from_dollars(0.01));
        assert_eq!(get("network").exec.network, Money::from_dollars(0.02));
        assert_eq!(get("build").build_spend, Money::from_dollars(0.005));
        assert_eq!(get("cpu").queries, 0);
    }

    #[test]
    fn structure_payers_groups_both_ways() {
        let events = vec![
            settlement(1, 4, 0, &["idx(a)"]),
            settlement(2, 4, 0, &["idx(a)"]),
            settlement(3, 5, 0, &["col(z)"]),
        ];
        let rows = structure_payers(&events, "idx(a)");
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"tenant#1"));
        assert!(names.contains(&"tenant#2"));
        assert!(names.contains(&"template#4"));
        assert!(!names.contains(&"tenant#3"));
        let t4 = rows.iter().find(|(n, _)| n == "template#4").unwrap();
        assert_eq!(t4.1.queries, 2);
    }

    #[test]
    fn retirement_narrative_includes_rule_and_signals() {
        let events = vec![
            lifecycle(3, LifecyclePhase::Spawn, 10.0, "backlog-pressure"),
            settlement(1, 0, 3, &[]),
            lifecycle(3, LifecyclePhase::DrainBegin, 50.0, "drain-insolvent"),
            lifecycle(3, LifecyclePhase::Retire, 110.0, "drain-grace"),
        ];
        let text = explain_retirement(&events, 3).unwrap();
        assert!(text.contains("retired at t=110.0s"));
        assert!(text.contains("drain-insolvent"));
        assert!(text.contains("spawned at t=10.0s"));
        assert!(text.contains("served 1 queries"));
        assert!(explain_retirement(&events, 4).is_none());
        assert_eq!(node_timeline(&events, 3).len(), 3);
    }

    fn crash(node: usize, write_off: f64, requeued_to: Option<usize>) -> TraceEvent {
        TraceEvent::NodeCrash(NodeCrashEvent {
            cell: 0,
            at_secs: 40.0,
            node,
            phase: "active".into(),
            queries: 12,
            payments: Money::from_dollars(0.9),
            profit: Money::from_dollars(0.1),
            operating: Money::from_dollars(0.4),
            write_off: Money::from_dollars(write_off),
            disk_bytes: 4096,
            requeued_secs: 1.25,
            requeued_to,
            recover_planned: true,
            cascade_depth: 0,
        })
    }

    #[test]
    fn crash_narrative_covers_write_off_and_recovery() {
        let events = vec![
            settlement(1, 0, 2, &[]),
            crash(2, 0.75, Some(0)),
            TraceEvent::NodeRecover(NodeRecoverEvent {
                cell: 0,
                at_secs: 55.0,
                crashed: 2,
                replacement: 7,
                boot_cost: Money::from_dollars(0.2),
                ready_at_secs: 75.0,
                replayed_queries: 12,
                reconciled: true,
            }),
        ];
        let text = explain_crash(&events, 2).unwrap();
        assert!(text.contains("crashed at t=40.0s"));
        assert!(text.contains("phase `active`"));
        assert!(text.contains("written off as ledgered loss"));
        assert!(text.contains("re-queued: 1.250s"));
        assert!(text.contains("recovered at t=55.0s as node 7"));
        assert!(text.contains("exact (zero drift)"));
        assert!(explain_crash(&events, 5).is_none());
    }

    #[test]
    fn crash_narrative_without_recovery_says_so() {
        let mut c = crash(4, 0.5, None);
        if let TraceEvent::NodeCrash(ev) = &mut c {
            ev.recover_planned = false;
        }
        let text = explain_crash(&[c], 4).unwrap();
        assert!(text.contains("no in-flight backlog re-queued"));
        assert!(text.contains("no recovery planned"));
    }

    #[test]
    fn blame_folds_crash_write_offs_into_node_and_resource_rollups() {
        let events = vec![settlement(1, 0, 2, &[]), crash(2, 0.75, None)];
        let node_rows = blame(&events, BlameKey::Node);
        let n2 = node_rows.iter().find(|(n, _)| n == "node#2").unwrap();
        assert_eq!(n2.1.write_off, Money::from_dollars(0.75));
        assert_eq!(n2.1.queries, 1, "settlements still counted");
        let res_rows = blame(&events, BlameKey::Resource);
        let wo = res_rows.iter().find(|(n, _)| n == "write-off").unwrap();
        assert_eq!(wo.1.write_off, Money::from_dollars(0.75));
        assert!(wo.1.total_cost() >= Money::from_dollars(0.75));
        // Tenant rollups are unaffected: crashes are not attributable to
        // a paying tenant.
        let tenant_rows = blame(&events, BlameKey::Tenant);
        assert!(tenant_rows.iter().all(|(_, r)| r.write_off.is_zero()));
    }

    #[test]
    fn crash_narrative_reports_the_write_off_as_invested_capital_and_cascade_depth() {
        let mut c = crash(2, 0.30, None);
        if let TraceEvent::NodeCrash(ev) = &mut c {
            ev.cascade_depth = 2;
        }
        let text = explain_crash(&[c], 2).unwrap();
        assert!(text.contains("cascade follow-on crash at depth 2"));
        // A crash writes off the whole invested capital.
        assert!(text.contains("$0.3000 invested"), "{text}");
        assert!(
            text.contains("written off as ledgered loss: $0.3000"),
            "{text}"
        );
    }
}

//! Fleet-side glue over the per-tenant SLO ledger.
//!
//! The ledger types themselves live in [`telemetry::health`] (the trace
//! format carries them, and `telemetry` must not depend on `fleet`); this
//! module re-exports them alongside the fleet and adds the rollup helpers
//! the `explain` tooling narrates with: the worst-burning tenant and
//! one-line breach narration.
//!
//! Everything here is read-only reporting over an already-merged
//! [`SloLedger`] — the ledger is populated query-by-query inside
//! [`crate::exec`] and folded shard-invariantly with the rest of the
//! [`crate::FleetResult`].

pub use telemetry::{SloLedger, TenantSloRecord, TenantSloSpec, P99_MISS_BUDGET};

/// The spec'd tenant with the highest SLO burn rate, as
/// `(tenant id, burn rate)`. Burn rate 1.0 means the tenant is consuming
/// its p99 error budget exactly as fast as it accrues; above 1.0 the
/// budget is burning down. `None` when no tenant carries an SLO.
#[must_use]
pub fn worst_burn_rate(ledger: &SloLedger) -> Option<(u32, f64)> {
    ledger
        .tenants
        .iter()
        .filter(|r| r.slo.is_some())
        .map(|r| (r.tenant, r.burn_rate()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// One human-readable line per breaching tenant, in tenant-id order:
/// which budget broke (p99 error budget, spend cap, or both) and by how
/// much. Empty when every tenant is inside its contract.
#[must_use]
pub fn narrate_breaches(ledger: &SloLedger) -> Vec<String> {
    ledger
        .breaches()
        .into_iter()
        .map(|r| {
            let mut parts = Vec::new();
            if r.p99_breached() {
                let target = r.slo.map(|s| s.p99_target_secs).unwrap_or(f64::NAN);
                parts.push(format!(
                    "p99 budget burned {:.1}x (miss rate {:.2}% vs {:.2}% budget, \
                     {} misses / {} queries, target {:.3}s, measured p99 {:.3}s)",
                    r.burn_rate(),
                    r.miss_rate() * 100.0,
                    P99_MISS_BUDGET * 100.0,
                    r.deadline_misses,
                    r.admitted,
                    target,
                    r.p99_secs().unwrap_or(0.0),
                ));
            }
            if r.spend_cap_breached() {
                let cap = r
                    .slo
                    .and_then(|s| s.spend_cap)
                    .map_or(0.0, |c| c.as_dollars());
                parts.push(format!(
                    "spend cap exceeded (${:.4} spent vs ${:.4} cap)",
                    r.spend.as_dollars(),
                    cap,
                ));
            }
            format!("tenant {}: {}", r.tenant, parts.join("; "))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::Money;

    fn record(tenant: u32, slo: Option<TenantSloSpec>) -> TenantSloRecord {
        TenantSloRecord::new(tenant, slo)
    }

    fn spec(target: f64, cap: Option<f64>) -> TenantSloSpec {
        TenantSloSpec {
            p99_target_secs: target,
            spend_cap: cap.map(Money::from_dollars),
        }
    }

    #[test]
    fn worst_burn_rate_scans_the_ledger() {
        let mut fast = record(0, Some(spec(10.0, None)));
        let mut slow = record(1, Some(spec(0.001, None)));
        for _ in 0..100 {
            fast.record_served(0.01, Money::ZERO, true);
            slow.record_served(0.5, Money::ZERO, false);
        }
        let ledger = SloLedger::from_records(vec![fast, slow]);
        let (burning, rate) = worst_burn_rate(&ledger).unwrap();
        assert_eq!(burning, 1);
        // Every one of tenant 1's queries missed its 1ms target: miss
        // rate 1.0 against the 1% budget is a 100x burn.
        assert!((rate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn worst_burn_rate_ignores_unspecced_tenants() {
        let mut free = record(7, None);
        for _ in 0..10 {
            free.record_served(60.0, Money::ZERO, false);
        }
        let ledger = SloLedger::from_records(vec![free]);
        assert!(worst_burn_rate(&ledger).is_none());
    }

    #[test]
    fn narration_names_each_broken_budget() {
        let mut both = record(3, Some(spec(0.001, Some(0.000_000_1))));
        for _ in 0..100 {
            both.record_served(1.0, Money::from_dollars(0.01), false);
        }
        let mut clean = record(4, Some(spec(100.0, None)));
        clean.record_served(0.01, Money::ZERO, true);
        let ledger = SloLedger::from_records(vec![both, clean]);
        let lines = narrate_breaches(&ledger);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("tenant 3:"));
        assert!(lines[0].contains("p99 budget burned"));
        assert!(lines[0].contains("spend cap exceeded"));
    }

    #[test]
    fn narration_is_empty_when_contracts_hold() {
        let mut ok = record(0, Some(spec(10.0, Some(1000.0))));
        for _ in 0..50 {
            ok.record_served(0.01, Money::from_dollars(0.001), true);
        }
        let ledger = SloLedger::from_records(vec![ok]);
        assert!(narrate_breaches(&ledger).is_empty());
    }
}

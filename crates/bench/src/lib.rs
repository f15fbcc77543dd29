//! # bench — the experiment harness
//!
//! One table of figures ([`figures::FIGURES`]; PAPER.md maps each paper
//! figure to its record, and its "Deviations from the paper" lists where
//! the reproduction departs from the text), one binary that regenerates
//! them, and the `explain` tool:
//!
//! | record | regenerates |
//! |--------|-------------|
//! | `fig4_operating_cost` | Fig. 4 — operating cost vs inter-arrival interval |
//! | `fig5_response_time`  | Fig. 5 — mean response time vs inter-arrival interval |
//! | `fig6_ablation_regret` | eq. 3 threshold fraction `a` sweep |
//! | `fig7_ablation_amortization` | eq. 7 horizon `n` sweep (fixed vs adaptive) |
//! | `fig8_ablation_cachesize` | bypass cache-cap sweep (the paper's "ideal 30 %") |
//! | `fig9_ablation_budget` | budget-shape sweep (Fig. 1 shapes) |
//! | `fig10_ablation_attribution` | regret attribution: uniform share vs full value |
//!
//! `cargo run --release -p bench --bin figures [scale_factor] [num_queries]`
//! (defaults: SF 2500 — the paper's 2.5 TB — and 500,000 queries per
//! cell) runs each distinct cell of every figure once, prints each
//! figure's table and drops a CSV per figure under `results/`. Only the
//! paper-scale default run rewrites the committed `BENCH_*.json`
//! records.
//!
//! Criterion micro-benches live in `benches/`.

#![forbid(unsafe_code)]

pub mod figures;

/// The aggregate fingerprint the fleet invariance checks compare
/// bit-for-bit: every economic aggregate, the fleet's live node-seconds,
/// the serialized elastic decision ledger (empty for fixed-population
/// fleets) and the fault summary (empty for fault-free fleets). The
/// fault summary enters as an explicit list of its result-bearing fields
/// and its serialized record stream, so an inert summary field neither
/// moves the fingerprint nor hides a drift. Shared by `explain
/// selfcheck`, `explain health`, the fleet's elastic and fault tests and
/// the repository benchmark's run-to-run and traced-replay checks — one
/// definition, so the gates cannot quietly diverge on what "identical"
/// means.
///
/// # Panics
/// Panics if the elastic ledger or fault records fail to serialize
/// (they always serialize — the types derive `Serialize`
/// unconditionally).
#[must_use]
pub fn fleet_fingerprint(r: &fleet::FleetResult) -> String {
    let ledger = r
        .elastic
        .as_ref()
        .map(|e| serde_json::to_string(&e.ledger).expect("ledger serializes"))
        .unwrap_or_default();
    let faults = r.faults.as_ref().map_or_else(String::new, |f| {
        format!(
            "crashes={} recoveries={} reconciled={} timeouts={} write_off={:?} \
             requeued_bits={:016x} retries={} cascade_crashes={} max_cascade_depth={} \
             records={}",
            f.crashes,
            f.recoveries,
            f.reconciled,
            f.timeouts,
            f.write_off,
            f.requeued_secs.to_bits(),
            f.retries,
            f.cascade_crashes,
            f.max_cascade_depth,
            serde_json::to_string(&f.records).expect("fault records serialize"),
        )
    });
    format!(
        "queries={} cost={:?} payments={:?} profit={:?} mean_bits={:016x} hits={} builds={} \
         evictions={} fleet_node_seconds_bits={:016x} spawns={} retires={} \
         node_seconds_bits={:016x} ledger={ledger} faults={faults}",
        r.queries,
        r.total_operating_cost(),
        r.payments,
        r.profit,
        r.mean_response_secs().to_bits(),
        r.cache_hits,
        r.investments,
        r.evictions,
        r.node_seconds.to_bits(),
        r.elastic.as_ref().map_or(0, |e| e.spawns),
        r.elastic.as_ref().map_or(0, |e| e.retires),
        r.elastic.as_ref().map_or(0.0, |e| e.node_seconds).to_bits(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{run_fleet, FaultPlan, FleetConfig};
    use pricing::Money;

    /// The fault summary enters the fingerprint through its result-bearing
    /// fields: the inert `salvaged` moves nothing, a nanodollar of
    /// write-off moves it.
    #[test]
    fn fleet_fingerprint_reads_only_result_bearing_fault_fields() {
        let mut config = FleetConfig::uniform(4, 2, 20, 1.0);
        config.scale_factor = 1.0;
        config.cells = 1;
        let r = run_fleet(config.with_faults(FaultPlan::new(20.0).with_crash(0, 5.0)));
        assert_eq!(r.faults.as_ref().map(|f| f.crashes), Some(1));

        let mut inert = r.clone();
        if let Some(f) = inert.faults.as_mut() {
            f.salvaged = Money::from_nanos(7);
        }
        assert_eq!(fleet_fingerprint(&inert), fleet_fingerprint(&r));

        let mut moved = r.clone();
        if let Some(f) = moved.faults.as_mut() {
            f.write_off += Money::from_nanos(1);
        }
        assert_ne!(fleet_fingerprint(&moved), fleet_fingerprint(&r));
    }
}

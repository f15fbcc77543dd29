//! Run results — the measurements Figures 4 and 5 plot.

use metrics::{CostBreakdown, LogHistogram, StreamingStats};
use pricing::Money;
use serde::{Deserialize, Serialize};

/// Everything measured over one simulation cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Scheme name (`bypass`, `econ-col`, …).
    pub scheme: String,
    /// Queries served.
    pub queries: u64,
    /// Simulated wall-clock covered by the run (seconds).
    pub horizon_secs: f64,
    /// Response-time statistics (seconds) — Fig. 5 plots the mean.
    pub response: StreamingStats,
    /// Response-time histogram for percentile reporting.
    pub response_hist: LogHistogram,
    /// Per-resource execution + infrastructure cost (CPU uptime, disk
    /// rent, network transfers, I/O ops).
    pub operating: CostBreakdown,
    /// Money spent building structures (column transfers, index sorts,
    /// node boots).
    pub build_spend: Money,
    /// User payments collected.
    pub payments: Money,
    /// Cloud profit collected (zero for bypass).
    pub profit: Money,
    /// Queries answered in the cache.
    pub cache_hits: u64,
    /// Structures built.
    pub investments: u64,
    /// Structures evicted / failed.
    pub evictions: u64,
    /// Cache disk occupied at the end of the run (bytes).
    pub final_disk_bytes: u64,
}

impl RunResult {
    /// Fig. 4's y-value: total operating cost of the caching
    /// infrastructure (execution resources + disk rent + node uptime +
    /// structure builds).
    #[must_use]
    pub fn total_operating_cost(&self) -> Money {
        self.operating.total() + self.build_spend
    }

    /// Fig. 5's y-value: mean response time in seconds.
    #[must_use]
    pub fn mean_response_secs(&self) -> f64 {
        self.response.mean()
    }

    /// Cache hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// One-line human-readable summary of the run, printed by the
    /// examples.
    #[must_use]
    pub fn table_row(&self) -> String {
        format!(
            "{:<12} cost ${:>10.4}  mean resp {:>8.3}s  p50 {:>7.3}s  p99 {:>8.3}s  hits {:>5.1}%  builds {:>4}  evicts {:>4}",
            self.scheme,
            self.total_operating_cost().as_dollars(),
            self.mean_response_secs(),
            self.response_hist.quantile(0.5).unwrap_or(0.0),
            self.response_hist.quantile(0.99).unwrap_or(0.0),
            self.hit_rate() * 100.0,
            self.investments,
            self.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        let mut response = StreamingStats::new();
        response.record(1.0);
        response.record(3.0);
        let mut hist = LogHistogram::latency();
        hist.record(1.0);
        hist.record(3.0);
        let mut operating = CostBreakdown::ZERO;
        operating.add_to(metrics::Resource::Cpu, Money::from_dollars(2.0));
        RunResult {
            scheme: "econ-cheap".into(),
            queries: 2,
            horizon_secs: 20.0,
            response,
            response_hist: hist,
            operating,
            build_spend: Money::from_dollars(1.0),
            payments: Money::from_dollars(5.0),
            profit: Money::from_dollars(0.5),
            cache_hits: 1,
            investments: 3,
            evictions: 0,
            final_disk_bytes: 42,
        }
    }

    #[test]
    fn totals_combine_operating_and_builds() {
        let r = result();
        assert_eq!(r.total_operating_cost(), Money::from_dollars(3.0));
        assert_eq!(r.mean_response_secs(), 2.0);
        assert_eq!(r.hit_rate(), 0.5);
    }

    #[test]
    fn table_row_mentions_scheme_and_cost() {
        let row = result().table_row();
        assert!(row.contains("econ-cheap"));
        assert!(row.contains("3.0000"));
    }

    #[test]
    fn result_roundtrips_serde() {
        let r = result();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.queries, 2);
        assert_eq!(back.total_operating_cost(), r.total_operating_cost());
    }
}

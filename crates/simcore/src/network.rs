//! The WAN model between the cloud cache and the back-end databases.
//!
//! Eq. 9 and eq. 12 of the paper model every transfer as
//! `time = l + size / t` where `l` is one-way latency and `t` throughput.
//! The experimental setup uses `l = 0` and `t = 25 Mbps` — "the maximum
//! throughput between two database nodes for SDSS" (Section VII-A, citing
//! Wang et al., ICDE 2008).

use crate::time::SimDuration;
use serde::Serialize;

/// Deterministic latency + throughput network model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NetworkModel {
    /// One-way latency added to every transfer.
    pub latency: SimDuration,
    /// Sustained throughput in bytes per second.
    pub throughput_bytes_per_sec: f64,
}

impl NetworkModel {
    /// The paper's experimental network: zero latency, 25 Mbps.
    #[must_use]
    pub fn paper_sdss() -> Self {
        NetworkModel {
            latency: SimDuration::ZERO,
            throughput_bytes_per_sec: 25e6 / 8.0, // 25 megabits/s → bytes/s
        }
    }

    /// Creates a model from latency and a throughput in megabits/second.
    ///
    /// # Panics
    /// Panics unless throughput is positive and finite.
    #[must_use]
    pub fn new(latency: SimDuration, throughput_mbps: f64) -> Self {
        assert!(
            throughput_mbps.is_finite() && throughput_mbps > 0.0,
            "throughput must be positive, got {throughput_mbps}"
        );
        NetworkModel {
            latency,
            throughput_bytes_per_sec: throughput_mbps * 1e6 / 8.0,
        }
    }

    /// Time to move `bytes` across the link: `l + bytes / t`.
    #[must_use]
    #[inline]
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs(bytes as f64 / self.throughput_bytes_per_sec)
    }

    /// Throughput in megabits per second (for reports).
    #[must_use]
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bytes_per_sec * 8.0 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_is_25_mbps_zero_latency() {
        let n = NetworkModel::paper_sdss();
        assert_eq!(n.throughput_mbps(), 25.0);
        assert!(n.latency.is_zero());
    }

    #[test]
    fn transfer_time_is_linear_in_bytes() {
        let n = NetworkModel::new(SimDuration::ZERO, 8.0); // 1 MB/s
        assert!((n.transfer_time(1_000_000).as_secs() - 1.0).abs() < 1e-9);
        assert!((n.transfer_time(2_000_000).as_secs() - 2.0).abs() < 1e-9);
        assert!(n.transfer_time(0).is_zero());
    }

    #[test]
    fn latency_is_added_once() {
        let n = NetworkModel::new(SimDuration::from_secs(0.5), 8.0);
        let t = n.transfer_time(1_000_000);
        assert!((t.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sdss_transfer_example() {
        // 100 MB result at 25 Mbps = 32 s.
        let n = NetworkModel::paper_sdss();
        let t = n.transfer_time(100_000_000);
        assert!((t.as_secs() - 32.0).abs() < 1e-6, "got {}", t.as_secs());
    }
}

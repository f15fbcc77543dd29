//! Per-resource unit prices in cost-model units.
//!
//! The paper's symbols (Section V):
//!
//! | symbol | meaning                               | field here              |
//! |--------|---------------------------------------|--------------------------|
//! | `u`,`c`| CPU node usage cost per unit time     | [`ResourceRates::cpu_node_per_sec`] |
//! | `c_d`  | disk storage cost per byte per unit time | [`ResourceRates::disk_byte_per_sec`] |
//! | `c_b`  | network transfer cost per byte        | [`ResourceRates::transfer_per_byte`] |
//! | `io`   | cost per logical I/O operation        | [`ResourceRates::io_per_op`] |
//!
//! Eqs. 8–9 price every plan row through these charges, from other
//! crates, so each is `#[inline]`.

#![warn(clippy::missing_inline_in_public_items)]

use crate::money::Money;
use serde::{Deserialize, Serialize};

/// Unit prices for the four resources the cost model charges.
///
/// All rates are [`f64`] dollars per base unit; the cost model multiplies a
/// rate by a usage quantity and rounds into [`Money`] exactly once per
/// charge, so no drift compounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResourceRates {
    /// Dollars per CPU-node-second (the paper's `u` and `c`).
    pub cpu_node_per_sec: f64,
    /// Dollars per byte of cache disk per second (the paper's `c_d`).
    pub disk_byte_per_sec: f64,
    /// Dollars per byte transferred from the back-end (the paper's `c_b`).
    pub transfer_per_byte: f64,
    /// Dollars per logical I/O operation (the paper's per-I/O price).
    pub io_per_op: f64,
}

impl ResourceRates {
    /// Charge for `secs` of one CPU node.
    #[must_use]
    #[inline]
    pub fn cpu_cost(&self, secs: f64) -> Money {
        debug_assert!(secs >= 0.0);
        Money::from_dollars(self.cpu_node_per_sec * secs)
    }

    /// Charge for holding `bytes` on cache disk for `secs`.
    #[must_use]
    #[inline]
    pub fn disk_cost(&self, bytes: u64, secs: f64) -> Money {
        debug_assert!(secs >= 0.0);
        Money::from_dollars(self.disk_byte_per_sec * bytes as f64 * secs)
    }

    /// Charge for moving `bytes` over the WAN.
    #[must_use]
    #[inline]
    pub fn transfer_cost(&self, bytes: u64) -> Money {
        Money::from_dollars(self.transfer_per_byte * bytes as f64)
    }

    /// Charge for `ops` logical I/O operations.
    #[must_use]
    #[inline]
    pub fn io_cost(&self, ops: f64) -> Money {
        debug_assert!(ops >= 0.0);
        Money::from_dollars(self.io_per_op * ops)
    }

    /// Validates that every rate is finite and non-negative.
    ///
    /// # Errors
    /// Returns the offending field name.
    #[inline]
    pub fn validate(&self) -> Result<(), &'static str> {
        let checks = [
            (self.cpu_node_per_sec, "cpu_node_per_sec"),
            (self.disk_byte_per_sec, "disk_byte_per_sec"),
            (self.transfer_per_byte, "transfer_per_byte"),
            (self.io_per_op, "io_per_op"),
        ];
        for (v, name) in checks {
            if !v.is_finite() || v < 0.0 {
                return Err(name);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates() -> ResourceRates {
        ResourceRates {
            cpu_node_per_sec: 0.10 / 3600.0,
            disk_byte_per_sec: 1e-15,
            transfer_per_byte: 1e-10,
            io_per_op: 1e-7,
        }
    }

    #[test]
    fn cpu_cost_scales_with_time() {
        let r = rates();
        assert_eq!(r.cpu_cost(3600.0), Money::from_dollars(0.10));
        assert_eq!(r.cpu_cost(0.0), Money::ZERO);
    }

    #[test]
    fn disk_cost_scales_with_bytes_and_time() {
        let r = rates();
        let c = r.disk_cost(1_000_000_000, 1000.0);
        assert_eq!(c, Money::from_dollars(1e-15 * 1e9 * 1e3));
    }

    #[test]
    fn transfer_and_io() {
        let r = rates();
        assert_eq!(r.transfer_cost(1_000_000_000), Money::from_dollars(0.1));
        assert_eq!(r.io_cost(1_000_000.0), Money::from_dollars(0.1));
    }

    #[test]
    fn validation_catches_bad_rates() {
        let mut r = rates();
        assert!(r.validate().is_ok());
        r.io_per_op = f64::NAN;
        assert_eq!(r.validate(), Err("io_per_op"));
        r = rates();
        r.cpu_node_per_sec = -1.0;
        assert_eq!(r.validate(), Err("cpu_node_per_sec"));
    }
}

//! Named price catalogs.
//!
//! The paper states: "the cost values for the caching service are imported
//! from Amazon EC2" (Section VII-A). We encode the 2009 EC2/S3 list prices:
//!
//! * compute: $0.10 per small-instance hour,
//! * storage: $0.15 per GB-month,
//! * transfer in: $0.10 per GB,
//! * I/O: $0.10 per million requests (EBS pricing).
//!
//! The bypass-yield baseline is emulated with
//! [`PriceCatalog::network_only`] (every price except bandwidth is zero —
//! Section VII-A).

use crate::rates::ResourceRates;
use serde::Serialize;

const SECS_PER_HOUR: f64 = 3600.0;
const SECS_PER_MONTH: f64 = 30.0 * 86_400.0;
const BYTES_PER_GB: f64 = 1e9;

/// A named, self-describing set of resource prices.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PriceCatalog {
    /// Human-readable catalog name (appears in experiment reports).
    pub name: String,
    /// The unit rates the cost model consumes.
    pub rates: ResourceRates,
    /// CPU node boot time in seconds (the paper's `b` in eq. 10).
    pub node_boot_secs: f64,
}

impl PriceCatalog {
    /// Amazon EC2 / S3 / EBS list prices circa 2009 — the paper's setting.
    #[must_use]
    pub fn ec2_2009() -> Self {
        PriceCatalog {
            name: "ec2-2009".to_owned(),
            rates: ResourceRates {
                // $0.10 per instance-hour.
                cpu_node_per_sec: 0.10 / SECS_PER_HOUR,
                // $0.15 per GB-month.
                disk_byte_per_sec: 0.15 / BYTES_PER_GB / SECS_PER_MONTH,
                // $0.10 per GB in.
                transfer_per_byte: 0.10 / BYTES_PER_GB,
                // $0.10 per million I/O requests.
                io_per_op: 0.10 / 1e6,
            },
            // EC2 small instances booted in about a minute in 2009.
            node_boot_secs: 60.0,
        }
    }

    /// The bypass-yield emulation of Section VII-A: "associating cost only
    /// with network bandwidth, therefore setting costs for CPU, disk and
    /// I/O to zero".
    #[must_use]
    pub fn network_only() -> Self {
        PriceCatalog {
            name: "network-only".to_owned(),
            rates: ResourceRates {
                cpu_node_per_sec: 0.0,
                disk_byte_per_sec: 0.0,
                transfer_per_byte: 0.10 / BYTES_PER_GB,
                io_per_op: 0.0,
            },
            node_boot_secs: 60.0,
        }
    }

    /// Builder for ablation catalogs.
    ///
    /// # Panics
    /// Panics if the catalog fails [`Self::validate`].
    #[must_use]
    pub fn custom(name: &str, rates: ResourceRates, node_boot_secs: f64) -> Self {
        let catalog = PriceCatalog {
            name: name.to_owned(),
            rates,
            node_boot_secs,
        };
        if let Err(m) = catalog.validate() {
            panic!("{m}");
        }
        catalog
    }

    /// Validates the catalog: every rate finite and non-negative (a NaN
    /// rate would panic in [`crate::Money::from_dollars`], a negative one
    /// would run at negative cost) and a finite, non-negative boot time.
    ///
    /// # Errors
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        self.rates
            .validate()
            .map_err(|f| format!("rates.{f} must be finite and non-negative"))?;
        if !(self.node_boot_secs.is_finite() && self.node_boot_secs >= 0.0) {
            return Err(format!(
                "node_boot_secs must be finite and non-negative, got {}",
                self.node_boot_secs
            ));
        }
        Ok(())
    }

    /// Returns a copy with every price scaled by `factor` (price-level
    /// ablation: the economy's *decisions* should be scale-invariant).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "bad scale {factor}");
        PriceCatalog {
            name: format!("{}×{factor}", self.name),
            rates: ResourceRates {
                cpu_node_per_sec: self.rates.cpu_node_per_sec * factor,
                disk_byte_per_sec: self.rates.disk_byte_per_sec * factor,
                transfer_per_byte: self.rates.transfer_per_byte * factor,
                io_per_op: self.rates.io_per_op * factor,
            },
            node_boot_secs: self.node_boot_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;

    #[test]
    fn ec2_constants_match_2009_list_prices() {
        let c = PriceCatalog::ec2_2009();
        // One node-hour = $0.10.
        assert_eq!(c.rates.cpu_cost(3600.0), Money::from_dollars(0.10));
        // One GB-month = $0.15 (to rounding).
        let gb_month = c.rates.disk_cost(1_000_000_000, 30.0 * 86_400.0);
        assert!((gb_month.as_dollars() - 0.15).abs() < 1e-9);
        // One GB in = $0.10.
        assert_eq!(
            c.rates.transfer_cost(1_000_000_000),
            Money::from_dollars(0.10)
        );
        // One million I/Os = $0.10.
        assert_eq!(c.rates.io_cost(1e6), Money::from_dollars(0.10));
    }

    #[test]
    fn network_only_zeroes_everything_but_bandwidth() {
        let c = PriceCatalog::network_only();
        assert_eq!(c.rates.cpu_cost(1e6), Money::ZERO);
        assert_eq!(c.rates.disk_cost(u64::MAX, 1e6), Money::ZERO);
        assert_eq!(c.rates.io_cost(1e9), Money::ZERO);
        assert!(c.rates.transfer_cost(1_000_000_000).is_positive());
    }

    #[test]
    fn scaled_catalog_scales_all_rates() {
        let c = PriceCatalog::ec2_2009().scaled(2.0);
        assert_eq!(c.rates.cpu_cost(3600.0), Money::from_dollars(0.20));
        assert_eq!(c.name, "ec2-2009×2");
    }

    #[test]
    fn custom_validates() {
        let c = PriceCatalog::custom(
            "test",
            ResourceRates {
                cpu_node_per_sec: 1.0,
                disk_byte_per_sec: 0.0,
                transfer_per_byte: 0.0,
                io_per_op: 0.0,
            },
            5.0,
        );
        assert_eq!(c.node_boot_secs, 5.0);

        let mut bad = c;
        bad.node_boot_secs = f64::NAN;
        let err = bad.validate().unwrap_err();
        assert!(err.contains("node_boot_secs"), "{err}");
    }

    #[test]
    #[should_panic(expected = "rates.cpu_node_per_sec")]
    fn custom_rejects_nan_rate() {
        let _ = PriceCatalog::custom(
            "bad",
            ResourceRates {
                cpu_node_per_sec: f64::NAN,
                disk_byte_per_sec: 0.0,
                transfer_per_byte: 0.0,
                io_per_op: 0.0,
            },
            5.0,
        );
    }
}

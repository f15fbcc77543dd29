//! Per-resource operating-cost breakdown.
//!
//! The analysis in Section VII-B of the paper repeatedly decomposes the
//! operating cost by resource ("the disk cost is negligible for this
//! scenario", "the overall reduced cost … is directly proportional to the
//! cost saved by reduced CPU usage"). The simulator therefore books every
//! dollar against a [`Resource`], and Fig. 4 sums them.
//!
//! Every plan row carries a breakdown, so its operations are `#[inline]`.

#![warn(clippy::missing_inline_in_public_items)]

use pricing::Money;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// The four priced resources of the paper's cost model (Section V), plus
/// structure-build spending tracked separately for the investment analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Resource {
    /// CPU node time (the paper's `c`/`u`).
    Cpu,
    /// Cache disk occupancy (`c_d`).
    Disk,
    /// WAN transfer (`c_b`).
    Network,
    /// Logical I/O operations.
    Io,
}

/// All resources, for iteration.
pub const ALL_RESOURCES: [Resource; 4] = [
    Resource::Cpu,
    Resource::Disk,
    Resource::Network,
    Resource::Io,
];

/// Exact per-resource cost totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// CPU-time dollars.
    pub cpu: Money,
    /// Disk-occupancy dollars.
    pub disk: Money,
    /// Network-transfer dollars.
    pub network: Money,
    /// I/O-operation dollars.
    pub io: Money,
}

impl CostBreakdown {
    /// All-zero breakdown.
    pub const ZERO: CostBreakdown = CostBreakdown {
        cpu: Money::ZERO,
        disk: Money::ZERO,
        network: Money::ZERO,
        io: Money::ZERO,
    };

    /// Books an amount against one resource.
    #[inline]
    pub fn add_to(&mut self, resource: Resource, amount: Money) {
        match resource {
            Resource::Cpu => self.cpu += amount,
            Resource::Disk => self.disk += amount,
            Resource::Network => self.network += amount,
            Resource::Io => self.io += amount,
        }
    }

    /// The amount booked against one resource.
    #[must_use]
    #[inline]
    pub fn get(&self, resource: Resource) -> Money {
        match resource {
            Resource::Cpu => self.cpu,
            Resource::Disk => self.disk,
            Resource::Network => self.network,
            Resource::Io => self.io,
        }
    }

    /// Sum across resources.
    #[must_use]
    #[inline]
    pub fn total(&self) -> Money {
        self.cpu + self.disk + self.network + self.io
    }

    /// Merges another breakdown into this one (parallel shard rollups).
    ///
    /// Money is exact fixed-point, so merging is associative and
    /// commutative — shard aggregation order cannot change the result.
    #[inline]
    pub fn merge(&mut self, other: &CostBreakdown) {
        *self += *other;
    }

    /// Fraction of the total in one resource (0 when total is 0).
    #[must_use]
    #[inline]
    pub fn fraction(&self, resource: Resource) -> f64 {
        let total = self.total();
        if total.is_zero() {
            0.0
        } else {
            self.get(resource).as_dollars() / total.as_dollars()
        }
    }
}

impl Add for CostBreakdown {
    type Output = CostBreakdown;
    #[inline]
    fn add(self, rhs: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            cpu: self.cpu + rhs.cpu,
            disk: self.disk + rhs.disk,
            network: self.network + rhs.network,
            io: self.io + rhs.io,
        }
    }
}

impl AddAssign for CostBreakdown {
    #[inline]
    fn add_assign(&mut self, rhs: CostBreakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_to_and_total() {
        let mut b = CostBreakdown::ZERO;
        b.add_to(Resource::Cpu, Money::from_dollars(1.0));
        b.add_to(Resource::Network, Money::from_dollars(2.0));
        b.add_to(Resource::Cpu, Money::from_dollars(0.5));
        assert_eq!(b.cpu, Money::from_dollars(1.5));
        assert_eq!(b.total(), Money::from_dollars(3.5));
        assert_eq!(b.get(Resource::Io), Money::ZERO);
    }

    #[test]
    fn breakdown_addition() {
        let mut a = CostBreakdown::ZERO;
        a.add_to(Resource::Disk, Money::from_dollars(1.0));
        let mut b = CostBreakdown::ZERO;
        b.add_to(Resource::Disk, Money::from_dollars(2.0));
        b.add_to(Resource::Io, Money::from_dollars(3.0));
        let c = a + b;
        assert_eq!(c.disk, Money::from_dollars(3.0));
        assert_eq!(c.io, Money::from_dollars(3.0));
        a += b;
        assert_eq!(a, c);
    }

    #[test]
    fn merge_matches_operator_addition() {
        let mut a = CostBreakdown::ZERO;
        a.add_to(Resource::Cpu, Money::from_dollars(1.0));
        let mut b = CostBreakdown::ZERO;
        b.add_to(Resource::Cpu, Money::from_dollars(2.0));
        b.add_to(Resource::Network, Money::from_dollars(0.5));
        let via_add = a + b;
        a.merge(&b);
        assert_eq!(a, via_add);
        assert_eq!(a.cpu, Money::from_dollars(3.0));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = CostBreakdown::ZERO;
        for (i, r) in ALL_RESOURCES.iter().enumerate() {
            b.add_to(*r, Money::from_dollars((i + 1) as f64));
        }
        let total: f64 = ALL_RESOURCES.iter().map(|&r| b.fraction(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(CostBreakdown::ZERO.fraction(Resource::Cpu), 0.0);
    }
}

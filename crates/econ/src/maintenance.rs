//! Structure-failure policy — footnote 3 of the paper.
//!
//! *"Excessive maintenance cost of a structure due to non-usage of it in
//! selected query plans, can be the reason of structure failure."*
//!
//! A structure accrues maintenance continuously (eqs. 11/13/15); selected
//! plans that use it reimburse the accrual. If nothing uses it, the
//! unreimbursed accrual grows; once it exceeds `fail_factor ×` the
//! structure's build cost, keeping it is a worse deal than having to
//! rebuild it — the economy evicts ("fails") it. This single rule is what
//! drives the 10 s / 60 s eviction behaviour of Section VII-B.

use serde::Serialize;

/// Failure thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FailurePolicy {
    /// A structure fails when its unpaid maintenance exceeds
    /// `fail_factor × build_cost`.
    pub fail_factor: f64,
}

impl Default for FailurePolicy {
    fn default() -> Self {
        // With EC2-2009 prices, `build/maintenance ≈ 20 days` for any
        // column (both scale with size), while assembling a full working
        // set over a 25 Mbps link takes ~1-3 weeks of simulated time at
        // the paper's scale. A factor of 1 makes structures fail in the
        // middle of that assembly race; 3 tolerates the assembly while
        // still evicting structures whose workload genuinely moved away
        // (the paper's 10 s / 60 s eviction behaviour).
        FailurePolicy { fail_factor: 3.0 }
    }
}

impl FailurePolicy {
    /// Validates the factor.
    ///
    /// # Errors
    /// Returns a message if the factor is not positive/finite.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.fail_factor.is_finite() || self.fail_factor <= 0.0 {
            return Err("fail_factor must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_break_even() {
        assert_eq!(FailurePolicy::default().fail_factor, 3.0);
        assert!(FailurePolicy::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_nonpositive() {
        assert!(FailurePolicy { fail_factor: 0.0 }.validate().is_err());
        assert!(FailurePolicy { fail_factor: -1.0 }.validate().is_err());
        assert!(FailurePolicy {
            fail_factor: f64::NAN
        }
        .validate()
        .is_err());
    }
}

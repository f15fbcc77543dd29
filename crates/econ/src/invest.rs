//! The investment rule — eq. 3 plus the conservative gate.
//!
//! Eq. 3: `InvestIn(S) = round(regret_S / (a · CR))`, `0 < a < 1`: a
//! structure is considered for imminent investment once its accumulated
//! regret reaches the fraction `a` of the cloud credit `CR`.
//!
//! Section VII-A adds: *"The cache provider is conservative and builds
//! structures only when her profit exceeds the cost of building them"* —
//! the account must actually cover the build before money leaves it.

use pricing::Money;
use serde::Serialize;

/// Investment decision parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InvestmentRule {
    /// The `a` of eq. 3, in `(0, 1)`.
    pub regret_fraction: f64,
    /// The conservative gate: require the account to cover the build cost.
    pub conservative: bool,
    /// Regret floor: below this absolute regret no structure is built even
    /// if `a · CR` is tiny (protects a freshly-opened, nearly-empty
    /// account from investing on noise).
    pub min_regret: Money,
}

impl Default for InvestmentRule {
    fn default() -> Self {
        InvestmentRule {
            regret_fraction: 0.1,
            conservative: true,
            min_regret: Money::from_dollars(0.001),
        }
    }
}

impl InvestmentRule {
    /// Validates parameters.
    ///
    /// # Errors
    /// Returns a message for the first invalid field.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.regret_fraction.is_finite()
            || self.regret_fraction <= 0.0
            || self.regret_fraction >= 1.0
        {
            return Err("regret_fraction must be in (0, 1)");
        }
        if self.min_regret.is_negative() {
            return Err("min_regret must be non-negative");
        }
        Ok(())
    }

    /// The regret level at which eq. 3 triggers:
    /// `InvestIn(S) = round(regret_S / (a · CR)) ≥ 1` holds once
    /// `regret_S ≥ 0.5 · a · CR` (round-to-nearest), floored by
    /// `min_regret`.
    #[must_use]
    pub fn threshold(&self, credit: Money) -> Money {
        credit
            .clamp_non_negative()
            .scale(self.regret_fraction * 0.5)
            .max(self.min_regret)
    }

    /// Decides whether to build `S` now.
    #[must_use]
    pub fn should_build(&self, regret: Money, credit: Money, build_cost: Money) -> bool {
        regret >= self.threshold(credit) && self.funds(credit, build_cost)
    }

    /// The conservative gate alone: whether `credit` funds a build of
    /// `build_cost`.
    #[must_use]
    pub fn funds(&self, credit: Money, build_cost: Money) -> bool {
        !(self.conservative && credit < build_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(x: f64) -> Money {
        Money::from_dollars(x)
    }

    #[test]
    fn threshold_is_fraction_of_credit() {
        let r = InvestmentRule::default();
        assert_eq!(
            r.threshold(m(100.0)),
            m(5.0),
            "round(x/(a·CR)) ≥ 1 at half a·CR"
        );
    }

    #[test]
    fn threshold_floored_by_min_regret() {
        let r = InvestmentRule::default();
        assert_eq!(r.threshold(Money::ZERO), m(0.001));
        assert_eq!(r.threshold(m(-50.0)), m(0.001), "debt clamps to zero");
    }

    #[test]
    fn builds_when_regret_and_funds_suffice() {
        let r = InvestmentRule::default();
        assert!(r.should_build(m(15.0), m(100.0), m(50.0)));
    }

    #[test]
    fn refuses_below_regret_threshold() {
        let r = InvestmentRule::default();
        assert!(!r.should_build(m(2.0), m(100.0), m(1.0)));
    }

    #[test]
    fn conservative_gate_blocks_underfunded_builds() {
        let r = InvestmentRule::default();
        assert!(!r.should_build(m(50.0), m(100.0), m(200.0)));
        let bold = InvestmentRule {
            conservative: false,
            ..r
        };
        assert!(bold.should_build(m(50.0), m(100.0), m(200.0)));
    }

    #[test]
    fn validation() {
        assert!(InvestmentRule::default().validate().is_ok());
        let bad = InvestmentRule {
            regret_fraction: 1.0,
            ..InvestmentRule::default()
        };
        assert!(bad.validate().is_err());
        let bad = InvestmentRule {
            regret_fraction: 0.0,
            ..InvestmentRule::default()
        };
        assert!(bad.validate().is_err());
        let bad = InvestmentRule {
            min_regret: m(-1.0),
            ..InvestmentRule::default()
        };
        assert!(bad.validate().is_err());
    }
}

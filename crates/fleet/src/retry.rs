//! The router's [`RetryPolicy`]: deadline-budgeted retry for queries
//! routed at degraded or mid-crash nodes, with deterministic backoff
//! charged against the query's remaining budget headroom and graceful
//! downgrade to the backend plan when the budget can no longer cover a
//! retry.

use serde::Serialize;

/// Deadline-budgeted retry for queries routed at degraded nodes.
///
/// Each retry costs deterministic backoff wall-clock *and* shrinks the
/// query's willingness-to-pay headroom over the backend price: attempt
/// `k` multiplies the headroom by `(1 − budget_decay)`. As the headroom
/// collapses toward the backend price, the economy's own case analysis
/// stops selecting cache plans the budget can no longer cover — the
/// graceful downgrade to the backend plan falls out of `B_Q(t)` rather
/// than a special code path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RetryPolicy {
    /// Total routing attempts allowed per query (≥ 1; 1 means no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds (≥ 0).
    pub backoff_secs: f64,
    /// Multiplier applied to the backoff on each further retry (≥ 1).
    pub backoff_factor: f64,
    /// Fraction of the query's remaining budget headroom consumed by
    /// each retry, in (0, 1]. 1 collapses the budget to the backend
    /// price after one retry.
    pub budget_decay: f64,
}

impl RetryPolicy {
    /// Validates the policy (named-field error messages).
    ///
    /// # Errors
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts < 1 {
            return Err("retry.max_attempts must be at least 1".into());
        }
        if !self.backoff_secs.is_finite() || self.backoff_secs < 0.0 {
            return Err(format!(
                "retry.backoff_secs {} must be non-negative",
                self.backoff_secs
            ));
        }
        if !self.backoff_factor.is_finite() || self.backoff_factor < 1.0 {
            return Err(format!(
                "retry.backoff_factor {} must be at least 1",
                self.backoff_factor
            ));
        }
        if !self.budget_decay.is_finite() || self.budget_decay <= 0.0 || self.budget_decay > 1.0 {
            return Err(format!(
                "retry.budget_decay {} must be in (0, 1]",
                self.budget_decay
            ));
        }
        Ok(())
    }

    /// Backoff charged before retry `attempt` (1-based: the first retry
    /// is attempt 1), seconds. Deterministic geometric schedule.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> f64 {
        self.backoff_secs * self.backoff_factor.powi(attempt.saturating_sub(1) as i32)
    }

    /// The query's budget scale after one retry's decay: the headroom
    /// over the backend price (`scale − 1`) shrinks by `budget_decay`.
    /// Never drops below 1 (the backend price itself).
    #[must_use]
    pub fn decayed_budget_scale(&self, scale: f64) -> f64 {
        1.0 + (scale - 1.0).max(0.0) * (1.0 - self.budget_decay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_validates_by_name() {
        let ok = RetryPolicy {
            max_attempts: 3,
            backoff_secs: 2.0,
            backoff_factor: 2.0,
            budget_decay: 0.5,
        };
        assert!(ok.validate().is_ok());

        let mut p = ok;
        p.max_attempts = 0;
        assert!(p.validate().unwrap_err().contains("max_attempts"));

        let mut p = ok;
        p.backoff_secs = -1.0;
        assert!(p.validate().unwrap_err().contains("backoff_secs"));

        let mut p = ok;
        p.backoff_factor = 0.5;
        assert!(p.validate().unwrap_err().contains("backoff_factor"));

        let mut p = ok;
        p.budget_decay = 0.0;
        assert!(p.validate().unwrap_err().contains("budget_decay"));
        p.budget_decay = 1.5;
        assert!(p.validate().unwrap_err().contains("budget_decay"));
    }

    #[test]
    fn backoff_schedule_is_geometric() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff_secs: 2.0,
            backoff_factor: 3.0,
            budget_decay: 0.5,
        };
        assert_eq!(p.backoff_for(1), 2.0);
        assert_eq!(p.backoff_for(2), 6.0);
        assert_eq!(p.backoff_for(3), 18.0);
    }

    #[test]
    fn budget_decay_collapses_headroom_toward_backend_price() {
        let p = RetryPolicy {
            max_attempts: 3,
            backoff_secs: 1.0,
            backoff_factor: 1.0,
            budget_decay: 0.5,
        };
        let s1 = p.decayed_budget_scale(2.0);
        assert!((s1 - 1.5).abs() < 1e-12);
        let s2 = p.decayed_budget_scale(s1);
        assert!((s2 - 1.25).abs() < 1e-12);
        // Headroom never goes below the backend price itself.
        assert_eq!(p.decayed_budget_scale(1.0), 1.0);
        assert_eq!(p.decayed_budget_scale(0.5), 1.0);
    }
}

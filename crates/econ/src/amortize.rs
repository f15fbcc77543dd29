//! Amortisation horizons — eq. 7 and the paper's open problem.
//!
//! Eq. 7: `f_S(n, Build_S(S)) = Build_S(S) / n` — build cost is spread
//! equally over the next `n` queries that use the structure. The paper
//! notes that *"selecting n is a challenging problem in itself, as it
//! depends on the provider's risk aversion, arrival pattern of the
//! queries, and infrastructure costs. We intend to study this problem in
//! our future research."*
//!
//! We implement the paper's fixed-`n` policy and, as the promised
//! extension, an adaptive policy that sizes `n` to the number of queries
//! expected within a repayment window given the observed arrival rate —
//! fast workloads repay quickly with many small installments, slow ones
//! keep installments meaningful.

use serde::Serialize;

/// How the amortisation horizon `n` of eq. 7 is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum AmortizationPolicy {
    /// The paper's policy: a fixed `n` for every structure.
    Fixed(u64),
    /// Extension: `n = clamp(rate × window, lo, hi)` where `rate` is the
    /// observed query arrival rate (queries/second).
    Adaptive {
        /// Target repayment window in seconds.
        window_secs: f64,
        /// Lower clamp on `n`.
        min_n: u64,
        /// Upper clamp on `n`.
        max_n: u64,
    },
}

impl Default for AmortizationPolicy {
    fn default() -> Self {
        AmortizationPolicy::Fixed(2000)
    }
}

impl AmortizationPolicy {
    /// Resolves the horizon for a new structure given the observed
    /// arrival rate (queries per second; pass 0 if unknown).
    ///
    /// # Panics
    /// Panics if a fixed policy was built with `n == 0`.
    #[must_use]
    pub fn horizon(&self, arrival_rate_per_sec: f64) -> u64 {
        match *self {
            AmortizationPolicy::Fixed(n) => {
                assert!(n > 0, "fixed amortization horizon must be positive");
                n
            }
            AmortizationPolicy::Adaptive {
                window_secs,
                min_n,
                max_n,
            } => {
                let raw = (arrival_rate_per_sec * window_secs).round() as u64;
                raw.clamp(min_n.max(1), max_n.max(1))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ignores_rate() {
        let p = AmortizationPolicy::Fixed(500);
        assert_eq!(p.horizon(0.0), 500);
        assert_eq!(p.horizon(1000.0), 500);
    }

    #[test]
    fn adaptive_scales_with_rate() {
        let p = AmortizationPolicy::Adaptive {
            window_secs: 3600.0,
            min_n: 10,
            max_n: 10_000,
        };
        // 1 query/s over an hour window → 3600 uses.
        assert_eq!(p.horizon(1.0), 3600);
        // 1 query/min → 60.
        assert_eq!(p.horizon(1.0 / 60.0), 60);
    }

    #[test]
    fn adaptive_clamps() {
        let p = AmortizationPolicy::Adaptive {
            window_secs: 100.0,
            min_n: 50,
            max_n: 200,
        };
        assert_eq!(p.horizon(0.0), 50, "floor");
        assert_eq!(p.horizon(1e9), 200, "ceiling");
    }

    #[test]
    fn default_is_the_paper_fixed_policy() {
        assert_eq!(AmortizationPolicy::default().horizon(123.0), 2000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fixed_zero_rejected() {
        let _ = AmortizationPolicy::Fixed(0).horizon(1.0);
    }
}

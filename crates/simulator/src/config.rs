//! Experiment-cell configuration.

use econ::EconConfig;
use planner::CostParams;
use pricing::PriceCatalog;
use serde::Serialize;
use workload::WorkloadConfig;

/// Which caching scheme operates the cache.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Scheme {
    /// The net-only bypass-yield baseline, with its cache-size fraction
    /// (the paper's ideal is 0.30).
    Bypass {
        /// Cache capacity as a fraction of the database size.
        cache_fraction: f64,
    },
    /// Economic model, columns only.
    EconCol,
    /// Economic model, cheapest affordable plan.
    EconCheap,
    /// Economic model, fastest affordable plan.
    EconFast,
    /// Economic model, minimum-profit (Definition 1) objective.
    Altruistic,
}

impl Scheme {
    /// Display name used in figures.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Bypass { .. } => "bypass",
            Scheme::EconCol => "econ-col",
            Scheme::EconCheap => "econ-cheap",
            Scheme::EconFast => "econ-fast",
            Scheme::Altruistic => "econ-altruistic",
        }
    }

    /// Validates the scheme's parameters: a bypass cache fraction lies
    /// in `(0, 1]`.
    ///
    /// # Errors
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Scheme::Bypass { cache_fraction }
                if !(cache_fraction > 0.0 && cache_fraction <= 1.0) =>
            {
                Err(format!(
                    "bypass cache_fraction must be in (0, 1], got {cache_fraction}"
                ))
            }
            _ => Ok(()),
        }
    }

    /// The paper's four measured schemes.
    #[must_use]
    pub fn paper_schemes() -> Vec<Scheme> {
        vec![
            Scheme::Bypass {
                cache_fraction: 0.30,
            },
            Scheme::EconCol,
            Scheme::EconCheap,
            Scheme::EconFast,
        ]
    }
}

/// Query arrival process selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalKind {
    /// Deterministic gaps — the paper's inter-arrival grid.
    Fixed {
        /// Seconds between queries.
        interval_secs: f64,
    },
    /// Poisson arrivals with the given mean gap.
    Poisson {
        /// Mean seconds between queries.
        mean_gap_secs: f64,
    },
    /// Markov-modulated bursts.
    Bursty {
        /// Mean in-burst gap (seconds).
        on_gap_secs: f64,
        /// Mean queries per burst.
        burst_len: u64,
        /// Mean gap between bursts (seconds).
        off_gap_secs: f64,
    },
    /// Two-state Markov-modulated Poisson process
    /// ([`workload::MarkovModulated`]): calm/storm rate switching with
    /// exponential sojourns — the elasticity experiments' bursty shape.
    Mmpp {
        /// Mean inter-arrival gap in the calm state (seconds).
        calm_gap_secs: f64,
        /// Mean inter-arrival gap in the storm state (seconds).
        storm_gap_secs: f64,
        /// Mean calm-state duration (seconds).
        calm_sojourn_secs: f64,
        /// Mean storm-state duration (seconds).
        storm_sojourn_secs: f64,
    },
    /// Sinusoidally rate-modulated Poisson process
    /// ([`workload::DiurnalSinusoid`]): the day/night demand cycle.
    Diurnal {
        /// Mean inter-arrival gap averaged over a period (seconds).
        mean_gap_secs: f64,
        /// Relative rate swing in `[0, 1)`.
        amplitude: f64,
        /// Cycle length (seconds).
        period_secs: f64,
        /// Phase offset (radians); `-π/2` starts at the trough.
        phase: f64,
    },
}

impl ArrivalKind {
    /// Validates the process's parameters: every gap, sojourn and period
    /// finite and positive, a burst length in `[1, u64::MAX / 2]`, and a
    /// diurnal amplitude in `[0, 1)` with a finite phase.
    ///
    /// # Errors
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |field: &str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{field} must be finite and positive, got {v}"))
            }
        };
        match *self {
            ArrivalKind::Fixed { interval_secs } => positive("fixed interval_secs", interval_secs),
            ArrivalKind::Poisson { mean_gap_secs } => {
                positive("poisson mean_gap_secs", mean_gap_secs)
            }
            ArrivalKind::Bursty {
                on_gap_secs,
                burst_len,
                off_gap_secs,
            } => {
                positive("bursty on_gap_secs", on_gap_secs)?;
                positive("bursty off_gap_secs", off_gap_secs)?;
                // The sampler draws a burst length below `2 * burst_len`.
                if burst_len == 0 || burst_len > u64::MAX / 2 {
                    return Err(format!(
                        "bursty burst_len must be in [1, u64::MAX / 2], got {burst_len}"
                    ));
                }
                Ok(())
            }
            ArrivalKind::Mmpp {
                calm_gap_secs,
                storm_gap_secs,
                calm_sojourn_secs,
                storm_sojourn_secs,
            } => {
                positive("mmpp calm_gap_secs", calm_gap_secs)?;
                positive("mmpp storm_gap_secs", storm_gap_secs)?;
                positive("mmpp calm_sojourn_secs", calm_sojourn_secs)?;
                positive("mmpp storm_sojourn_secs", storm_sojourn_secs)
            }
            ArrivalKind::Diurnal {
                mean_gap_secs,
                amplitude,
                period_secs,
                phase,
            } => {
                positive("diurnal mean_gap_secs", mean_gap_secs)?;
                positive("diurnal period_secs", period_secs)?;
                if !(0.0..1.0).contains(&amplitude) {
                    return Err(format!(
                        "diurnal amplitude must be in [0, 1), got {amplitude}"
                    ));
                }
                if !phase.is_finite() {
                    return Err(format!("diurnal phase must be finite, got {phase}"));
                }
                Ok(())
            }
        }
    }
}

/// Full description of one simulation cell.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// TPC-H scale factor (the paper's backend is SF ≈ 2500 = 2.5 TB).
    pub scale_factor: f64,
    /// Number of queries to serve.
    pub num_queries: u64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// The scheme under test.
    pub scheme: Scheme,
    /// Workload knobs.
    pub workload: WorkloadConfig,
    /// Cost-model calibration.
    pub cost_params: CostParams,
    /// Resource prices.
    pub prices: PriceCatalog,
    /// Economy configuration (ignored by the bypass scheme).
    pub econ: EconConfig,
    /// Candidate-index budget (the paper's 65).
    pub candidate_indexes: usize,
    /// Master RNG seed — two runs with equal config and seed are
    /// bit-identical.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's experimental cell for a scheme at an inter-arrival
    /// interval, scaled down to `sf` / `num_queries` (the full paper cell
    /// is `sf = 2500`, `num_queries = 1_000_000`).
    #[must_use]
    pub fn paper_cell(scheme: Scheme, interval_secs: f64, sf: f64, num_queries: u64) -> Self {
        SimConfig {
            scale_factor: sf,
            num_queries,
            arrival: ArrivalKind::Fixed { interval_secs },
            scheme,
            workload: WorkloadConfig::default(),
            cost_params: CostParams::default(),
            prices: PriceCatalog::ec2_2009(),
            econ: EconConfig::default(),
            candidate_indexes: 65,
            seed: 0xC10D_CA5E,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.scale_factor.is_finite() || self.scale_factor <= 0.0 {
            return Err("scale_factor must be positive".into());
        }
        if self.num_queries == 0 {
            return Err("num_queries must be positive".into());
        }
        self.arrival
            .validate()
            .map_err(|m| format!("arrival: {m}"))?;
        self.scheme.validate().map_err(|m| format!("scheme: {m}"))?;
        self.prices.validate().map_err(|m| format!("prices: {m}"))?;
        self.workload
            .validate()
            .map_err(|(f, r)| format!("workload.{f}: {r}"))?;
        self.cost_params
            .validate()
            .map_err(|f| format!("cost_params.{f} invalid"))?;
        self.econ.validate().map_err(|m| format!("econ: {m}"))?;
        if self.candidate_indexes == 0 {
            return Err("candidate_indexes must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cell_validates() {
        for scheme in Scheme::paper_schemes() {
            let cfg = SimConfig::paper_cell(scheme, 10.0, 10.0, 1000);
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn scheme_names() {
        assert_eq!(
            Scheme::paper_schemes()
                .iter()
                .map(Scheme::name)
                .collect::<Vec<_>>(),
            vec!["bypass", "econ-col", "econ-cheap", "econ-fast"]
        );
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, 10.0, 1000);
        cfg.num_queries = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, 10.0, 1000);
        cfg.arrival = ArrivalKind::Fixed { interval_secs: 0.0 };
        assert!(cfg.validate().is_err());

        let cfg = SimConfig::paper_cell(
            Scheme::Bypass {
                cache_fraction: 1.5,
            },
            10.0,
            10.0,
            1000,
        );
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, 10.0, 1000);
        cfg.scale_factor = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, 10.0, 1000);
        cfg.arrival = ArrivalKind::Fixed {
            interval_secs: f64::NAN,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("arrival: fixed interval_secs"), "{err}");

        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, 10.0, 1000);
        cfg.prices.rates.cpu_node_per_sec = f64::NAN;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("prices: rates.cpu_node_per_sec"), "{err}");

        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 10.0, 10.0, 1000);
        cfg.prices.rates.transfer_per_byte = -1e-10;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("prices: rates.transfer_per_byte"), "{err}");
    }
}

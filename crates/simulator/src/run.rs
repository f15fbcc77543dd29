//! The coordinator loop.
//!
//! Drives arrivals through the configured policy, booking the cloud's
//! *actual* expenditure per step:
//!
//! * backend executions are pay-per-use (CPU + I/O + network, eq. 9);
//! * cache executions pay I/O per use, while cache CPU is covered by node
//!   *uptime* (the base node plus any extra nodes, charged continuously
//!   at `c` per second — eq. 11); booking both would double-count;
//! * cache disk is charged on the exact byte-seconds integral (eq. 13/15);
//! * structure builds are charged when the investment happens.

use std::sync::Arc;

use catalog::tpch::{tpch_schema, ScaleFactor};
use catalog::Schema;
use econ::EconConfig;
use planner::{generate_candidates, Estimator, PlannerContext};
use policies::{BypassYieldPolicy, CachePolicy, EconPolicy};
use simcore::arrival::{ArrivalProcess, FixedInterval, OnOffBursty, PoissonProcess};
use simcore::{NetworkModel, SimDuration, SimRng, SimTime};
use workload::WorkloadGenerator;

use crate::config::{ArrivalKind, Scheme, SimConfig};
use crate::results::RunResult;
use crate::step::RunAccumulator;

/// Instantiates the policy a [`Scheme`] names, against a schema and an
/// economy configuration (ignored by the bypass scheme).
///
/// Shared by [`Simulation`] and the fleet executor, which builds one
/// policy per cache node. The box is `Send` so a fleet cell's nodes can
/// live on its executor's shard worker threads.
#[must_use]
pub fn make_policy(
    scheme: &Scheme,
    schema: &Arc<Schema>,
    econ: &EconConfig,
) -> Box<dyn CachePolicy + Send> {
    match scheme {
        Scheme::Bypass { cache_fraction } => {
            Box::new(BypassYieldPolicy::new(schema, *cache_fraction))
        }
        Scheme::EconCol => Box::new(EconPolicy::econ_col(econ.clone())),
        Scheme::EconCheap => Box::new(EconPolicy::econ_cheap(econ.clone())),
        Scheme::EconFast => Box::new(EconPolicy::econ_fast(econ.clone())),
        Scheme::Altruistic => Box::new(EconPolicy::altruistic(econ.clone())),
    }
}

/// Instantiates the arrival process an [`ArrivalKind`] names.
///
/// Shared by [`Simulation`] and the fleet's per-tenant streams.
#[must_use]
pub fn make_arrivals(kind: &ArrivalKind) -> Box<dyn ArrivalProcess> {
    match *kind {
        ArrivalKind::Fixed { interval_secs } => {
            Box::new(FixedInterval::new(SimDuration::from_secs(interval_secs)))
        }
        ArrivalKind::Poisson { mean_gap_secs } => {
            Box::new(PoissonProcess::new(SimDuration::from_secs(mean_gap_secs)))
        }
        ArrivalKind::Bursty {
            on_gap_secs,
            burst_len,
            off_gap_secs,
        } => Box::new(OnOffBursty::new(
            SimDuration::from_secs(on_gap_secs),
            burst_len,
            SimDuration::from_secs(off_gap_secs),
        )),
        ArrivalKind::Mmpp {
            calm_gap_secs,
            storm_gap_secs,
            calm_sojourn_secs,
            storm_sojourn_secs,
        } => Box::new(workload::MarkovModulated::new(
            calm_gap_secs,
            storm_gap_secs,
            calm_sojourn_secs,
            storm_sojourn_secs,
        )),
        ArrivalKind::Diurnal {
            mean_gap_secs,
            amplitude,
            period_secs,
            phase,
        } => Box::new(workload::DiurnalSinusoid::new(
            mean_gap_secs,
            amplitude,
            period_secs,
            phase,
        )),
    }
}

/// A prepared simulation: schema, candidates and estimator built once so
/// sweeps over schemes/intervals can share them.
pub struct Simulation {
    schema: Arc<Schema>,
    candidates: Vec<cache::IndexDef>,
    cand_index: planner::CandidateIndex,
    estimator: Estimator,
    config: SimConfig,
}

impl Simulation {
    /// Prepares a simulation from a validated config.
    ///
    /// # Panics
    /// Panics if the config is invalid.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid simulation config: {msg}");
        }
        let schema = Arc::new(tpch_schema(ScaleFactor(config.scale_factor)));
        let templates = workload::paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, config.candidate_indexes);
        let cand_index = planner::CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            config.cost_params.clone(),
            config.prices.clone(),
            NetworkModel::paper_sdss(),
        );
        Simulation {
            schema,
            candidates,
            cand_index,
            estimator,
            config,
        }
    }

    /// The backend schema.
    #[must_use]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn make_policy(&self) -> Box<dyn CachePolicy + Send> {
        make_policy(&self.config.scheme, &self.schema, &self.config.econ)
    }

    fn make_arrivals(&self) -> Box<dyn ArrivalProcess> {
        make_arrivals(&self.config.arrival)
    }

    /// Executes the run.
    #[must_use]
    pub fn run(&self) -> RunResult {
        let ctx = PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        };
        let mut policy = self.make_policy();
        let mut arrivals = self.make_arrivals();
        let mut rng = SimRng::new(self.config.seed);
        let mut generator = WorkloadGenerator::new(
            Arc::clone(&self.schema),
            self.config.workload.clone(),
            self.config.seed ^ 0x57A7_1571C5,
        );

        let mut acc = RunAccumulator::new();
        let mut last_arrival = SimTime::ZERO;

        for _ in 0..self.config.num_queries {
            let now = arrivals
                .next_arrival(&mut rng)
                .expect("generated arrival processes never exhaust");
            let query = generator.next_query();
            last_arrival = now;
            let _ = acc.step(policy.as_mut(), &ctx, &query, now);
        }

        // Close out the horizon: the run ends at the last arrival.
        acc.finish(policy.as_mut(), &self.config.prices.rates, last_arrival)
    }
}

/// One-shot convenience: prepare and run.
#[must_use]
pub fn run_simulation(config: SimConfig) -> RunResult {
    Simulation::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pricing::Money;

    fn quick(scheme: Scheme, interval: f64, n: u64) -> RunResult {
        let mut cfg = SimConfig::paper_cell(scheme, interval, 10.0, n);
        // Test-scale economics (see econ::economy tests): small capital,
        // low noise floor.
        cfg.econ.initial_credit = Money::from_dollars(0.02);
        cfg.econ.investment.min_regret = Money::from_dollars(1e-5);
        run_simulation(cfg)
    }

    #[test]
    fn all_four_schemes_complete() {
        for scheme in Scheme::paper_schemes() {
            let r = quick(scheme.clone(), 1.0, 300);
            assert_eq!(r.queries, 300);
            assert!(r.response.count() == 300);
            assert!(r.total_operating_cost().is_positive());
            assert!(r.mean_response_secs() > 0.0);
            assert!(r.horizon_secs >= 300.0);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = quick(Scheme::EconCheap, 1.0, 400);
        let b = quick(Scheme::EconCheap, 1.0, 400);
        assert_eq!(a.total_operating_cost(), b.total_operating_cost());
        assert_eq!(a.mean_response_secs(), b.mean_response_secs());
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.investments, b.investments);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = SimConfig::paper_cell(Scheme::EconCheap, 1.0, 10.0, 400);
        cfg.econ.initial_credit = Money::from_dollars(0.02);
        let a = run_simulation(cfg.clone());
        let mut cfg2 = cfg.clone();
        cfg2.seed ^= 1;
        let b = run_simulation(cfg2);
        assert_ne!(a.mean_response_secs(), b.mean_response_secs());
    }

    #[test]
    fn economy_caches_within_test_horizon() {
        let r = quick(Scheme::EconCheap, 1.0, 2500);
        assert!(r.investments > 0, "no investments");
        assert!(r.cache_hits > 0, "no cache hits");
        assert!(r.final_disk_bytes > 0);
    }

    #[test]
    fn operating_cost_has_all_components() {
        let r = quick(Scheme::EconCheap, 1.0, 2500);
        assert!(r.operating.cpu.is_positive(), "node uptime");
        assert!(r.operating.network.is_positive(), "result shipping");
        assert!(r.operating.disk.is_positive(), "disk rent after builds");
        assert!(r.operating.io.is_positive(), "I/O charges");
    }

    #[test]
    fn bypass_never_profits() {
        let r = quick(
            Scheme::Bypass {
                cache_fraction: 0.3,
            },
            1.0,
            500,
        );
        assert_eq!(r.profit, Money::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_config_panics() {
        let mut cfg = SimConfig::paper_cell(Scheme::EconCol, 1.0, 1.0, 10);
        cfg.num_queries = 0;
        let _ = Simulation::new(cfg);
    }
}

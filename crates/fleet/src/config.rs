//! Fleet experiment configuration.

use econ::EconConfig;
use planner::CostParams;
use pricing::{Money, PriceCatalog};
use serde::Serialize;
use simulator::{ArrivalKind, Scheme};
use telemetry::{HealthConfig, TenantSloSpec};
use workload::WorkloadConfig;

use crate::elastic::ElasticConfig;
use crate::faults::FaultPlan;
use crate::node::NodeSpec;
use crate::router::RouterKind;
use crate::tenant::{TenantId, TenantSpec};

/// Full description of one fleet simulation.
///
/// Tenants are partitioned into `cells` (tenant `id % cells`); each cell
/// owns a private replica of the `nodes` fleet and serves its tenants'
/// superposed stream. `shards` worker threads execute cells in parallel;
/// because cell membership and all seeds depend only on tenant ids, the
/// result is a pure function of everything *except* `shards` — see
/// [`crate::exec`] for the invariance argument.
#[derive(Debug, Clone, Serialize)]
pub struct FleetConfig {
    /// TPC-H scale factor of the shared backend database.
    pub scale_factor: f64,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
    /// The cache nodes each cell instantiates.
    pub nodes: Vec<NodeSpec>,
    /// Routing strategy.
    pub router: RouterKind,
    /// Number of independent cells the tenants are partitioned into.
    pub cells: usize,
    /// Worker threads executing cells (affects wall-clock only).
    pub shards: usize,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. A cheapest-quote round runs on the
    /// router's thread, so [`Self::validate`] accepts only 1.
    pub quote_threads: usize,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. Every full quote round quotes node by
    /// node whatever it holds.
    pub quote_batching: bool,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. There are no quote workers to pin,
    /// so any value is accepted.
    pub pin_quote_workers: bool,
    /// Cost-model calibration.
    pub cost_params: CostParams,
    /// Resource prices.
    pub prices: PriceCatalog,
    /// Economy configuration shared by every economic node.
    pub econ: EconConfig,
    /// Candidate-index budget per cell (the paper's 65).
    pub candidate_indexes: usize,
    /// Elastic control plane; `None` runs the classic fixed population.
    /// When set, each cell's controller scales its node replica up and
    /// down on the configured review cadence (see [`crate::elastic`]);
    /// `nodes` then describes the *seed* population.
    pub elastic: Option<ElasticConfig>,
    /// Declarative fault plan; `None` runs fault-free. When set, each
    /// cell injects the plan's crashes / recoveries / degradations into
    /// its private fleet replica and layers the surge windows on every
    /// tenant's arrivals (see [`crate::faults`]). Faults are config, so
    /// faulted runs stay bit-replayable and shard-invariant.
    pub faults: Option<FaultPlan>,
    /// Health-plane snapshot cadence; `None` (the default) takes no
    /// vitals snapshots. Purely
    /// observational: a snapshot-on run is bit-identical to the same
    /// run with snapshots off (see `crate::exec` — the scraper only
    /// reads state, on a simulated-time cadence).
    pub health: Option<HealthConfig>,
    /// Master seed; per-tenant seeds derive from `(seed, tenant id)`.
    pub seed: u64,
}

impl FleetConfig {
    /// A homogeneous fleet: `n_tenants` identical tenants with fixed
    /// inter-arrival `interval_secs`, `n_nodes` econ-cheap nodes, and the
    /// economics scaled the way the workspace's tests scale them (small
    /// initial capital, low regret floor) so that investment fires within
    /// a few hundred queries per cell.
    #[must_use]
    pub fn uniform(
        n_tenants: u32,
        n_nodes: usize,
        queries_per_tenant: u64,
        interval_secs: f64,
    ) -> Self {
        let tenants = (0..n_tenants)
            .map(|id| TenantSpec {
                id: TenantId(id),
                workload: WorkloadConfig::default(),
                arrival: ArrivalKind::Fixed { interval_secs },
                queries: queries_per_tenant,
                slo: None,
            })
            .collect();
        let nodes = (0..n_nodes)
            .map(|_| NodeSpec::new(Scheme::EconCheap))
            .collect();
        let econ = EconConfig {
            initial_credit: Money::from_dollars(0.02),
            investment: econ::InvestmentRule {
                min_regret: Money::from_dollars(1e-5),
                ..econ::InvestmentRule::default()
            },
            ..EconConfig::default()
        };
        FleetConfig {
            scale_factor: 50.0,
            tenants,
            nodes,
            router: RouterKind::CheapestQuote,
            cells: 8,
            shards: 1,
            quote_threads: 1,
            quote_batching: true,
            pin_quote_workers: true,
            cost_params: CostParams::default(),
            prices: PriceCatalog::ec2_2009(),
            econ,
            candidate_indexes: 65,
            elastic: None,
            faults: None,
            health: None,
            seed: 0xF1EE_7CA5,
        }
    }

    /// Builder style: attach an elastic control plane.
    #[must_use]
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = Some(elastic);
        self
    }

    /// Builder style: attach a fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builder style: snapshot fleet vitals every `interval_secs` of
    /// simulated time.
    #[must_use]
    pub fn with_health(mut self, interval_secs: f64) -> Self {
        self.health = Some(HealthConfig {
            snapshot_interval_secs: interval_secs,
        });
        self
    }

    /// Builder style: give every tenant the same service-level
    /// objective — the SLO ledger then tracks deadline misses and spend
    /// caps for the whole population.
    #[must_use]
    pub fn with_slo(mut self, slo: TenantSloSpec) -> Self {
        for t in &mut self.tenants {
            t.slo = Some(slo);
        }
        self
    }

    /// Builder style: give every tenant the same arrival process — the
    /// scenario axis of the elasticity experiments (steady / bursty /
    /// diurnal).
    #[must_use]
    pub fn with_arrivals(mut self, arrival: ArrivalKind) -> Self {
        for t in &mut self.tenants {
            t.arrival = arrival;
        }
        self
    }

    /// A heterogeneous fleet: tenants cycle through fixed / Poisson /
    /// bursty arrivals and three budget-generosity tiers, modelling a
    /// population of differently-behaved customers on one marketplace.
    #[must_use]
    pub fn mixed(n_tenants: u32, n_nodes: usize, queries_per_tenant: u64) -> Self {
        let mut config = Self::uniform(n_tenants, n_nodes, queries_per_tenant, 1.0);
        for spec in &mut config.tenants {
            let id = spec.id.0;
            spec.arrival = match id % 3 {
                0 => ArrivalKind::Fixed { interval_secs: 1.0 },
                1 => ArrivalKind::Poisson { mean_gap_secs: 2.0 },
                _ => ArrivalKind::Bursty {
                    on_gap_secs: 0.25,
                    burst_len: 20,
                    off_gap_secs: 30.0,
                },
            };
            spec.workload.budget_scale_range = match id % 4 {
                0 => (1.05, 1.2),
                1 => (1.1, 1.5),
                2 => (1.2, 1.8),
                _ => (1.05, 1.5),
            };
        }
        config
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a human-readable message for the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.scale_factor.is_finite() || self.scale_factor <= 0.0 {
            return Err("scale_factor must be positive".into());
        }
        if self.tenants.is_empty() {
            return Err("fleet needs at least one tenant".into());
        }
        if self.nodes.is_empty() {
            return Err("fleet needs at least one node".into());
        }
        if self.cells == 0 {
            return Err("cells must be positive".into());
        }
        if self.shards == 0 {
            return Err("shards must be positive".into());
        }
        if self.quote_threads != 1 {
            return Err(format!(
                "quote_threads must be 1 (quote rounds run on the router's thread), got {}",
                self.quote_threads
            ));
        }
        if self.candidate_indexes == 0 {
            return Err("candidate_indexes must be positive".into());
        }
        let mut ids: Vec<u32> = self.tenants.iter().map(|t| t.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.tenants.len() {
            return Err("tenant ids must be unique".into());
        }
        for t in &self.tenants {
            if t.queries == 0 {
                return Err(format!("tenant {} submits zero queries", t.id.0));
            }
            t.arrival
                .validate()
                .map_err(|m| format!("tenant {} arrival: {m}", t.id.0))?;
            t.workload
                .validate()
                .map_err(|(f, r)| format!("tenant {} workload.{f}: {r}", t.id.0))?;
            if let Some(slo) = &t.slo {
                slo.validate()
                    .map_err(|m| format!("tenant {} slo: {m}", t.id.0))?;
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            node.scheme
                .validate()
                .map_err(|m| format!("nodes[{i}] scheme: {m}"))?;
        }
        self.cost_params
            .validate()
            .map_err(|f| format!("cost_params.{f} invalid"))?;
        self.prices.validate().map_err(|m| format!("prices: {m}"))?;
        self.econ.validate().map_err(|m| format!("econ: {m}"))?;
        if let Some(elastic) = &self.elastic {
            elastic.validate().map_err(|m| format!("elastic: {m}"))?;
        }
        if let Some(faults) = &self.faults {
            faults
                .validate(self.nodes.len())
                .map_err(|m| format!("faults: {m}"))?;
        }
        if let Some(health) = &self.health {
            health.validate().map_err(|m| format!("health: {m}"))?;
        }
        Ok(())
    }

    /// Total queries the population submits.
    #[must_use]
    pub fn total_queries(&self) -> u64 {
        self.tenants.iter().map(|t| t.queries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_mixed_validate() {
        assert!(FleetConfig::uniform(10, 4, 100, 1.0).validate().is_ok());
        assert!(FleetConfig::mixed(10, 4, 100).validate().is_ok());
    }

    #[test]
    fn mixed_population_is_heterogeneous() {
        let c = FleetConfig::mixed(9, 2, 10);
        let kinds: std::collections::HashSet<&'static str> = c
            .tenants
            .iter()
            .map(|t| match t.arrival {
                ArrivalKind::Fixed { .. } => "fixed",
                ArrivalKind::Poisson { .. } => "poisson",
                ArrivalKind::Bursty { .. } => "bursty",
                ArrivalKind::Mmpp { .. } => "mmpp",
                ArrivalKind::Diurnal { .. } => "diurnal",
            })
            .collect();
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.cells = 0;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.nodes.clear();
        assert!(c.validate().is_err());

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.tenants[1].id = c.tenants[0].id;
        assert!(c.validate().is_err(), "duplicate tenant ids");

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.tenants[2].queries = 0;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.quote_threads = 0;
        assert!(c.validate().is_err());

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.tenants[1].arrival = ArrivalKind::Fixed { interval_secs: 0.0 };
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("tenant 1 arrival: fixed interval_secs"),
            "{err}"
        );

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.nodes[1].scheme = Scheme::Bypass {
            cache_fraction: 1.5,
        };
        let err = c.validate().unwrap_err();
        assert!(
            err.contains("nodes[1] scheme: bypass cache_fraction"),
            "{err}"
        );

        let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
        c.prices.rates.io_per_op = f64::NAN;
        let err = c.validate().unwrap_err();
        assert!(err.contains("prices: rates.io_per_op"), "{err}");
    }

    #[test]
    fn a_quote_pool_is_rejected_by_name() {
        for threads in [2, 8] {
            let mut c = FleetConfig::uniform(4, 2, 10, 1.0);
            c.quote_threads = threads;
            let err = c.validate().expect_err("only one quote thread is valid");
            assert!(err.contains("quote_threads"), "{err}");
        }
    }

    #[test]
    fn pin_flag_is_accepted_either_way() {
        let mut c = FleetConfig::uniform(2, 2, 5, 1.0);
        c.pin_quote_workers = false;
        assert!(c.validate().is_ok(), "pinning off still validates");
    }

    #[test]
    fn with_health_and_with_slo_validate() {
        let spec = telemetry::TenantSloSpec {
            p99_target_secs: 8.0,
            spend_cap: Some(Money::from_dollars(0.05)),
        };
        let c = FleetConfig::uniform(4, 2, 10, 1.0)
            .with_health(5.0)
            .with_slo(spec);
        assert!(c.validate().is_ok());
        assert!(c.tenants.iter().all(|t| t.slo == Some(spec)));

        let mut bad = c.clone();
        bad.health = Some(HealthConfig {
            snapshot_interval_secs: -1.0,
        });
        assert!(bad.validate().is_err());

        let mut bad = c;
        bad.tenants[0].slo = Some(telemetry::TenantSloSpec {
            p99_target_secs: 0.0,
            spend_cap: None,
        });
        assert!(bad.validate().is_err());
    }
}

//! Fleet experiment configuration.

use econ::EconConfig;
use planner::CostParams;
use pricing::{Money, PriceCatalog};
use serde::{Deserialize, Serialize};
use simulator::{ArrivalKind, Scheme};
use telemetry::{HealthConfig, TenantSloSpec};
use workload::WorkloadConfig;

use crate::elastic::ElasticConfig;
use crate::faults::FaultPlan;
use crate::node::NodeSpec;
use crate::router::RouterKind;
use crate::tenant::{TenantId, TenantSpec};

/// Serde default for switches that ship enabled.
fn default_true() -> bool {
    true
}

/// Full description of one fleet simulation.
///
/// Tenants are partitioned into `cells` (tenant `id % cells`); each cell
/// owns a private replica of the `nodes` fleet and serves its tenants'
/// superposed stream. `shards` worker threads execute cells in parallel;
/// because cell membership and all seeds depend only on tenant ids, the
/// result is a pure function of everything *except* `shards` — see
/// [`crate::exec`] for the invariance argument.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Quote rounds complete the economic nodes' plans in one batched
    /// structure-major sweep instead of once per node (bit-identical
    /// results either way; `false` selects the per-node reference path,
    /// one fused enumeration per node, that `tests/fleet_determinism.rs`
    /// compares against). The only quote-round setting with an effect;
    /// batching is the default because it quotes full rounds faster.
    pub quote_batching: bool,
    /// Kept only because the repository benchmark names it; inert;
    /// removed by ROADMAP item 5. There are no quote workers to pin,
    /// so any value is accepted; absent, it deserializes to `true`.
    #[serde(default = "default_true")]
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
    /// Health-plane snapshot cadence; `None` (the default, including
    /// for older serialized configs) takes no vitals snapshots. Purely
    /// observational: a snapshot-on run is bit-identical to the same
    /// run with snapshots off (see `crate::exec` — the scraper only
    /// reads state, on a simulated-time cadence).
    #[serde(default)]
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
            t.workload
                .validate()
                .map_err(|(f, r)| format!("tenant {} workload.{f}: {r}", t.id.0))?;
            if let Some(slo) = &t.slo {
                slo.validate()
                    .map_err(|m| format!("tenant {} slo: {m}", t.id.0))?;
            }
        }
        self.cost_params
            .validate()
            .map_err(|f| format!("cost_params.{f} invalid"))?;
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
    fn pin_flag_is_accepted_either_way_and_defaults_on_for_older_configs() {
        use serde::{Deserialize, Serialize, Value};
        let mut c = FleetConfig::uniform(2, 2, 5, 1.0);
        c.pin_quote_workers = false;
        let json = serde_json::to_string(&c).unwrap();
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert!(!back.pin_quote_workers);
        assert!(back.validate().is_ok(), "pinning off still validates");

        let mut v = c.serialize();
        match &mut v {
            Value::Map(m) => m.retain(|(k, _)| k != "pin_quote_workers"),
            other => panic!("config serializes as a map, got {other:?}"),
        }
        let back = FleetConfig::deserialize(&v).unwrap();
        assert!(back.pin_quote_workers, "absent field means pinning on");
        assert!(
            back.validate().is_ok(),
            "an absent pin flag still validates"
        );
    }

    #[test]
    fn health_and_slo_default_absent_for_older_configs() {
        use serde::{Deserialize, Serialize, Value};
        let c = FleetConfig::uniform(2, 2, 5, 1.0);
        let mut v = c.serialize();
        match &mut v {
            Value::Map(m) => {
                m.retain(|(k, _)| k != "health");
                for (k, tenants) in m.iter_mut() {
                    if k != "tenants" {
                        continue;
                    }
                    let Value::Seq(seq) = tenants else {
                        panic!("tenants serialize as a sequence")
                    };
                    for t in seq {
                        match t {
                            Value::Map(tm) => tm.retain(|(k, _)| k != "slo"),
                            other => panic!("tenant serializes as a map, got {other:?}"),
                        }
                    }
                }
            }
            other => panic!("config serializes as a map, got {other:?}"),
        }
        let back = FleetConfig::deserialize(&v).unwrap();
        assert!(back.health.is_none(), "absent health means no snapshots");
        assert!(back.tenants.iter().all(|t| t.slo.is_none()));
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

    #[test]
    fn config_roundtrips_serde() {
        let c = FleetConfig::mixed(5, 3, 20);
        let json = serde_json::to_string(&c).unwrap();
        let back: FleetConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tenants.len(), 5);
        assert_eq!(back.nodes.len(), 3);
        assert_eq!(back.router, RouterKind::CheapestQuote);
        assert_eq!(back.total_queries(), 100);
    }
}

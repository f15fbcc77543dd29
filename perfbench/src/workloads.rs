//! The benchmark's three workloads. Each is a batch simulation: a config
//! plus the run seed, measured as simulated queries settled per host
//! second at the size stated here.

use fleet::{ElasticConfig, FaultPlan, FleetConfig, FleetSim, RouterKind, TenantSloSpec};
use pricing::Money;
use simcore::SimRng;
use simulator::{ArrivalKind, Scheme, SimConfig, Simulation};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cheapest-quote marketplace: the quote round is the hot loop.
    FleetMarket,
    /// Elastic control plane plus faults under storm/calm arrivals.
    FleetChurn,
    /// Independent econ-cheap caches, each through `simulator::Simulation`.
    PaperSingle,
}

/// A workload's config with the run seed applied.
#[derive(Clone)]
pub enum Prepared {
    /// A fleet workload.
    Fleet(Box<FleetConfig>),
    /// The single-cache workload: one config per independent cache.
    Single(Vec<SimConfig>),
}

/// A prepared workload's set-up product: what `FleetSim::new` or one
/// `Simulation::new` per cache builds.
pub enum Built {
    /// A fleet simulation.
    Fleet(Box<FleetSim>),
    /// One simulation per cache.
    Single(Vec<Simulation>),
}

impl Prepared {
    /// Queries one run submits.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        match self {
            Prepared::Fleet(config) => config.total_queries(),
            Prepared::Single(configs) => configs.iter().map(|c| c.num_queries).sum(),
        }
    }

    /// Sets the workload up: the work `setup_s` times.
    #[must_use]
    pub fn build(self) -> Built {
        match self {
            Prepared::Fleet(config) => Built::Fleet(Box::new(FleetSim::new(*config))),
            Prepared::Single(configs) => {
                Built::Single(configs.into_iter().map(Simulation::new).collect())
            }
        }
    }
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::FleetMarket,
        Workload::FleetChurn,
        Workload::PaperSingle,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMarket => "fleet-market",
            Workload::FleetChurn => "fleet-churn",
            Workload::PaperSingle => "paper-single",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's config for `seed`.
    #[must_use]
    pub fn prepare(self, seed: u64) -> Prepared {
        match self {
            Workload::FleetMarket => Prepared::Fleet(Box::new(fleet_market(seed))),
            Workload::FleetChurn => Prepared::Fleet(Box::new(fleet_churn(seed))),
            Workload::PaperSingle => Prepared::Single(paper_single(seed)),
        }
    }
}

/// Queries each fleet tenant submits: at 32 tenants, 64k per run, so the
/// response histogram's p99 has at least 640 samples beyond it.
const FLEET_QUERIES_PER_TENANT: u64 = 2_000;
/// Seed nodes per cell.
const FLEET_NODES: usize = 8;
/// Backend scale factor of the fleet workloads: small enough that column
/// transfers land well inside the run horizon, so caches serve hits.
const FLEET_SF: f64 = 5.0;

/// `fleet-market`: 32 tenants × 2000 drifting TPC-H template instances at
/// fixed 1 s arrivals, 8 econ-cheap nodes per cell, 16 cells, routed by
/// cheapest quote on one shard with one quote thread (the pool stays off)
/// and batched completion.
#[must_use]
pub fn fleet_market(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(32, FLEET_NODES, FLEET_QUERIES_PER_TENANT, 1.0);
    config.scale_factor = FLEET_SF;
    config.cells = 16;
    config.shards = 1;
    config.quote_threads = 1;
    config.quote_batching = true;
    config.seed = seed;
    config
}

/// `fleet-churn`: 64 tenants × 2000 queries under MMPP storm/calm
/// arrivals, 16 cells of 4 tenants, least-outstanding routing on one
/// shard, the elastic control plane, a fault plan and the health plane
/// with a per-tenant SLO ledger. In every cell node 1 crashes and
/// recovers by journal replay, node 0 crashes for good, and nodes the
/// control plane drains evacuate their structures to survivors.
///
/// One shard, not one per core: on a 2-core shared host a 2-shard run's
/// throughput spread 0.23 (interquartile range over median) across ten
/// invocations, against 0.12 for single-threaded workloads.
///
/// The evacuation is on drain rather than in a warning window before the
/// crashes: a warning window freezes the doomed node's investment scan,
/// which the recovery journal does not record, so a recovered node that
/// was warned fails to reconcile.
#[must_use]
pub fn fleet_churn(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(64, FLEET_NODES, FLEET_QUERIES_PER_TENANT, 1.0)
        .with_arrivals(ArrivalKind::Mmpp {
            calm_gap_secs: 4.0,
            storm_gap_secs: 0.5,
            calm_sojourn_secs: 300.0,
            storm_sojourn_secs: 100.0,
        });
    config.scale_factor = FLEET_SF;
    config.cells = 16;
    config.shards = 1;
    config.quote_threads = 1;
    config.router = RouterKind::LeastOutstanding;
    config.seed = seed;
    // The mean arrival gap is ~1.45 s, so every seed's horizon runs far
    // past both crash instants; the declared plan horizon only bounds
    // validation.
    let plan = FaultPlan::new(1.0e6)
        .with_crash_recover(1, 600.0, 120.0)
        .with_crash(0, 900.0)
        .with_evacuation(0.0, true);
    config
        .with_faults(plan)
        .with_elastic(ElasticConfig {
            review_interval_secs: 5.0,
            ewma_alpha: 0.3,
            scale_up_backlog: 4.0,
            scale_down_backlog: 0.25,
            max_response_secs: 0.0,
            min_nodes: 2,
            max_nodes: FLEET_NODES,
            cooldown_reviews: 4,
            drain_grace_secs: 60.0,
        })
        .with_health(60.0)
        .with_slo(TenantSloSpec {
            p99_target_secs: 10.0,
            spend_cap: Some(Money::from_dollars(1.0)),
        })
}

/// Independent caches in `paper-single`. One cache's hit rate depends
/// on its seed far more than on its length (0.27 to 0.80 over ten seeds
/// at 500k queries), so the workload pools 32 caches with seeds drawn
/// from the run seed; the pooled figures move a few percent across seeds.
pub const SINGLE_CACHES: u64 = 32;
/// Queries per `paper-single` cache: 32 × 15 625 = 500k per run.
pub const SINGLE_QUERIES: u64 = 15_625;

/// `paper-single`: 32 econ-cheap caches, each its own
/// `simulator::Simulation` at SF 100 with 15 625 queries at fixed 1 s
/// arrivals, with the test-scale economics `hotpath` uses (small initial
/// credit, low regret floor). Cache `k` takes the `k`-th draw of a
/// `SimRng` seeded with the run seed.
#[must_use]
pub fn paper_single(seed: u64) -> Vec<SimConfig> {
    let mut seeds = SimRng::new(seed);
    (0..SINGLE_CACHES)
        .map(|_| {
            let mut config = SimConfig::paper_cell(Scheme::EconCheap, 1.0, 100.0, SINGLE_QUERIES);
            config.econ.initial_credit = Money::from_dollars(0.02);
            config.econ.investment.min_regret = Money::from_dollars(1e-5);
            config.seed = seeds.next_u64();
            config
        })
        .collect()
}

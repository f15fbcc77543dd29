//! Budget-decided bids — the equivalence behind decided quote rounds.
//!
//! Under a step budget a node's bid is the full amount `B_Q` whenever
//! the backend is affordable, whatever its cache holds, so the fleet
//! router settles such bids from the budget alone
//! (`EconomyManager::budget_decided_bid`) and skips the memo lookup,
//! skeleton and completion. The properties pinned here:
//!
//! 1. over random cache histories, every budget shape, every selection
//!    objective, a range of patience values and budget scales on both
//!    sides of 1, a decided bid equals `quote_with_skeleton` and
//!    `quote_query` bit for bit;
//! 2. routers deciding rounds from those bids (sequential, pooled,
//!    batched and per-node) pick the winner of a full quote round, and
//!    the winners' serves settle identically;
//! 3. under zero CPU and I/O rates, where cache rows cost nothing, a
//!    cache row past the deadline leaves the bid to the round — a free
//!    cached plan there really does bid below the full amount.

use std::sync::{Arc, OnceLock};

use cloudcache::cache::StructureKey;
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::Schema;
use cloudcache::econ::{BudgetShape, EconConfig, EconomyManager, InvestmentRule};
use cloudcache::fleet::{CacheNode, CheapestQuote, NodeSpec, QuoteOptions, Router};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, ExecRows, LazySkeleton,
    PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::simulator::Scheme;
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

struct Harness {
    schema: Arc<Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn new(prices: PriceCatalog) -> Harness {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(CostParams::default(), prices, NetworkModel::paper_sdss());
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    }

    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }

    fn queries(&self, seed: u64, n: usize) -> Vec<Query> {
        WorkloadGenerator::new(Arc::clone(&self.schema), WorkloadConfig::default(), seed)
            .take(n)
            .collect()
    }
}

/// The paper's EC2 prices.
fn ec2() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| Harness::new(PriceCatalog::ec2_2009()))
}

/// Zero CPU, disk and I/O rates: every cache execution row is free.
fn network_only() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| Harness::new(PriceCatalog::network_only()))
}

/// An economy that invests within a few dozen queries at SF 10.
fn biting(shape: BudgetShape, patience: f64) -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        budget_shape: shape,
        patience,
        ..EconConfig::default()
    }
}

fn scheme(code: u8) -> Scheme {
    match code {
        0 => Scheme::EconCheap,
        1 => Scheme::EconFast,
        2 => Scheme::EconCol,
        3 => Scheme::Altruistic,
        _ => Scheme::Bypass {
            cache_fraction: 0.3,
        },
    }
}

fn shape(code: u8) -> BudgetShape {
    match code {
        0 | 1 => BudgetShape::Step,
        2 => BudgetShape::Convex,
        _ => BudgetShape::Concave,
    }
}

/// Budget scales on both sides of 1: below 1 the backend is
/// unaffordable, so nothing decides the bid.
const SCALES: [f64; 8] = [0.5, 0.9, 0.999, 1.0, 1.05, 1.3, 1.5, 2.0];

/// Router configurations `(threads, batching)` deciding rounds.
const ROUTERS: [(usize, bool); 3] = [(1, true), (4, true), (3, false)];

proptest! {
    /// Decided bids equal both quote paths bit for bit, and routers that
    /// decide rounds from them pick the full round's winner. Half the
    /// fleets are all-economic and all-step, so whole rounds are
    /// decided; in the rest node 0 runs a step budget and the others
    /// draw any scheme and shape, so a non-economic or non-step node
    /// sends the round through planning even though node 0 is decided.
    #[test]
    fn decided_bids_match_full_quotes(
        seed in 0u64..1_000,
        setup in (0u8..2, 1.0f64..4.0, prop::bool::ANY),
        schemes in prop::collection::vec(0u8..5, 4..5),
        shapes in prop::collection::vec(0u8..4, 4..5),
        picks in prop::collection::vec((0usize..10, 0u8..6, 0u8..8), 10..30),
    ) {
        let (catalog, patience, all_step) = setup;
        let h = if catalog == 0 { ec2() } else { network_only() };
        let ctx = h.ctx();
        let pool = h.queries(seed, 10);
        let fleet = || -> Vec<CacheNode> {
            (0..schemes.len())
                .map(|i| {
                    let (scheme, shape) = if all_step {
                        (scheme(schemes[i] % 4), BudgetShape::Step)
                    } else if i == 0 {
                        (scheme(schemes[i]), BudgetShape::Step)
                    } else {
                        (scheme(schemes[i]), shape(shapes[i]))
                    };
                    CacheNode::new(i, &NodeSpec::new(scheme), &h.schema, &biting(shape, patience))
                })
                .collect()
        };
        // The full-round reference quotes every node through planning;
        // each router world routes its own replica.
        let mut full = fleet();
        let mut worlds: Vec<(CheapestQuote, Vec<CacheNode>)> = ROUTERS
            .iter()
            .map(|&(threads, batching)| {
                let router = CheapestQuote::with_options(QuoteOptions {
                    threads,
                    batching,
                    skeletons: None,
                    pinning: false,
                });
                (router, fleet())
            })
            .collect();

        let mut now = SimTime::ZERO;
        for &(pick, gap_code, scale_code) in &picks {
            now += SimDuration::from_secs([0.0, 0.5, 1.0, 5.0, 60.0, 1800.0][gap_code as usize]);
            let mut query = pool[pick].clone();
            query.budget_scale = SCALES[scale_code as usize];
            let rows = ExecRows::build(&ctx, &query);

            let skeleton = LazySkeleton::new(&ctx, &query);
            let mut winner: Option<(usize, Money)> = None;
            for (i, node) in full.iter_mut().enumerate() {
                node.accrue(now);
                let bid = node.quote_with_skeleton(&ctx, &query, &skeleton, now);
                if let Some(m) = node.economy() {
                    if let Some(decided) = m.budget_decided_bid(&query, || &rows) {
                        prop_assert_eq!(decided, bid, "quote_with_skeleton, node {} at {}", i, now);
                        prop_assert_eq!(decided, m.quote_query(&ctx, &query, now), "quote_query, node {} at {}", i, now);
                    }
                }
                if winner.is_none_or(|(_, b)| bid < b) {
                    winner = Some((i, bid));
                }
            }
            let (winner, bid) = winner.expect("every node is routable");
            let reference = full[winner].serve(&ctx, &query, now);

            for (router, nodes) in &mut worlds {
                for node in nodes.iter_mut() {
                    node.accrue(now);
                }
                let routed = router.route(nodes, &ctx, &query, now);
                prop_assert_eq!(routed, winner, "{:?} winner at {}", router, now);
                prop_assert_eq!(router.last_winning_quote(), Some(bid));
                let outcome = nodes[routed].serve(&ctx, &query, now);
                prop_assert_eq!(&outcome, &reference, "{:?} serve at {}", router, now);
            }
        }
    }
}

/// Zero CPU and I/O rates make every cache execution row free. A cache
/// row slower than the deadline then leaves the bid to the round, and
/// rightly so: a free cached plan past the deadline is affordable at a
/// budget of zero, and econ-cheap takes it for nothing.
#[test]
fn free_cache_rows_past_the_deadline_leave_the_bid_to_the_round() {
    let h = network_only();
    let ctx = h.ctx();
    let config = biting(BudgetShape::Step, 1.0);
    let mut late = 0;
    for (i, query) in h.queries(17, 40).iter().enumerate() {
        let rows = ExecRows::build(&ctx, query);
        assert!(
            rows.backend_cost.is_positive(),
            "the result transfer is priced"
        );
        assert!(
            rows.rows().skip(1).all(|(_, cost)| cost.is_zero()),
            "cache rows are free"
        );
        let fresh = EconomyManager::new(config.clone());
        let now = SimTime::from_secs(1.0);
        let decided = fresh.budget_decided_bid(query, || &rows);
        if rows.rows().all(|(time, _)| time <= rows.backend_time) {
            assert_eq!(
                decided,
                Some(fresh.quote_query(&ctx, query, now)),
                "query {i}"
            );
            continue;
        }
        late += 1;
        assert_eq!(
            decided, None,
            "query {i}: a free row runs past the deadline"
        );

        // Cache the query's columns for free: the column-scan plan now
        // exists, costs nothing and runs past the deadline.
        let mut warm = EconomyManager::new(config.clone());
        for column in query.all_columns() {
            let key = StructureKey::Column(column);
            let size = h.schema.column_bytes(column);
            assert!(warm.evacuate_receive(
                key,
                size,
                Money::ZERO,
                SimDuration::ZERO,
                SimTime::ZERO,
                &h.estimator
            ));
        }
        assert_eq!(warm.budget_decided_bid(query, || &rows), None);
        let quote = warm.quote_query(&ctx, query, now);
        assert_eq!(
            quote,
            Money::ZERO,
            "query {i}: the late free plan is chosen and pays nothing"
        );
    }
    assert!(late > 0, "the pool must hold a query with a late cache row");
}

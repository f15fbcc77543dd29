//! Budget-decided bids — the equivalence behind decided quote rounds.
//!
//! Under a step budget a node's bid is the full amount `B_Q` whenever
//! the backend is affordable, whatever its cache holds, so the fleet
//! router settles such bids from the budget alone
//! (`EconomyManager::budget_decided_bid`) and plans no node. The
//! properties pinned here:
//!
//! 1. over random cache histories, every budget shape, every selection
//!    objective, a range of patience values and budget scales on both
//!    sides of 1, a decided bid equals `quote_query` bit for bit;
//! 2. a router deciding rounds from those bids picks the winner of a
//!    full quote round, and the winners' serves settle identically;
//! 3. under zero CPU and I/O rates, where cache rows cost nothing, a
//!    cache row past the deadline leaves the bid to the round — a free
//!    cached plan there really does bid below the full amount;
//! 4. a round over nodes of differing patience, one of them possibly
//!    Convex, evaluates each distinct budget once over the arrival's
//!    shared rows and still picks the winner and bid of quoting every
//!    node, deciding exactly when every node's own budget decides; and a
//!    fleet with a bypass node never decides.

use std::sync::{Arc, OnceLock};

use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::Schema;
use cloudcache::econ::{
    AmortizationPolicy, BudgetShape, EconConfig, EconomyManager, InvestmentRule,
};
use cloudcache::fleet::{CacheNode, CheapestQuote, NodeSpec, QuoteRounds, Router};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, ExecRows, PlannerContext,
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

proptest! {
    /// Decided bids equal full quotes bit for bit, and a router that
    /// decides rounds from them picks the full round's winner. Half the
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
        // the router routes its own replica.
        let mut full = fleet();
        let (mut router, mut nodes) = (CheapestQuote::default(), fleet());

        let mut now = SimTime::ZERO;
        for &(pick, gap_code, scale_code) in &picks {
            now += SimDuration::from_secs([0.0, 0.5, 1.0, 5.0, 60.0, 1800.0][gap_code as usize]);
            let mut query = pool[pick].clone();
            query.budget_scale = SCALES[scale_code as usize];
            let rows = ExecRows::build(&ctx, &query);
            // The reference plans over a fill of its own.
            let own = ExecRows::build(&ctx, &query);

            let mut winner: Option<(usize, Money)> = None;
            for (i, node) in full.iter_mut().enumerate() {
                node.accrue(now);
                let bid = node.quote(&ctx, &query, &own, now);
                if let Some(m) = node.economy() {
                    if let Some(decided) = m.budget_decided_bid(&query, &rows) {
                        prop_assert_eq!(decided, bid, "quote_query, node {} at {}", i, now);
                    }
                }
                if winner.is_none_or(|(_, b)| bid < b) {
                    winner = Some((i, bid));
                }
            }
            let (winner, bid) = winner.expect("every node is routable");
            let reference = full[winner].serve(&ctx, &query, &own, now, 0.0);

            for node in &mut nodes {
                node.accrue(now);
            }
            let routed = router.route(&nodes, &ctx, &query, now);
            prop_assert_eq!(routed, winner, "winner at {}", now);
            prop_assert_eq!(router.last_winning_quote(), Some(bid));
            let outcome = nodes[routed].serve(&ctx, &query, &rows, now, 0.0);
            prop_assert_eq!(&outcome, &reference, "serve at {}", now);
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
        let decided = fresh.budget_decided_bid(query, &rows);
        if rows.rows().all(|(time, _)| time <= rows.backend_time) {
            assert_eq!(
                decided,
                Some(fresh.quote_query(&ctx, query, &rows, now)),
                "query {i}"
            );
            continue;
        }
        late += 1;
        assert_eq!(
            decided, None,
            "query {i}: a free row runs past the deadline"
        );

        // Let a column-only economy buy the query's columns through the
        // serve path: a copy whose budget cannot afford the backend
        // regrets every cheaper plan whatever its time (case A), a zero
        // regret floor invests at once, and an endless amortization
        // horizon makes each installment round to nothing. An hour
        // later every transfer has landed: the column-scan plan exists,
        // costs nothing and runs past the deadline.
        let mut warm = EconomyManager::new(EconConfig {
            amortization: AmortizationPolicy::Fixed(1 << 60),
            allow_indexes: false,
            allow_extra_nodes: false,
            initial_credit: Money::from_dollars(1.0),
            investment: InvestmentRule {
                regret_fraction: 1e-9,
                min_regret: Money::ZERO,
                ..config.investment
            },
            ..config.clone()
        });
        let poor = Query {
            budget_scale: 0.5,
            ..query.clone()
        };
        for k in 0..2 {
            let _ = warm.process_query(&ctx, &poor, &rows, SimTime::from_secs(f64::from(k)));
        }
        assert!(warm.cache().iter().count() > 0, "query {i}: columns bought");
        let now = SimTime::from_secs(3600.0);
        assert_eq!(warm.budget_decided_bid(query, &rows), None);
        let quote = warm.quote_query(&ctx, query, &rows, now);
        assert_eq!(
            quote,
            Money::ZERO,
            "query {i}: the late free plan is chosen and pays nothing"
        );
    }
    assert!(late > 0, "the pool must hold a query with a late cache row");
}

/// Patience values a mixed fleet draws from: each is its own budget key.
const PATIENCES: [f64; 4] = [1.0, 1.2, 1.5, 3.0];

/// The reference round: every node quotes by planning over `rows`.
/// Returns the first minimal bidder and its bid, and whether every
/// node's own budget decided its bid (each decided bid must equal the
/// quote).
fn quote_every_node(
    ctx: &PlannerContext<'_>,
    nodes: &mut [CacheNode],
    query: &Query,
    rows: &ExecRows,
    now: SimTime,
) -> (usize, Money, bool) {
    let mut winner: Option<(usize, Money)> = None;
    let mut all_decided = true;
    for (i, node) in nodes.iter_mut().enumerate() {
        node.accrue(now);
        let bid = node.quote(ctx, query, rows, now);
        match node
            .economy()
            .and_then(|m| m.budget_decided_bid(query, rows))
        {
            Some(decided) => assert_eq!(decided, bid, "decided bid of node {i} at {now}"),
            None => all_decided = false,
        }
        if winner.is_none_or(|(_, b)| bid < b) {
            winner = Some((i, bid));
        }
    }
    let (winner, bid) = winner.expect("every node is routable");
    (winner, bid, all_decided)
}

proptest! {
    /// Step nodes of differing patience, and in half the fleets one
    /// Convex node, at EC2 prices and under zero CPU and I/O rates (where
    /// patience decides whether a free cache row lands past the
    /// deadline): routing over the arrival's shared rows
    /// (`Router::route_with`, then `CacheNode::serve`) picks the
    /// winner and bid of quoting every node, serves like it, and decides
    /// a round exactly when every node's own budget decides its bid.
    #[test]
    fn mixed_budget_rounds_match_quoting_every_node(
        seed in 0u64..1_000,
        catalog in 0u8..2,
        patiences in prop::collection::vec(0usize..4, 4..5),
        convex in prop::bool::ANY,
        picks in prop::collection::vec((0usize..10, 0u8..6, 0u8..8), 10..30),
    ) {
        let h = if catalog == 0 { ec2() } else { network_only() };
        let ctx = h.ctx();
        let pool = h.queries(seed, 10);
        let fleet = || -> Vec<CacheNode> {
            patiences
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let shape = if convex && i == 2 { BudgetShape::Convex } else { BudgetShape::Step };
                    let config = biting(shape, PATIENCES[p]);
                    CacheNode::new(i, &NodeSpec::new(Scheme::EconCheap), &h.schema, &config)
                })
                .collect()
        };
        let mut full = fleet();
        let (mut router, mut nodes) = (CheapestQuote::default(), fleet());

        let mut now = SimTime::ZERO;
        let mut decided = 0;
        for &(pick, gap_code, scale_code) in &picks {
            now += SimDuration::from_secs([0.0, 0.5, 1.0, 5.0, 60.0, 1800.0][gap_code as usize]);
            let mut query = pool[pick].clone();
            query.budget_scale = SCALES[scale_code as usize];
            let rows = ExecRows::build(&ctx, &query);
            // The reference plans over a fill of its own.
            let own = ExecRows::build(&ctx, &query);
            let (winner, bid, all_decided) = quote_every_node(&ctx, &mut full, &query, &own, now);
            decided += u64::from(all_decided);
            let reference = full[winner].serve(&ctx, &query, &own, now, 0.0);

            for node in &mut nodes {
                node.accrue(now);
            }
            let routed = router.route_with(&nodes, &ctx, &query, &rows, now);
            prop_assert_eq!(routed, winner, "winner at {}", now);
            prop_assert_eq!(router.last_winning_quote(), Some(bid));
            let outcome = nodes[routed].serve(&ctx, &query, &rows, now, 0.0);
            prop_assert_eq!(&outcome, &reference, "serve at {}", now);
        }
        prop_assert_eq!(router.quote_rounds().decided, decided);
    }
}

/// A bypass node has no budget, so no round over it is decided, even
/// though every economic node's step budget decides its own bid; the
/// full rounds still pick the winner of quoting every node.
#[test]
fn a_fleet_with_a_bypass_node_never_decides() {
    let h = ec2();
    let ctx = h.ctx();
    let config = biting(BudgetShape::Step, 1.5);
    let fleet = || -> Vec<CacheNode> {
        (0..4)
            .map(|i| {
                let scheme = if i == 3 { scheme(4) } else { Scheme::EconCheap };
                CacheNode::new(i, &NodeSpec::new(scheme), &h.schema, &config)
            })
            .collect()
    };
    let mut full = fleet();
    let (mut router, mut nodes) = (CheapestQuote::default(), fleet());
    let queries = h.queries(29, 40);
    for (i, query) in queries.iter().enumerate() {
        let now = SimTime::from_secs(1.0 + i as f64);
        let rows = ExecRows::build(&ctx, query);
        // The reference plans over a fill of its own.
        let own = ExecRows::build(&ctx, query);
        let (winner, bid, _) = quote_every_node(&ctx, &mut full, query, &own, now);
        let reference = full[winner].serve(&ctx, query, &own, now, 0.0);
        for node in &mut nodes {
            node.accrue(now);
        }
        let routed = router.route_with(&nodes, &ctx, query, &rows, now);
        assert_eq!((routed, router.last_winning_quote()), (winner, Some(bid)));
        let outcome = nodes[routed].serve(&ctx, query, &rows, now, 0.0);
        assert_eq!(outcome, reference, "serve of query {i}");
    }
    assert_eq!(
        router.quote_rounds(),
        QuoteRounds {
            decided: 0,
            full: queries.len() as u64
        }
    );
}

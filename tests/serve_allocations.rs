//! The economy's serve and bid allocate nothing in steady state.
//!
//! A warmed econ-cheap cache, stepped by the single-cache simulator's
//! `RunAccumulator`, serves every query whose outcome builds and evicts
//! nothing from reused scratch: the accumulator's execution rows, the
//! plan rows, the skyline partition, the regret visit, the
//! used-structure keys and the investment scan's candidates. Its bid
//! over an arrival's shared
//! execution rows reuses the same plan rows and skyline scratch. A
//! counting global allocator (counting per thread, so the test
//! harness's other threads do not interfere) holds the serve and the bid
//! to zero heap allocations on each such query.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::Schema;
use cloudcache::econ::{BudgetShape, EconConfig, InvestmentRule};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, ExecRows, PlannerContext,
};
use cloudcache::policies::{CachePolicy, EconPolicy};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimTime};
use cloudcache::simulator::RunAccumulator;
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Queries served before counting starts.
const WARM: usize = 2_000;
/// Queries checked after the warm-up.
const CHECKED: usize = 3_000;

/// The planning context of the fixtures: TPC-H at SF 10 with the 65
/// paper candidates.
struct Planning {
    schema: Arc<Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Planning {
    fn new() -> Self {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Planning {
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

    fn queries(&self) -> Vec<Query> {
        WorkloadGenerator::new(Arc::clone(&self.schema), WorkloadConfig::default(), 17)
            .take(WARM + CHECKED)
            .collect()
    }
}

/// paper-single's economics: a small initial credit and a low regret
/// floor, so the cache invests within the warm-up.
fn paper_single_econ() -> EconConfig {
    EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        ..EconConfig::default()
    }
}

#[test]
fn warmed_serves_that_build_and_evict_nothing_allocate_nothing() {
    let planning = Planning::new();
    let ctx = planning.ctx();
    let mut policy = EconPolicy::econ_cheap(paper_single_econ());
    let mut acc = RunAccumulator::new();
    let queries = planning.queries();
    let at = |i: usize| SimTime::from_secs((i + 1) as f64);
    for (i, q) in queries[..WARM].iter().enumerate() {
        let _ = acc.step(&mut policy, &ctx, q, at(i));
    }

    let (mut quiet, mut quiet_hits) = (0, 0);
    let mut offenders = Vec::new();
    for (i, q) in queries.iter().enumerate().skip(WARM) {
        let before = allocations();
        let outcome = acc.step(&mut policy, &ctx, q, at(i));
        let allocated = allocations() - before;
        if outcome.investments == 0 && outcome.evictions == 0 {
            quiet += 1;
            quiet_hits += usize::from(outcome.ran_in_cache);
            if allocated > 0 {
                offenders.push((i, allocated));
            }
        }
    }
    assert!(quiet > CHECKED / 2, "only {quiet} quiet serves checked");
    assert!(
        quiet_hits > CHECKED / 10,
        "only {quiet_hits} quiet serves ran in the cache"
    );
    assert!(
        offenders.is_empty(),
        "(query, allocations) of quiet serves that allocated: {offenders:?}"
    );
}

/// A warmed cache's bid over an arrival's filled execution rows, under a
/// Convex budget so the bid plans in full, allocates nothing. Every
/// query is bid on and then served, so the cache keeps investing and
/// hitting while the bids are counted.
#[test]
fn warmed_bids_under_a_convex_budget_allocate_nothing() {
    let planning = Planning::new();
    let ctx = planning.ctx();
    let mut policy = EconPolicy::econ_cheap(EconConfig {
        budget_shape: BudgetShape::Convex,
        ..paper_single_econ()
    });
    let queries = planning.queries();
    let at = |i: usize| SimTime::from_secs((i + 1) as f64);
    let mut exec = ExecRows::new();
    let mut offenders = Vec::new();
    let mut hits = 0;
    for (i, q) in queries.iter().enumerate() {
        exec.fill(&ctx, q);
        let before = allocations();
        let bid = policy.quote(&ctx, q, &exec, at(i));
        let allocated = allocations() - before;
        if i >= WARM && allocated > 0 {
            offenders.push((i, allocated));
        }
        assert!(!bid.is_negative(), "query {i} bid {bid:?}");
        let outcome = policy.process_query(&ctx, q, &exec, at(i));
        hits += usize::from(i >= WARM && outcome.ran_in_cache);
    }
    assert!(
        hits > CHECKED / 10,
        "only {hits} checked queries ran in the cache"
    );
    assert!(
        offenders.is_empty(),
        "(query, allocations) of warmed bids that allocated: {offenders:?}"
    );
}

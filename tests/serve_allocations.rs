//! The economy's serve allocates nothing in steady state.
//!
//! A warmed econ-cheap cache serves every query whose outcome builds and
//! evicts nothing from reused scratch: the plan rows, the skyline
//! partition, the regret visit, the used-structure keys and the
//! investment scan's candidates. A counting global allocator (counting
//! per thread, so the test harness's other threads do not interfere)
//! holds the serve to zero heap allocations on each such query.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::econ::{EconConfig, InvestmentRule};
use cloudcache::planner::{
    generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext,
};
use cloudcache::policies::{CachePolicy, EconPolicy};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimTime};
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

#[test]
fn warmed_serves_that_build_and_evict_nothing_allocate_nothing() {
    let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
    let templates = paper_templates(&schema);
    let candidates = generate_candidates(&schema, &templates, 65);
    let cand_index = CandidateIndex::build(&schema, &candidates);
    let estimator = Estimator::new(
        CostParams::default(),
        PriceCatalog::ec2_2009(),
        NetworkModel::paper_sdss(),
    );
    let ctx = PlannerContext {
        schema: &schema,
        candidates: &candidates,
        cand_index: &cand_index,
        estimator: &estimator,
    };
    // paper-single's economics: a small initial credit and a low regret
    // floor, so the cache invests within the warm-up.
    let mut policy = EconPolicy::econ_cheap(EconConfig {
        initial_credit: Money::from_dollars(0.02),
        investment: InvestmentRule {
            min_regret: Money::from_dollars(1e-5),
            ..InvestmentRule::default()
        },
        ..EconConfig::default()
    });
    let queries: Vec<Query> =
        WorkloadGenerator::new(Arc::clone(&schema), WorkloadConfig::default(), 17)
            .take(WARM + CHECKED)
            .collect();
    let at = |i: usize| SimTime::from_secs((i + 1) as f64);
    for (i, q) in queries[..WARM].iter().enumerate() {
        let _ = policy.process_query(&ctx, q, at(i));
    }

    let (mut quiet, mut quiet_hits) = (0, 0);
    let mut offenders = Vec::new();
    for (i, q) in queries.iter().enumerate().skip(WARM) {
        let before = allocations();
        let outcome = policy.process_query(&ctx, q, at(i));
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

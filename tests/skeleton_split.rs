//! Skeleton-split planning — the bit-identity contract of the
//! skeleton/completion factorisation.
//!
//! `planner::PlanSkeleton::build` + `planner::complete_plans_into` must
//! be *observably absent*: for any cache history (installs, evicts,
//! in-flight builds, idle gaps), clock instant and enumeration options,
//! the split path emits exactly the plan set (and missing-build quotes)
//! of the fused `enumerate_plans_into`. The economy's memoization
//! and the fleet's quote rounds both ride on this equivalence, and so do
//! their own bit-identity suites (`tests/memoization.rs`,
//! `tests/fleet_determinism.rs`).
//!
//! Alongside, `quote_with_skeleton` — the fleet's shared-skeleton bid
//! path — must quote exactly what the legacy `quote_query` does, and a
//! serve after either kind of bid must behave identically.

use std::sync::{Arc, OnceLock};

use cloudcache::cache::{CacheState, StructureKey};
use cloudcache::catalog::tpch::{tpch_schema, ScaleFactor};
use cloudcache::catalog::{ColumnId, Schema};
use cloudcache::econ::{EconConfig, EconomyManager, InvestmentRule};
use cloudcache::planner::{
    complete_plans_into, enumerate_plans_into, generate_candidates, CandidateIndex, CostParams,
    EnumerationOptions, Estimator, LazySkeleton, PlanRows, PlanSkeleton, PlannerContext,
};
use cloudcache::pricing::{Money, PriceCatalog};
use cloudcache::simcore::{NetworkModel, SimDuration, SimTime};
use cloudcache::workload::{paper_templates, Query, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

struct Harness {
    schema: Arc<Schema>,
    candidates: Vec<cloudcache::cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

impl Harness {
    fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

/// The schema/candidate/estimator fixture is identical for every case;
/// build it once.
fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let schema = Arc::new(tpch_schema(ScaleFactor(10.0)));
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, 65);
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let estimator = Estimator::new(
            CostParams::default(),
            PriceCatalog::ec2_2009(),
            NetworkModel::paper_sdss(),
        );
        Harness {
            schema,
            candidates,
            cand_index,
            estimator,
        }
    })
}

fn query_pool(seed: u64, n: usize) -> Vec<Query> {
    WorkloadGenerator::new(
        Arc::clone(&harness().schema),
        WorkloadConfig::default(),
        seed,
    )
    .take(n)
    .collect()
}

/// Per-plan missing-build quotes of a row set, in row order.
fn missing_builds(rows: &PlanRows) -> Vec<Vec<Money>> {
    (0..rows.len())
        .map(|i| rows.missing_builds(i).collect())
        .collect()
}

/// The four structural option combinations, with the arrival-rate-derived
/// halves perturbed per `salt` so horizons/windows vary too.
fn opts_grid(salt: u64) -> [EnumerationOptions; 4] {
    let base = EnumerationOptions {
        amortize_n: 1 + (salt * 37) % 2_000,
        maint_window: SimDuration::from_secs(1.0 + (salt % 7) as f64 * 97.0),
        ..EnumerationOptions::default()
    };
    [
        base,
        EnumerationOptions {
            allow_indexes: false,
            ..base
        },
        EnumerationOptions {
            allow_extra_nodes: false,
            ..base
        },
        EnumerationOptions {
            allow_indexes: false,
            allow_extra_nodes: false,
            ..base
        },
    ]
}

proptest! {
    /// Random arrival interleavings over an evolving cache (installs with
    /// in-flight builds, evictions, idle gaps): at every step, for every
    /// structural option combination, skeleton + completion equals fused
    /// enumeration bit for bit — plans and missing-build quotes alike.
    #[test]
    fn skeleton_split_is_bit_identical_to_fused_enumeration(
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..4, 0u8..32, 0.0f64..90.0, 0.0f64..40.0), 10..40),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed, 6);
        let skeletons: Vec<Arc<PlanSkeleton>> = pool
            .iter()
            .map(|q| Arc::new(PlanSkeleton::build(&ctx, q)))
            .collect();
        // Structures the mutations draw from: the pool's columns (so the
        // cache intersects the plans), candidate indexes, extra nodes.
        let mut columns: Vec<ColumnId> = Vec::new();
        for q in &pool {
            for c in q.all_columns() {
                if !columns.contains(&c) {
                    columns.push(c);
                }
            }
        }

        let mut cache = CacheState::new();
        let mut now = 0.0f64;
        let mut fused_rows = PlanRows::new();
        let mut split_rows = PlanRows::new();
        for (step, &(op, sel, gap, build)) in ops.iter().enumerate() {
            now += gap;
            let t = SimTime::from_secs(now);
            let key = match sel % 3 {
                0 => StructureKey::Column(columns[sel as usize % columns.len()]),
                1 => StructureKey::Index(h.candidates[sel as usize % h.candidates.len()].id),
                _ => StructureKey::Node(u32::from(sel) % 3),
            };
            match op {
                0 | 1 => {
                    if !cache.contains(key) {
                        cache.install(
                            key,
                            64 + u64::from(sel) * 1_000,
                            t,
                            SimDuration::from_secs(build),
                            Money::from_dollars(0.01 + f64::from(sel) * 1e-3),
                            10 + u64::from(sel),
                        );
                    }
                }
                2 => {
                    let _ = cache.evict(key, t);
                }
                _ => cache.advance(t),
            }

            let q = &pool[sel as usize % pool.len()];
            let skel = &skeletons[sel as usize % pool.len()];
            for opts in opts_grid(seed + step as u64) {
                enumerate_plans_into(&ctx, q, &cache, t, opts, &mut fused_rows);
                complete_plans_into(
                    skel,
                    &cache,
                    t,
                    opts,
                    |s, span| h.estimator.maintenance(s, span),
                    &mut split_rows,
                );
                prop_assert_eq!(
                    split_rows.to_plans(), fused_rows.to_plans(),
                    "plans diverged at step {} (t={}, opts {:?})", step, now, opts
                );
                prop_assert_eq!(
                    missing_builds(&split_rows), missing_builds(&fused_rows),
                    "missing-build quotes diverged"
                );
            }
        }
    }

    /// The fleet bid path: a manager quoted through shared skeletons must
    /// quote, serve and account exactly like one quoted through the
    /// legacy enumerate-per-bid path, over random arrival interleavings
    /// (repeats, simultaneous arrivals, long idle gaps).
    #[test]
    fn skeleton_quotes_match_legacy_quotes(
        seed in 0u64..1_000,
        picks in prop::collection::vec((0usize..12, 0u8..6), 20..80),
    ) {
        let h = harness();
        let ctx = h.ctx();
        let pool = query_pool(seed.wrapping_add(17), 12);
        // One lazily-built shared skeleton per instance — the fleet's
        // quote-round regime (built by the first bid that needs it).
        let skeletons: Vec<LazySkeleton<'_>> = pool
            .iter()
            .map(|q| LazySkeleton::new(&ctx, q))
            .collect();
        let biting = |plan_cache: bool| EconConfig {
            initial_credit: Money::from_dollars(0.02),
            investment: InvestmentRule {
                min_regret: Money::from_dollars(1e-5),
                ..InvestmentRule::default()
            },
            plan_cache,
            ..EconConfig::default()
        };
        // Legacy-path manager, skeleton-path manager, and a memo-off
        // skeleton-path manager (the completion phase with no slot to
        // lean on).
        let mut legacy = EconomyManager::new(biting(true));
        let mut shared = EconomyManager::new(biting(true));
        let mut unmemoized = EconomyManager::new(biting(false));

        let mut now = SimTime::ZERO;
        for &(pick, gap_code) in &picks {
            let gap = match gap_code {
                0 => 0.0,
                1 => 0.25,
                2 => 1.0,
                3 => 5.0,
                4 => 60.0,
                _ => 1800.0,
            };
            now += SimDuration::from_secs(gap);
            let query = &pool[pick];
            let skel = &skeletons[pick];

            let bid_legacy = legacy.quote_query(&ctx, query, now);
            let bid_shared = shared.quote_with_skeleton(&ctx, query, skel, now);
            let bid_unmemo = unmemoized.quote_with_skeleton(&ctx, query, skel, now);
            prop_assert_eq!(bid_legacy, bid_shared, "shared-skeleton bid diverged at {}", now);
            prop_assert_eq!(bid_legacy, bid_unmemo, "memo-off skeleton bid diverged at {}", now);

            let out_legacy = legacy.process_query(&ctx, query, now);
            let out_shared = shared.process_query(&ctx, query, now);
            let out_unmemo = unmemoized.process_query(&ctx, query, now);
            prop_assert_eq!(&out_legacy, &out_shared, "outcomes diverged at {}", now);
            prop_assert_eq!(&out_legacy, &out_unmemo, "memo-off outcomes diverged at {}", now);
            prop_assert_eq!(legacy.account().balance(), shared.account().balance());
        }
        prop_assert!(shared.account().balances_exactly());
    }
}

/// The skeleton is a pure function of (context, query): two builds are
/// equal, and completing a clone equals completing the original.
#[test]
fn skeleton_build_is_deterministic() {
    let h = harness();
    let ctx = h.ctx();
    for q in query_pool(5, 8) {
        let a = PlanSkeleton::build(&ctx, &q);
        let b = PlanSkeleton::build(&ctx, &q);
        assert_eq!(a, b);
    }
}

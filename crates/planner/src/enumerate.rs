//! Plan enumeration: building `P_Q = P_exist ∪ P_pos` for a query.
//!
//! Section IV-B of the paper: *"Upon receiving an incoming query Q, the
//! cloud considers a set of plans `P_Q`. This set consists of two
//! non-overlapping subsets: the set of plans that include only existing
//! cache structures, `P_exist`, and the set of plans that include also
//! possible new cache structures, `P_pos`."*
//!
//! The enumerator emits:
//!
//! * the backend plan (always existing — the paper's users "accept query
//!   execution in the back-end");
//! * cache scan plans (columns only) at each node count;
//! * cache index plans (best applicable candidate per table access) at
//!   each node count.
//!
//! Any plan whose structures are not all available *now* carries them in
//! `missing` with their build cost/time — those plans are `P_pos` and feed
//! the regret ledger.

use cache::{CacheState, CachedStructure, IndexDef, StructureKey};
use catalog::Schema;
use simcore::{SimDuration, SimTime};
use std::sync::Arc;
use workload::Query;

use crate::candidates::CandidateIndex;
use crate::estimator::Estimator;
use crate::plan::QueryPlan;
use crate::rows::{DataTerms, PlanRows};
use crate::shapes::QueryShape;
use crate::skeleton::fill_cells;

/// What the active caching policy lets the enumerator consider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerationOptions {
    /// Consider index plans (econ-cheap / econ-fast; econ-col and the
    /// net-only baseline forbid them — Section VII-A).
    pub allow_indexes: bool,
    /// Consider multi-node parallel plans (econ-fast's lever).
    pub allow_extra_nodes: bool,
    /// Amortisation horizon `n` (eq. 7) applied to newly built structures.
    pub amortize_n: u64,
    /// Per-plan maintenance backlog cap: a selected plan pays for at most
    /// this much accrual per structure (older backlog is written off —
    /// see `cache::CacheState::settle_maintenance`).
    pub maint_window: SimDuration,
}

impl Default for EnumerationOptions {
    fn default() -> Self {
        EnumerationOptions {
            allow_indexes: true,
            allow_extra_nodes: true,
            amortize_n: 500,
            maint_window: SimDuration::from_secs(600.0),
        }
    }
}

/// Everything enumeration needs that outlives a single query.
#[derive(Debug, Clone, Copy)]
pub struct PlannerContext<'a> {
    /// The backend schema.
    pub schema: &'a Schema,
    /// Candidate indexes (the "65 from DB2" set).
    pub candidates: &'a [IndexDef],
    /// Prebuilt per-table view of `candidates` (must be built over the
    /// same slice — see [`CandidateIndex::build`]), which also holds the
    /// compiled query shapes.
    pub cand_index: &'a CandidateIndex,
    /// The cost model.
    pub estimator: &'a Estimator,
}

impl PlannerContext<'_> {
    /// The compiled shape of `query` (see [`crate::shapes`]), compiled
    /// into the candidate index on the first query of its
    /// `(template, mask)`.
    ///
    /// # Panics
    /// Debug builds panic if `query`'s tables, column lists or predicate
    /// lists differ from those its key was compiled from.
    #[must_use]
    pub fn shape(&self, query: &Query) -> Arc<QueryShape> {
        self.cand_index.shape(self.schema, self.candidates, query)
    }
}

/// Enumerates all plans for `query` against the current cache state.
///
/// Returned plans are *not* yet skyline-filtered; the economy applies
/// [`crate::skyline_filter`] after the policy's own filtering.
///
/// Convenience wrapper over [`enumerate_plans_into`] that materializes
/// every plan; hot paths should own a [`PlanRows`] instead.
#[must_use]
pub fn enumerate_plans(
    ctx: &PlannerContext<'_>,
    query: &Query,
    cache: &CacheState,
    now: SimTime,
    opts: EnumerationOptions,
) -> Vec<QueryPlan> {
    let mut rows = PlanRows::new();
    enumerate_plans_into(ctx, query, cache, now, opts, &mut rows);
    rows.to_plans()
}

/// Enumerates all plans for `query` into caller-owned rows.
///
/// The plan set equals [`enumerate_plans`]'s (same plans, same order,
/// same bits), written in row form. One column pass serves both index
/// variants: the best-index variant uses the scan variant's columns plus
/// its indexes, so each accessed column is probed, quoted and priced
/// once, and the index variant adds only its indexes' terms. Per variant
/// the execution volumes are estimated once and scaled per node count;
/// each extra CPU node's state is probed once for every row. The
/// query's compiled shape ([`PlannerContext::shape`]) supplies the
/// deduplicated columns, the index picks and every row width, so only
/// the selectivity arithmetic and the cache-dependent quotes run here.
///
/// # Panics
/// Panics if `opts.amortize_n == 0`.
pub fn enumerate_plans_into(
    ctx: &PlannerContext<'_>,
    query: &Query,
    cache: &CacheState,
    now: SimTime,
    opts: EnumerationOptions,
    rows: &mut PlanRows,
) {
    let est = ctx.estimator;
    let price = |s: &CachedStructure, span: SimDuration| est.maintenance(s, span);
    let exist = |s: &CachedStructure| {
        let span = now
            .saturating_since(s.maint_paid_until)
            .min(opts.maint_window);
        (s.amortization_due(), price(s, span))
    };

    // --- Backend plan (always P_exist). ---
    let shape = ctx.shape(query);
    let backend = est.backend_execution_shaped(&shape, query);
    let (backend_cost, backend_breakdown) = est.price_execution(&backend);
    rows.begin(
        (backend.time, backend_cost, backend_breakdown),
        est.build_node(),
        opts.amortize_n,
    );
    let node_options = &est.params().node_options;
    if opts.allow_extra_nodes {
        let extra = node_options.iter().max().map_or(0, |k| k.saturating_sub(1));
        for ordinal in 0..extra {
            rows.probe_node(cache, ordinal, now, opts.maint_window, &price);
        }
    }
    let mut sc = std::mem::take(&mut rows.scratch);

    // --- The shared column pass over the shape's deduplicated columns:
    // each is partitioned into usable (installment due + capped
    // maintenance, exactly what `CacheState::settle_usage` will charge)
    // or missing (one build quote feeding both the build cost and the
    // first installment). ---
    let scan = rows.open_variant();
    let mut col_terms = DataTerms::ZERO;
    sc.missing_cols.clear();
    {
        let lists = rows.lists(scan);
        lists.indexes.resize(shape.accesses.len(), None);
        for &c in &shape.columns {
            let key = StructureKey::Column(c);
            lists.uses.push(key);
            match cache.get(key).filter(|s| s.is_available(now)) {
                Some(s) => {
                    let (due, maint) = exist(s);
                    col_terms.amortized += due;
                    col_terms.maintenance += maint;
                }
                None => {
                    let (cost, time) = est.column_quote(ctx.schema, c);
                    col_terms.add_missing(cost, time, opts.amortize_n);
                    lists.missing.push(key);
                    lists.missing_builds.push(cost);
                    sc.missing_cols.push(c);
                }
            }
        }
    }
    fill_cells(
        ctx,
        query,
        &shape,
        false,
        opts.allow_extra_nodes,
        &mut sc.cells,
    );
    for cell in 0..sc.cells.len() {
        rows.push_cache_row(scan, &sc.cells, cell, col_terms);
    }

    // --- The best-index variant, when the policy allows indexes and any
    // access has a serving candidate: the scan variant's columns, then
    // each assigned index. ---
    if opts.allow_indexes && shape.indexed {
        let indexed = rows.open_variant();
        let mut terms = col_terms;
        let (scan_lists, lists) = rows.two_lists(scan, indexed);
        lists
            .indexes
            .extend(shape.picks().map(|p| p.map(|pos| ctx.candidates[pos].id)));
        lists.uses.extend_from_slice(&scan_lists.uses);
        lists.missing.extend_from_slice(&scan_lists.missing);
        lists
            .missing_builds
            .extend_from_slice(&scan_lists.missing_builds);
        for pos in shape.picks().flatten() {
            let def = &ctx.candidates[pos];
            let key = StructureKey::Index(def.id);
            lists.uses.push(key);
            match cache.get(key).filter(|s| s.is_available(now)) {
                Some(s) => {
                    let (due, maint) = exist(s);
                    terms.amortized += due;
                    terms.maintenance += maint;
                }
                None => {
                    let missing_cols = &sc.missing_cols;
                    let (cost, time) = est.index_quote(ctx.schema, ctx.candidates, pos, |c| {
                        cache.contains(StructureKey::Column(c)) || missing_cols.contains(&c)
                    });
                    terms.add_missing(cost, time, opts.amortize_n);
                    lists.missing.push(key);
                    lists.missing_builds.push(cost);
                }
            }
        }
        fill_cells(
            ctx,
            query,
            &shape,
            true,
            opts.allow_extra_nodes,
            &mut sc.cells,
        );
        for cell in 0..sc.cells.len() {
            rows.push_cache_row(indexed, &sc.cells, cell, terms);
        }
    }
    rows.scratch = sc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::generate_candidates;
    use crate::estimator::CostParams;
    use crate::plan::PlanShape;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use pricing::Money;
    use pricing::PriceCatalog;
    use simcore::NetworkModel;
    use std::sync::Arc;
    use workload::{paper_templates, WorkloadConfig, WorkloadGenerator};

    struct Fixture {
        schema: Arc<Schema>,
        candidates: Vec<IndexDef>,
        cand_index: CandidateIndex,
        estimator: Estimator,
    }

    impl Fixture {
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
            Fixture {
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

        fn query(&self, seed: u64) -> Query {
            WorkloadGenerator::new(Arc::clone(&self.schema), WorkloadConfig::default(), seed)
                .next_query()
        }
    }

    #[test]
    fn backend_plan_always_present_and_existing() {
        let f = Fixture::new();
        let q = f.query(1);
        let plans = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions::default(),
        );
        let backend: Vec<&QueryPlan> = plans
            .iter()
            .filter(|p| p.shape == PlanShape::Backend)
            .collect();
        assert_eq!(backend.len(), 1);
        assert!(backend[0].is_existing());
        assert!(backend[0].price.is_positive());
    }

    #[test]
    fn cold_cache_makes_cache_plans_possible_not_existing() {
        let f = Fixture::new();
        let q = f.query(2);
        let plans = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions::default(),
        );
        for p in plans.iter().filter(|p| p.shape != PlanShape::Backend) {
            assert!(!p.is_existing(), "cold cache: {:?}", p.shape);
            assert!(p.build_cost.is_positive());
            assert!(!p.build_time.is_zero());
        }
    }

    #[test]
    fn node_counts_follow_options() {
        let f = Fixture::new();
        let q = f.query(3);
        let all = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions::default(),
        );
        let max_nodes = all.iter().map(|p| p.shape.cache_nodes()).max().unwrap();
        assert_eq!(max_nodes, 5, "node_options = [1,3,5]");

        let no_parallel = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions {
                allow_extra_nodes: false,
                ..EnumerationOptions::default()
            },
        );
        assert!(no_parallel.iter().all(|p| p.shape.cache_nodes() <= 1));
    }

    #[test]
    fn index_plans_obey_the_policy_switch() {
        let f = Fixture::new();
        let q = f.query(4);
        let with = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions::default(),
        );
        assert!(with.iter().any(|p| p.shape.uses_indexes()));
        let without = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions {
                allow_indexes: false,
                ..EnumerationOptions::default()
            },
        );
        assert!(without.iter().all(|p| !p.shape.uses_indexes()));
    }

    #[test]
    fn warm_cache_moves_plans_to_exist() {
        let f = Fixture::new();
        let q = f.query(5);
        let mut cache = CacheState::new();
        let now = SimTime::from_secs(100.0);
        for c in q.all_columns() {
            let size = f.schema.column_bytes(c);
            cache.install(
                StructureKey::Column(c),
                size,
                SimTime::ZERO,
                SimDuration::ZERO,
                Money::from_dollars(1.0),
                100,
            );
        }
        let plans = enumerate_plans(&f.ctx(), &q, &cache, now, EnumerationOptions::default());
        let scan_1 = plans
            .iter()
            .find(|p| {
                matches!(&p.shape, PlanShape::Cache { indexes, nodes: 1 }
                    if indexes.iter().all(Option::is_none))
            })
            .expect("scan plan");
        assert!(scan_1.is_existing(), "all columns cached");
        assert!(
            scan_1.amortized_cost.is_positive(),
            "installments due on fresh structures"
        );
        assert!(
            scan_1.maintenance_cost.is_positive(),
            "100 s of disk maintenance accrued"
        );
        assert_eq!(
            scan_1.price,
            scan_1.exec_cost + scan_1.amortized_cost + scan_1.maintenance_cost
        );
    }

    #[test]
    fn structures_still_building_stay_missing() {
        let f = Fixture::new();
        let q = f.query(6);
        let mut cache = CacheState::new();
        let col = q.all_columns().next().unwrap();
        cache.install(
            StructureKey::Column(col),
            100,
            SimTime::ZERO,
            SimDuration::from_secs(1_000.0), // becomes available at t=1000
            Money::ZERO,
            10,
        );
        let plans = enumerate_plans(
            &f.ctx(),
            &q,
            &cache,
            SimTime::from_secs(10.0),
            EnumerationOptions::default(),
        );
        for p in plans.iter().filter(|p| p.shape != PlanShape::Backend) {
            assert!(
                p.missing.contains(&StructureKey::Column(col)),
                "in-flight builds are not usable"
            );
        }
    }

    #[test]
    fn faster_plans_cost_more_cpu_money() {
        let f = Fixture::new();
        let q = f.query(7);
        let plans = enumerate_plans(
            &f.ctx(),
            &q,
            &CacheState::new(),
            SimTime::ZERO,
            EnumerationOptions::default(),
        );
        let scan = |k: u32| {
            plans
                .iter()
                .find(|p| {
                    matches!(&p.shape, PlanShape::Cache { indexes, nodes }
                        if *nodes == k && indexes.iter().all(Option::is_none))
                })
                .unwrap()
        };
        let (s1, s3) = (scan(1), scan(3));
        assert!(s3.exec_time < s1.exec_time, "3 nodes are faster");
        assert!(
            s3.exec_breakdown.cpu > s1.exec_breakdown.cpu,
            "parallel overhead costs CPU money"
        );
    }

    #[test]
    fn uses_lists_are_duplicate_free() {
        let f = Fixture::new();
        for seed in 0..20 {
            let q = f.query(seed);
            let plans = enumerate_plans(
                &f.ctx(),
                &q,
                &CacheState::new(),
                SimTime::ZERO,
                EnumerationOptions::default(),
            );
            for p in &plans {
                let mut u = p.uses.clone();
                u.sort();
                u.dedup();
                assert_eq!(u.len(), p.uses.len(), "duplicate in uses: {:?}", p.uses);
                for m in &p.missing {
                    assert!(p.uses.contains(m), "missing ⊆ uses violated");
                }
            }
        }
    }
}

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
use workload::Query;

use crate::candidates::CandidateIndex;
use crate::estimator::Estimator;
use crate::exec_rows::ExecRows;
use crate::plan::QueryPlan;
use crate::rows::PlanRows;
use crate::shapes::{QueryShape, ShapeId};

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

impl<'a> PlannerContext<'a> {
    /// The compiled shape of `query` (see [`crate::shapes`]), compiled
    /// into the candidate index on the first query of its
    /// `(template, mask)`.
    ///
    /// # Panics
    /// Debug builds panic if `query`'s tables, column lists or predicate
    /// lists differ from those its key was compiled from.
    #[must_use]
    pub fn shape(&self, query: &Query) -> &'a QueryShape {
        self.shape_slot(query).1
    }

    /// [`Self::shape`] with the slot the shape lives in.
    pub(crate) fn shape_slot(&self, query: &Query) -> (ShapeId, &'a QueryShape) {
        self.cand_index.shape(self.schema, self.candidates, query)
    }
}

/// Enumerates all plans for `query` against the current cache state:
/// fills fresh [`ExecRows`], binds them ([`bind_plans_into`]) and
/// materializes every plan.
///
/// Returned plans are *not* yet skyline-filtered; the economy applies
/// [`crate::skyline_filter`] after the policy's own filtering.
///
/// A convenience for one-off planning and tests; hot paths fill one
/// long-lived [`ExecRows`] per query and bind it into a long-lived
/// [`PlanRows`] instead.
///
/// # Panics
/// Panics if `opts.amortize_n == 0`.
#[must_use]
pub fn enumerate_plans(
    ctx: &PlannerContext<'_>,
    query: &Query,
    cache: &CacheState,
    now: SimTime,
    opts: EnumerationOptions,
) -> Vec<QueryPlan> {
    let exec = ExecRows::build(ctx, query);
    let mut rows = PlanRows::new();
    bind_plans_into(ctx, &exec, cache, now, opts, &mut rows);
    rows.to_plans(&exec)
}

/// Binds a query's execution rows to one cache: writes the query's plan
/// set against `cache` at `now` into caller-owned rows, as terms over
/// `exec` ([`PlanRows`]).
///
/// The plan set equals [`enumerate_plans`]'s for the query `exec` was
/// filled from (same plans, same order, same bits). Every plan's
/// execution time and cost is a cell of `exec`; only the
/// cache-dependent terms are computed here, each once. One column pass
/// serves both index variants: the best-index variant uses the scan
/// variant's columns plus its indexes, so each accessed column is
/// probed, quoted and priced once, and the index variant adds only its
/// indexes' terms. Each extra CPU node's state is probed once for every
/// row. Options that forbid extra nodes skip the multi-node cells;
/// options that forbid indexes skip the best-index variant.
///
/// # Panics
/// Panics if `opts.amortize_n == 0` or `exec` was never filled. `exec`
/// must have been filled through `ctx`.
pub fn bind_plans_into(
    ctx: &PlannerContext<'_>,
    exec: &ExecRows,
    cache: &CacheState,
    now: SimTime,
    opts: EnumerationOptions,
    rows: &mut PlanRows,
) {
    let est = ctx.estimator;
    let price = |s: &CachedStructure, span: SimDuration| est.maintenance(s, span);
    // A usable structure's installment due and capped maintenance:
    // exactly what `CacheState::settle_quoted` will collect.
    let usable = |key: StructureKey| {
        cache.get(key).filter(|s| s.is_available(now)).map(|s| {
            let span = now
                .saturating_since(s.maint_paid_until)
                .min(opts.maint_window);
            (s.amortization_due(), price(s, span))
        })
    };

    // --- Backend plan (always P_exist) and the extra CPU nodes. ---
    let shape = exec.shape(ctx);
    rows.begin(
        exec,
        shape.accesses.len(),
        est.build_node(),
        opts.amortize_n,
    );
    if opts.allow_extra_nodes {
        let node_options = &est.params().node_options;
        let extra = node_options.iter().max().map_or(0, |k| k.saturating_sub(1));
        rows.probe_nodes(cache, extra, now, opts.maint_window, &price);
    }

    // --- The scan variant: the shape's deduplicated columns, each usable
    // (installment due + capped maintenance) or missing (one build quote
    // feeding both the build cost and the first installment). ---
    for &c in &shape.columns {
        let key = StructureKey::Column(c);
        match usable(key) {
            Some(terms) => rows.add_usable(key, terms),
            None => rows.add_missing(key, est.column_quote(ctx.schema, c), opts.amortize_n),
        }
    }
    let scan = rows.close_variant();
    rows.push_cells(scan, exec.cells(0), opts.allow_extra_nodes);

    // --- The best-index variant, when the policy allows indexes and any
    // access has a serving candidate: the scan variant's columns, then
    // each assigned index. ---
    if opts.allow_indexes && shape.indexed {
        rows.set_picks(shape.picks().map(|p| p.map(|pos| ctx.candidates[pos].id)));
        for pos in shape.picks().flatten() {
            let key = StructureKey::Index(ctx.candidates[pos].id);
            match usable(key) {
                Some(terms) => rows.add_usable(key, terms),
                None => {
                    let quote = est.index_quote(ctx.schema, ctx.candidates, pos, |c| {
                        let column = StructureKey::Column(c);
                        cache.contains(column) || rows.is_missing(column)
                    });
                    rows.add_missing(key, quote, opts.amortize_n);
                }
            }
        }
        let indexed = rows.close_variant();
        rows.push_cells(indexed, exec.cells(1), opts.allow_extra_nodes);
    }
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

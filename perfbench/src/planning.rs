//! The read-only planning context the traced drivers share across cells:
//! the same schema, candidates, candidate index and estimator that
//! `FleetSim::new` and `Simulation::new` build, built here through the
//! public functions with each phase timed.

use std::sync::Arc;
use std::time::Instant;

use catalog::tpch::{tpch_schema, ScaleFactor};
use catalog::Schema;
use planner::{generate_candidates, CandidateIndex, CostParams, Estimator, PlannerContext};
use pricing::PriceCatalog;
use simcore::NetworkModel;
use workload::paper_templates;

/// Host time of each set-up phase, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `tpch_schema`.
    pub schema_ns: u64,
    /// `paper_templates` plus `generate_candidates`.
    pub candidates_ns: u64,
    /// `CandidateIndex::build`.
    pub cand_index_ns: u64,
}

/// A built planning context.
pub struct Planning {
    /// The backend schema.
    pub schema: Arc<Schema>,
    candidates: Vec<cache::IndexDef>,
    cand_index: CandidateIndex,
    estimator: Estimator,
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Planning {
    /// Builds the context for a run at `scale_factor` with
    /// `candidate_indexes` candidates, timing each phase.
    #[must_use]
    pub fn build(
        scale_factor: f64,
        candidate_indexes: usize,
        cost_params: &CostParams,
        prices: &PriceCatalog,
    ) -> (Planning, SetupTimes) {
        let started = Instant::now();
        let schema = Arc::new(tpch_schema(ScaleFactor(scale_factor)));
        let schema_ns = elapsed_ns(started);
        let started = Instant::now();
        let templates = paper_templates(&schema);
        let candidates = generate_candidates(&schema, &templates, candidate_indexes);
        let candidates_ns = elapsed_ns(started);
        let started = Instant::now();
        let cand_index = CandidateIndex::build(&schema, &candidates);
        let cand_index_ns = elapsed_ns(started);
        let estimator = Estimator::new(
            cost_params.clone(),
            prices.clone(),
            NetworkModel::paper_sdss(),
        );
        (
            Planning {
                schema,
                candidates,
                cand_index,
                estimator,
            },
            SetupTimes {
                schema_ns,
                candidates_ns,
                cand_index_ns,
            },
        )
    }

    /// The planner context over this set-up.
    #[must_use]
    pub fn ctx(&self) -> PlannerContext<'_> {
        PlannerContext {
            schema: &self.schema,
            candidates: &self.candidates,
            cand_index: &self.cand_index,
            estimator: &self.estimator,
        }
    }
}

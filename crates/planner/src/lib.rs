//! # planner — plan enumeration and the full resource cost model
//!
//! This crate plays the role of the paper's query optimizer plus its cost
//! model (Sections IV-D and V):
//!
//! * [`estimator`] — eq. 8 (cache execution), eq. 9 (backend + network
//!   execution) and eqs. 10–15 (structure build & maintenance costs), all
//!   parameterised by [`estimator::CostParams`] whose defaults reproduce
//!   the paper's setup (`l_cpu = 1`, `f_n = 1`, `l = 0`, 25 Mbps,
//!   `f_cpu = 0.014`).
//! * [`scaling`] — the multi-node speed-up law calibrated to the paper's
//!   SDSS measurement: "a query can be sped up 2× using only 25 % extra
//!   CPU overhead using 3 CPU nodes in parallel".
//! * [`candidates`] — the candidate-index generator standing in for DB2's
//!   "recommend indexes" mode (the paper uses its top 65 candidates).
//! * [`shapes`] — [`QueryShape`], the schema- and candidate-dependent
//!   terms of every query of one `(template, optional-column mask)`:
//!   row counts, access and backend row widths, the best candidate index
//!   per access and the deduplicated column list. Compiled lazily into
//!   the [`CandidateIndex`], so enumeration does only the per-query
//!   selectivity arithmetic.
//! * [`enumerate`] — produces the plan set `P_Q = P_exist ∪ P_pos` for a
//!   query against the current cache state, in one column pass shared
//!   by the scan and index variants (the index variant uses the scan
//!   variant's columns plus its indexes, so each column is probed,
//!   quoted and priced once).
//! * [`rows`] — [`PlanRows`], the one compact form every producer writes
//!   (fresh enumeration, skeleton completion, batched emission): hot
//!   `(time, price, existing)` rows, per-row scalars and per-variant
//!   shared lists. Selection runs on the rows, the economy's plan memo
//!   stores them, and only the plan a query runs is materialized
//!   ([`PlanRows::plan`]).
//! * [`skeleton`] — the cache-independent half of enumeration
//!   ([`PlanSkeleton`]) plus the cheap per-node completion phase, so a
//!   fleet quote round plans each query once instead of once per node;
//!   [`SkeletonCache`] shares built skeletons fleet-wide under the
//!   query's planning fingerprint; [`ExecRows`] is the skeleton's
//!   execution-row half alone, for callers that only need every plan's
//!   `(time, cost)`.
//! * [`batch`] — structure-major batched completion: one
//!   [`BatchCompleter`] pass binds a skeleton against N nodes' cache
//!   states at once, turning N independent cache probes per structure
//!   into dense sweeps (bit-identical to N per-node completions).
//! * [`soa`] — the struct-of-arrays selection-hot plan fields (time,
//!   price, existing flag): the hot half of [`PlanRows`], and a
//!   projection of any `QueryPlan` slice.
//! * [`skyline`] — keeps only the (time, price)-Pareto plans, as the
//!   paper's footnote 2 prescribes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod candidates;
pub mod enumerate;
pub mod estimator;
pub mod plan;
pub mod rows;
pub mod scaling;
pub mod shapes;
pub mod skeleton;
pub mod skyline;
pub mod soa;

pub use batch::{complete_plans_batch, BatchCompleter, CacheView};
pub use candidates::{generate_candidates, CandidateIndex, TableCandidate};
pub use enumerate::{enumerate_plans, enumerate_plans_into, EnumerationOptions, PlannerContext};
pub use estimator::{CacheExecBase, CostParams, Estimator};
pub use plan::{PlanShape, QueryPlan};
pub use rows::PlanRows;
pub use scaling::ParallelModel;
pub use shapes::QueryShape;
pub use skeleton::{
    complete_plans_into, planning_fingerprint, ExecRows, LazySkeleton, PlanSkeleton, SkeletonCache,
    SkeletonCacheCounters,
};
pub use skyline::{skyline_filter, skyline_partition, skyline_partition_hot};
pub use soa::PlanHot;

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
//! * [`enumerate`] — binds a query's execution rows to one cache state,
//!   producing the plan set `P_Q = P_exist ∪ P_pos`, in one column pass
//!   shared by the scan and index variants (the index variant uses the
//!   scan variant's columns plus its indexes, so each column is probed,
//!   quoted and priced once).
//! * [`rows`] — [`PlanRows`], the compact form fused enumeration writes:
//!   a plan set as terms over the arrival's [`ExecRows`] — hot
//!   `(time, price, existing)` rows, each row's variant and cell, and
//!   per-variant and per-node-count terms, each priced once. Selection
//!   runs on the hot rows, and the plan a query runs is read from its
//!   row and the execution rows in place ([`PlanRows::row`]).
//! * [`exec_rows`] — [`ExecRows`], the cache-independent half of
//!   planning: a query's backend row and every variant × node-count
//!   execution cell, a pure function of the context and the query,
//!   filled once per arrival into reused storage. [`bind_plans_into`]
//!   binds it to one cache, for every serve and every bid;
//!   [`enumerate_plans`] fills fresh rows, binds and materializes them
//!   in one call. [`SkeletonCache`] is an inert name the repository
//!   benchmark still uses.
//! * [`soa`] — the struct-of-arrays selection-hot plan fields (time,
//!   price, existing flag): the hot half of [`PlanRows`], and a
//!   projection of any `QueryPlan` slice.
//! * [`skyline`] — keeps only the (time, price)-Pareto plans, as the
//!   paper's footnote 2 prescribes; the serve's two-tier partition sorts
//!   a plan set's few rows by stable insertion on raw keys.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
pub mod enumerate;
pub mod estimator;
pub mod exec_rows;
pub mod plan;
pub mod rows;
pub mod scaling;
pub mod shapes;
pub mod skyline;
pub mod soa;

pub use candidates::{generate_candidates, CandidateIndex, TableCandidate};
pub use enumerate::{bind_plans_into, enumerate_plans, EnumerationOptions, PlannerContext};
pub use estimator::{CacheExecBase, CostParams, Estimator};
pub use exec_rows::{ExecRows, SkeletonCache, SkeletonCacheCounters};
pub use plan::{PlanShape, QueryPlan};
pub use rows::{PlanRow, PlanRows};
pub use scaling::ParallelModel;
pub use shapes::QueryShape;
pub use skyline::{skyline_filter, skyline_partition, skyline_partition_hot};
pub use soa::PlanHot;

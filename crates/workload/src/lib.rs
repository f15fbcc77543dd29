//! # workload — the paper's TPC-H/SDSS query workload
//!
//! Section VII-A of the paper: *"The cache is operated under a TPCH-based
//! workload, which consists of 7 TPCH query templates and simulates the
//! query evolution of a million SDSS-like queries against a 2.5 TB back-end
//! database."* That trace was never published, so this crate generates a
//! synthetic equivalent with the same knobs Section VI says the economy is
//! sensitive to:
//!
//! * **data-access locality** — queries concentrate on the small set of
//!   columns the 7 templates touch ([`templates`]);
//! * **temporal locality / query evolution** — template popularity drifts
//!   over time as a random walk, which is what forces econ-cheap to evict
//!   and rebuild indexes at long inter-arrival times ([`evolution`]);
//! * **result-heavy queries** — per-template result models produce multi-MB
//!   results so that backend execution pays real bandwidth ([`templates`]).
//!
//! [`generator::WorkloadGenerator`] is a deterministic
//! `Iterator<Item = Query>` given a seed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod evolution;
pub mod generator;
pub mod query;
pub mod templates;

pub use arrivals::{DiurnalSinusoid, MarkovModulated, SurgeOverlay};
pub use generator::{WorkloadConfig, WorkloadGenerator, MAX_OPTIONAL_COLUMNS};
pub use query::{Query, QueryId, QueryLists, Selectivities, TableAccess, MAX_ACCESSES};
pub use templates::{paper_templates, ResolvedTemplate, TemplateId};

//! # cache — the cloud cache substrate
//!
//! Section V-C of the paper: *"the cache needs to decide on building and
//! maintaining three different types of structures: 1) CPU nodes N,
//! 2) table columns T, and 3) indexes I."* This crate holds the
//! materialised state of that cache:
//!
//! * [`structure::StructureKey`] — the identity of a cache structure
//!   (node / column / index); the unit the regret ledger, the investment
//!   rule and the maintenance accounting all index by.
//! * [`structure::IndexDef`] — candidate index definitions (key columns,
//!   size model).
//! * [`state::CacheState`] — what is currently built: which columns and
//!   indexes are on disk, how many extra CPU nodes are up, per-structure
//!   amortisation debt and maintenance checkpoints, and the exact
//!   byte-seconds disk-occupancy integral that the Fig. 4 operating cost
//!   charges (via [`occupancy::Occupancy`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod occupancy;
pub mod state;
pub mod structure;

pub use occupancy::Occupancy;
pub use state::{CacheState, CachedStructure};
pub use structure::{IndexDef, IndexId, StructureKey, ROW_LOCATOR_BYTES};

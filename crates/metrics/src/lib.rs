//! # metrics — streaming statistics for simulation runs
//!
//! Figures 4 and 5 of the paper report *operating cost* and *average
//! response time* per scheme and inter-arrival interval. This crate
//! collects those measurements while a simulation runs:
//!
//! * [`stream::StreamingStats`] — single-pass mean/variance/min/max
//!   (Welford's algorithm), used for response times over up to a million
//!   queries without storing them.
//! * [`histogram::LogHistogram`] — log-bucketed latency histogram with
//!   percentile queries.
//! * [`breakdown::CostBreakdown`] — exact per-resource operating cost
//!   (CPU / disk / network / I/O), the decomposition Section VII-B reasons
//!   with ("the disc space cost … is very small and significant for the 1
//!   second and 60 seconds measurements, respectively").

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod histogram;
pub mod stream;

pub use breakdown::{CostBreakdown, Resource};
pub use histogram::LogHistogram;
pub use stream::StreamingStats;

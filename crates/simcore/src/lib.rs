//! # simcore — discrete-event simulation kernel
//!
//! The substrate every other crate in this workspace runs on. The paper
//! ("An Economic Model for Self-Tuned Cloud Caching", ICDE 2009) evaluates
//! its economy with a *simulated* cloud cache; this crate provides the
//! simulation primitives:
//!
//! * [`time`] — virtual time ([`SimTime`]) and durations ([`SimDuration`])
//!   as validated, totally-ordered `f64` second newtypes.
//! * [`rng`] — a deterministic, seedable [`SimRng`] (SplitMix64 +
//!   xoshiro256**): every simulation run is a pure function of its seed.
//! * [`sample`] — distribution samplers built from first principles
//!   (exponential, discrete weighted) so the workspace does not need
//!   `rand_distr`.
//! * [`events`] — a stable (FIFO-on-ties) priority event queue.
//! * [`arrival`] — query arrival processes: fixed-interval (the paper's
//!   1/10/30/60 s grid), Poisson, on/off bursty, and trace replay.
//! * [`network`] — the deterministic latency/throughput WAN model behind
//!   eq. 9 and eq. 12 of the paper.
//!
//! Nothing in this crate knows about queries, caches or money.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod error;
pub mod events;
pub mod network;
pub mod rng;
pub mod sample;
pub mod time;

pub use arrival::{ArrivalProcess, FixedInterval, OnOffBursty, PoissonProcess, TraceArrivals};
pub use error::SimError;
pub use events::EventQueue;
pub use network::NetworkModel;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

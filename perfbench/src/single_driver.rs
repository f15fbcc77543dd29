//! Traced replay of the single-cache coordinator loop.
//!
//! [`replay`] runs the loop of `Simulation::run` through the simulator's
//! public pieces (`make_policy`, `make_arrivals`, `RunAccumulator`) with a
//! span around query generation and around every `RunAccumulator::step`,
//! once per cache of the workload. Each cache's [`RunResult`] must match
//! the untraced run's aggregates bit for bit.

use std::sync::Arc;
use std::time::Instant;

use econ::PlanCacheStats;
use simcore::{SimRng, SimTime};
use simulator::{make_arrivals, make_policy, RunAccumulator, RunResult, SimConfig};
use workload::WorkloadGenerator;

use crate::planning::Planning;
use crate::spans::{Layer, Span, SpanLog};

/// The generator-seed salt `Simulation::run` applies to the run seed.
const GENERATOR_SALT: u64 = 0x57A7_1571C5;

/// A traced single-cache run.
pub struct SingleTrace {
    /// Each cache's result, in config order.
    pub results: Vec<RunResult>,
    /// Every span; a span's cell is its cache's position.
    pub spans: Vec<Span>,
    /// Elapsed host time of the replay, nanoseconds.
    pub wall_ns: u64,
    /// The caches' plan-cache counters, summed.
    pub plan_cache: PlanCacheStats,
}

/// Replays each of `configs` in turn with spans. Every config must share
/// the scale factor, candidate budget and cost model `planning` was
/// built from.
#[must_use]
pub fn replay(configs: &[SimConfig], planning: &Planning) -> SingleTrace {
    let ctx = planning.ctx();
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut results = Vec::with_capacity(configs.len());
    let mut plan_cache = PlanCacheStats::default();
    for (cache, config) in configs.iter().enumerate() {
        let tag = u32::try_from(cache).expect("cache count fits u32");
        let mut policy = make_policy(&config.scheme, &planning.schema, &config.econ);
        let mut arrivals = make_arrivals(&config.arrival);
        let mut rng = SimRng::new(config.seed);
        let mut generator = WorkloadGenerator::new(
            Arc::clone(&planning.schema),
            config.workload.clone(),
            config.seed ^ GENERATOR_SALT,
        );
        let mut acc = RunAccumulator::new();
        let mut last_arrival = SimTime::ZERO;
        for ordinal in 1..=config.num_queries {
            let (now, query) = log.time(Layer::Workload, tag, ordinal, || {
                let now = arrivals
                    .next_arrival(&mut rng)
                    .expect("generated arrival processes never exhaust");
                (now, generator.next_query())
            });
            last_arrival = now;
            log.time(Layer::Step, tag, ordinal, || {
                acc.step(policy.as_mut(), &ctx, &query, now)
            });
        }
        results.push(log.time(Layer::StepFinish, tag, config.num_queries, || {
            acc.finish(policy.as_mut(), &config.prices.rates, last_arrival)
        }));
        if let Some(stats) = policy.economy().map(econ::EconomyManager::plan_cache_stats) {
            plan_cache.hits += stats.hits;
            plan_cache.misses += stats.misses;
            plan_cache.refreshes += stats.refreshes;
            plan_cache.completions += stats.completions;
            plan_cache.victim_hits += stats.victim_hits;
        }
    }
    SingleTrace {
        results,
        spans: log.into_spans(),
        wall_ns: u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX),
        plan_cache,
    }
}

/// Every deterministic aggregate of a single-cache run, for bit-for-bit
/// comparison.
#[must_use]
pub fn fingerprint(r: &RunResult) -> String {
    format!(
        "queries={} payments={} profit={} build_spend={} operating={} hits={} builds={} \
         evictions={} mean_bits={:016x} p99_bits={:016x} horizon_bits={:016x} disk={}",
        r.queries,
        r.payments.as_nanos(),
        r.profit.as_nanos(),
        r.build_spend.as_nanos(),
        r.operating.total().as_nanos(),
        r.cache_hits,
        r.investments,
        r.evictions,
        r.response.mean().to_bits(),
        r.response_hist.p99().unwrap_or(0.0).to_bits(),
        r.horizon_secs.to_bits(),
        r.final_disk_bytes,
    )
}

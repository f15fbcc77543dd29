//! Tenant populations and the superposed multi-tenant query stream.
//!
//! A [`TenantSpec`] describes one tenant: its workload mix (a full
//! [`WorkloadConfig`]), its arrival process and how many queries it
//! submits. A population of tenants is superposed into a single
//! time-ordered stream by [`MergedStream`], a binary-heap merge built on
//! [`simcore::EventQueue`] (min-first, FIFO on ties), so the fleet serves
//! queries exactly in global arrival order no matter how tenants' clocks
//! interleave.
//!
//! Every tenant derives its own generator and arrival seeds from
//! `(fleet seed, tenant id)` alone — never from the cell or shard it lands
//! on — which is what makes fleet runs invariant under the executor's
//! parallelism (see [`crate::exec`]).

use std::sync::Arc;

use catalog::Schema;
use serde::{Deserialize, Serialize};
use simcore::arrival::ArrivalProcess;
use simcore::{EventQueue, SimRng, SimTime};
use simulator::{make_arrivals, ArrivalKind};
use telemetry::TenantSloSpec;
use workload::{Query, SurgeOverlay, WorkloadConfig, WorkloadGenerator};

/// Identity of one tenant in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

/// One tenant's contract with the fleet: who they are, what they ask, and
/// how their queries arrive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant identity (unique within a fleet).
    pub id: TenantId,
    /// The tenant's workload mix (template drift, optional columns,
    /// budget scales).
    pub workload: WorkloadConfig,
    /// The tenant's arrival process.
    pub arrival: ArrivalKind,
    /// Queries this tenant submits over the run.
    pub queries: u64,
    /// The tenant's service-level objective (p99 response target, spend
    /// cap); `None` for tenants without a contract. Purely
    /// observational: the SLO ledger tracks it, nothing routes on it.
    /// Defaults absent so older serialized configs still load.
    #[serde(default)]
    pub slo: Option<TenantSloSpec>,
}

impl TenantSpec {
    /// Derives the tenant's two private seeds (generator, arrivals) from
    /// the fleet seed. Pure function of `(fleet_seed, id)`.
    #[must_use]
    fn seeds(&self, fleet_seed: u64) -> (u64, u64) {
        let mut rng = SimRng::new(
            fleet_seed ^ (u64::from(self.id.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        (rng.next_u64(), rng.next_u64())
    }
}

/// One tenant's live query stream: generator + arrival process + budget
/// of remaining queries.
pub struct TenantStream {
    spec: TenantSpec,
    generator: WorkloadGenerator,
    arrivals: Box<dyn ArrivalProcess>,
    arrival_rng: SimRng,
    remaining: u64,
}

impl TenantStream {
    /// Builds the stream from its spec, deriving seeds from the fleet seed.
    ///
    /// # Panics
    /// Panics if the workload config is invalid.
    #[must_use]
    pub fn new(spec: TenantSpec, schema: Arc<Schema>, fleet_seed: u64) -> Self {
        Self::with_surges(spec, schema, fleet_seed, Vec::new())
    }

    /// [`Self::new`], with the fault plan's flash-crowd surge windows
    /// (`(start, end, boost)`, sorted and disjoint) layered on the
    /// tenant's arrival process; no windows, no overlay. Seeds and the
    /// underlying random draws are untouched — the overlay only
    /// time-warps the output instants — so surge runs remain
    /// shard-invariant.
    ///
    /// # Panics
    /// Panics if the workload config or the surge windows are invalid.
    #[must_use]
    pub fn with_surges(
        spec: TenantSpec,
        schema: Arc<Schema>,
        fleet_seed: u64,
        windows: Vec<(f64, f64, f64)>,
    ) -> Self {
        let (gen_seed, arrival_seed) = spec.seeds(fleet_seed);
        let generator = WorkloadGenerator::new(schema, spec.workload.clone(), gen_seed);
        let mut arrivals = make_arrivals(&spec.arrival);
        if !windows.is_empty() {
            arrivals = Box::new(SurgeOverlay::new(arrivals, windows));
        }
        TenantStream {
            remaining: spec.queries,
            spec,
            generator,
            arrivals,
            arrival_rng: SimRng::new(arrival_seed),
        }
    }

    /// The spec this stream was built from.
    #[must_use]
    pub fn spec(&self) -> &TenantSpec {
        &self.spec
    }

    /// Next `(arrival, query)` of this tenant, or `None` when its query
    /// budget is exhausted.
    pub fn next_arrival(&mut self) -> Option<(SimTime, Query)> {
        if self.remaining == 0 {
            return None;
        }
        let at = self.arrivals.next_arrival(&mut self.arrival_rng)?;
        self.remaining -= 1;
        Some((at, self.generator.next_query()))
    }
}

/// The superposed fleet stream: a binary-heap merge of tenant streams.
///
/// Pulls one pending arrival per tenant and refills from the popped
/// tenant, so memory is `O(tenants)` and each pop is `O(log tenants)`.
/// The min-first event queue holds only each pending arrival's stream
/// ordinal; its query waits in that tenant's slot, so a heap sift moves a
/// few words, not a query. Ties on the arrival instant break FIFO (stable
/// in tenant order for the initial fill), keeping the merged order a pure
/// function of the tenant population.
pub struct MergedStream {
    streams: Vec<TenantStream>,
    /// Per stream ordinal, the query of its arrival in the queue.
    pending: Vec<Option<Query>>,
    queue: EventQueue<usize>,
}

impl MergedStream {
    /// Builds the merge, priming the heap with each tenant's first arrival.
    #[must_use]
    pub fn new(streams: Vec<TenantStream>) -> Self {
        let mut merged = MergedStream {
            pending: vec![None; streams.len()],
            streams,
            queue: EventQueue::new(),
        };
        for i in 0..merged.streams.len() {
            merged.refill(i);
        }
        merged
    }

    fn refill(&mut self, ordinal: usize) {
        if let Some((at, query)) = self.streams[ordinal].next_arrival() {
            self.pending[ordinal] = Some(query);
            self.queue.schedule(at, ordinal);
        }
    }

    /// Pops the globally earliest arrival across all tenants, tagged
    /// with its stream's ordinal: its position in the `streams` passed
    /// to [`Self::new`].
    pub fn next_slotted(&mut self) -> Option<(SimTime, usize, Query)> {
        let (at, ordinal) = self.queue.pop()?;
        let query = self.pending[ordinal]
            .take()
            .expect("a queued ordinal holds its pending query");
        self.refill(ordinal);
        Some((at, ordinal, query))
    }
}

impl Iterator for MergedStream {
    type Item = (SimTime, TenantId, Query);

    /// Pops the globally earliest arrival across all tenants.
    fn next(&mut self) -> Option<Self::Item> {
        let (at, ordinal, query) = self.next_slotted()?;
        Some((at, self.streams[ordinal].spec().id, query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};

    fn schema() -> Arc<Schema> {
        Arc::new(tpch_schema(ScaleFactor(1.0)))
    }

    fn spec(id: u32, interval: f64, queries: u64) -> TenantSpec {
        TenantSpec {
            id: TenantId(id),
            workload: WorkloadConfig::default(),
            arrival: ArrivalKind::Fixed {
                interval_secs: interval,
            },
            queries,
            slo: None,
        }
    }

    #[test]
    fn merge_is_globally_time_ordered() {
        let schema = schema();
        let streams: Vec<TenantStream> = [spec(0, 3.0, 10), spec(1, 5.0, 10), spec(2, 7.0, 10)]
            .into_iter()
            .map(|s| TenantStream::new(s, Arc::clone(&schema), 42))
            .collect();
        let merged = MergedStream::new(streams);
        let mut prev = SimTime::ZERO;
        let mut count = 0;
        for (at, _, _) in merged {
            assert!(at >= prev, "merge went backwards");
            prev = at;
            count += 1;
        }
        assert_eq!(count, 30);
    }

    #[test]
    fn merge_respects_query_budgets() {
        let schema = schema();
        let streams = vec![
            TenantStream::new(spec(0, 1.0, 3), Arc::clone(&schema), 1),
            TenantStream::new(spec(1, 1.0, 5), Arc::clone(&schema), 1),
        ];
        let merged = MergedStream::new(streams);
        let mut per_tenant = [0u64; 2];
        for (_, tenant, _) in merged {
            per_tenant[tenant.0 as usize] += 1;
        }
        assert_eq!(per_tenant, [3, 5]);
    }

    #[test]
    fn slotted_pops_name_their_stream_ordinal() {
        let schema = schema();
        let ids = [5u32, 2, 9];
        let merged = || {
            MergedStream::new(
                ids.iter()
                    .map(|&id| {
                        TenantStream::new(spec(id, f64::from(id), 3), Arc::clone(&schema), 4)
                    })
                    .collect(),
            )
        };
        let (mut slotted, mut plain) = (merged(), merged());
        while let Some((at, slot, query)) = slotted.next_slotted() {
            let (at_plain, tenant, query_plain) = plain.next().expect("same length");
            assert_eq!((at, ids[slot], query), (at_plain, tenant.0, query_plain));
        }
        assert!(plain.next().is_none());
    }

    #[test]
    fn tenant_streams_are_independent_of_population() {
        // Tenant 1's queries must be identical whether or not tenant 0
        // exists — the property cell partitioning relies on.
        let schema = schema();
        let solo: Vec<_> = {
            let mut m = MergedStream::new(vec![TenantStream::new(
                spec(1, 2.0, 5),
                Arc::clone(&schema),
                7,
            )]);
            std::iter::from_fn(|| m.next()).collect()
        };
        let duo: Vec<_> = {
            let mut m = MergedStream::new(vec![
                TenantStream::new(spec(0, 3.0, 5), Arc::clone(&schema), 7),
                TenantStream::new(spec(1, 2.0, 5), Arc::clone(&schema), 7),
            ]);
            std::iter::from_fn(|| m.next())
                .filter(|(_, t, _)| *t == TenantId(1))
                .collect()
        };
        assert_eq!(solo.len(), duo.len());
        for ((at_a, _, q_a), (at_b, _, q_b)) in solo.iter().zip(&duo) {
            assert_eq!(at_a, at_b);
            assert_eq!(q_a, q_b);
        }
    }

    #[test]
    fn fixed_interval_ties_break_in_schedule_order() {
        let schema = schema();
        let order = |specs: Vec<TenantSpec>| -> Vec<(f64, u32)> {
            let streams = specs
                .into_iter()
                .map(|s| TenantStream::new(s, Arc::clone(&schema), 9))
                .collect();
            MergedStream::new(streams)
                .map(|(at, t, _)| (at.as_secs(), t.0))
                .collect()
        };
        // Ties on the initial fill and on every refill.
        assert_eq!(
            order(vec![spec(0, 4.0, 2), spec(1, 4.0, 2)]),
            vec![(4.0, 0), (4.0, 1), (8.0, 0), (8.0, 1)]
        );
        // Ties after a refill (intervals 1 s and 2 s) break by schedule
        // order, not tenant order: tenant 1's arrivals at 2 s and 4 s were
        // scheduled (on the initial fill, then on its pop at 2 s) before
        // tenant 0's (on its pops at 1 s and 3 s), so tenant 1 leads both.
        assert_eq!(
            order(vec![spec(0, 1.0, 4), spec(1, 2.0, 2)]),
            vec![(1.0, 0), (2.0, 1), (2.0, 0), (3.0, 0), (4.0, 1), (4.0, 0)]
        );
    }
}

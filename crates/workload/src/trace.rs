//! Workload traces: record a generated query stream to a portable JSONL
//! form and replay it later.
//!
//! The paper's evaluation ran a fixed (unpublished) trace; this module is
//! how *this* reproduction's traces become shareable artifacts: a trace
//! file pins the exact query sequence independently of generator-version
//! drift, so two parties can compare schemes on byte-identical workloads.
//!
//! Format: one JSON object per line, each a [`TracedQuery`] — the query
//! plus its arrival instant. Plain `serde_json` lines keep the files
//! greppable and diffable. A line spells each query out in full, every
//! access with its own selectivity beside its column lists:
//!
//! ```text
//! {"at_secs":…,"query":{"id":…,"template":…,"mask":…,
//!   "accesses":[{"table":…,"columns":[…],"predicate_columns":[…],"selectivity":…}],
//!   "sort_columns":[…],"result_rows":…,"result_bytes":…,"budget_scale":…,"region":…}}
//! ```
//!
//! In memory a query shares its lists ([`crate::QueryLists`]) with the
//! other queries of its `(template, mask)`; on the wire it does not, so a
//! trace line stands alone. A parsed query holds lists of its own.

use std::sync::Arc;

use catalog::{ColumnId, TableId};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

use crate::query::{Query, QueryId, QueryLists, Selectivities, TableAccess, MAX_ACCESSES};
use crate::templates::TemplateId;

/// One trace record: a query and when it arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedQuery {
    /// Arrival instant in seconds since simulation start.
    pub at_secs: f64,
    /// The query.
    pub query: Query,
}

/// An in-memory workload trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TracedQuery>,
}

impl Trace {
    /// Empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one arrival.
    ///
    /// # Panics
    /// Panics if arrivals are appended out of time order.
    pub fn record(&mut self, at: SimTime, query: Query) {
        if let Some(last) = self.records.last() {
            assert!(
                at.as_secs() >= last.at_secs,
                "trace arrivals must be appended in time order"
            );
        }
        self.records.push(TracedQuery {
            at_secs: at.as_secs(),
            query,
        });
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records, in arrival order.
    #[must_use]
    pub fn records(&self) -> &[TracedQuery] {
        &self.records
    }

    /// Iterates `(arrival, query)` pairs for replay.
    pub fn replay(&self) -> impl Iterator<Item = (SimTime, &Query)> + '_ {
        self.records
            .iter()
            .map(|r| (SimTime::from_secs(r.at_secs), &r.query))
    }

    /// Serialises to JSONL.
    ///
    /// # Errors
    /// Propagates `serde_json` errors (none occur for well-formed data).
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&serde_json::to_string(&RecordLine::from(r))?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses a JSONL trace.
    ///
    /// # Errors
    /// Returns the line number (1-based) and parse error for the first
    /// malformed line, or a message if arrivals are out of order.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut trace = Trace::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = serde_json::from_str::<RecordLine>(line)
                .map_err(|e| e.to_string())
                .and_then(TracedQuery::try_from)
                .map_err(|e| format!("line {}: {e}", i + 1))?;
            if let Some(last) = trace.records.last() {
                if record.at_secs < last.at_secs {
                    return Err(format!("line {}: arrival goes backwards", i + 1));
                }
            }
            trace.records.push(record);
        }
        Ok(trace)
    }

    /// Captures `n` queries from a generator with the given arrival gaps.
    pub fn capture<A>(
        generator: &mut crate::generator::WorkloadGenerator,
        arrivals: &mut A,
        rng: &mut simcore::SimRng,
        n: usize,
    ) -> Self
    where
        A: simcore::arrival::ArrivalProcess + ?Sized,
    {
        let mut trace = Trace::new();
        for _ in 0..n {
            let Some(at) = arrivals.next_arrival(rng) else {
                break;
            };
            trace.record(at, generator.next_query());
        }
        trace
    }
}

/// The wire form of one [`TracedQuery`].
#[derive(Serialize, Deserialize)]
struct RecordLine {
    at_secs: f64,
    query: QueryLine,
}

/// The wire form of a [`Query`]: its lists spelled out, selectivities
/// inline.
#[derive(Serialize, Deserialize)]
struct QueryLine {
    id: QueryId,
    template: TemplateId,
    mask: u32,
    accesses: Vec<AccessLine>,
    sort_columns: Vec<ColumnId>,
    result_rows: u64,
    result_bytes: u64,
    budget_scale: f64,
    region: u32,
}

/// The wire form of one access with its selectivity.
#[derive(Serialize, Deserialize)]
struct AccessLine {
    table: TableId,
    columns: Vec<ColumnId>,
    predicate_columns: Vec<ColumnId>,
    selectivity: f64,
}

impl From<&TracedQuery> for RecordLine {
    fn from(r: &TracedQuery) -> Self {
        let q = &r.query;
        RecordLine {
            at_secs: r.at_secs,
            query: QueryLine {
                id: q.id,
                template: q.template,
                mask: q.mask,
                accesses: q
                    .accesses()
                    .map(|(a, selectivity)| AccessLine {
                        table: a.table,
                        columns: a.columns.clone(),
                        predicate_columns: a.predicate_columns.clone(),
                        selectivity,
                    })
                    .collect(),
                sort_columns: q.lists.sort_columns.clone(),
                result_rows: q.result_rows,
                result_bytes: q.result_bytes,
                budget_scale: q.budget_scale,
                region: q.region,
            },
        }
    }
}

impl TryFrom<RecordLine> for TracedQuery {
    type Error = String;

    fn try_from(line: RecordLine) -> Result<Self, String> {
        let q = line.query;
        if !(1..=MAX_ACCESSES).contains(&q.accesses.len()) {
            return Err(format!(
                "query has {} accesses; a query holds 1 to {MAX_ACCESSES}",
                q.accesses.len()
            ));
        }
        let mut selectivities = Selectivities::EMPTY;
        let accesses = q
            .accesses
            .into_iter()
            .map(|a| {
                selectivities.push(a.selectivity);
                TableAccess {
                    table: a.table,
                    columns: a.columns,
                    predicate_columns: a.predicate_columns,
                }
            })
            .collect();
        Ok(TracedQuery {
            at_secs: line.at_secs,
            query: Query {
                id: q.id,
                template: q.template,
                mask: q.mask,
                lists: Arc::new(QueryLists {
                    accesses,
                    sort_columns: q.sort_columns,
                }),
                selectivities,
                result_rows: q.result_rows,
                result_bytes: q.result_bytes,
                budget_scale: q.budget_scale,
                region: q.region,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::tpch::{tpch_schema, ScaleFactor};
    use simcore::arrival::FixedInterval;
    use simcore::{SimDuration, SimRng};
    use std::sync::Arc;

    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    fn capture(n: usize) -> Trace {
        let schema = Arc::new(tpch_schema(ScaleFactor(1.0)));
        let mut gen = WorkloadGenerator::new(schema, WorkloadConfig::default(), 77);
        let mut arrivals = FixedInterval::new(SimDuration::from_secs(2.0));
        let mut rng = SimRng::new(1);
        Trace::capture(&mut gen, &mut arrivals, &mut rng, n)
    }

    #[test]
    fn capture_records_in_order() {
        let t = capture(25);
        assert_eq!(t.len(), 25);
        assert!(!t.is_empty());
        let times: Vec<f64> = t.records().iter().map(|r| r.at_secs).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(times[0], 2.0);
        assert_eq!(times[24], 50.0);
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let t = capture(40);
        let text = t.to_jsonl().unwrap();
        assert_eq!(text.lines().count(), 40);
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn replay_yields_same_queries() {
        let t = capture(10);
        let replayed: Vec<_> = t.replay().collect();
        assert_eq!(replayed.len(), 10);
        assert_eq!(replayed[3].0.as_secs(), 8.0);
        assert_eq!(replayed[3].1, &t.records()[3].query);
    }

    #[test]
    fn malformed_lines_report_position() {
        let t = capture(2);
        let mut text = t.to_jsonl().unwrap();
        text.push_str("{not json}\n");
        let err = Trace::from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn out_of_order_jsonl_rejected() {
        let t = capture(2);
        let text = t.to_jsonl().unwrap();
        let lines: Vec<&str> = text.lines().rev().collect();
        let reversed = lines.join("\n");
        let err = Trace::from_jsonl(&reversed).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn access_counts_outside_the_inline_capacity_are_rejected() {
        let t = capture(1);
        let line = t.to_jsonl().unwrap();
        let no_access = format!(
            "{}[]{}",
            &line[..line.find("\"accesses\":").unwrap() + 11],
            &line[line.find(",\"sort_columns\"").unwrap()..]
        );
        let err = Trace::from_jsonl(&no_access).unwrap_err();
        assert!(err.starts_with("line 1: query has 0 accesses"), "{err}");
    }

    #[test]
    fn blank_lines_ignored() {
        let t = capture(3);
        let text = format!("\n{}\n\n", t.to_jsonl().unwrap());
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), 3);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_record_panics() {
        let mut t = capture(2);
        let q = t.records()[0].query.clone();
        t.record(SimTime::from_secs(0.5), q);
    }
}

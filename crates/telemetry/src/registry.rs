//! A unified, mergeable metrics registry.
//!
//! Named counters, [`Money`] gauges and log-histograms with one merge
//! contract, inherited from `CostBreakdown::merge`: every merge is exact
//! integer addition (`u64` counts, `i128` nano-dollars, `u64` histogram
//! buckets), so merging is associative and commutative and the result is
//! bit-identical however the executor's shards are aggregated.
//!
//! Entries are kept sorted by name, so serialization order — and
//! therefore the serialized snapshot in a `BENCH_*.json` record — is
//! deterministic too.

use metrics::LogHistogram;
use pricing::Money;
use serde::{Deserialize, Serialize};

/// One metric's value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotone event count.
    Counter {
        /// Number of events.
        value: u64,
    },
    /// Exact dollar amount (nano-dollar fixed point, so sums are
    /// merge-order invariant).
    Gauge {
        /// The amount.
        amount: Money,
    },
    /// Log-bucketed distribution (latency geometry: 1 ms .. 10⁵ s,
    /// 20 buckets per decade).
    Histogram {
        /// The histogram.
        hist: LogHistogram,
    },
}

impl MetricValue {
    fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter { .. } => "counter",
            MetricValue::Gauge { .. } => "gauge",
            MetricValue::Histogram { .. } => "histogram",
        }
    }
}

/// A named metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Dotted metric name (`fleet.queries`, `router.full_rounds`, …).
    pub name: String,
    /// Current value.
    pub value: MetricValue,
}

/// A set of named metrics with bit-identical merge.
///
/// Kept sorted by name; lookups are binary searches and iteration order
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    entries: Vec<MetricEntry>,
}

impl MetricsRegistry {
    /// New empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn slot(&mut self, name: &str, default: impl FnOnce() -> MetricValue) -> &mut MetricValue {
        match self.entries.binary_search_by(|e| e.name.as_str().cmp(name)) {
            Ok(i) => &mut self.entries[i].value,
            Err(i) => {
                self.entries.insert(
                    i,
                    MetricEntry {
                        name: name.to_string(),
                        value: default(),
                    },
                );
                &mut self.entries[i].value
            }
        }
    }

    /// Adds to a counter, creating it at zero first if needed.
    ///
    /// # Panics
    /// Panics if `name` exists with a non-counter kind.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        let v = self.slot(name, || MetricValue::Counter { value: 0 });
        match v {
            MetricValue::Counter { value } => *value += n,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Adds to a [`Money`] gauge, creating it at zero first if needed.
    ///
    /// # Panics
    /// Panics if `name` exists with a non-gauge kind.
    pub fn gauge_add(&mut self, name: &str, amount: Money) {
        let v = self.slot(name, || MetricValue::Gauge {
            amount: Money::ZERO,
        });
        match v {
            MetricValue::Gauge { amount: a } => *a += amount,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records an observation into a latency-geometry histogram,
    /// creating it empty first if needed.
    ///
    /// # Panics
    /// Panics if `name` exists with a non-histogram kind, or on NaN /
    /// negative observations.
    pub fn observe(&mut self, name: &str, x: f64) {
        let v = self.slot(name, || MetricValue::Histogram {
            hist: LogHistogram::latency(),
        });
        match v {
            MetricValue::Histogram { hist } => hist.record(x),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// The value of a metric, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Counter value shorthand (0 when absent).
    ///
    /// # Panics
    /// Panics if `name` exists with a non-counter kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            None => 0,
            Some(MetricValue::Counter { value }) => *value,
            Some(other) => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Gauge value shorthand ([`Money::ZERO`] when absent).
    ///
    /// # Panics
    /// Panics if `name` exists with a non-gauge kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Money {
        match self.get(name) {
            None => Money::ZERO,
            Some(MetricValue::Gauge { amount }) => *amount,
            Some(other) => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// All entries, sorted by name.
    #[must_use]
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another registry into this one.
    ///
    /// Same-kind entries combine by exact addition (counters and
    /// histogram buckets in `u64`, gauges in nano-dollar `i128`), so the
    /// operation is associative and commutative: merging shard
    /// registries in any order or grouping yields bit-identical state —
    /// the `CostBreakdown::merge` contract, extended to named metrics.
    ///
    /// # Panics
    /// Panics if a name exists in both with different kinds or histogram
    /// geometries.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for entry in &other.entries {
            match self
                .entries
                .binary_search_by(|e| e.name.as_str().cmp(&entry.name))
            {
                Err(i) => self.entries.insert(i, entry.clone()),
                Ok(i) => match (&mut self.entries[i].value, &entry.value) {
                    (MetricValue::Counter { value: a }, MetricValue::Counter { value: b }) => {
                        *a += b;
                    }
                    (MetricValue::Gauge { amount: a }, MetricValue::Gauge { amount: b }) => {
                        *a += *b;
                    }
                    (MetricValue::Histogram { hist: a }, MetricValue::Histogram { hist: b }) => {
                        a.merge(b);
                    }
                    (mine, theirs) => panic!(
                        "metric {} kind mismatch: {} vs {}",
                        entry.name,
                        mine.kind(),
                        theirs.kind()
                    ),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a.hits", 2);
        r.counter_add("a.hits", 3);
        r.gauge_add("b.paid", Money::from_dollars(1.5));
        r.gauge_add("b.paid", Money::from_dollars(0.5));
        assert_eq!(r.counter("a.hits"), 5);
        assert_eq!(r.gauge("b.paid"), Money::from_dollars(2.0));
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("absent"), Money::ZERO);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn entries_stay_sorted_by_name() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z", 1);
        r.counter_add("a", 1);
        r.counter_add("m", 1);
        let names: Vec<&str> = r.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn merge_is_exact_and_symmetric() {
        let mut a = MetricsRegistry::new();
        a.counter_add("hits", 7);
        a.gauge_add("paid", Money::from_nanos(123_456_789));
        a.observe("lat", 0.25);
        let mut b = MetricsRegistry::new();
        b.counter_add("hits", 5);
        b.counter_add("misses", 1);
        b.gauge_add("paid", Money::from_nanos(1));
        b.observe("lat", 2.5);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("hits"), 12);
        assert_eq!(ab.gauge("paid"), Money::from_nanos(123_456_790));
        match ab.get("lat").unwrap() {
            MetricValue::Histogram { hist } => assert_eq!(hist.count(), 2),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MetricsRegistry::new();
        a.counter_add("hits", 3);
        a.observe("lat", 1.0);
        let before = a.clone();
        a.merge(&MetricsRegistry::new());
        assert_eq!(a, before);
        let mut empty = MetricsRegistry::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_confusion_panics() {
        let mut r = MetricsRegistry::new();
        r.gauge_add("x", Money::from_dollars(1.0));
        r.counter_add("x", 1);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn merge_kind_confusion_panics() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        let mut b = MetricsRegistry::new();
        b.gauge_add("x", Money::from_dollars(1.0));
        a.merge(&b);
    }
}

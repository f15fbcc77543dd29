//! In-memory span recording around calls into each layer, and the
//! aggregation that turns spans into per-layer metrics.
//!
//! A span is one call: its layer, the cell and query ordinal it served,
//! and its start and end in nanoseconds since the run's origin. Spans of
//! one query share `(cell, ordinal)`. The drivers record every span at
//! the top level of their loop, so spans never nest and their durations
//! add up to the traced time they cover.

use std::io::Write;
use std::time::Instant;

/// The layer a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Query generation: `MergedStream` construction and `next`, or
    /// arrival plus `next_query` on the single-cache path.
    Workload,
    /// `ElasticController::run_due_reviews`.
    Elastic,
    /// `FaultInjector::{process_next, sweep_draining, note_served}`.
    Faults,
    /// `NodePopulation::accrue`.
    Accrue,
    /// `Router::route`.
    Route,
    /// `CacheNode::serve_delayed`.
    Serve,
    /// `NodePopulation::finish`.
    Finish,
    /// `RunAccumulator::step`.
    Step,
    /// `RunAccumulator::finish`.
    StepFinish,
}

impl Layer {
    /// Every layer, in span-file order.
    pub const ALL: [Layer; 9] = [
        Layer::Workload,
        Layer::Elastic,
        Layer::Faults,
        Layer::Accrue,
        Layer::Route,
        Layer::Serve,
        Layer::Finish,
        Layer::Step,
        Layer::StepFinish,
    ];

    /// The layer's name in the span file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "workload.next",
            Layer::Elastic => "fleet.elastic.review",
            Layer::Faults => "fleet.faults.process",
            Layer::Accrue => "fleet.population.accrue",
            Layer::Route => "fleet.router.route",
            Layer::Serve => "fleet.node.serve",
            Layer::Finish => "fleet.population.finish",
            Layer::Step => "simulator.step",
            Layer::StepFinish => "simulator.finish",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// The cell the call ran in (0 on the single-cache path).
    pub cell: u32,
    /// The query ordinal within the cell (1-based; 0 for cell set-up).
    pub ordinal: u64,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer for one thread, timed against a shared origin.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log timing against `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, recording a span around it.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, cell: u32, ordinal: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            cell,
            ordinal,
            start_ns,
            end_ns,
        });
        out
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Nearest-rank `q`-quantile of ascending `sorted` samples, reported only
/// when at least `min_beyond` samples lie strictly beyond its rank.
#[must_use]
pub fn tail_percentile(sorted: &[u64], q: f64, min_beyond: usize) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// What one layer's spans add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSummary {
    /// Calls timed.
    pub calls: u64,
    /// Sum of the calls' durations, nanoseconds.
    pub total_ns: u64,
    /// Every call's duration, ascending.
    pub sorted_ns: Vec<u64>,
}

impl LayerSummary {
    /// Span time per settled query, nanoseconds.
    #[must_use]
    pub fn ns_per_query(&self, queries: u64) -> f64 {
        per_query(self.total_ns, queries)
    }

    /// Share of `traced_ns` this layer's spans cover.
    #[must_use]
    pub fn share(&self, traced_ns: u64) -> f64 {
        ratio(self.total_ns as f64, traced_ns as f64)
    }

    /// Per-call quantile in microseconds, when at least ten calls lie
    /// beyond it.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        tail_percentile(&self.sorted_ns, q, 10).map(|ns| ns as f64 / 1e3)
    }
}

/// `total_ns / queries`, 0 when no query settled.
#[must_use]
pub fn per_query(total_ns: u64, queries: u64) -> f64 {
    ratio(total_ns as f64, queries as f64)
}

/// `num / den`, 0 when the denominator is not positive.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer summaries of a run's spans.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    layers: Vec<LayerSummary>,
}

impl Summary {
    /// Aggregates `spans` by layer.
    #[must_use]
    pub fn of(spans: &[Span]) -> Self {
        let mut layers = vec![LayerSummary::default(); Layer::ALL.len()];
        for span in spans {
            let entry = &mut layers[span.layer.index()];
            entry.calls += 1;
            entry.total_ns += span.duration_ns();
            entry.sorted_ns.push(span.duration_ns());
        }
        for entry in &mut layers {
            entry.sorted_ns.sort_unstable();
        }
        Summary { layers }
    }

    /// One layer's summary.
    #[must_use]
    pub fn layer(&self, layer: Layer) -> &LayerSummary {
        &self.layers[layer.index()]
    }

    /// Sum of every span's duration, nanoseconds.
    #[must_use]
    pub fn spanned_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.total_ns).sum()
    }

    /// Share of `traced_ns` the spans cover: the sum of every layer's
    /// share. Below 1 by the bookkeeping between calls.
    #[must_use]
    pub fn coverage(&self, traced_ns: u64) -> f64 {
        ratio(self.spanned_ns() as f64, traced_ns as f64)
    }
}

/// Writes `spans` as tab-separated `layer cell ordinal start_ns end_ns`
/// lines under a header.
///
/// # Errors
/// Returns the first I/O error.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "layer\tcell\tordinal\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.cell,
            s.ordinal,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, ordinal: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            cell: 0,
            ordinal,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn per_query_normalisation_divides_span_time_by_settled_queries() {
        let spans = [
            span(Layer::Route, 1, 0, 300),
            span(Layer::Route, 2, 400, 500),
            span(Layer::Serve, 1, 300, 400),
        ];
        let summary = Summary::of(&spans);
        let route = summary.layer(Layer::Route);
        assert_eq!(route.calls, 2);
        assert_eq!(route.total_ns, 400);
        assert!((route.ns_per_query(4) - 100.0).abs() < 1e-12);
        assert!((summary.layer(Layer::Serve).ns_per_query(4) - 25.0).abs() < 1e-12);
        // A layer that never ran, and a run that settled nothing, both
        // normalise to zero rather than dividing by zero.
        assert_eq!(summary.layer(Layer::Step).ns_per_query(4), 0.0);
        assert_eq!(route.ns_per_query(0), 0.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_the_reported_rank() {
        let samples: Vec<u64> = (1..=1000).collect();
        // Rank 990 leaves exactly ten samples beyond it.
        assert_eq!(tail_percentile(&samples, 0.99, 10), Some(990));
        assert_eq!(tail_percentile(&samples, 0.5, 10), Some(500));
        // One sample fewer leaves only nine beyond the p99 rank.
        assert_eq!(tail_percentile(&samples[..999], 0.99, 10), None);
        assert_eq!(tail_percentile(&[], 0.5, 0), None);
        assert_eq!(tail_percentile(&[7], 0.5, 0), Some(7));
    }

    #[test]
    fn layer_percentiles_report_microseconds() {
        let spans: Vec<Span> = (0..1000u64)
            .map(|i| span(Layer::Serve, i, 0, (i + 1) * 1000))
            .collect();
        let summary = Summary::of(&spans);
        let serve = summary.layer(Layer::Serve);
        assert_eq!(serve.percentile_us(0.99), Some(990.0));
        assert_eq!(serve.percentile_us(0.5), Some(500.0));
        assert_eq!(summary.layer(Layer::Route).percentile_us(0.5), None);
    }

    #[test]
    fn coverage_cross_foots_to_the_sum_of_layer_shares() {
        let spans = [
            span(Layer::Workload, 1, 0, 50),
            span(Layer::Route, 1, 60, 260),
            span(Layer::Serve, 1, 270, 770),
            span(Layer::Workload, 2, 800, 850),
            span(Layer::Route, 2, 860, 960),
        ];
        let traced_ns = 1_000;
        let summary = Summary::of(&spans);
        let shares: f64 = Layer::ALL
            .iter()
            .map(|&l| summary.layer(l).share(traced_ns))
            .sum();
        assert_eq!(summary.spanned_ns(), 900);
        assert!((summary.coverage(traced_ns) - 0.9).abs() < 1e-12);
        assert!((shares - summary.coverage(traced_ns)).abs() < 1e-12);
        assert_eq!(summary.coverage(0), 0.0);
    }

    #[test]
    fn span_log_records_ordered_non_negative_spans() {
        let mut log = SpanLog::new(Instant::now());
        let out = log.time(Layer::Route, 3, 7, || 41 + 1);
        log.time(Layer::Serve, 3, 7, || ());
        assert_eq!(out, 42);
        let spans = log.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].cell, spans[0].ordinal), (3, 7));
        assert!(spans[0].start_ns <= spans[0].end_ns);
        assert!(spans[0].end_ns <= spans[1].start_ns);
    }
}

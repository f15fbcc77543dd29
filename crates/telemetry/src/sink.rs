//! Trace sinks: where events go.
//!
//! Instrumented code gates event *assembly* on [`TraceSink::enabled`], so
//! the default [`NoopSink`] costs one predictable branch per step — no
//! allocation, no formatting, nothing to keep the hot path honest. The
//! determinism contract does the rest: sinks only observe, so a run with
//! any sink is bit-identical to a run with the no-op sink.

use std::collections::VecDeque;

use crate::event::TraceEvent;

/// Consumes trace events.
pub trait TraceSink {
    /// Whether this sink wants events at all. Callers must skip event
    /// assembly when this is `false`; the provided default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Only called when [`TraceSink::enabled`] holds.
    fn emit(&mut self, event: TraceEvent);
}

/// The do-nothing default sink: reports itself disabled, so instrumented
/// code never assembles an event — tracing "compiles to nothing" but a
/// branch.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn emit(&mut self, _event: TraceEvent) {}
}

/// Unbounded recorder: keeps every event for replay (the `explain` tool's
/// record mode).
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// New empty recorder.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Events recorded so far, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the event stream.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for Recorder {
    fn emit(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Ring-buffered sink: keeps only the last `capacity` events, for
/// flight-recorder use on long runs where the full stream would not fit.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// New ring with room for `capacity` events.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "ring sink needs capacity > 0");
        RingSink {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// The retained tail of the stream, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// How many events were evicted to keep the ring bounded.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring, returning the retained tail oldest-first.
    #[must_use]
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_iter().collect()
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ElasticAction, LedgerEntry, PressureSignals};

    fn ev(cell: usize) -> TraceEvent {
        TraceEvent::NodeLifecycle(LedgerEntry {
            cell,
            at_secs: cell as f64,
            live: 1,
            routable: 1,
            booting: 0,
            draining: 0,
            rule: "within-band".into(),
            action: ElasticAction::Hold,
            signals: PressureSignals {
                backlog: 0.0,
                backlog_ewma: 0.0,
                window_response_secs: 0.0,
                profit_rate: 0.0,
                regret_rate: 0.0,
            },
        })
    }

    #[test]
    fn noop_is_disabled() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.emit(ev(0));
    }

    #[test]
    fn recorder_keeps_everything_in_order() {
        let mut r = Recorder::new();
        assert!(r.enabled());
        for c in 0..5 {
            r.emit(ev(c));
        }
        let cells: Vec<usize> = r.events().iter().map(TraceEvent::cell).collect();
        assert_eq!(cells, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.into_events().len(), 5);
    }

    #[test]
    fn ring_keeps_the_tail() {
        let mut r = RingSink::new(3);
        for c in 0..7 {
            r.emit(ev(c));
        }
        assert_eq!(r.dropped(), 4);
        let cells: Vec<usize> = r.events().map(TraceEvent::cell).collect();
        assert_eq!(cells, vec![4, 5, 6]);
        assert_eq!(r.into_events().len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_ring_panics() {
        let _ = RingSink::new(0);
    }
}

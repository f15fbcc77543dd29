//! A stable priority event queue for discrete-event simulation.
//!
//! `std::collections::BinaryHeap` is a max-heap and is *not* stable for
//! equal keys; simulators need min-first ordering and FIFO tie-breaking so
//! that two events scheduled for the same instant fire in schedule order
//! (otherwise runs would be legal-but-surprising). [`EventQueue`] wraps the
//! heap with a monotone sequence number to provide both.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry: ordered by `(time, seq)` ascending.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-first, FIFO-on-ties event queue keyed by [`SimTime`]. Its clock
/// is the timestamp of the last popped event (zero before the first pop).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a simulator bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before current clock {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "heap produced a past event");
        self.now = entry.at;
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Pops every remaining event, in the queue's order.
    fn pop_all<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(
            pop_all(&mut q),
            vec![(t(1.0), "a"), (t(2.0), "b"), (t(3.0), "c")]
        );
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5.0), i);
        }
        let order: Vec<i32> = pop_all(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_holds_at_the_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1.5), 1);
        q.schedule(t(4.0), 2);
        assert_eq!(q.pop(), Some((t(1.5), 1)));
        assert_eq!(q.pop(), Some((t(4.0), 2)));
        assert!(q.pop().is_none());
        // After the drain the clock still reads 4 s: 4 s is schedulable.
        q.schedule(t(4.0), 3);
        assert_eq!(q.pop(), Some((t(4.0), 3)));
    }

    #[test]
    #[should_panic(expected = "before current clock")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10.0), ());
        q.pop();
        q.schedule(t(5.0), ());
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(2.0), 1);
        let (now, _) = q.pop().unwrap();
        q.schedule(now, 2); // zero-delay follow-up event
        assert_eq!(q.pop(), Some((t(2.0), 2)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), "arrive");
        let (at, _) = q.pop().unwrap();
        // Completion scheduled relative to the arrival.
        q.schedule(at + SimDuration::from_secs(0.5), "complete");
        q.schedule(t(2.0), "arrive2");
        let order: Vec<&str> = pop_all(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["complete", "arrive2"]);
    }
}

//! Deterministic time-ordered event queue.
//!
//! The simulator advances by popping the earliest pending event. Ties are
//! broken **explicitly FIFO**: every push stamps a monotonically increasing
//! sequence number and [`EventQueue::pop`] orders equal timestamps by that
//! stamp, so runs are bit-reproducible regardless of the heap's internal
//! layout — the property the multi-instance simulation depends on, where
//! several instances routinely schedule events at the same cycle.
//!
//! The queue is generic over the event payload. It is the crate's one event
//! core: [`crate::MultiPipelineSim`] schedules through it, and both
//! [`crate::CycleSim`] and the fleet's nodes run on `MultiPipelineSim`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug, Clone, Copy)]
pub(crate) struct Scheduled<K> {
    pub(crate) time: u64,
    pub(crate) seq: u64,
    pub(crate) kind: K,
}

// Ordering is keyed on (time, seq) only — the payload never participates, so
// no bounds leak onto `K` and equal-time events keep their insertion order.
impl<K> PartialEq for Scheduled<K> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<K> Eq for Scheduled<K> {}

impl<K> Ord for Scheduled<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first; on
        // equal times the *lowest* sequence number (earliest push) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<K> PartialOrd for Scheduled<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of future events with FIFO tie-breaking on equal timestamps.
#[derive(Debug)]
pub struct EventQueue<K> {
    heap: BinaryHeap<Scheduled<K>>,
    next_seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<K> EventQueue<K> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `time`.
    pub fn push(&mut self, time: u64, kind: K) {
        self.heap.push(Scheduled {
            time,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
    }

    /// Pops the earliest event, returning `(time, kind)`. Among events with
    /// equal timestamps the one pushed first is returned first (FIFO).
    pub fn pop(&mut self) -> Option<(u64, K)> {
        self.heap.pop().map(|s| (s.time, s.kind))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.peek_time(), Some(10));
        assert_eq!(q.pop(), Some((10, 'a')));
        assert_eq!(q.pop(), Some((20, 'b')));
        assert_eq!(q.pop(), Some((30, 'c')));
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for stage in 0..4usize {
            q.push(5, (stage, 9usize));
        }
        for stage in 0..4 {
            assert_eq!(q.pop(), Some((5, (stage, 9))));
        }
    }

    #[test]
    fn ties_stay_fifo_under_interleaved_push_and_pop() {
        // Pops in between pushes reshuffle the heap's internal layout; the
        // sequence stamp must still serve equal-time events oldest-first.
        let mut q = EventQueue::new();
        q.push(7, 0u32);
        q.push(7, 1);
        q.push(3, 99);
        assert_eq!(q.pop(), Some((3, 99)));
        q.push(7, 2);
        q.push(5, 98);
        assert_eq!(q.pop(), Some((5, 98)));
        q.push(7, 3);
        for expect in 0..4 {
            assert_eq!(q.pop(), Some((7, expect)), "FIFO violated at {expect}");
        }
        assert!(q.is_empty());
    }

    #[test]
    fn generic_payloads_are_supported() {
        // The queue orders payloads it knows nothing about.
        let mut q: EventQueue<(usize, &str)> = EventQueue::new();
        q.push(2, (1, "b"));
        q.push(1, (0, "a"));
        q.push(2, (2, "c"));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((1, (0, "a"))));
        assert_eq!(q.pop(), Some((2, (1, "b"))));
        assert_eq!(q.pop(), Some((2, (2, "c"))));
    }

    #[test]
    fn is_empty_reflects_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(1, ());
        assert!(!q.is_empty());
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
    }
}

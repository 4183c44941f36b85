//! Deterministic time-ordered event queue.
//!
//! The simulator advances by popping the earliest pending event. Ties are
//! broken **explicitly FIFO**: among events with equal timestamps the one
//! pushed first pops first, so runs are bit-reproducible — the property the
//! multi-instance simulation depends on, where several instances routinely
//! schedule events at the same cycle.
//!
//! The queue is a **sorted pending window**: a `Vec` kept in descending time
//! order, so the next event is the last element and `pop` is `Vec::pop`. A
//! push lands in front of the events that fire no later than the new one —
//! behind every later event and ahead of every equal-time one, which keeps
//! ties FIFO without a sequence stamp. It appends, then walks down from
//! that end copying each such event one slot up and writes the new event
//! into the hole (payloads are `Copy`), so the scan and the shift are one
//! pass that touches only those earlier events, with no `memmove` call.
//!
//! That fits the simulator's pending sets, which are tiny: at most one
//! `StageDone` per stage of each instance plus the in-flight DRAM work, and
//! every registry experiment and benchmark workload runs at most eight
//! instances per node. In the benchmark's `serve_overload` and `fleet_mega`
//! workloads a push finds 3.4 and 4.2 pending events on average (at most 9
//! and 14) and shifts 2.1 and 2.5 of them, where a binary heap's sift and
//! hole moves cost more. Very wide nodes pay the linear cost: a
//! compute-bound 256-instance node holds about 400 pending events and
//! shifts about 90 per push.
//!
//! `push` is always inlined. Compiled as a call, it took the 16-byte
//! `MultiEvent` by value: the caller spilled it with narrower stores and
//! `push` reloaded it with one 16-byte load, which the CPU cannot forward
//! from those stores, so it waits for them to reach the cache. On the
//! repository benchmark's `serve_overload` workload a sampling profile put
//! 11.8% of all samples on the store right after that reload; inlined, the
//! event stays in registers and that line takes about 2%.
//! `DramChannel::enqueue` is inlined
//! for the same reason.
//!
//! The queue is generic over the event payload. It is the crate's one event
//! core: [`crate::MultiPipelineSim`] schedules through it, and both
//! [`crate::CycleSim`] and the fleet's nodes run on `MultiPipelineSim`.

/// One pending event: its firing time and payload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scheduled<K> {
    pub(crate) time: u64,
    pub(crate) kind: K,
}

/// Time-ordered queue of future events with FIFO tie-breaking on equal
/// timestamps.
#[derive(Debug)]
pub(crate) struct EventQueue<K> {
    /// Pending events, latest first: sorted by descending time, and among
    /// equal times newest push first, so the next event is the last element.
    pending: Vec<Scheduled<K>>,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        EventQueue {
            pending: Vec::new(),
        }
    }
}

impl<K> EventQueue<K> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `time`. Always inlined: see the module
    /// docs.
    #[inline(always)]
    pub(crate) fn push(&mut self, time: u64, kind: K)
    where
        K: Copy,
    {
        // In front of every equal-time event, so equal times pop oldest push
        // first. Append, copy each event that fires no later one slot up
        // (from the earliest end, so the scan is the shift), then write the
        // new event into the hole.
        let new = Scheduled { time, kind };
        self.pending.push(new);
        let pending = self.pending.as_mut_slice();
        let mut at = pending.len() - 1;
        while at > 0 && pending[at - 1].time <= time {
            pending[at] = pending[at - 1];
            at -= 1;
        }
        pending[at] = new;
    }

    /// Pops the earliest event, returning `(time, kind)`. Among events with
    /// equal timestamps the one pushed first is returned first (FIFO).
    pub(crate) fn pop(&mut self) -> Option<(u64, K)> {
        self.pending.pop().map(|s| (s.time, s.kind))
    }

    /// Timestamp of the next event without popping it.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.pending.last().map(|s| s.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K> EventQueue<K> {
        fn is_empty(&self) -> bool {
            self.pending.is_empty()
        }

        fn len(&self) -> usize {
            self.pending.len()
        }
    }
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// A heap entry of the reference queue, ordered by `(time, seq)`.
    struct Stamped<K> {
        time: u64,
        seq: u64,
        kind: K,
    }

    impl<K> PartialEq for Stamped<K> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<K> Eq for Stamped<K> {}

    impl<K> Ord for Stamped<K> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: `BinaryHeap` is a max-heap and the earliest time,
            // then the lowest stamp, must pop first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    impl<K> PartialOrd for Stamped<K> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The binary-heap queue with explicit push stamps that the sorted
    /// window replaced, kept as the ordering reference.
    struct HeapQueue<K> {
        heap: BinaryHeap<Stamped<K>>,
        next_seq: u64,
    }

    impl<K> HeapQueue<K> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: u64, kind: K) {
            self.heap.push(Stamped {
                time,
                seq: self.next_seq,
                kind,
            });
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, K)> {
            self.heap.pop().map(|s| (s.time, s.kind))
        }

        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|s| s.time)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random interleavings of push, pop and peek: the sorted window
        /// pops exactly what the stamped heap pops. Push offsets repeat the
        /// current time often, so equal-time ties are common.
        #[test]
        fn sorted_window_matches_the_heap(
            ops in proptest::collection::vec((0u8..4, 0usize..6), 1..400),
        ) {
            let mut window = EventQueue::new();
            let mut reference = HeapQueue::new();
            let (mut now, mut payload) = (0u64, 0u32);
            for (op, offset) in ops {
                match op {
                    // Push (half the draws), never before the current time.
                    0 | 1 => {
                        let time = now + [0, 0, 1, 2, 64, 4096][offset];
                        window.push(time, payload);
                        reference.push(time, payload);
                        payload += 1;
                    }
                    2 => {
                        let (a, b) = (window.pop(), reference.pop());
                        proptest::prop_assert_eq!(a, b);
                        if let Some((time, _)) = a {
                            now = time;
                        }
                    }
                    _ => proptest::prop_assert_eq!(window.peek_time(), reference.peek_time()),
                }
                proptest::prop_assert_eq!(window.len(), reference.heap.len());
            }
            while let Some(b) = reference.pop() {
                proptest::prop_assert_eq!(window.pop(), Some(b));
            }
            proptest::prop_assert!(window.is_empty());
        }
    }

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
        // Pops and earlier-time pushes in between must not reorder the
        // equal-time events: they still serve oldest-first.
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

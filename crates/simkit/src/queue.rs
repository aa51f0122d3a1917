//! Dense, allocation-light event queue for event-timestamped simulation streams.
//!
//! The step loop works on fixed quanta, but the request fabric schedules *events*:
//! millions of per-request arrivals per simulated day, each carrying an integer entity
//! ordinal instead of a string label. [`EventQueue`] is the ordering substrate. It pops
//! in ascending `(time, sequence)` order, where the sequence number is a monotonically
//! increasing insertion counter. Ties on `time` therefore pop in insertion (FIFO)
//! order, which makes the drain order a pure function of the push order — the
//! determinism rule every digest contract relies on.
//!
//! Timestamps are plain `u64`s in whatever unit the caller picks. The simulation clock
//! ([`crate::time::SimTime`]) has minute resolution; the request fabric keys its queue in
//! *milliseconds* so sub-minute arrival interleavings stay exact without touching the
//! clock type.
//!
//! # Cost model
//!
//! Events sit in a ring buffer in push order. `push` is an O(1) append; one earlier
//! than the newest pending event marks the queue unsorted, and the next `pop` or
//! `drain_until` sorts once in place by `(time, sequence)` — unique keys, so an unstable
//! sort is exact and allocates no scratch buffer. Pops are O(1) off the front, and
//! emptying the queue rewinds the ring, so a per-step fill and drain reuses the same
//! pages. Payloads are inline and the buffer never shrinks: once at its high-water
//! mark, a push/drain cycle allocates nothing.
//!
//! Interleaving out-of-order pushes with pops re-sorts at each such pop. No caller does
//! this: the fleet sorts each step window once, while cell inboxes and trace preloads
//! arrive in time order and never sort.
//!
//! # Examples
//! ```
//! use simkit::queue::EventQueue;
//! let mut queue = EventQueue::new();
//! queue.push(20, "b");
//! queue.push(10, "a");
//! queue.push(20, "c"); // same time as "b", pushed later → pops later
//! assert_eq!(queue.pop(), Some((10, "a")));
//! assert_eq!(queue.pop(), Some((20, "b")));
//! assert_eq!(queue.pop(), Some((20, "c")));
//! assert_eq!(queue.pop(), None);
//! ```

use std::collections::VecDeque;

/// One pending event: an integer timestamp plus an inline payload.
#[derive(Debug, Clone)]
struct Slot<T> {
    time: u64,
    seq: u64,
    payload: T,
}

/// A deterministic queue of timestamped events.
///
/// Pop order is ascending `(time, insertion sequence)`: earliest time first, and FIFO
/// among events that share a timestamp.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    slots: VecDeque<Slot<T>>,
    next_seq: u64,
    /// `true` while `slots` is in ascending `(time, seq)` order.
    sorted: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` events before reallocating.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: VecDeque::with_capacity(capacity),
            next_seq: 0,
            sorted: true,
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Removes all pending events, keeping the allocation. The insertion counter is *not*
    /// reset, so FIFO tie-breaking stays globally consistent across reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.sorted = true;
    }

    /// Timestamp of the earliest pending event, if any (a linear scan while unsorted).
    #[must_use]
    pub fn peek_time(&self) -> Option<u64> {
        if self.sorted {
            self.slots.front().map(|slot| slot.time)
        } else {
            self.slots.iter().map(|slot| slot.time).min()
        }
    }

    /// Schedules a payload at `time`.
    pub fn push(&mut self, time: u64, payload: T) {
        if self.slots.back().is_some_and(|last| time < last.time) {
            self.sorted = false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(Slot { time, seq, payload });
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.sort();
        let slot = self.slots.pop_front()?;
        self.rewind_if_empty();
        Some((slot.time, slot.payload))
    }

    /// Pops every event with `time <= deadline`, in deterministic order, into `visit`.
    pub fn drain_until(&mut self, deadline: u64, mut visit: impl FnMut(u64, T)) {
        self.sort();
        let due = self.slots.partition_point(|slot| slot.time <= deadline);
        for slot in self.slots.drain(..due) {
            visit(slot.time, slot.payload);
        }
        self.rewind_if_empty();
    }

    /// Restores `(time, seq)` order after out-of-order pushes.
    fn sort(&mut self) {
        if !self.sorted {
            self.slots
                .make_contiguous()
                .sort_unstable_by_key(|slot| (slot.time, slot.seq));
            self.sorted = true;
        }
    }

    /// Rewinds an empty ring (`VecDeque::clear` resets its head).
    fn rewind_if_empty(&mut self) {
        if self.slots.is_empty() {
            self.slots.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        for &t in &[5u64, 1, 9, 3, 7] {
            queue.push(t, t * 10);
        }
        let mut drained = Vec::new();
        while let Some((t, p)) = queue.pop() {
            drained.push((t, p));
        }
        assert_eq!(drained, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut queue = EventQueue::new();
        for i in 0..100u64 {
            queue.push(42, i);
        }
        for i in 0..100u64 {
            assert_eq!(queue.pop(), Some((42, i)));
        }
    }

    #[test]
    fn drain_until_respects_the_deadline() {
        let mut queue = EventQueue::new();
        for &t in &[2u64, 4, 6, 8] {
            queue.push(t, t);
        }
        let mut seen = Vec::new();
        queue.drain_until(5, |t, p| seen.push((t, p)));
        assert_eq!(seen, vec![(2, 2), (4, 4)]);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.peek_time(), Some(6));
    }

    #[test]
    fn clear_keeps_the_sequence_counter() {
        let mut queue = EventQueue::new();
        queue.push(1, "early");
        queue.clear();
        assert!(queue.is_empty());
        queue.push(7, "a");
        queue.push(7, "b");
        assert_eq!(queue.pop(), Some((7, "a")));
        assert_eq!(queue.pop(), Some((7, "b")));
    }

    #[test]
    fn matches_a_stable_sorted_reference_model() {
        let mut rng = SimRng::seed_from(2024);
        for _ in 0..50 {
            let count = rng.uniform_usize(1, 300);
            let mut queue = EventQueue::with_capacity(count);
            // Times drawn from a narrow range so ties are common.
            let mut reference: Vec<(u64, usize)> = Vec::with_capacity(count);
            for ordinal in 0..count {
                let time = rng.uniform_usize(0, 20) as u64;
                queue.push(time, ordinal);
                reference.push((time, ordinal));
            }
            // Stable sort by time preserves insertion order among ties — the contract.
            reference.sort_by_key(|&(time, _)| time);
            let mut drained = Vec::with_capacity(count);
            while let Some(item) = queue.pop() {
                drained.push(item);
            }
            assert_eq!(drained, reference);
        }
    }

    /// Pops the reference's earliest pending entries with `time <= deadline`. Stable
    /// sorting the push-ordered reference by time yields the `(time, ordinal)` order.
    fn reference_drain(reference: &mut Vec<(u64, usize)>, deadline: u64) -> Vec<(u64, usize)> {
        reference.sort_by_key(|&(time, _)| time);
        let due = reference.partition_point(|&(time, _)| time <= deadline);
        reference.drain(..due).collect()
    }

    #[test]
    fn interleaved_operations_match_a_stable_sorted_reference() {
        let mut rng = SimRng::seed_from(14);
        for _ in 0..200 {
            let mut queue = EventQueue::new();
            let mut reference: Vec<(u64, usize)> = Vec::new();
            let mut ordinal = 0usize;
            let mut push = |queue: &mut EventQueue<usize>, reference: &mut Vec<_>, time| {
                queue.push(time, ordinal);
                reference.push((time, ordinal));
                ordinal += 1;
            };
            for _ in 0..rng.uniform_usize(10, 60) {
                // Times stay in a narrow range so ties are common.
                let newest = reference.iter().map(|&(time, _)| time).max().unwrap_or(0);
                match rng.uniform_usize(0, 7) {
                    0 => {
                        // An in-order run from the newest pending time, with repeats,
                        // never marks a sorted queue unsorted.
                        let was_sorted = queue.sorted;
                        let mut time = newest;
                        for _ in 0..rng.uniform_usize(1, 30) {
                            time += rng.uniform_usize(0, 3) as u64;
                            push(&mut queue, &mut reference, time);
                        }
                        assert_eq!(queue.sorted, was_sorted);
                    }
                    1 => {
                        for _ in 0..rng.uniform_usize(1, 30) {
                            let time = rng.uniform_usize(0, 40) as u64;
                            push(&mut queue, &mut reference, time);
                        }
                        let earliest = reference.iter().map(|&(time, _)| time).min();
                        assert_eq!(queue.peek_time(), earliest);
                    }
                    2 => {
                        reference.sort_by_key(|&(time, _)| time);
                        let expected = (!reference.is_empty()).then(|| reference.remove(0));
                        assert_eq!(queue.pop(), expected);
                    }
                    3 | 4 => {
                        let deadline = rng.uniform_usize(0, 50) as u64;
                        let mut drained = Vec::new();
                        queue.drain_until(deadline, |time, payload| drained.push((time, payload)));
                        assert_eq!(drained, reference_drain(&mut reference, deadline));
                    }
                    5 => {
                        queue.clear();
                        reference.clear();
                        assert!(queue.sorted);
                    }
                    _ => {
                        let mut drained = Vec::new();
                        queue.drain_until(u64::MAX, |time, payload| drained.push((time, payload)));
                        assert_eq!(drained, reference_drain(&mut reference, u64::MAX));
                        for _ in 0..rng.uniform_usize(1, 30) {
                            let time = rng.uniform_usize(0, 40) as u64;
                            push(&mut queue, &mut reference, time);
                        }
                    }
                }
                assert_eq!(queue.len(), reference.len());
                assert_eq!(queue.is_empty(), reference.is_empty());
            }
        }
    }

    #[test]
    fn emptying_rewinds_the_ring() {
        let mut queue = EventQueue::with_capacity(8);
        for t in 0..5u64 {
            queue.push(t, t);
        }
        queue.drain_until(2, |_, _| {});
        while queue.pop().is_some() {}
        for t in 0..queue.slots.capacity() as u64 {
            queue.push(t, t);
        }
        // A ring left at its old head would wrap this refill into two slices.
        assert!(queue.slots.as_slices().1.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut queue = EventQueue::new();
        queue.push(10, 0);
        queue.push(2, 1);
        assert_eq!(queue.pop(), Some((2, 1)));
        queue.push(4, 2);
        queue.push(10, 3);
        assert_eq!(queue.pop(), Some((4, 2)));
        assert_eq!(queue.pop(), Some((10, 0)));
        assert_eq!(queue.pop(), Some((10, 3)));
        assert!(queue.pop().is_none());
    }
}

//! A deterministic time-ordered event queue.
//!
//! Events carry a slot timestamp and an arbitrary payload; ties are
//! resolved by insertion order (FIFO among equal timestamps), which keeps
//! simulation runs bit-reproducible regardless of heap internals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered queue of `(slot, payload)` events.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(u64, u64, Entry<T>)>>,
    seq: u64,
}

/// Wrapper making the payload inert for ordering purposes.
#[derive(Debug, Clone)]
struct Entry<T>(T);

impl<T> PartialEq for Entry<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `slot`.
    pub fn push(&mut self, slot: u64, payload: T) {
        self.heap.push(Reverse((slot, self.seq, Entry(payload))));
        self.seq += 1;
    }

    /// Pops the next event if its slot is at most `now`.
    pub fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        if self
            .heap
            .peek()
            .is_some_and(|Reverse((slot, _, _))| *slot <= now)
        {
            // rim-lint: allow(no-unwrap-in-lib) — peek() checked Some above
            let Reverse((slot, _, Entry(payload))) = self.heap.pop().unwrap();
            Some((slot, payload))
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, "c");
        q.push(1, "a");
        q.push(3, "b");
        assert_eq!(q.pop_due(10), Some((1, "a")));
        assert_eq!(q.pop_due(10), Some((3, "b")));
        assert_eq!(q.pop_due(10), Some((5, "c")));
        assert_eq!(q.pop_due(10), None);
    }

    #[test]
    fn respects_the_due_horizon() {
        let mut q = EventQueue::new();
        q.push(7, ());
        assert_eq!(q.pop_due(6), None);
        assert_eq!(q.pop_due(7), Some((7, ())));
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        q.push(2, 1);
        q.push(2, 2);
        q.push(2, 3);
        assert_eq!(q.pop_due(2), Some((2, 1)));
        assert_eq!(q.pop_due(2), Some((2, 2)));
        assert_eq!(q.pop_due(2), Some((2, 3)));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push(0, 0);
        assert_eq!(q.len(), 1);
        q.pop_due(0);
        assert!(q.is_empty());
    }
}

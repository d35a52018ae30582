//! The simulator's event scheduler: a keyed 4-ary min-heap.
//!
//! [`World`](crate::world::World) used to pair a
//! `BinaryHeap<Reverse<(u64, u64, usize)>>` with a side `Vec` of payloads
//! that was never truncated — every scheduled event leaked its `Fire`
//! (packets included) for the lifetime of the world, and each push paid
//! for the `Reverse` indirection. [`EventHeap`] stores the payload inline
//! with its `(at, seq)` key, pops by move (no payload clone), and keeps
//! its buffer so a steady-state simulation stops allocating once the heap
//! has grown to the world's natural event population.
//!
//! A 4-ary layout halves the tree depth of a binary heap: sift-down
//! compares up to four children per level but touches half as many cache
//! lines, which wins for the small keys + payload nodes scheduled here.

/// A min-heap of `(at, seq, payload)` ordered by the `(at, seq)` key.
///
/// `seq` is the scheduler's monotone tie-breaker, so the order popped is
/// exactly the deterministic `(time, insertion order)` the conservative
/// PDES merge relies on. Equal keys cannot occur (seq is unique).
#[derive(Clone, Debug)]
pub struct EventHeap<T> {
    nodes: Vec<Node<T>>,
    /// Lifetime push/pop counters (two `u64` increments per op — cheap
    /// enough to stay always-on). The parallel-scheduler introspection
    /// layer reads deltas of these per window (`ceu-par-stats/v2`).
    pushes: u64,
    pops: u64,
}

#[derive(Clone, Debug)]
struct Node<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> Node<T> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        EventHeap::new()
    }
}

impl<T> EventHeap<T> {
    pub fn new() -> Self {
        EventHeap { nodes: Vec::new(), pushes: 0, pops: 0 }
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventHeap { nodes: Vec::with_capacity(cap), pushes: 0, pops: 0 }
    }

    /// Lifetime `(pushes, pops)` counters. Monotone; read deltas around a
    /// region to attribute scheduler traffic to it.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.pushes, self.pops)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes every event but keeps the buffer.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// The key of the next event to fire, without removing it.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.nodes.first().map(Node::key)
    }

    /// The next event to fire — key and a borrow of its payload — without
    /// removing it. Lets the world decide whether the head needs special
    /// handling (fault barriers) before committing to a pop.
    pub fn peek(&self) -> Option<(u64, u64, &T)> {
        self.nodes.first().map(|n| (n.at, n.seq, &n.item))
    }

    /// Keeps only the events for which `keep` returns `true`, restoring
    /// the heap invariant afterwards (O(n) heapify). Returns how many
    /// events were removed. Used by fault injection to drop in-flight
    /// deliveries deterministically.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, u64, &T) -> bool) -> usize {
        let before = self.nodes.len();
        self.nodes.retain(|n| keep(n.at, n.seq, &n.item));
        let n = self.nodes.len();
        if n > 1 {
            // heapify from the last parent down (4-ary: parent of i is (i-1)/4)
            for i in (0..=(n - 2) / 4).rev() {
                self.sift_down(i);
            }
        }
        before - n
    }

    /// Empties the heap in arbitrary order, yielding the raw
    /// `(at, seq, payload)` triples. O(n) — no sift costs — for migrating
    /// events between heaps when the world is re-sharded; the destination
    /// heap re-establishes order as the triples are pushed back. Not a
    /// scheduling operation: the `op_counts` pop counter is unaffected.
    pub fn drain_unordered(&mut self) -> impl Iterator<Item = (u64, u64, T)> + '_ {
        self.nodes.drain(..).map(|n| (n.at, n.seq, n.item))
    }

    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.pushes += 1;
        self.nodes.push(Node { at, seq, item });
        self.sift_up(self.nodes.len() - 1);
    }

    /// Removes and returns the earliest event as `(at, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let last = self.nodes.len().checked_sub(1)?;
        self.pops += 1;
        self.nodes.swap(0, last);
        let node = self.nodes.pop().expect("non-empty");
        if !self.nodes.is_empty() {
            self.sift_down(0);
        }
        Some((node.at, node.seq, node.item))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.nodes[i].key() >= self.nodes[parent].key() {
                break;
            }
            self.nodes.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.nodes.len();
        loop {
            let first_child = 4 * i + 1;
            if first_child >= n {
                break;
            }
            let mut best = first_child;
            let end = (first_child + 4).min(n);
            for c in first_child + 1..end {
                if self.nodes[c].key() < self.nodes[best].key() {
                    best = c;
                }
            }
            if self.nodes[best].key() >= self.nodes[i].key() {
                break;
            }
            self.nodes.swap(i, best);
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut h = EventHeap::new();
        h.push(30, 1, "c");
        h.push(10, 2, "a");
        h.push(20, 3, "b");
        h.push(10, 4, "a2");
        assert_eq!(h.peek_key(), Some((10, 2)));
        assert_eq!(h.pop(), Some((10, 2, "a")));
        assert_eq!(h.pop(), Some((10, 4, "a2")));
        assert_eq!(h.pop(), Some((20, 3, "b")));
        assert_eq!(h.pop(), Some((30, 1, "c")));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn matches_a_reference_sort_on_a_large_mixed_workload() {
        // deterministic pseudo-random interleaving of pushes and pops
        let mut h = EventHeap::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for seq in 0..10_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let at = state >> 40; // small-ish times, plenty of collisions
            h.push(at, seq, at ^ seq);
            reference.push((at, seq));
            if state & 3 == 0 {
                let (at, seq, item) = h.pop().unwrap();
                assert_eq!(item, at ^ seq);
                popped.push((at, seq));
            }
        }
        while let Some((at, seq, _)) = h.pop() {
            popped.push((at, seq));
        }
        // every event came out exactly once...
        let mut seen = popped.clone();
        seen.sort_unstable();
        reference.sort_unstable();
        assert_eq!(seen, reference);
        // ...and within any uninterrupted drain the order is sorted; the
        // full final drain covers the interesting case
        let tail = &popped[popped.len() - 5_000..];
        assert!(tail.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn retain_filters_and_restores_heap_order() {
        let mut h = EventHeap::new();
        let mut state = 0xdeadbeefcafef00du64;
        for seq in 0..1_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            h.push(state >> 48, seq, seq);
        }
        assert_eq!(h.peek().map(|(at, seq, _)| (at, seq)), h.peek_key());
        let removed = h.retain(|_, _, item| item % 3 != 0);
        assert_eq!(removed, 334, "seqs 0,3,…,999");
        let mut drained = Vec::new();
        while let Some((at, seq, item)) = h.pop() {
            assert_ne!(item % 3, 0);
            drained.push((at, seq));
        }
        assert_eq!(drained.len(), 666);
        assert!(drained.windows(2).all(|w| w[0] < w[1]), "still pops in key order");
    }

    #[test]
    fn op_counts_track_pushes_and_pops() {
        let mut h = EventHeap::new();
        assert_eq!(h.op_counts(), (0, 0));
        for i in 0..5 {
            h.push(i, i, i);
        }
        assert_eq!(h.op_counts(), (5, 0));
        h.pop();
        h.pop();
        assert_eq!(h.op_counts(), (5, 2));
        h.pop();
        h.pop();
        h.pop();
        assert_eq!(h.pop(), None, "empty pops do not count");
        assert_eq!(h.op_counts(), (5, 5));
    }

    #[test]
    fn drain_unordered_moves_every_event_once() {
        let mut h = EventHeap::new();
        for i in 0..100u64 {
            h.push(1_000 - i, i, i * 2);
        }
        let (pushes, pops) = h.op_counts();
        let mut drained: Vec<_> = h.drain_unordered().collect();
        assert!(h.is_empty());
        assert_eq!(h.op_counts(), (pushes, pops), "migration is not a scheduling op");
        drained.sort_unstable();
        let expect: Vec<_> = (0..100u64).map(|i| (1_000 - i, i, i * 2)).collect();
        let mut expect = expect;
        expect.sort_unstable();
        assert_eq!(drained, expect);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut h = EventHeap::with_capacity(64);
        for i in 0..50 {
            h.push(i, i, i);
        }
        let cap = h.nodes.capacity();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.nodes.capacity(), cap);
    }
}

//! Instrumented binary heap for the Prim family.
//!
//! [`LazyHeap`] uses duplicate insertion + lazy deletion, the variant of the
//! paper's §IV complexity analysis ("instead of adjusting the key in the
//! heap for a vertex, we simply insert the vertex in the heap"). Pops of
//! already-fixed vertices are skipped by the caller. It counts pushes/pops
//! so benchmarks can report heap traffic — the quantity LLP-Prim's early
//! fixing removes.

/// A min-heap of `(key, vertex)` with duplicate entries and lazy deletion.
///
/// Tracks its peak entry count (reported to telemetry as `heap-peak-len`
/// when the final pop drains it), and releases its backing storage at that
/// point — the duplicate-insertion discipline can balloon the heap to
/// `O(m)` entries, memory a finished run should not keep holding.
#[derive(Debug, Clone)]
pub struct LazyHeap<K: Ord + Copy> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(K, u32)>>,
    /// Total insertions.
    pub pushes: u64,
    /// Total removals (including stale entries the caller discards).
    pub pops: u64,
    /// Largest number of simultaneously stored entries.
    peak_len: usize,
}

impl<K: Ord + Copy> Default for LazyHeap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> LazyHeap<K> {
    /// An empty heap.
    pub fn new() -> Self {
        LazyHeap {
            heap: std::collections::BinaryHeap::new(),
            pushes: 0,
            pops: 0,
            peak_len: 0,
        }
    }

    /// An empty heap with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        LazyHeap {
            heap: std::collections::BinaryHeap::with_capacity(cap),
            pushes: 0,
            pops: 0,
            peak_len: 0,
        }
    }

    /// Inserts `(key, vertex)`.
    #[inline]
    pub fn push(&mut self, key: K, vertex: u32) {
        self.pushes += 1;
        self.heap.push(std::cmp::Reverse((key, vertex)));
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the minimum entry.
    ///
    /// The pop that empties the heap records `heap-peak-len` to telemetry
    /// and shrinks the backing storage, so run reports capture the heap's
    /// high-water mark and a drained heap holds no memory.
    #[inline]
    pub fn pop(&mut self) -> Option<(K, u32)> {
        let e = self.heap.pop().map(|std::cmp::Reverse(p)| p);
        if e.is_some() {
            self.pops += 1;
            if self.heap.is_empty() {
                llp_runtime::telemetry::record_max("heap-peak-len", self.peak_len as u64);
                self.heap.shrink_to_fit();
            }
        }
        e
    }

    /// Current backing-storage capacity (entries).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// True when no entries remain (stale or not).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of stored entries, counting stale duplicates.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_heap_pops_in_order() {
        let mut h = LazyHeap::new();
        for &(k, v) in &[(5u64, 0u32), (1, 1), (3, 2), (1, 3)] {
            h.push(k, v);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = h.pop() {
            keys.push(k);
        }
        assert_eq!(keys, vec![1, 1, 3, 5]);
        assert_eq!(h.pushes, 4);
        assert_eq!(h.pops, 4);
    }

    #[test]
    fn lazy_heap_allows_duplicates() {
        let mut h = LazyHeap::new();
        h.push(2, 7);
        h.push(1, 7);
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop(), Some((1, 7)));
        assert_eq!(h.pop(), Some((2, 7)));
    }

    #[test]
    fn lazy_heap_tracks_peak_and_shrinks_when_drained() {
        let mut h = LazyHeap::with_capacity(1 << 12);
        for i in 0..1000u32 {
            h.push(1000 - i as u64, i);
        }
        assert_eq!(h.peak_len, 1000);
        for _ in 0..500 {
            h.pop();
        }
        // Peak is a high-water mark, not the current length.
        assert_eq!(h.peak_len, 1000);
        while h.pop().is_some() {}
        assert_eq!(h.peak_len, 1000);
        // The emptying pop released the backing storage.
        assert_eq!(h.capacity(), 0);
    }
}

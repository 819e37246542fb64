//! A concurrent insert bag with per-thread segments.
//!
//! Modelled after Galois' `InsertBag`: each pool thread pushes into its own
//! segment, so the hot path is an uncontended `Vec::push`; the contents are
//! only observed between rounds, when a single thread drains every segment.
//! LLP-Prim uses two bags per round (the `R` set of freshly fixed vertices
//! and the `Q` set of pending heap updates).

use crate::sync::Mutex;

/// Pads each segment to its own cache line to avoid false sharing between
/// adjacent per-thread segments.
#[repr(align(64))]
struct Segment<T>(Mutex<Vec<T>>);

/// A multi-producer bag; values are segregated by the producing thread.
pub struct Bag<T> {
    segments: Vec<Segment<T>>,
}

impl<T> Bag<T> {
    /// Creates a bag with one segment per thread (`nthreads >= 1`).
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a bag needs at least one segment");
        Bag {
            segments: (0..nthreads)
                .map(|_| Segment(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    /// Pushes `value` into thread `tid`'s segment.
    ///
    /// The mutex is uncontended when each thread pushes only to its own
    /// segment (the intended use), so this compiles down to a fast path of a
    /// single atomic exchange plus a `Vec::push`.
    #[inline]
    pub fn push(&self, tid: usize, value: T) {
        self.segments[tid].0.lock().push(value);
    }

    /// Total number of elements across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.0.lock().len()).sum()
    }

    /// True when every segment is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(|s| s.0.lock().is_empty())
    }

    /// Moves every element into a caller-provided buffer (clearing it
    /// first), leaving the bag empty and reusing the buffer's capacity
    /// across rounds.
    ///
    /// Elements appear grouped by producing thread, in push order within a
    /// thread; the cross-thread order is by thread id, making drains
    /// deterministic for a fixed assignment of work to threads.
    pub fn drain_into(&self, out: &mut Vec<T>) {
        out.clear();
        for seg in &self.segments {
            out.append(&mut seg.0.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn push_and_drain_preserves_elements() {
        let bag = Bag::new(3);
        bag.push(0, 1);
        bag.push(1, 2);
        bag.push(2, 3);
        bag.push(0, 4);
        assert_eq!(bag.len(), 4);
        let mut v = Vec::new();
        bag.drain_into(&mut v);
        v.sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4]);
        assert!(bag.is_empty());
    }

    #[test]
    fn drain_is_grouped_by_thread_then_fifo() {
        let bag = Bag::new(2);
        bag.push(1, 'c');
        bag.push(0, 'a');
        bag.push(0, 'b');
        bag.push(1, 'd');
        let mut v = Vec::new();
        bag.drain_into(&mut v);
        assert_eq!(v, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn concurrent_pushes_all_arrive() {
        let pool = ThreadPool::new(4);
        let bag = Bag::new(pool.threads());
        pool.broadcast(|ctx| {
            for i in 0..1000 {
                bag.push(ctx.tid, (ctx.tid, i));
            }
        });
        assert_eq!(bag.len(), 4000);
        let mut v = Vec::new();
        bag.drain_into(&mut v);
        assert_eq!(v.len(), 4000);
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let bag = Bag::new(2);
        let mut buf = Vec::with_capacity(100);
        (0..10).for_each(|i| bag.push(0, i));
        bag.drain_into(&mut buf);
        assert_eq!(buf.len(), 10);
        assert!(buf.capacity() >= 100);
        (0..5).for_each(|i| bag.push(1, i));
        bag.drain_into(&mut buf);
        assert_eq!(buf.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_rejected() {
        let _: Bag<u8> = Bag::new(0);
    }
}

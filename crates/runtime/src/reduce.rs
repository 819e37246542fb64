//! Parallel map-collect over index ranges.

use crate::parallel_for::ParallelForConfig;
use crate::pool::ThreadPool;
use std::ops::Range;

/// Produces `out[i] = f(i)` for the whole range, writing results in parallel.
///
/// Equivalent to `(range).map(f).collect()` but parallel and in-place over a
/// preallocated buffer, which is how GBBS materialises per-vertex arrays.
pub fn parallel_map_collect<T, F>(
    pool: &ThreadPool,
    range: Range<usize>,
    config: ParallelForConfig,
    f: F,
) -> Vec<T>
where
    T: Send + Sync + Clone + Default,
    F: Fn(usize) -> T + Sync,
{
    let len = range.end.saturating_sub(range.start);
    let mut out = vec![T::default(); len];
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    let start = range.start;
    crate::parallel_for(pool, 0..len, config, |i| {
        // SAFETY: each index is visited exactly once, so writes are disjoint.
        unsafe {
            *out_ptr.get().add(i) = f(start + i);
        }
    });
    out
}

/// Wrapper making a raw pointer `Sync` for disjoint-index parallel writes.
///
/// Callers must guarantee every index is written by at most one thread.
pub struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }
    /// Returns the raw pointer. Method access (rather than field access)
    /// forces closures to capture the whole `Sync` wrapper, not the raw
    /// pointer field (Rust 2021 disjoint capture).
    pub fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: the wrapper only hands the pointer out; every dereference is the
// caller's, under the disjoint-write contract above, on whatever thread.
unsafe impl<T> Sync for SendPtr<T> {}
// SAFETY: as for `Sync`.
unsafe impl<T> Send for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_matches_sequential() {
        let pool = ThreadPool::new(4);
        let got = parallel_map_collect(&pool, 5..105, ParallelForConfig::with_grain(8), |i| {
            i * i
        });
        let want: Vec<usize> = (5..105).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn map_collect_empty_range() {
        let pool = ThreadPool::new(2);
        let got: Vec<u8> =
            parallel_map_collect(&pool, 3..3, ParallelForConfig::default(), |_| 1u8);
        assert!(got.is_empty());
    }
}

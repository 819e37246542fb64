//! Parallel map-collect over index ranges.

use crate::parallel_for::ParallelForConfig;
use crate::pool::ThreadPool;
use std::ops::Range;

/// Produces `out[i] = f(i)` for the whole range, writing results in parallel.
///
/// Equivalent to `(range).map(f).collect()` — which is what a one-thread
/// pool runs — but with each chunk of the preallocated output written by
/// one worker, which is how GBBS materialises per-vertex arrays.
pub fn parallel_map_collect<T, F>(
    pool: &ThreadPool,
    range: Range<usize>,
    config: ParallelForConfig,
    f: F,
) -> Vec<T>
where
    T: Send + Clone + Default,
    F: Fn(usize) -> T + Sync,
{
    if pool.threads() == 1 {
        return range.map(f).collect();
    }
    let start = range.start;
    let mut out = vec![T::default(); range.len()];
    crate::parallel_for_chunks_mut(pool, &mut out, config, |lo, part| {
        for (i, slot) in (start + lo..).zip(part) {
            *slot = f(i);
        }
    });
    out
}

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

//! Parallel sample sort (counting distribution into buckets).
//!
//! Kruskal's baseline sorts the whole edge array; GBBS uses a parallel
//! sample sort for the same purpose, and so does this module: sample keys
//! at fixed strides, pick equally spaced splitters, classify every element
//! into a bucket with a binary search over the splitters, move it there
//! with the counting distribution from [`crate::partition`], and sort the
//! buckets — disjoint parts of the slice — in parallel.

use crate::parallel_for::{parallel_for_each, split_by_lens};
use crate::partition::distribute_by_class;
use crate::pool::ThreadPool;

/// Below this many elements `slice::sort_unstable_by_key` wins outright.
const SEQ_CUTOFF: usize = 8192;

/// Candidate keys sampled per bucket; oversampling evens out bucket sizes.
const OVERSAMPLE: usize = 8;

/// Sorts `data` by `key`, using the pool to classify, scatter and sort
/// buckets. A one-thread pool or a short slice sorts in place and
/// allocates nothing.
///
/// The sort is not stable; all callers in this workspace use strictly
/// totally ordered keys, where stability is vacuous. `key` is recomputed
/// per comparison (as with `sort_unstable_by_key`), so it should stay
/// cheap.
pub fn par_sort_by_key<T, K, F>(pool: &ThreadPool, data: &mut [T], key: F)
where
    T: Copy + Send + Sync + 'static,
    K: Ord + Sync,
    F: Fn(&T) -> K + Sync,
{
    let n = data.len();
    let nthreads = pool.threads();
    if nthreads == 1 || n < SEQ_CUTOFF {
        data.sort_unstable_by_key(|a| key(a));
        return;
    }

    // Pick `nbuckets - 1` splitters from a deterministic strided sample
    // (more buckets than threads smooths skew under dynamic claiming; no
    // OS entropy, so runs are reproducible).
    let nbuckets = (nthreads * 4).clamp(2, 256);
    let sample_len = nbuckets * OVERSAMPLE; // <= 2048 <= SEQ_CUTOFF <= n
    let stride = n / sample_len;
    let mut sample: Vec<K> = (0..sample_len).map(|s| key(&data[s * stride])).collect();
    sample.sort_unstable();
    // Consume the sample so splitters are moved out, not cloned.
    let splitters: Vec<K> = sample
        .into_iter()
        .enumerate()
        .filter_map(|(i, k)| (i != 0 && i % OVERSAMPLE == 0).then_some(k))
        .collect();
    debug_assert_eq!(splitters.len(), nbuckets - 1);

    // Bucket b holds the keys k with splitters[b-1] <= k < splitters[b]
    // (duplicate splitter runs simply leave some buckets empty).
    let mut bounds = Vec::with_capacity(nbuckets + 1);
    distribute_by_class(pool, data, nbuckets, &mut bounds, |x| {
        let k = key(x);
        splitters.partition_point(|s| *s <= k)
    });

    // Sort the buckets in parallel, each one claimed by one worker.
    let buckets = split_by_lens(data, bounds.windows(2).map(|w| w[1] - w[0]));
    parallel_for_each(pool, buckets, |bucket| {
        bucket.sort_unstable_by_key(|a| key(a))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize) -> Vec<u64> {
        let mut x = 0x243F6A8885A308D3u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    #[test]
    fn sorts_match_std_across_sizes_and_threads() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 2, 100, 8191, 8192, 100_000] {
                let mut v = pseudo_random(n);
                let mut want = v.clone();
                want.sort_unstable();
                par_sort_by_key(&pool, &mut v, |&x| x);
                assert_eq!(v, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn sort_by_key_descending() {
        let pool = ThreadPool::new(4);
        let mut v = pseudo_random(50_000);
        par_sort_by_key(&pool, &mut v, |&x| std::cmp::Reverse(x));
        assert!(v.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn already_sorted_stays_sorted() {
        let pool = ThreadPool::new(3);
        let mut v: Vec<u64> = (0..20_000).collect();
        par_sort_by_key(&pool, &mut v, |&x| x);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(v.len(), 20_000);
    }

    #[test]
    fn duplicate_keys_preserved() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = pseudo_random(30_000).into_iter().map(|x| x % 10).collect();
        let mut want = v.clone();
        want.sort_unstable();
        par_sort_by_key(&pool, &mut v, |&x| x);
        assert_eq!(v, want);
    }

    #[test]
    fn all_equal_keys() {
        // Every element lands in a single bucket; still sorted, nothing lost.
        let pool = ThreadPool::new(4);
        let mut v = vec![42u64; 25_000];
        par_sort_by_key(&pool, &mut v, |&x| x);
        assert_eq!(v, vec![42u64; 25_000]);
    }
}

//! Dynamically load-balanced parallel loops over index ranges and items.
//!
//! The loops hand out chunks of `grain` indices from a shared atomic cursor,
//! which is the scheduling model both Galois (`do_all` with a chunked
//! worklist) and GBBS (`parallel_for` with granularity control) use for flat
//! loops over vertex or edge ranges.
//!
//! Parallel writes go through [`parallel_for_each`]: its items are disjoint
//! `&mut` parts of the output — cut by `chunks_mut`
//! ([`parallel_for_chunks_mut`]) or by [`split_by_lens`] — so no thread
//! can write another's slots and no raw pointer is involved.

use crate::pool::ThreadPool;
use crate::sync::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest grain the derived default will pick: below this, the atomic
/// cursor traffic per chunk outweighs useful work for the loop bodies in
/// this workspace.
pub const MIN_DERIVED_GRAIN: usize = 64;

/// Tuning knobs for a parallel loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelForConfig {
    /// Number of consecutive indices claimed per atomic fetch. `None`
    /// (the default) derives a grain from the range length and thread
    /// count at call time — see [`ParallelForConfig::resolve_grain`].
    pub grain: Option<usize>,
}

impl ParallelForConfig {
    /// A config with an explicit grain (clamped to at least 1), overriding
    /// the derived default.
    pub fn with_grain(grain: usize) -> Self {
        ParallelForConfig {
            grain: Some(grain.max(1)),
        }
    }

    /// The grain a loop over `len` indices on `nthreads` threads will use.
    ///
    /// An explicit [`with_grain`](ParallelForConfig::with_grain) wins.
    /// Otherwise the grain targets ~8 chunks per thread — enough slack for
    /// dynamic load balancing without serializing ranges that are merely a
    /// few times larger than a fixed grain (the old hard-coded 1024 ran
    /// a 4096-element range as 4 chunks, which one worker often swallowed
    /// whole) — clamped to a floor of [`MIN_DERIVED_GRAIN`].
    pub fn resolve_grain(&self, len: usize, nthreads: usize) -> usize {
        match self.grain {
            Some(g) => g.max(1),
            None => (len / (nthreads.max(1) * 8)).max(MIN_DERIVED_GRAIN),
        }
    }
}

/// Runs `f(i)` for every `i` in `range`, distributing chunks over the pool.
///
/// Falls back to a plain sequential loop for single-thread pools or ranges
/// smaller than one grain, so instrumented single-thread baselines pay no
/// scheduling overhead.
///
/// ```
/// use llp_runtime::{parallel_for, ParallelForConfig, ThreadPool};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = ThreadPool::new(2);
/// let sum = AtomicU64::new(0);
/// parallel_for(&pool, 0..1000, ParallelForConfig::default(), |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn parallel_for<F>(pool: &ThreadPool, range: Range<usize>, config: ParallelForConfig, f: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_chunks(pool, range, config, |chunk| {
        for i in chunk {
            f(i);
        }
    });
}

/// Runs `f(chunk)` over disjoint chunks covering `range`.
///
/// Chunked access lets callers hoist per-chunk state (thread-local buffers,
/// counters) out of the inner loop.
pub fn parallel_for_chunks<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    config: ParallelForConfig,
    f: F,
) where
    F: Fn(Range<usize>) + Sync,
{
    parallel_for_chunks_ctx(pool, range, config, |_ctx, chunk| f(chunk));
}

/// Like [`parallel_for_chunks`], additionally handing each chunk the
/// executing worker's [`crate::pool::WorkerCtx`] — the hook per-thread structures such
/// as [`crate::Bag`] need to route pushes to their own segment.
pub fn parallel_for_chunks_ctx<F>(
    pool: &ThreadPool,
    range: Range<usize>,
    config: ParallelForConfig,
    f: F,
) where
    F: Fn(crate::pool::WorkerCtx, Range<usize>) + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    let grain = crate::chaos::perturb_grain(config.resolve_grain(len, pool.threads()), len);
    if pool.threads() == 1 || len <= grain {
        f(
            crate::pool::WorkerCtx {
                tid: 0,
                nthreads: pool.threads(),
            },
            range,
        );
        return;
    }

    let start = range.start;
    let cursor = AtomicUsize::new(0);
    pool.broadcast(|ctx| loop {
        crate::chaos::chunk_claim(ctx.tid);
        let lo = cursor.fetch_add(grain, Ordering::Relaxed);
        if lo >= len {
            break;
        }
        let hi = (lo + grain).min(len);
        f(ctx, start + lo..start + hi);
    });
}

/// Runs `f` on every item of `items`, the pool's threads claiming items
/// one at a time under a lock. On a one-thread pool it is a plain
/// `for_each`.
///
/// The items are typically disjoint `&mut` parts of one buffer, which makes
/// this the safe way to write a buffer in parallel.
///
/// ```
/// use llp_runtime::{parallel_for_each, ThreadPool};
///
/// let pool = ThreadPool::new(2);
/// let mut v = vec![0u32; 100];
/// parallel_for_each(&pool, v.chunks_mut(10).enumerate(), |(b, part)| {
///     part.fill(b as u32);
/// });
/// assert_eq!(v[95], 9);
/// ```
pub fn parallel_for_each<I, F>(pool: &ThreadPool, items: I, f: F)
where
    I: Iterator + Send,
    F: Fn(I::Item) + Sync,
{
    if pool.threads() == 1 {
        items.for_each(f);
        return;
    }
    let items = Mutex::new(items);
    pool.broadcast(|ctx| loop {
        crate::chaos::chunk_claim(ctx.tid);
        let Some(item) = items.lock().next() else {
            break;
        };
        f(item);
    });
}

/// Runs `f(start, part)` over consecutive parts of `data`, one grain each
/// (the grain resolved as in [`parallel_for_chunks`]); `start` is the
/// part's offset in `data`. Single-thread pools and slices of at most one
/// grain run as one `f(0, data)` call.
pub fn parallel_for_chunks_mut<T, F>(
    pool: &ThreadPool,
    data: &mut [T],
    config: ParallelForConfig,
    f: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    if len == 0 {
        return;
    }
    let grain = crate::chaos::perturb_grain(config.resolve_grain(len, pool.threads()), len);
    if pool.threads() == 1 || len <= grain {
        f(0, data);
        return;
    }
    parallel_for_each(pool, data.chunks_mut(grain).enumerate(), |(b, part)| {
        f(b * grain, part)
    });
}

/// Cuts `data` into consecutive parts of the given lengths, in order.
///
/// # Panics
/// Panics when the lengths do not sum to `data.len()` — before any part is
/// handed out, so a caller cannot write a partial layout.
pub fn split_by_lens<'a, T, L>(mut data: &'a mut [T], lens: L) -> impl Iterator<Item = &'a mut [T]>
where
    L: IntoIterator<Item = usize>,
    L::IntoIter: Clone + 'a,
{
    let lens = lens.into_iter();
    let total: usize = lens.clone().sum();
    assert_eq!(
        total,
        data.len(),
        "part lengths sum to {total}, the slice holds {}",
        data.len()
    );
    lens.map(move |len| {
        let (part, rest) = std::mem::take(&mut data).split_at_mut(len);
        data = rest;
        part
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn sum_with(pool: &ThreadPool, n: usize, grain: usize) -> u64 {
        let acc = AtomicU64::new(0);
        parallel_for(
            pool,
            0..n,
            ParallelForConfig::with_grain(grain),
            |i| {
                acc.fetch_add(i as u64, Ordering::Relaxed);
            },
        );
        acc.load(Ordering::Relaxed)
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 5, 100, 10_000] {
            for grain in [1usize, 7, 1024] {
                let expect = (0..n as u64).sum::<u64>();
                assert_eq!(sum_with(&pool, n, grain), expect, "n={n} grain={grain}");
            }
        }
    }

    #[test]
    fn nonzero_range_start_respected() {
        let pool = ThreadPool::new(3);
        let acc = AtomicU64::new(0);
        parallel_for(&pool, 10..20, ParallelForConfig::with_grain(3), |i| {
            assert!((10..20).contains(&i));
            acc.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn chunks_partition_the_range() {
        let pool = ThreadPool::new(4);
        let seen = crate::sync::Mutex::new(vec![0u32; 1000]);
        parallel_for_chunks(&pool, 0..1000, ParallelForConfig::with_grain(64), |c| {
            let mut seen = seen.lock();
            for i in c {
                seen[i] += 1;
            }
        });
        assert!(seen.lock().iter().all(|&c| c == 1));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(sum_with(&pool, 1000, 16), (0..1000u64).sum::<u64>());
    }

    #[test]
    fn ctx_variant_reports_valid_worker_ids() {
        // A chaos seed may replace the grain: clear one the run was started
        // under (the guard restores it) so the explicit grain is checked.
        let _g = crate::test_serial_lock();
        crate::chaos::set_seed(None);
        let pool = ThreadPool::new(4);
        let seen = crate::sync::Mutex::new(std::collections::HashSet::new());
        parallel_for_chunks_ctx(&pool, 0..10_000, ParallelForConfig::with_grain(64), |ctx, c| {
            assert!(ctx.tid < ctx.nthreads);
            assert_eq!(ctx.nthreads, 4);
            seen.lock().insert((ctx.tid, c.start));
        });
        let chunks: usize = seen.lock().len();
        assert_eq!(chunks, 10_000 / 64 + 1);
    }

    #[test]
    fn derived_grain_scales_with_range_and_threads() {
        let cfg = ParallelForConfig::default();
        // ~8 chunks per thread once the range is large enough.
        assert_eq!(cfg.resolve_grain(1 << 20, 4), (1 << 20) / 32);
        assert_eq!(cfg.resolve_grain(4096, 4), 128);
        // Small ranges clamp to the floor instead of degenerating to
        // one-index chunks.
        assert_eq!(cfg.resolve_grain(100, 4), MIN_DERIVED_GRAIN);
        assert_eq!(cfg.resolve_grain(0, 1), MIN_DERIVED_GRAIN);
        // Explicit grains always win.
        assert_eq!(ParallelForConfig::with_grain(7).resolve_grain(1 << 20, 8), 7);
    }

    #[test]
    fn default_grain_spreads_mid_sized_ranges_over_workers() {
        // Regression: the old fixed grain of 1024 ran a range of ~2 grains
        // as 2 chunks, which a single worker usually swallowed whole. The
        // derived grain must produce enough chunks to occupy the pool.
        let pool = ThreadPool::new(4);
        let n = 3000; // just under 3 old-style grains
        let grain = ParallelForConfig::default().resolve_grain(n, pool.threads());
        assert!(
            n / grain >= pool.threads(),
            "derived grain {grain} yields too few chunks for {n} indices"
        );
        assert_eq!(
            {
                let acc = AtomicU64::new(0);
                parallel_for(&pool, 0..n, ParallelForConfig::default(), |i| {
                    acc.fetch_add(i as u64, Ordering::Relaxed);
                });
                acc.load(Ordering::Relaxed)
            },
            (0..n as u64).sum::<u64>()
        );
    }

    #[test]
    fn zero_grain_is_clamped() {
        let pool = ThreadPool::new(2);
        let cfg = ParallelForConfig::with_grain(0);
        assert_eq!(cfg.grain, Some(1));
        let acc = AtomicU64::new(0);
        parallel_for(&pool, 0..10, cfg, |_| {
            acc.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn for_each_visits_every_item_exactly_once() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 7, 1000] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                parallel_for_each(&pool, 0..n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn for_each_writes_disjoint_parts_including_empty_ones() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let lens = [0usize, 3, 0, 0, 5, 1, 0, 64, 0];
            let mut v = vec![u32::MAX; lens.iter().sum()];
            parallel_for_each(
                &pool,
                split_by_lens(&mut v, lens).enumerate(),
                |(b, part)| {
                    part.fill(b as u32);
                },
            );
            let want: Vec<u32> = lens
                .iter()
                .enumerate()
                .flat_map(|(b, &l)| std::iter::repeat_n(b as u32, l))
                .collect();
            assert_eq!(v, want, "threads={threads}");
            // An empty slice cut into empty parts hands out only those.
            let mut empty: [u32; 0] = [];
            let parts = std::sync::atomic::AtomicUsize::new(0);
            parallel_for_each(&pool, split_by_lens(&mut empty, [0, 0, 0]), |part| {
                assert!(part.is_empty());
                parts.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(parts.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn chunks_mut_fill_matches_offsets() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 63, 64, 65, 10_000] {
                let mut v = vec![0usize; n];
                parallel_for_chunks_mut(
                    &pool,
                    &mut v,
                    ParallelForConfig::with_grain(64),
                    |start, part| {
                        for (k, x) in part.iter_mut().enumerate() {
                            *x = start + k;
                        }
                    },
                );
                assert!(
                    v.iter().enumerate().all(|(i, &x)| x == i),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "part lengths sum to 5, the slice holds 6")]
    fn split_by_lens_rejects_lengths_short_of_the_slice() {
        let mut v = [0u8; 6];
        let _ = split_by_lens(&mut v, [2, 3]);
    }

    #[test]
    #[should_panic(expected = "part lengths sum to 7, the slice holds 6")]
    fn split_by_lens_rejects_lengths_past_the_slice() {
        let mut v = [0u8; 6];
        let _ = split_by_lens(&mut v, [2, 5]);
    }
}

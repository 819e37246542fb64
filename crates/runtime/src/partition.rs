//! Scan-based parallel partitioning: counting distribution, stable
//! three-way partition, and parallel retain.
//!
//! Filter-Kruskal's two data-parallel steps — pivot partition and the
//! filter pass — are both instances of one pattern: classify every element,
//! prefix-sum the class counts, scatter each element to its slot. The same
//! counting-distribution machinery backs the sample sort in [`crate::sort`].
//! The shape mirrors [`crate::scan::exclusive_scan`]: fixed chunks claimed
//! through an atomic cursor (chaos-instrumented like
//! [`crate::parallel_for()`]), per-chunk class counts, one sequential
//! exclusive scan of the small count matrix, then a disjoint scatter
//! through raw pointers. Elements move bitwise through a `MaybeUninit`
//! scratch buffer, so no `Clone` bound is needed.

use crate::pool::ThreadPool;
use crate::reduce::SendPtr;
use crate::scan::exclusive_scan_in_place;
use crate::scratch::ScratchArena;
use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many elements the sequential path wins.
pub(crate) const PAR_THRESHOLD: usize = 4096;

/// Stably reorders `data` so elements of class `0`, `1`, …, `nclasses - 1`
/// appear in that order, each class keeping its input order (counting
/// distribution). Returns the class boundaries: `bounds[c]..bounds[c + 1]`
/// is the range of class `c`, with `bounds.len() == nclasses + 1`.
///
/// `class_of` is called exactly once per element (classes are cached), so
/// expensive classifiers — union-find lookups, splitter binary searches —
/// are not re-evaluated during the scatter.
///
/// # Panics
/// Panics when `class_of` returns a value `>= nclasses`.
pub fn distribute_by_class<T, F>(
    pool: &ThreadPool,
    data: &mut [T],
    nclasses: usize,
    class_of: F,
) -> Vec<usize>
where
    T: Send + Sync + 'static,
    F: Fn(&T) -> usize + Sync,
{
    let arena = ScratchArena::new();
    let mut bounds = Vec::with_capacity(nclasses + 1);
    distribute_by_class_in(pool, data, nclasses, &arena, &mut bounds, class_of);
    bounds
}

/// [`distribute_by_class`] with all round state leased from `arena`:
/// the cached class ids, the class-major count matrix, and the scatter
/// scratch buffer. `bounds` is cleared and refilled in place, so repeated
/// calls with a warm arena perform no heap allocations.
pub fn distribute_by_class_in<T, F>(
    pool: &ThreadPool,
    data: &mut [T],
    nclasses: usize,
    arena: &ScratchArena,
    bounds: &mut Vec<usize>,
    class_of: F,
) where
    T: Send + Sync + 'static,
    F: Fn(&T) -> usize + Sync,
{
    assert!(nclasses >= 1, "need at least one class");
    assert!(nclasses <= u16::MAX as usize, "class ids are stored as u16");
    let n = data.len();
    bounds.clear();
    if n == 0 {
        bounds.resize(nclasses + 1, 0);
        return;
    }
    if pool.threads() == 1 || n < PAR_THRESHOLD {
        bounds.extend_from_slice(&distribute_seq(data, nclasses, &class_of));
        return;
    }

    let nchunks = (pool.threads() * 8).min(n);
    let chunk = n.div_ceil(nchunks);
    let nchunks = n.div_ceil(chunk);

    // Pass 1: classify, caching class ids and per-chunk class counts.
    // Counts are laid out class-major (`[class][chunk]`) so a single
    // exclusive scan yields every (class, chunk) scatter base offset.
    // Chunk `b` exclusively owns column `b` of the matrix, so workers
    // increment it directly — no per-worker count buffers, no merge.
    let mut classes = arena.lease::<u16>(n);
    let mut counts = arena.lease::<u64>(nclasses * nchunks);
    counts.resize(nclasses * nchunks, 0);
    {
        let classes_ptr = SendPtr::new(classes.as_mut_ptr());
        let counts_ptr = SendPtr::new(counts.as_mut_ptr());
        let data_ro: &[T] = data;
        let class_of = &class_of;
        let cursor = AtomicUsize::new(0);
        pool.broadcast(|ctx| loop {
            crate::chaos::chunk_claim(ctx.tid);
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nchunks {
                break;
            }
            let lo = b * chunk;
            let hi = ((b + 1) * chunk).min(n);
            for (i, x) in data_ro.iter().enumerate().take(hi).skip(lo) {
                let c = class_of(x);
                assert!(c < nclasses, "class {c} out of range (nclasses {nclasses})");
                // SAFETY: chunks are disjoint index ranges of `classes`,
                // and chunk `b` is the only writer of matrix column `b`.
                unsafe {
                    *classes_ptr.get().add(i) = c as u16;
                    *counts_ptr.get().add(c * nchunks + b) += 1;
                }
            }
        });
        // SAFETY: the chunks partition 0..n, so every id slot was written.
        unsafe { classes.set_len(n) };
    }

    // Pass 2 (sequential, nclasses * nchunks entries): scan the count matrix.
    let total = exclusive_scan_in_place(&mut counts);
    debug_assert_eq!(total as usize, n);
    bounds.extend((0..nclasses).map(|c| counts[c * nchunks] as usize));
    bounds.push(n);

    // Pass 3: scatter each chunk's elements to their class slots. The
    // scratch lease's len stays 0 — elements move in and back out bitwise
    // through raw pointers, so returning the buffer never drops a `T`.
    // The scanned offset matrix doubles as the per-(class, chunk) write
    // cursors: chunk `b` still owns column `b`, so it advances those
    // entries in place.
    let mut scratch = arena.lease::<T>(n);
    {
        let scratch_ptr = SendPtr::new(scratch.as_mut_ptr());
        let offsets_ptr = SendPtr::new(counts.as_mut_ptr());
        let data_ro: &[T] = data;
        let classes_ro: &[u16] = &classes;
        let cursor = AtomicUsize::new(0);
        pool.broadcast(|ctx| loop {
            crate::chaos::chunk_claim(ctx.tid);
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nchunks {
                break;
            }
            let lo = b * chunk;
            let hi = ((b + 1) * chunk).min(n);
            for (i, &cls) in classes_ro.iter().enumerate().take(hi).skip(lo) {
                let c = cls as usize;
                // SAFETY: the scan makes (class, chunk) destination ranges
                // disjoint and chunk `b` is the sole reader/writer of its
                // cursor column, so each scratch slot is written exactly
                // once; the element is moved bitwise — never dropped or
                // aliased.
                unsafe {
                    let slot = offsets_ptr.get().add(c * nchunks + b);
                    let dst = *slot as usize;
                    *slot += 1;
                    std::ptr::copy_nonoverlapping(
                        data_ro.as_ptr().add(i),
                        scratch_ptr.get().add(dst),
                        1,
                    );
                }
            }
        });
    }
    // SAFETY: every element of `data` was moved into `scratch` exactly once;
    // copying the permutation back restores ownership in `data`. `scratch`
    // keeps len 0, so returning it to the arena drops no `T`.
    unsafe {
        std::ptr::copy_nonoverlapping(scratch.as_ptr(), data.as_mut_ptr(), n);
    }
}

/// Chunked count–scan–emit skeleton over `0..n`, with the per-chunk count
/// buffer leased from `arena`.
///
/// The range is cut into a fixed grid of chunks (the same grid both
/// passes use). Pass 1 calls `count(chunk)` for every chunk; the counts
/// are exclusively scanned; pass 2 calls `emit(chunk, base)` where `base`
/// is the chunk's scanned output offset, and `emit` must return how many
/// outputs it produced (checked against the scan under debug assertions).
/// Returns the total output count.
///
/// Single-thread pools and small `n` skip straight to one `emit(0..n, 0)`
/// call, so `emit` must subsume `count`'s work on that path.
pub fn count_scan_chunks<C, E>(
    pool: &ThreadPool,
    n: usize,
    arena: &ScratchArena,
    count: C,
    emit: E,
) -> usize
where
    C: Fn(Range<usize>) -> u64 + Sync,
    E: Fn(Range<usize>, u64) -> u64 + Sync,
{
    if n == 0 {
        return 0;
    }
    if pool.threads() == 1 || n < PAR_THRESHOLD {
        return emit(0..n, 0) as usize;
    }
    let nchunks = (pool.threads() * 8).min(n);
    let chunk = n.div_ceil(nchunks);
    let nchunks = n.div_ceil(chunk);

    let mut counts = arena.lease::<u64>(nchunks);
    {
        let counts_ptr = SendPtr::new(counts.as_mut_ptr());
        let count = &count;
        let cursor = AtomicUsize::new(0);
        pool.broadcast(|ctx| loop {
            crate::chaos::chunk_claim(ctx.tid);
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nchunks {
                break;
            }
            let lo = b * chunk;
            let hi = ((b + 1) * chunk).min(n);
            // SAFETY: one writer per chunk slot.
            unsafe { *counts_ptr.get().add(b) = count(lo..hi) };
        });
        // SAFETY: the chunk grid covers 0..nchunks, every slot written.
        unsafe { counts.set_len(nchunks) };
    }
    let total = exclusive_scan_in_place(&mut counts);
    {
        let counts_ro: &[u64] = &counts;
        let emit = &emit;
        let cursor = AtomicUsize::new(0);
        pool.broadcast(|ctx| loop {
            crate::chaos::chunk_claim(ctx.tid);
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nchunks {
                break;
            }
            let lo = b * chunk;
            let hi = ((b + 1) * chunk).min(n);
            let emitted = emit(lo..hi, counts_ro[b]);
            let expected =
                if b + 1 < nchunks { counts_ro[b + 1] } else { total } - counts_ro[b];
            if cfg!(debug_assertions) {
                assert_eq!(
                    emitted, expected,
                    "emit for chunk {b} produced {emitted} outputs, counted {expected}"
                );
            }
        });
    }
    total as usize
}

/// Parallel filtered map: `out` receives `f(i)` for every `i` in `0..n`
/// where `f` returns `Some`, in index order. `out` is cleared and refilled
/// in place; all intermediate state comes from `arena`, so once `out`'s
/// capacity has grown to its steady-state size the call allocates nothing.
///
/// `f` is evaluated twice per index (count pass + emit pass) and must be
/// deterministic; side-effecting predicates belong in
/// [`crate::scan::pack_indices_in`], which evaluates exactly once.
pub fn compact_map_into<T, F>(
    pool: &ThreadPool,
    arena: &ScratchArena,
    n: usize,
    out: &mut Vec<T>,
    f: F,
) where
    T: Send + 'static,
    F: Fn(usize) -> Option<T> + Sync,
{
    out.clear();
    out.reserve(n);
    let out_ptr = SendPtr::new(out.as_mut_ptr());
    let f = &f;
    let total = count_scan_chunks(
        pool,
        n,
        arena,
        |r| r.filter(|&i| f(i).is_some()).count() as u64,
        |r, base| {
            let mut k = base as usize;
            for i in r {
                if let Some(v) = f(i) {
                    // SAFETY: scanned bases make chunk output ranges
                    // disjoint, and `out` has capacity for n >= total
                    // elements; each slot in 0..total written exactly once.
                    unsafe { out_ptr.get().add(k).write(v) };
                    k += 1;
                }
            }
            (k - base as usize) as u64
        },
    );
    // SAFETY: exactly `total` leading slots were initialised above.
    unsafe { out.set_len(total) };
}

/// Sequential [`distribute_by_class`] (same counting scatter, one thread).
fn distribute_seq<T, F>(data: &mut [T], nclasses: usize, class_of: &F) -> Vec<usize>
where
    F: Fn(&T) -> usize,
{
    let n = data.len();
    let mut classes: Vec<u16> = Vec::with_capacity(n);
    let mut counts: Vec<u64> = vec![0; nclasses];
    for x in data.iter() {
        let c = class_of(x);
        assert!(c < nclasses, "class {c} out of range (nclasses {nclasses})");
        classes.push(c as u16);
        counts[c] += 1;
    }
    exclusive_scan_in_place(&mut counts);
    let mut bounds: Vec<usize> = counts.iter().map(|&c| c as usize).collect();
    bounds.push(n);
    let mut cursors: Vec<usize> = bounds[..nclasses].to_vec();
    let mut scratch: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` needs no initialisation; every slot is written
    // exactly once below before the copy back reads it.
    unsafe { scratch.set_len(n) };
    for (i, &c) in classes.iter().enumerate() {
        let dst = cursors[c as usize];
        cursors[c as usize] += 1;
        // SAFETY: one cursor step per element keeps destinations disjoint;
        // the element is moved bitwise, never dropped here.
        unsafe { scratch[dst].write(std::ptr::read(&data[i])) };
    }
    // SAFETY: as in the parallel path — each element moved exactly once.
    unsafe {
        std::ptr::copy_nonoverlapping(scratch.as_ptr() as *const T, data.as_mut_ptr(), n);
    }
    bounds
}

/// Stable three-way partition by an [`Ordering`](CmpOrdering)-valued
/// classifier: `Less` elements first, then `Equal`, then `Greater`, each
/// class keeping its input order. Returns `(lt_len, eq_len)`.
pub fn partition3_in_place<T, F>(pool: &ThreadPool, data: &mut [T], classify: F) -> (usize, usize)
where
    T: Send + Sync + 'static,
    F: Fn(&T) -> CmpOrdering + Sync,
{
    let bounds = distribute_by_class(pool, data, 3, |x| match classify(x) {
        CmpOrdering::Less => 0,
        CmpOrdering::Equal => 1,
        CmpOrdering::Greater => 2,
    });
    (bounds[1], bounds[2] - bounds[1])
}

/// Parallel stable retain: keeps the elements satisfying `keep`, in input
/// order, and drops the rest — [`Vec::retain`] with the predicate evaluated
/// across the pool (exactly once per element).
pub fn retain_parallel<T, F>(pool: &ThreadPool, data: &mut Vec<T>, keep: F)
where
    T: Send + Sync + 'static,
    F: Fn(&T) -> bool + Sync,
{
    let bounds = distribute_by_class(pool, data, 2, |x| usize::from(!keep(x)));
    data.truncate(bounds[1]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    fn pseudo_random(n: usize) -> Vec<u64> {
        let mut x = 0x9E3779B97F4A7C15u64;
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
    fn distribute_matches_stable_sort_by_class() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 7, 4095, 4096, 50_000] {
                for nclasses in [1usize, 2, 3, 16, 255] {
                    let mut v: Vec<(u64, usize)> = pseudo_random(n)
                        .into_iter()
                        .enumerate()
                        .map(|(i, x)| (x, i))
                        .collect();
                    let mut want = v.clone();
                    want.sort_by_key(|&(x, _)| x as usize % nclasses); // stable
                    let bounds =
                        distribute_by_class(&pool, &mut v, nclasses, |&(x, _)| {
                            x as usize % nclasses
                        });
                    assert_eq!(v, want, "threads={threads} n={n} nclasses={nclasses}");
                    assert_eq!(bounds.len(), nclasses + 1);
                    assert_eq!(bounds[0], 0);
                    assert_eq!(bounds[nclasses], n);
                    for c in 0..nclasses {
                        assert!(v[bounds[c]..bounds[c + 1]]
                            .iter()
                            .all(|&(x, _)| x as usize % nclasses == c));
                    }
                }
            }
        }
    }

    #[test]
    fn partition3_is_stable_and_counts_match() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 100, 4096, 30_000] {
            let mut v = pseudo_random(n);
            let pivot = u64::MAX / 3;
            let want_lt: Vec<u64> = v.iter().copied().filter(|&x| x < pivot).collect();
            let want_eq: Vec<u64> = v.iter().copied().filter(|&x| x == pivot).collect();
            let want_gt: Vec<u64> = v.iter().copied().filter(|&x| x > pivot).collect();
            let (lt, eq) = partition3_in_place(&pool, &mut v, |x| x.cmp(&pivot));
            assert_eq!(lt, want_lt.len(), "n={n}");
            assert_eq!(eq, want_eq.len(), "n={n}");
            assert_eq!(&v[..lt], &want_lt[..], "n={n}");
            assert_eq!(&v[lt..lt + eq], &want_eq[..], "n={n}");
            assert_eq!(&v[lt + eq..], &want_gt[..], "n={n}");
        }
    }

    #[test]
    fn retain_matches_vec_retain() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 10, 4096, 40_000] {
            let mut v = pseudo_random(n);
            let mut want = v.clone();
            want.retain(|&x| x % 3 == 0);
            retain_parallel(&pool, &mut v, |&x| x % 3 == 0);
            assert_eq!(v, want, "n={n}");
        }
    }

    /// A non-`Clone` payload whose drops are counted: proves the scatter
    /// neither duplicates nor leaks elements, and that `retain_parallel`
    /// drops exactly the rejected ones.
    struct Tracked {
        value: u64,
        drops: Arc<StdAtomicUsize>,
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn retain_drops_each_rejected_element_exactly_once() {
        let pool = ThreadPool::new(4);
        let drops = Arc::new(StdAtomicUsize::new(0));
        let n = 20_000usize;
        let mut v: Vec<Tracked> = pseudo_random(n)
            .into_iter()
            .map(|x| Tracked {
                value: x,
                drops: Arc::clone(&drops),
            })
            .collect();
        retain_parallel(&pool, &mut v, |t| t.value % 4 != 0);
        let kept = v.len();
        let rejected = n - kept;
        assert_eq!(drops.load(Ordering::Relaxed), rejected);
        assert!(v.iter().all(|t| t.value % 4 != 0));
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), n, "every element dropped once");
    }

    #[test]
    fn distribute_in_steady_state_reuses_arena() {
        let pool = ThreadPool::new(4);
        let arena = ScratchArena::new();
        let mut bounds = Vec::new();
        let v0 = pseudo_random(50_000);
        // Warm-up round grows the arena; later rounds must not.
        let mut v = v0.clone();
        distribute_by_class_in(&pool, &mut v, 16, &arena, &mut bounds, |&x| x as usize % 16);
        let footprint = arena.footprint_bytes();
        for round in 0..3 {
            let mut v = v0.clone();
            distribute_by_class_in(&pool, &mut v, 16, &arena, &mut bounds, |&x| {
                x as usize % 16
            });
            let mut want = v0.clone();
            want.sort_by_key(|&x| x as usize % 16);
            assert_eq!(v, want, "round={round}");
            assert_eq!(
                arena.footprint_bytes(),
                footprint,
                "steady-state round {round} grew the arena"
            );
        }
        assert!(arena.reuse_count() > 0);
    }

    #[test]
    fn count_scan_chunks_matches_sequential_filter() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let arena = ScratchArena::new();
            for n in [0usize, 1, 4095, 4096, 60_000] {
                let keep = |i: usize| i.is_multiple_of(3);
                let out = Mutex::new(vec![false; n]);
                let total = count_scan_chunks(
                    &pool,
                    n,
                    &arena,
                    |r| r.filter(|&i| keep(i)).count() as u64,
                    |r, _base| {
                        let mut m = out.lock();
                        let mut k = 0;
                        for i in r {
                            if keep(i) {
                                m[i] = true;
                                k += 1;
                            }
                        }
                        k
                    },
                );
                assert_eq!(total, (0..n).filter(|&i| keep(i)).count(), "n={n}");
                assert!(out.lock().iter().enumerate().all(|(i, &v)| v == keep(i)));
            }
        }
    }

    #[test]
    fn compact_map_matches_filter_map() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let arena = ScratchArena::new();
            let mut out: Vec<u64> = Vec::new();
            for n in [0usize, 7, 4096, 50_000] {
                let f = |i: usize| (i % 7 < 3).then(|| (i * 2) as u64);
                compact_map_into(&pool, &arena, n, &mut out, f);
                let want: Vec<u64> = (0..n).filter_map(f).collect();
                assert_eq!(*out, want, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn out_of_range_class_panics() {
        let pool = ThreadPool::new(1);
        let mut v = vec![1u64, 2, 3];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            distribute_by_class(&pool, &mut v, 2, |&x| x as usize);
        }));
        assert!(r.is_err());
    }
}

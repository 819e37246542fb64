//! Scan-based parallel partitioning: counting distribution, stable
//! three-way partition, parallel retain, and count–scan–emit compaction.
//!
//! Filter-Kruskal's two data-parallel steps — pivot partition and the
//! filter pass — are both instances of one pattern: classify every element,
//! prefix-sum the class counts, move each element to its slot. The same
//! counting distribution backs the sample sort in [`crate::sort`].
//!
//! Every parallel write here goes through [`parallel_for_each`] over
//! disjoint `&mut` parts (`chunks_mut` or [`split_by_lens`]), so the parts
//! cannot overlap and no raw pointer is involved. Elements are `Copy`:
//! they move by plain assignment and `copy_from_slice`.

use crate::parallel_for::{parallel_for_each, split_by_lens};
use crate::pool::ThreadPool;
use crate::scan::exclusive_scan_in_place;
use crate::scratch::{ScratchArena, ScratchVec};
use std::cmp::Ordering as CmpOrdering;
use std::ops::Range;

/// Below this many elements the sequential path wins.
pub(crate) const PAR_THRESHOLD: usize = 4096;

/// Stably reorders `data` so elements of class `0`, `1`, …, `nclasses - 1`
/// appear in that order, each class keeping its input order (counting
/// distribution). `bounds` is cleared and refilled with the class
/// boundaries: `bounds[c]..bounds[c + 1]` is the range of class `c`, with
/// `bounds.len() == nclasses + 1`.
///
/// The round state — cached class ids, the count matrix and the scratch
/// copy of `data` — is leased from `arena`, so repeated calls with a warm
/// arena perform no heap allocations.
///
/// `class_of` is called exactly once per element (classes are cached), so
/// expensive classifiers — union-find lookups, splitter binary searches —
/// are not re-evaluated during the scatter.
///
/// The data is cut into chunks (one on a one-thread pool or below
/// 4096 elements). Each chunk classifies its elements and
/// stably counting-sorts itself in place, from a scratch copy; then each
/// (class, chunk) run is copied to its class-major place. With one chunk
/// the chunk's order already is the class order, and that copy is skipped.
///
/// # Panics
/// Panics when `class_of` returns a value `>= nclasses`.
pub fn distribute_by_class<T, F>(
    pool: &ThreadPool,
    data: &mut [T],
    nclasses: usize,
    arena: &ScratchArena,
    bounds: &mut Vec<usize>,
    class_of: F,
) where
    T: Copy + Send + Sync + 'static,
    F: Fn(&T) -> usize + Sync,
{
    assert!(nclasses >= 1, "need at least one class");
    assert!(nclasses <= u16::MAX as usize, "class ids are stored as u16");
    let n = data.len();
    bounds.clear();
    bounds.push(0);
    if n == 0 {
        bounds.resize(nclasses + 1, 0);
        return;
    }
    let nchunks = if pool.threads() == 1 || n < PAR_THRESHOLD {
        1
    } else {
        (pool.threads() * 8).min(n)
    };
    let chunk = n.div_ceil(nchunks);
    let nchunks = n.div_ceil(chunk);

    // Pass 1: every chunk counting-sorts itself in place from its scratch
    // copy, with its own class ids and its own row of the chunk-major
    // count matrix. Each row ends as its chunk's class end offsets.
    let mut ids = arena.lease::<u16>(n);
    ids.resize(n, 0);
    let mut ends = arena.lease::<u64>(nclasses * nchunks);
    ends.resize(nclasses * nchunks, 0);
    let mut scratch = arena.lease::<T>(n);
    scratch.extend_from_slice(data);
    let chunks = data
        .chunks_mut(chunk)
        .zip(scratch.chunks(chunk))
        .zip(ids.chunks_mut(chunk))
        .zip(ends.chunks_mut(nclasses));
    parallel_for_each(pool, chunks, |(((part, copy), ids), row)| {
        counting_sort_chunk(part, copy, ids, row, &class_of)
    });

    // The (class, chunk) run lengths, read off the rows of end offsets.
    let run_len = |b: usize, c: usize| {
        let row = &ends[b * nclasses..(b + 1) * nclasses];
        (row[c] - if c == 0 { 0 } else { row[c - 1] }) as usize
    };
    for c in 0..nclasses {
        let class_len: usize = (0..nchunks).map(|b| run_len(b, c)).sum();
        bounds.push(bounds[c] + class_len);
    }
    if nchunks == 1 {
        return;
    }

    // Pass 2: copy every (class, chunk) run into its class-major part of
    // `scratch`, then the result back into `data`.
    let sorted: &[T] = data;
    let class_lens = bounds.windows(2).map(|w| w[1] - w[0]);
    parallel_for_each(
        pool,
        split_by_lens(&mut scratch, class_lens).enumerate(),
        |(c, mut part)| {
            for b in 0..nchunks {
                let start = b * chunk + (ends[b * nclasses + c] as usize - run_len(b, c));
                let (run, rest) = part.split_at_mut(run_len(b, c));
                run.copy_from_slice(&sorted[start..start + run.len()]);
                part = rest;
            }
        },
    );
    parallel_for_each(
        pool,
        data.chunks_mut(chunk).zip(scratch.chunks(chunk)),
        |(to, from)| to.copy_from_slice(from),
    );
}

/// Stably counting-sorts one chunk of [`distribute_by_class`]: classifies
/// `part` into `ids` and `row` (one count per class), then scatters `copy`
/// (the chunk's elements as they were) back into `part` class by class,
/// leaving `row` as the class end offsets. A function of its own, not a
/// closure body: its `&mut` arguments are known not to alias, which keeps
/// the one-thread path as fast as the scatter it replaced.
fn counting_sort_chunk<T, F>(part: &mut [T], copy: &[T], ids: &mut [u16], row: &mut [u64], class_of: &F)
where
    T: Copy,
    F: Fn(&T) -> usize,
{
    let nclasses = row.len();
    for (x, id) in part.iter().zip(ids.iter_mut()) {
        let c = class_of(x);
        assert!(c < nclasses, "class {c} out of range (nclasses {nclasses})");
        *id = c as u16;
        row[c] += 1;
    }
    exclusive_scan_in_place(row);
    for (&x, &c) in copy.iter().zip(ids.iter()) {
        let slot = &mut row[c as usize];
        part[*slot as usize] = x;
        *slot += 1;
    }
}

/// The largest per-chunk count buffer [`ChunkCounts::count`] leases on
/// `pool`, for any `n` (0 on one thread, where it leases none). A caller
/// that must leave an arena warm for later passes leases this much.
pub fn count_buffer_capacity(pool: &ThreadPool) -> usize {
    if pool.threads() == 1 {
        0
    } else {
        pool.threads() * 8
    }
}

/// A chunked count–scan–emit over `0..n`, after its count pass: how many
/// outputs each chunk of a fixed chunk grid produces, in a buffer leased
/// from an arena.
///
/// [`ChunkCounts::count`] runs the count pass; the caller sizes its
/// output to [`ChunkCounts::total`] and cuts it into one part per chunk —
/// `split_by_lens(out, counts.lens())` for a compaction,
/// `chunks_mut(counts.chunk_len())` for an input-aligned fill — and
/// [`ChunkCounts::emit`] hands each chunk its part.
pub struct ChunkCounts<'a> {
    counts: ScratchVec<'a, usize>,
    chunk: usize,
    n: usize,
    total: usize,
}

impl<'a> ChunkCounts<'a> {
    /// Runs `count(chunk)` on every chunk of `0..n` across the pool.
    ///
    /// Returns `None`, having counted nothing, when the range runs better
    /// as one sequential sweep: on a one-thread pool or below
    /// 4096 indices. The caller then writes its output
    /// directly, with no count pass.
    pub fn count<C>(pool: &ThreadPool, arena: &'a ScratchArena, n: usize, count: C) -> Option<Self>
    where
        C: Fn(Range<usize>) -> usize + Sync,
    {
        if pool.threads() == 1 || n < PAR_THRESHOLD {
            return None;
        }
        let nchunks = count_buffer_capacity(pool).min(n);
        let chunk = n.div_ceil(nchunks);
        let nchunks = n.div_ceil(chunk);
        let mut counts = arena.lease::<usize>(nchunks);
        counts.resize(nchunks, 0);
        parallel_for_each(pool, counts.iter_mut().enumerate(), |(b, slot)| {
            *slot = count(b * chunk..((b + 1) * chunk).min(n));
        });
        let total = counts.iter().sum();
        Some(ChunkCounts {
            counts,
            chunk,
            n,
            total,
        })
    }

    /// Outputs over all chunks.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Indices per chunk (the last chunk may be shorter).
    pub fn chunk_len(&self) -> usize {
        self.chunk
    }

    /// Each chunk's output count, in chunk order.
    pub fn lens(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        self.counts.iter().copied()
    }

    /// The emit pass: runs `emit(chunk, base, part)` on every chunk across
    /// the pool, where `base` is the chunk's first output index (the
    /// exclusive scan of the counts) and `part` the chunk's item of
    /// `parts`. `emit` returns how many outputs it produced.
    ///
    /// # Panics
    /// Panics, in every build, when a chunk's `emit` produced a different
    /// number of outputs than its `count` counted.
    pub fn emit<P, E>(&self, pool: &ThreadPool, parts: P, emit: E)
    where
        P: IntoIterator,
        P::IntoIter: Send,
        E: Fn(Range<usize>, usize, P::Item) -> usize + Sync,
    {
        let (chunk, n) = (self.chunk, self.n);
        let bases = self.counts.iter().scan(0, |next, &count| {
            let base = *next;
            *next += count;
            Some((base, count))
        });
        parallel_for_each(
            pool,
            bases.zip(parts).enumerate(),
            |(b, ((base, counted), part))| {
                let emitted = emit(b * chunk..((b + 1) * chunk).min(n), base, part);
                assert_eq!(
                    emitted, counted,
                    "emit for chunk {b} produced {emitted} outputs, counted {counted}"
                );
            },
        );
    }
}

/// Parallel filtered map: `out` receives `f(i)` for every `i` in `0..n`
/// where `f` returns `Some`, in index order. `out` is cleared and refilled
/// in place, with capacity for `n`; all intermediate state comes from
/// `arena`, so once `out`'s capacity has grown to its steady-state size
/// the call allocates nothing.
///
/// On the parallel path `f` is evaluated twice per index (count pass +
/// emit pass) and must be deterministic — a chunk whose two passes
/// disagree panics; side-effecting predicates belong in
/// [`crate::scan::pack_indices_in`], which evaluates exactly once.
pub fn compact_map_into<T, F>(
    pool: &ThreadPool,
    arena: &ScratchArena,
    n: usize,
    out: &mut Vec<T>,
    f: F,
) where
    T: Copy + Default + Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    out.clear();
    out.reserve(n);
    let count = |r: Range<usize>| r.filter(|&i| f(i).is_some()).count();
    let Some(counts) = ChunkCounts::count(pool, arena, n, count) else {
        // A push loop: `extend` over a `filter_map` compiles to a slower
        // loop here (rounds of LLP-Borůvka on rmat s17 ran ~15% slower).
        for i in 0..n {
            if let Some(v) = f(i) {
                out.push(v);
            }
        }
        return;
    };
    out.resize(counts.total(), T::default());
    counts.emit(pool, split_by_lens(out, counts.lens()), |r, _, part| {
        let mut k = 0;
        for v in r.filter_map(&f) {
            part[k] = v;
            k += 1;
        }
        k
    });
}

/// Stable three-way partition by an [`Ordering`](CmpOrdering)-valued
/// classifier: `Less` elements first, then `Equal`, then `Greater`, each
/// class keeping its input order. Returns `(lt_len, eq_len)`.
pub fn partition3_in_place<T, F>(pool: &ThreadPool, data: &mut [T], classify: F) -> (usize, usize)
where
    T: Copy + Send + Sync + 'static,
    F: Fn(&T) -> CmpOrdering + Sync,
{
    let mut bounds = Vec::with_capacity(4);
    distribute_by_class(
        pool,
        data,
        3,
        &ScratchArena::new(),
        &mut bounds,
        |x| match classify(x) {
            CmpOrdering::Less => 0,
            CmpOrdering::Equal => 1,
            CmpOrdering::Greater => 2,
        },
    );
    (bounds[1], bounds[2] - bounds[1])
}

/// Parallel stable retain: keeps the elements satisfying `keep`, in input
/// order, and drops the rest — [`Vec::retain`] with the predicate evaluated
/// across the pool (exactly once per element).
pub fn retain_parallel<T, F>(pool: &ThreadPool, data: &mut Vec<T>, keep: F)
where
    T: Copy + Send + Sync + 'static,
    F: Fn(&T) -> bool + Sync,
{
    let mut bounds = Vec::with_capacity(3);
    distribute_by_class(pool, data, 2, &ScratchArena::new(), &mut bounds, |x| {
        usize::from(!keep(x))
    });
    data.truncate(bounds[1]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// [`distribute_by_class`] with a fresh arena, returning the bounds.
    fn distribute<T, F>(
        pool: &ThreadPool,
        data: &mut [T],
        nclasses: usize,
        class_of: F,
    ) -> Vec<usize>
    where
        T: Copy + Send + Sync + 'static,
        F: Fn(&T) -> usize + Sync,
    {
        let mut bounds = Vec::new();
        distribute_by_class(
            pool,
            data,
            nclasses,
            &ScratchArena::new(),
            &mut bounds,
            class_of,
        );
        bounds
    }

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
                        distribute(&pool, &mut v, nclasses, |&(x, _)| x as usize % nclasses);
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

    #[test]
    fn distribute_in_steady_state_reuses_arena() {
        let pool = ThreadPool::new(4);
        let arena = ScratchArena::new();
        let mut bounds = Vec::new();
        let v0 = pseudo_random(50_000);
        // Warm-up round grows the arena; later rounds must not.
        let mut v = v0.clone();
        distribute_by_class(&pool, &mut v, 16, &arena, &mut bounds, |&x| x as usize % 16);
        let footprint = arena.footprint_bytes();
        for round in 0..3 {
            let mut v = v0.clone();
            distribute_by_class(&pool, &mut v, 16, &arena, &mut bounds, |&x| x as usize % 16);
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
    fn chunk_counts_hand_each_chunk_its_part() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let arena = ScratchArena::new();
            for n in [0usize, 1, 4095, 4096, 60_000] {
                let keep = |i: usize| i.is_multiple_of(3);
                let counts =
                    ChunkCounts::count(&pool, &arena, n, |r| r.filter(|&i| keep(i)).count());
                let Some(counts) = counts else {
                    assert!(threads == 1 || n < PAR_THRESHOLD, "threads={threads} n={n}");
                    continue;
                };
                assert_eq!(counts.total(), (0..n).filter(|&i| keep(i)).count(), "n={n}");
                let seen = Mutex::new(vec![false; n]);
                let mut out = vec![0usize; counts.total()];
                counts.emit(
                    &pool,
                    split_by_lens(&mut out, counts.lens()),
                    |r, base, part| {
                        let mut seen = seen.lock();
                        let mut k = 0;
                        for i in r.filter(|&i| keep(i)) {
                            seen[i] = true;
                            part[k] = base + k;
                            k += 1;
                        }
                        k
                    },
                );
                assert!(
                    out.iter().enumerate().all(|(k, &x)| x == k),
                    "bases are the scan"
                );
                assert!(seen.lock().iter().enumerate().all(|(i, &v)| v == keep(i)));
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
            distribute(&pool, &mut v, 2, |&x| x as usize);
        }));
        assert!(r.is_err());
    }

    // Item closures whose second call per index (the emit pass) yields a
    // different count than the first (the count pass). Not gated on debug
    // assertions: the emitted-vs-counted check runs in every build.
    #[test]
    #[should_panic]
    fn compaction_whose_emit_yields_fewer_than_counted_panics() {
        let (pool, n) = (ThreadPool::new(4), 20_000);
        let calls = AtomicUsize::new(0);
        let first = move |i: usize| (calls.fetch_add(1, Ordering::Relaxed) < n).then_some(i);
        compact_map_into(&pool, &ScratchArena::new(), n, &mut Vec::new(), first);
    }

    #[test]
    #[should_panic]
    fn compaction_whose_emit_yields_more_than_counted_panics() {
        let (pool, n) = (ThreadPool::new(4), 20_000);
        let calls = AtomicUsize::new(0);
        let later = move |i: usize| (calls.fetch_add(1, Ordering::Relaxed) >= n).then_some(i);
        compact_map_into(&pool, &ScratchArena::new(), n, &mut Vec::new(), later);
    }
}

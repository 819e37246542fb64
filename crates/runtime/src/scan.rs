//! Exclusive prefix sums and the pack they drive.
//!
//! The counting distribution in [`crate::partition`] turns per-chunk class
//! counts into offsets with [`exclusive_scan_in_place`], and Boruvka
//! contraction packs surviving indices with [`pack_indices_in`]. Both are
//! classic scan applications; GBBS exposes the same primitives as
//! `pbbslib::scan` and `pbbslib::pack_index`.

use crate::parallel_for::ParallelForConfig;
use crate::pool::ThreadPool;

/// In-place sequential exclusive prefix sum. Returns the total.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and returns `8`.
pub fn exclusive_scan_in_place(values: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for v in values.iter_mut() {
        let next = acc + *v;
        *v = acc;
        acc = next;
    }
    acc
}

/// Parallel pack: writes into `out` (cleared and refilled in place) the
/// indices `i` in `0..n` where `keep(i)` is true, in index order, as `u32`.
/// A larger pool first writes every `keep(i)` into `flags`, the caller's
/// buffer: with `flags` and `out` pre-grown, the call performs no heap
/// allocations. Boruvka contraction uses it to extract the surviving
/// vertices or edges.
///
/// Unlike [`crate::partition::compact_map_into`], `keep` is evaluated
/// **exactly once per index** (a flags pass runs before the compaction),
/// so predicates with side effects — the Boruvka winner scan commits
/// union-find merges inside its predicate — are safe here.
pub fn pack_indices_in<F>(
    pool: &ThreadPool,
    n: usize,
    config: ParallelForConfig,
    flags: &mut Vec<bool>,
    out: &mut Vec<u32>,
    keep: F,
) where
    F: Fn(usize) -> bool + Sync,
{
    debug_assert!(n <= u32::MAX as usize, "indices are packed as u32");
    out.clear();
    if pool.threads() == 1 || n < crate::partition::PAR_THRESHOLD {
        for i in 0..n {
            if keep(i) {
                out.push(i as u32);
            }
        }
        return;
    }
    // Flags pass: the single point where `keep` runs.
    crate::parallel_map_into(pool, n, config, flags, keep);
    let flags: &[bool] = flags;
    crate::partition::compact_map_into(pool, n, out, |i| flags[i].then_some(i as u32));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_small() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = exclusive_scan_in_place(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn sequential_scan_empty() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(exclusive_scan_in_place(&mut v), 0);
    }

    #[test]
    fn pack_in_matches_pack_and_runs_predicate_once() {
        use std::sync::atomic::{AtomicUsize as Calls, Ordering};
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let (mut flags, mut out) = (Vec::new(), Vec::new());
            for n in [0usize, 5, 4095, 4096, 50_000] {
                let calls = Calls::new(0);
                let keep = |i: usize| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i.is_multiple_of(3) || i.is_multiple_of(7)
                };
                pack_indices_in(
                    &pool,
                    n,
                    ParallelForConfig::with_grain(128),
                    &mut flags,
                    &mut out,
                    keep,
                );
                let want: Vec<u32> = (0..n)
                    .filter(|&i| i.is_multiple_of(3) || i.is_multiple_of(7))
                    .map(|i| i as u32)
                    .collect();
                assert_eq!(*out, want, "threads={threads} n={n}");
                assert_eq!(calls.load(Ordering::Relaxed), n, "predicate not exactly-once");
            }
        }
    }

    #[test]
    fn pack_in_steady_state_keeps_its_buffers() {
        let pool = ThreadPool::new(4);
        let cfg = ParallelForConfig::default();
        let (mut flags, mut out) = (Vec::new(), Vec::new());
        pack_indices_in(&pool, 50_000, cfg, &mut flags, &mut out, |i| i % 2 == 0);
        let ptrs = (flags.as_ptr(), out.as_ptr());
        for _ in 0..3 {
            pack_indices_in(&pool, 50_000, cfg, &mut flags, &mut out, |i| i % 2 == 0);
            assert_eq!((flags.as_ptr(), out.as_ptr()), ptrs);
        }
        assert_eq!(out.len(), 25_000);
    }
}

//! Pool-aware reusable buffer arena: lease typed `Vec`s, return them on
//! drop, and reuse the backing storage across rounds.
//!
//! The Boruvka-family algorithms run `O(log n)` synchronous rounds, and the
//! natural implementation allocates fresh per-round vectors (best-edge
//! cells, parent arrays, renumber tables, packed survivor lists) every
//! round. Because live vertex/edge counts shrink monotonically, every one of
//! those buffers fits inside its round-1 incarnation — so after a warm-up
//! round the allocator has nothing left to contribute but latency. The
//! engineering literature on massively parallel MST (Sanders/Lamm/Schimek)
//! leans on exactly this observation: flat preallocated round state, zero
//! steady-state allocation.
//!
//! [`ScratchArena`] is the reuse mechanism: [`ScratchArena::lease`] hands
//! out an empty `Vec<T>` with at least the requested capacity, preferring a
//! previously returned buffer (best fit, so concurrently leased buffers of
//! the same element type do not steal each other's storage). The returned
//! [`ScratchVec`] guard derefs to the `Vec` and, on drop, clears it and
//! shelves the storage for the next lease. Buffers are shelved inside the
//! `Box` that carried them, so a steady-state lease/return cycle performs
//! **zero heap allocations** — the property `tests/zero_alloc.rs` pins down
//! with a counting global allocator.
//!
//! Parallel initialisation ([`ScratchArena::lease_filled`],
//! [`ScratchArena::lease_init_with`]) writes the buffer through the pool,
//! each chunk by one worker. High-water telemetry
//! ([`ScratchArena::high_water_bytes`]) reports the peak resident footprint
//! for run reports.

use crate::parallel_for::{parallel_for_chunks_mut, ParallelForConfig};
use crate::pool::ThreadPool;
use crate::sync::Mutex;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// A typed buffer pool. See the module docs for the reuse discipline.
pub struct ScratchArena {
    /// One shelf per `Vec<T>` type; each entry is a `Box<Vec<T>>` in
    /// disguise. Boxes are recycled whole, so shelving never allocates.
    shelves: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
    /// Current footprint: capacity bytes of every buffer, shelved or leased.
    footprint: AtomicU64,
    /// Peak of `footprint` over the arena's lifetime.
    high_water: AtomicU64,
    /// Leases served from a shelved buffer (no fresh allocation).
    reuses: AtomicU64,
}

impl Default for ScratchArena {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchArena {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena {
            shelves: Mutex::new(HashMap::new()),
            footprint: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Leases an empty `Vec<T>` with `capacity() >= capacity`.
    ///
    /// Best-fit: the smallest shelved buffer that already satisfies the
    /// request is reused as-is; if none is large enough the largest shelved
    /// buffer is grown (keeping the arena converging towards one buffer per
    /// concurrent lease instead of many undersized ones). Only that growth —
    /// or a completely empty shelf — touches the allocator.
    pub fn lease<T: Send + 'static>(&self, capacity: usize) -> ScratchVec<'_, T> {
        let reused: Option<Box<Vec<T>>> = {
            let mut shelves = self.shelves.lock();
            match shelves.get_mut(&TypeId::of::<Vec<T>>()) {
                Some(shelf) if !shelf.is_empty() => {
                    let cap_of = |b: &Box<dyn Any + Send>| {
                        b.downcast_ref::<Vec<T>>().expect("shelf type keyed by TypeId").capacity()
                    };
                    // Best fit, falling back to the largest buffer.
                    let mut best: Option<(usize, usize)> = None; // (index, cap)
                    let mut largest = (0usize, 0usize);
                    for (i, b) in shelf.iter().enumerate() {
                        let cap = cap_of(b);
                        if cap >= largest.1 {
                            largest = (i, cap);
                        }
                        if cap >= capacity && best.is_none_or(|(_, bc)| cap < bc) {
                            best = Some((i, cap));
                        }
                    }
                    let idx = best.map_or(largest.0, |(i, _)| i);
                    Some(
                        shelf
                            .swap_remove(idx)
                            .downcast::<Vec<T>>()
                            .expect("shelf type keyed by TypeId"),
                    )
                }
                _ => None,
            }
        };
        let mut boxed = match reused {
            Some(b) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => Box::new(Vec::new()),
        };
        let old_cap = boxed.capacity();
        if old_cap < capacity {
            boxed.reserve_exact(capacity - boxed.len());
            self.grow_footprint(bytes_of::<T>(boxed.capacity()) - bytes_of::<T>(old_cap));
        }
        debug_assert!(boxed.is_empty());
        ScratchVec {
            vec: ManuallyDrop::new(boxed),
            arena: self,
        }
    }

    /// Leases a buffer of `len` copies of `value`.
    pub fn lease_filled<T>(
        &self,
        pool: &ThreadPool,
        cfg: ParallelForConfig,
        len: usize,
        value: T,
    ) -> ScratchVec<'_, T>
    where
        T: Copy + Default + Send + Sync + 'static,
    {
        self.lease_init_with(pool, cfg, len, move |_| value)
    }

    /// Leases a buffer with `buf[i] = init(i)` for `i in 0..len`. A
    /// one-thread pool fills it in one sweep; a larger pool sizes it, then
    /// has each chunk written by one worker.
    pub fn lease_init_with<T, F>(
        &self,
        pool: &ThreadPool,
        cfg: ParallelForConfig,
        len: usize,
        init: F,
    ) -> ScratchVec<'_, T>
    where
        T: Copy + Default + Send + Sync + 'static,
        F: Fn(usize) -> T + Sync,
    {
        let mut sv = self.lease::<T>(len);
        if pool.threads() == 1 {
            sv.extend((0..len).map(init));
        } else {
            sv.resize(len, T::default());
            parallel_for_chunks_mut(pool, &mut sv, cfg, |start, part| {
                for (i, slot) in (start..).zip(part) {
                    *slot = init(i);
                }
            });
        }
        sv
    }

    /// Peak resident footprint (capacity bytes across shelved + leased
    /// buffers) over the arena's lifetime.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Current resident footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint.load(Ordering::Relaxed)
    }

    /// Leases served by recycling a shelved buffer.
    pub fn reuse_count(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Records the arena's high-water mark into telemetry (series
    /// `scratch-high-water-bytes`); callers invoke this once per run, not
    /// per round, so the hot path stays allocation-free.
    pub fn report_telemetry(&self) {
        crate::telemetry::record_value("scratch-high-water-bytes", self.high_water_bytes());
        crate::telemetry::record_value("scratch-reused-leases", self.reuse_count());
    }

    fn grow_footprint(&self, delta: u64) {
        let now = self.footprint.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    // The box is the point: a `Vec<T>` can only cross the `dyn Any` shelf
    // boundary behind a pointer, and keeping it boxed for its whole lease
    // makes the return a pointer move — no reallocation on `put_back`.
    #[allow(clippy::box_collection)]
    fn put_back<T: Send + 'static>(&self, boxed: Box<Vec<T>>) {
        let mut shelves = self.shelves.lock();
        shelves
            .entry(TypeId::of::<Vec<T>>())
            .or_default()
            .push(boxed as Box<dyn Any + Send>);
    }
}

#[inline]
fn bytes_of<T>(capacity: usize) -> u64 {
    (capacity * std::mem::size_of::<T>()) as u64
}

/// A leased buffer. Derefs to `Vec<T>`; on drop the contents are cleared
/// (running element drops, if any) and the storage returns to the arena.
pub struct ScratchVec<'a, T: Send + 'static> {
    // Boxed so the drop handler can reshelve the allocation as
    // `Box<dyn Any>` with a pointer move instead of a fresh `Box::new`.
    #[allow(clippy::box_collection)]
    vec: ManuallyDrop<Box<Vec<T>>>,
    arena: &'a ScratchArena,
}

impl<T: Send + 'static> Deref for ScratchVec<'_, T> {
    type Target = Vec<T>;
    #[inline]
    fn deref(&self) -> &Vec<T> {
        &self.vec
    }
}

impl<T: Send + 'static> DerefMut for ScratchVec<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.vec
    }
}

impl<T: Send + 'static> Drop for ScratchVec<'_, T> {
    fn drop(&mut self) {
        // SAFETY: `vec` is never touched again — the ManuallyDrop suppresses
        // the field's own drop and this is the only take.
        let mut boxed = unsafe { ManuallyDrop::take(&mut self.vec) };
        let before = boxed.capacity();
        boxed.clear();
        // `clear` keeps capacity, but guard against pathological element
        // drops shrinking it (not possible today; cheap to account for).
        if boxed.capacity() != before {
            let now = bytes_of::<T>(boxed.capacity());
            let was = bytes_of::<T>(before);
            self.arena.footprint.fetch_add(now.wrapping_sub(was), Ordering::Relaxed);
        }
        self.arena.put_back(boxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_round_trip_reuses_storage() {
        let arena = ScratchArena::new();
        let first_ptr;
        {
            let mut v = arena.lease::<u64>(1000);
            v.extend(0..1000u64);
            first_ptr = v.as_ptr();
            assert_eq!(v.len(), 1000);
        }
        // Returned cleared, same backing storage on re-lease.
        let v = arena.lease::<u64>(500);
        assert!(v.is_empty());
        assert!(v.capacity() >= 1000);
        assert_eq!(v.as_ptr(), first_ptr);
        assert_eq!(arena.reuse_count(), 1);
    }

    #[test]
    fn best_fit_keeps_distinct_buffers_apart() {
        let arena = ScratchArena::new();
        {
            let _big = arena.lease::<u64>(10_000);
            let _small = arena.lease::<u64>(64);
        }
        // Leasing small-then-big again must not force the big lease to grow
        // the small buffer.
        let before = arena.footprint_bytes();
        {
            let small = arena.lease::<u64>(64);
            let big = arena.lease::<u64>(10_000);
            assert!(small.capacity() < 10_000, "small lease stole the big buffer");
            assert!(big.capacity() >= 10_000);
        }
        assert_eq!(arena.footprint_bytes(), before, "steady-state leases grew the arena");
    }

    #[test]
    fn distinct_types_do_not_collide() {
        let arena = ScratchArena::new();
        {
            let mut a = arena.lease::<u32>(10);
            let mut b = arena.lease::<u64>(10);
            a.push(1u32);
            b.push(2u64);
        }
        let a = arena.lease::<u32>(1);
        assert!(a.is_empty());
    }

    #[test]
    fn lease_filled_writes_every_slot() {
        let arena = ScratchArena::new();
        let pool = ThreadPool::new(4);
        let cfg = ParallelForConfig::with_grain(64);
        let v = arena.lease_filled::<u64>(&pool, cfg, 10_000, 7);
        assert_eq!(v.len(), 10_000);
        assert!(v.iter().all(|&x| x == 7));
    }

    #[test]
    fn lease_init_with_indexes_correctly() {
        let arena = ScratchArena::new();
        let pool = ThreadPool::new(3);
        let cfg = ParallelForConfig::with_grain(100);
        let v = arena.lease_init_with::<u32, _>(&pool, cfg, 5000, |i| i as u32 * 2);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 * 2));
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let arena = ScratchArena::new();
        {
            let _a = arena.lease::<u64>(1 << 12);
        }
        let hw1 = arena.high_water_bytes();
        assert!(hw1 >= (1u64 << 12) * 8);
        {
            let _b = arena.lease::<u64>(16); // reuses the big buffer
        }
        assert_eq!(arena.high_water_bytes(), hw1);
        {
            let _c = arena.lease::<u64>(1 << 14);
        }
        assert!(arena.high_water_bytes() >= (1u64 << 14) * 8);
    }

    #[test]
    fn element_drops_run_on_return() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let arena = ScratchArena::new();
        {
            let mut v = arena.lease::<D>(4);
            v.push(D);
            v.push(D);
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }
}

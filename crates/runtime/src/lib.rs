//! # llp-runtime — parallel substrate for the LLP-MST reproduction
//!
//! The paper evaluates LLP-Prim on the Galois runtime and LLP-Boruvka on the
//! Graph Based Benchmark Suite (GBBS). Both frameworks contribute the same
//! ingredients: a pool of worker threads, chunked parallel loops, concurrent
//! insert-bags for frontiers, atomic priority/min writes and prefix sums.
//! This crate implements those ingredients from scratch so that the
//! algorithm crates exercise the same code paths as the paper's hosts.
//!
//! Components:
//!
//! * [`ThreadPool`] — a persistent SPMD pool: [`ThreadPool::broadcast`] runs
//!   one closure on every thread (the caller participates as thread 0).
//! * [`parallel_for()`](fn@parallel_for) / [`parallel_for_chunks`] — dynamically load-balanced
//!   parallel loops over index ranges.
//! * [`parallel_for_each`] — the one way to write a buffer in parallel:
//!   workers claim items — disjoint `&mut` parts cut by `chunks_mut`
//!   ([`parallel_for_chunks_mut`]) or [`split_by_lens`] — one at a time.
//!   No parallel write goes through a raw pointer.
//! * [`parallel_map_collect`] — parallel map into a preallocated vector.
//! * [`Bag`] — a per-thread insert bag (Galois `InsertBag` analogue) used to
//!   collect next-round frontiers without synchronization on the hot path.
//! * [`atomics`] — order-preserving float encodings, atomic fetch-min by
//!   key (GBBS `priority_write` analogue) and packed MWE words.
//! * [`scan`] — exclusive prefix sum and the exactly-once parallel pack.
//! * [`partition`] — scan-based counting distribution (stable parallel
//!   three-way partition and parallel retain: Filter-Kruskal's pivot
//!   partition and filter steps) and count–scan–emit compaction.
//! * [`sort`] — parallel sample sort (counting distribution into buckets)
//!   used by the Kruskal family.
//! * [`chaos`] — seeded schedule perturbation (randomized yields/delays at
//!   chunk claims, shuffled broadcast start order, adversarial grains)
//!   for concurrency testing.
//! * [`faults`] — seeded I/O fault injection (short reads/writes, transient
//!   errors, truncation, detectable corruption, ENOSPC) for robustness
//!   testing of the I/O and serving stack.
//!
//! Both are always compiled in and fire only while a seed is set
//! (`LLP_CHAOS_SEED` / `LLP_FAULT_SEED`, or their `set_seed`); with no seed
//! each hook is a relaxed atomic load and a branch.

pub mod atomics;
pub mod bag;
pub mod chaos;
pub mod faults;
pub mod parallel_for;
pub mod partition;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod scan;
pub mod scratch;
mod seed_gate;
pub mod sort;
pub mod sync;
pub mod telemetry;

pub use bag::Bag;
pub use parallel_for::{
    parallel_for, parallel_for_chunks, parallel_for_chunks_ctx, parallel_for_chunks_mut,
    parallel_for_each, split_by_lens, ParallelForConfig,
};
pub use pool::{ThreadPool, WorkerCtx};
pub use reduce::parallel_map_collect;
pub use scratch::{ScratchArena, ScratchVec};

/// Number of hardware threads available to this process.
///
/// Falls back to 1 when the platform cannot report parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Serializes tests (across crates) that set the process-global chaos or
/// fault seed. Dropping the guard puts both seeds back as it found them, so
/// a test that seeds chaos or faults does not switch off the seed a whole
/// run was started under (`LLP_CHAOS_SEED=N cargo test`).
#[doc(hidden)]
#[must_use]
pub fn test_serial_lock() -> TestSerial {
    static GATE: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    let lock = GATE
        .get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    TestSerial {
        chaos: chaos::seed_active(),
        faults: faults::seed_active(),
        _lock: lock,
    }
}

/// Guard returned by [`test_serial_lock`].
#[doc(hidden)]
pub struct TestSerial {
    chaos: Option<u64>,
    faults: Option<u64>,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl Drop for TestSerial {
    fn drop(&mut self) {
        chaos::set_seed(self.chaos);
        faults::set_seed(self.faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}

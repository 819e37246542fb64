//! Pins the flat-memory round engine's central claim: once the engine's
//! owned round buffers and double buffers are sized, contraction rounds
//! perform **zero heap allocations** — for the LLP-Boruvka engine
//! ([`llp_mst::contraction::Contraction`], whose round loop *is*
//! `llp_boruvka`'s drive loop), and for the GBBS-style baseline
//! ([`llp_mst::parallel_boruvka::boruvka_par_observed`]). The LLP engine's
//! CSR constructor runs round 1 and warms everything, so *every*
//! `round()` after it allocates nothing; the baseline warms in its round 1.
//!
//! Method: a counting global allocator tallies every `alloc`/`realloc`
//! across all threads; the tests snapshot the tally at exact round
//! boundaries and assert the per-round delta is zero. Telemetry is
//! disabled and no chaos seed is set, so the measured windows contain
//! only algorithm work (both subsystems are allocation-free when off; pool
//! broadcasts dispatch through a raw task pointer and never box).

use llp_mst::contraction::Contraction;
use llp_mst::parallel_boruvka::boruvka_par_observed;
use llp_mst::stats::AlgoStats;
use llp_runtime::{chaos, telemetry, ParallelForConfig, ThreadPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tally is process-global, so the tests in this binary must not
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A graph big enough for several contraction rounds at a parallel grain.
fn test_graph() -> llp_graph::CsrGraph {
    llp_graph::generators::erdos_renyi(3000, 20_000, 7)
}

#[test]
fn llp_contraction_rounds_are_allocation_free_after_the_csr_round() {
    let _serial = SERIAL.lock().unwrap();
    telemetry::set_enabled(false);
    chaos::set_seed(None);

    let g = test_graph();
    let pool = ThreadPool::new(4);
    let cfg = ParallelForConfig::with_grain(256);
    let mut stats = AlgoStats::default();
    let mut c = Contraction::from_csr(&g, &pool, cfg, &mut stats);

    let mut per_round = Vec::with_capacity(64);
    while !c.is_done() {
        let before = allocs();
        c.round(&pool, cfg, &mut stats);
        let after = allocs();
        per_round.push(after - before);
    }
    telemetry::set_enabled(true);

    assert!(
        per_round.len() >= 3,
        "graph too small to exercise steady state: {} rounds after the CSR round",
        per_round.len()
    );
    // The CSR constructor sizes the round buffers and the double buffer;
    // every round after it must run entirely out of reused storage.
    assert!(
        per_round.iter().all(|&d| d == 0),
        "steady-state rounds allocated: per-round counts {per_round:?}"
    );
}

#[test]
fn boruvka_par_rounds_are_allocation_free_after_warmup() {
    let _serial = SERIAL.lock().unwrap();
    telemetry::set_enabled(false);
    chaos::set_seed(None);

    let g = test_graph();
    let pool = ThreadPool::new(4);

    // `on_round(r)` fires at the top of round r plus once after the final
    // round, so consecutive snapshots bracket exactly one round. The vec
    // is pre-sized: the observer itself must not allocate mid-window.
    let mut at_boundary = Vec::with_capacity(64);
    let r = boruvka_par_observed(&g, &pool, |_| at_boundary.push(allocs()));
    telemetry::set_enabled(true);

    assert!(r.stats.rounds >= 3, "only {} rounds", r.stats.rounds);
    let per_round: Vec<u64> = at_boundary.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(per_round.len() as u64, r.stats.rounds);
    assert!(
        per_round[1..].iter().all(|&d| d == 0),
        "steady-state rounds allocated: per-round counts {per_round:?}"
    );
}

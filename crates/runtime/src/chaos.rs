//! Chaos scheduling: seeded, reproducible schedule perturbation.
//!
//! PR 1 fixed two release-mode races in `llp_prim_par` that only debug
//! asserts had been catching — evidence that schedule-dependent bugs in the
//! SPMD runtime can survive a test suite that only ever sees the "friendly"
//! schedules an idle machine produces. This module makes the runtime an
//! adversary: when active, it injects randomized yields and bounded spin
//! delays at every chunk-claim point of [`crate::parallel_for`], staggers
//! worker start order inside [`crate::ThreadPool::broadcast`] regions, and
//! sweeps adversarial grain sizes, so the same tests explore radically
//! different interleavings.
//!
//! # Gating
//!
//! The scheduler is always compiled in; the seed is its only gate.
//! Perturbation happens only when a seed is set — either the
//! `LLP_CHAOS_SEED` environment variable holds a `u64`, or a harness called
//! [`set_seed`]`(Some(seed))`. With no seed set, every entry point is a
//! relaxed atomic load and a branch.
//!
//! # Reproducibility
//!
//! Every perturbation decision is a pure function of `(seed, thread,
//! per-thread decision index, site)` via SplitMix64 finalization — no OS
//! entropy, no clocks. Re-running with the same seed replays the identical
//! perturbation *stream* per thread (the OS may still interleave threads
//! differently, but the injected delays, the broadcast stagger ranks and the
//! grain choices are bit-identical), which in practice makes chaos failures
//! highly repeatable. The first time a seed becomes active a panic hook is
//! installed that prints `LLP_CHAOS_SEED=<seed>` on any panic, so a failing
//! test always reports the seed needed to reproduce it.

use crate::seed_gate::{finalize, SeedGate};
use std::cell::Cell;

static GATE: SeedGate = SeedGate::new("LLP_CHAOS_SEED", "chaos scheduling");

thread_local! {
    /// Monotone per-thread decision index; makes each thread's
    /// perturbation stream deterministic in the seed.
    static DECISIONS: Cell<u64> = const { Cell::new(0) };
}

/// Perturbation sites, mixed into the decision hash so different call
/// sites draw from independent streams.
const SITE_CHUNK_CLAIM: u64 = 0x1;
const SITE_GRAIN: u64 = 0x2;

/// True when a chaos seed is active.
#[inline]
pub fn enabled() -> bool {
    GATE.enabled()
}

/// Activates (`Some(seed)`) or deactivates (`None`) chaos injection,
/// overriding the `LLP_CHAOS_SEED` environment gate. Harnesses call this
/// to sweep seeds within one process.
pub fn set_seed(seed: Option<u64>) {
    GATE.set(seed)
}

/// The active seed, or `None` when chaos is off.
pub fn seed_active() -> Option<u64> {
    GATE.active()
}

#[inline]
fn next_decision(tid: usize, site: u64) -> u64 {
    let idx = DECISIONS.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    finalize(
        GATE.seed() ^ finalize(tid as u64 ^ (site << 32)) ^ idx.wrapping_mul(0x9E3779B97F4A7C15),
    )
}

#[inline]
fn spin(iters: u64) {
    for _ in 0..iters {
        std::hint::spin_loop();
    }
}

// Each hook below is an inlined seed check in front of an out-of-line
// body, so a seedless build pays one load and a branch at the call site
// and the perturbation code does not bloat the hot loops it sits in.

/// Perturbation point at a `parallel_for` chunk claim: with the seed
/// active, roughly half the claims proceed untouched, a quarter yield to
/// the OS scheduler and a quarter spin for a bounded random time.
#[inline]
pub fn chunk_claim(tid: usize) {
    if enabled() {
        perturb_chunk_claim(tid);
    }
}

#[cold]
#[inline(never)]
fn perturb_chunk_claim(tid: usize) {
    let h = next_decision(tid, SITE_CHUNK_CLAIM);
    match h & 3 {
        0 | 1 => {}
        2 => std::thread::yield_now(),
        _ => spin((h >> 8) & 0x7FF), // up to 2047 spin-loop hints
    }
}

/// Staggers the start of an SPMD region: each participant of a
/// [`crate::ThreadPool::broadcast`] epoch is assigned a pseudo-random
/// rank and delays proportionally, so workers enter the region in a
/// seed-determined shuffled order instead of the pool's wake-up order.
#[inline]
pub fn region_start(tid: usize, nthreads: usize, epoch: u64) {
    if enabled() {
        stagger_region_start(tid, nthreads, epoch);
    }
}

#[cold]
#[inline(never)]
fn stagger_region_start(tid: usize, nthreads: usize, epoch: u64) {
    let h = finalize(GATE.seed() ^ epoch.wrapping_mul(0xA24BAED4963EE407))
        ^ finalize(tid as u64 ^ 0x9E6C63D0876A9A99);
    let rank = finalize(h) % (nthreads.max(1) as u64);
    spin(rank * 512);
    if finalize(h ^ rank) & 1 == 0 {
        std::thread::yield_now();
    }
}

/// Replaces a resolved grain with an adversarial one: tiny grains that
/// maximize cursor contention, lopsided grains, or a grain covering the
/// whole range (which serializes the loop). Returns `grain` untouched
/// when chaos is off.
#[inline]
pub fn perturb_grain(grain: usize, len: usize) -> usize {
    if enabled() {
        adversarial_grain(grain, len)
    } else {
        grain
    }
}

#[cold]
#[inline(never)]
fn adversarial_grain(grain: usize, len: usize) -> usize {
    let h = next_decision(0, SITE_GRAIN);
    match h % 6 {
        0 => 1,
        1 => 3,
        2 => (grain / 7).max(1),
        3 => (len / 2).max(1),
        4 => len.max(1),
        _ => grain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_gate_toggles() {
        let _g = crate::test_serial_lock();
        set_seed(Some(7));
        assert!(enabled());
        assert_eq!(seed_active(), Some(7));
        set_seed(None);
        assert!(!enabled());
        assert_eq!(seed_active(), None);
    }

    #[test]
    fn perturbed_grain_stays_positive_and_bounded() {
        let _g = crate::test_serial_lock();
        set_seed(Some(99));
        for len in [1usize, 10, 1000, 1 << 20] {
            for _ in 0..64 {
                let g = perturb_grain(128, len);
                assert!(g >= 1);
                assert!(g <= len.max(128), "grain {g} for len {len}");
            }
        }
    }

    #[test]
    fn disabled_grain_is_identity() {
        let _g = crate::test_serial_lock();
        set_seed(None);
        assert_eq!(perturb_grain(512, 1 << 20), 512);
    }

    #[test]
    fn perturbation_points_terminate() {
        let _g = crate::test_serial_lock();
        set_seed(Some(3));
        for tid in 0..4 {
            for _ in 0..256 {
                chunk_claim(tid);
            }
            region_start(tid, 4, 9);
        }
    }
}

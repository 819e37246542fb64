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
//! Chaos is double-gated:
//!
//! 1. **Compile-time**: the `chaos` cargo feature (off by default). Without
//!    it every entry point here is an empty inline no-op, so production and
//!    benchmark builds carry zero chaos code.
//! 2. **Runtime**: perturbation happens only when a seed is set — either the
//!    `LLP_CHAOS_SEED` environment variable holds a `u64`, or a harness
//!    called [`set_seed`]`(Some(seed))`. With the feature compiled in but no
//!    seed set, every call is a relaxed atomic load and a branch.
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

#[cfg(feature = "chaos")]
mod imp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
    use std::sync::Once;

    // 0 = read LLP_CHAOS_SEED on first use, 1 = off, 2 = on (seed in SEED).
    static STATE: AtomicU8 = AtomicU8::new(0);
    static SEED: AtomicU64 = AtomicU64::new(0);
    static PANIC_HOOK: Once = Once::new();

    thread_local! {
        /// Monotone per-thread decision index; makes each thread's
        /// perturbation stream deterministic in the seed.
        static DECISIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Perturbation sites, mixed into the decision hash so different call
    /// sites draw from independent streams.
    const SITE_CHUNK_CLAIM: u64 = 0x1;
    const SITE_GRAIN: u64 = 0x2;

    #[inline]
    fn finalize(mut z: u64) -> u64 {
        // SplitMix64 finalizer: full avalanche, so nearby inputs decorrelate.
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// True when chaos is compiled in and a seed is active.
    #[inline]
    pub fn enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            0 => init_from_env(),
            1 => false,
            _ => true,
        }
    }

    #[cold]
    fn init_from_env() -> bool {
        match std::env::var("LLP_CHAOS_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(seed) => {
                set_seed(Some(seed));
                true
            }
            None => {
                STATE.store(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Activates (`Some(seed)`) or deactivates (`None`) chaos injection,
    /// overriding the `LLP_CHAOS_SEED` environment gate. Harnesses call this
    /// to sweep seeds within one process.
    pub fn set_seed(seed: Option<u64>) {
        match seed {
            Some(s) => {
                SEED.store(s, Ordering::Relaxed);
                STATE.store(2, Ordering::Relaxed);
                PANIC_HOOK.call_once(|| {
                    let previous = std::panic::take_hook();
                    std::panic::set_hook(Box::new(move |info| {
                        if let Some(seed) = seed_active() {
                            eprintln!(
                                "note: chaos scheduling was active; reproduce with \
                                 LLP_CHAOS_SEED={seed}"
                            );
                        }
                        previous(info);
                    }));
                });
            }
            None => STATE.store(1, Ordering::Relaxed),
        }
    }

    /// The active seed, or `None` when chaos is off.
    pub fn seed_active() -> Option<u64> {
        if enabled() {
            Some(SEED.load(Ordering::Relaxed))
        } else {
            None
        }
    }

    #[inline]
    fn next_decision(tid: usize, site: u64) -> u64 {
        let idx = DECISIONS.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        finalize(
            SEED.load(Ordering::Relaxed)
                ^ finalize(tid as u64 ^ (site << 32))
                ^ idx.wrapping_mul(0x9E3779B97F4A7C15),
        )
    }

    #[inline]
    fn spin(iters: u64) {
        for _ in 0..iters {
            std::hint::spin_loop();
        }
    }

    /// Perturbation point at a `parallel_for` chunk claim: with the seed
    /// active, roughly half the claims proceed untouched, a quarter yield to
    /// the OS scheduler and a quarter spin for a bounded random time.
    #[inline]
    pub fn chunk_claim(tid: usize) {
        if !enabled() {
            return;
        }
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
        if !enabled() {
            return;
        }
        let h = finalize(SEED.load(Ordering::Relaxed) ^ epoch.wrapping_mul(0xA24BAED4963EE407))
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
        if !enabled() {
            return grain;
        }
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
}

#[cfg(not(feature = "chaos"))]
mod imp {
    /// Always `false`: chaos is compiled out.
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// No-op: chaos is compiled out.
    #[inline(always)]
    pub fn set_seed(_seed: Option<u64>) {}

    /// Always `None`: chaos is compiled out.
    #[inline(always)]
    pub fn seed_active() -> Option<u64> {
        None
    }

    /// No-op: chaos is compiled out.
    #[inline(always)]
    pub fn chunk_claim(_tid: usize) {}

    /// No-op: chaos is compiled out.
    #[inline(always)]
    pub fn region_start(_tid: usize, _nthreads: usize, _epoch: u64) {}

    /// Identity: chaos is compiled out.
    #[inline(always)]
    pub fn perturb_grain(grain: usize, _len: usize) -> usize {
        grain
    }
}

pub use imp::{chunk_claim, enabled, perturb_grain, region_start, seed_active, set_seed};

/// True when the `chaos` cargo feature is compiled in (regardless of
/// whether a seed is active). Harnesses use this to tell the user when
/// their chaos seeds are inert.
#[inline(always)]
pub const fn compiled_in() -> bool {
    cfg!(feature = "chaos")
}

/// Serializes tests that mutate the process-global seed state (the chaos
/// unit tests and the pool's chaos-seeded regression test share it).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    GATE.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(all(test, feature = "chaos"))]
mod tests {
    use super::*;

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        super::test_lock()
    }

    #[test]
    fn seed_gate_toggles() {
        let _g = serial();
        set_seed(Some(7));
        assert!(enabled());
        assert_eq!(seed_active(), Some(7));
        set_seed(None);
        assert!(!enabled());
        assert_eq!(seed_active(), None);
    }

    #[test]
    fn perturbed_grain_stays_positive_and_bounded() {
        let _g = serial();
        set_seed(Some(99));
        for len in [1usize, 10, 1000, 1 << 20] {
            for _ in 0..64 {
                let g = perturb_grain(128, len);
                assert!(g >= 1);
                assert!(g <= len.max(128), "grain {g} for len {len}");
            }
        }
        set_seed(None);
    }

    #[test]
    fn disabled_grain_is_identity() {
        let _g = serial();
        set_seed(None);
        assert_eq!(perturb_grain(512, 1 << 20), 512);
    }

    #[test]
    fn perturbation_points_terminate() {
        let _g = serial();
        set_seed(Some(3));
        for tid in 0..4 {
            for _ in 0..256 {
                chunk_claim(tid);
            }
            region_start(tid, 4, 9);
        }
        set_seed(None);
    }
}

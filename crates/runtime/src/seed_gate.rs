//! The seed gate shared by [`crate::chaos`] and [`crate::faults`]: an
//! optional `u64` seed, read once from an environment variable and
//! overridable by `set_seed`, plus the SplitMix64 finalizer both modules
//! hash their decisions with.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Once;

pub(crate) struct SeedGate {
    // 0 = read `env` on first use, 1 = off, 2 = on (seed in `seed`).
    state: AtomicU8,
    seed: AtomicU64,
    panic_hook: Once,
    /// Environment variable holding the seed, e.g. `LLP_CHAOS_SEED`.
    env: &'static str,
    /// What the seed switches on, for the panic note.
    what: &'static str,
}

impl SeedGate {
    pub(crate) const fn new(env: &'static str, what: &'static str) -> Self {
        SeedGate {
            state: AtomicU8::new(0),
            seed: AtomicU64::new(0),
            panic_hook: Once::new(),
            env,
            what,
        }
    }

    /// True when a seed is active.
    #[inline]
    pub(crate) fn enabled(&'static self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            0 => self.init_from_env(),
            1 => false,
            _ => true,
        }
    }

    #[cold]
    fn init_from_env(&'static self) -> bool {
        match std::env::var(self.env)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            Some(seed) => {
                self.set(Some(seed));
                true
            }
            None => {
                self.state.store(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Activates (`Some(seed)`) or deactivates (`None`) the gate, overriding
    /// the environment variable. The first activation installs a panic hook
    /// that prints the seed needed to reproduce the panic.
    pub(crate) fn set(&'static self, seed: Option<u64>) {
        match seed {
            Some(s) => {
                self.seed.store(s, Ordering::Relaxed);
                self.state.store(2, Ordering::Relaxed);
                self.panic_hook.call_once(|| {
                    let previous = std::panic::take_hook();
                    std::panic::set_hook(Box::new(move |info| {
                        if let Some(seed) = self.active() {
                            eprintln!(
                                "note: {} was active; reproduce with {}={seed}",
                                self.what, self.env
                            );
                        }
                        previous(info);
                    }));
                });
            }
            None => self.state.store(1, Ordering::Relaxed),
        }
    }

    /// The active seed, or `None` when the gate is off.
    pub(crate) fn active(&'static self) -> Option<u64> {
        if self.enabled() {
            Some(self.seed())
        } else {
            None
        }
    }

    /// The last seed set; meaningful only while [`Self::enabled`].
    #[inline]
    pub(crate) fn seed(&self) -> u64 {
        self.seed.load(Ordering::Relaxed)
    }
}

#[inline]
pub(crate) fn finalize(mut z: u64) -> u64 {
    // SplitMix64 finalizer: full avalanche, so nearby inputs decorrelate.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

//! The seed gate shared by [`crate::chaos`] and [`crate::faults`]: an
//! optional `u64` seed, read once from an environment variable and
//! overridable by `set_seed`, plus the SplitMix64 finalizer both modules
//! hash their decisions with.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Once;

pub(crate) struct SeedGate {
    // 0 = read `env` on first use, 1 = off, 2 = on (seed in `seed`).
    // Written only under `writer`, seed first, state last with `Release`.
    state: AtomicU8,
    seed: AtomicU64,
    /// Serialises the writers: `set` and the first read of `env`.
    writer: Mutex<()>,
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
            writer: Mutex::new(()),
            panic_hook: Once::new(),
            env,
            what,
        }
    }

    /// True when a seed is active.
    #[inline]
    pub(crate) fn enabled(&'static self) -> bool {
        match self.state.load(Ordering::Acquire) {
            0 => self.init_from_env(),
            1 => false,
            _ => true,
        }
    }

    #[cold]
    fn init_from_env(&'static self) -> bool {
        let seed = std::env::var(self.env)
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        let on = {
            let _writer = self.writer.lock();
            // A `set` that ran while the variable was read wins.
            if self.state.load(Ordering::Relaxed) == 0 {
                self.store(seed);
            }
            self.state.load(Ordering::Relaxed) == 2
        };
        if on {
            self.install_panic_hook();
        }
        on
    }

    /// Activates (`Some(seed)`) or deactivates (`None`) the gate, overriding
    /// the environment variable. The first activation installs a panic hook
    /// that prints the seed needed to reproduce the panic.
    pub(crate) fn set(&'static self, seed: Option<u64>) {
        let writer = self.writer.lock();
        self.store(seed);
        drop(writer);
        if seed.is_some() {
            self.install_panic_hook();
        }
    }

    /// Stores `seed` and then the state flag; the caller holds `writer`.
    fn store(&self, seed: Option<u64>) {
        match seed {
            Some(s) => {
                self.seed.store(s, Ordering::Relaxed);
                self.state.store(2, Ordering::Release);
            }
            None => self.state.store(1, Ordering::Release),
        }
    }

    /// Installs the seed-printing panic hook once. Never called with
    /// `writer` held: a panicking thread runs the hooks under std's hook
    /// lock, and its hook may take `writer` (a gate's first `enabled`).
    fn install_panic_hook(&'static self) {
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

//! Seeded I/O fault injection: reproducible short reads, transient errors,
//! truncation, corruption and disk-full failures at stream boundaries.
//!
//! The chaos scheduler ([`crate::chaos`]) made the *scheduler* an adversary;
//! this module does the same for the *I/O boundary*. When active, every
//! [`Faulty`]-wrapped reader or writer deterministically injects faults drawn
//! from a per-wrapper class mask:
//!
//! - **short** reads/writes (deliver only part of the buffer — legal per the
//!   `Read`/`Write` contracts, but exercises every retry loop),
//! - **transient** errors (`ErrorKind::Interrupted`, `ErrorKind::WouldBlock`),
//! - **sticky truncation** (premature EOF on reads, `BrokenPipe` on writes —
//!   a dead peer or a torn file),
//! - **corruption** (the delivered bytes are overwritten with `0xFF`), and
//! - **disk-full** write failures (`ErrorKind::StorageFull`).
//!
//! # Gating
//!
//! Like [`crate::chaos`], the injector is always compiled in and the seed
//! is its only gate. Injection happens only when a seed is set — either the
//! `LLP_FAULT_SEED` environment variable holds a `u64`, or a harness called
//! [`set_seed`]`(Some(seed))`. With no seed set, a wrapped stream costs a
//! relaxed atomic load and a branch per operation.
//!
//! # Reproducibility
//!
//! Every decision is a pure function of `(seed, site, per-wrapper op index)`
//! via SplitMix64 finalization — no OS entropy, no clocks. The first time a
//! seed becomes active a panic hook is installed that prints
//! `LLP_FAULT_SEED=<seed>` on any panic.
//!
//! # Why corruption is `0xFF` fill, not bit flips
//!
//! The fault matrix asserts the stack *never returns a wrong answer* — every
//! faulted run must end in either the certified-correct MSF or a classified
//! error. An arbitrary bit flip in an edge weight would produce a different
//! *valid* weight and a silently different (wrong) MSF, which no validator
//! can catch without an oracle. Filling the delivered prefix with `0xFF`
//! instead guarantees the corruption is *detectable* by the existing binary
//! validators: a `0xFF`-filled endpoint decodes to `u32::MAX` (out of range
//! for any graph with fewer than 2^32 vertices), a `0xFF`-filled weight
//! decodes to NaN (rejected as non-finite), and a `0xFF`-filled header field
//! breaks the magic or inflates `n`/`m` past the allocation caps. Corruption
//! is therefore only enabled on *file* read paths (which are fully
//! validated), never on sockets — wire-level corruption is exercised
//! separately by the protocol framing fuzz tests, which own the
//! decode-rejects-garbage guarantee.

use crate::seed_gate::{finalize, SeedGate};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Short read/write: deliver only part of the caller's buffer.
pub const SHORT: u32 = 1 << 0;
/// Transient `ErrorKind::Interrupted` (retried by `read_exact`/`write_all`).
pub const INTERRUPT: u32 = 1 << 1;
/// Transient `ErrorKind::WouldBlock` (what a timed-out socket read returns).
pub const WOULD_BLOCK: u32 = 1 << 2;
/// Sticky mid-stream truncation: EOF on reads, `BrokenPipe` on writes.
pub const TRUNCATE: u32 = 1 << 3;
/// Overwrite the delivered read prefix with `0xFF` (detectably invalid).
pub const CORRUPT: u32 = 1 << 4;
/// `ErrorKind::StorageFull` on write — an ENOSPC-style hard failure.
pub const ENOSPC: u32 = 1 << 5;

/// Fault classes for validated binary *file* readers.
pub const FILE_READ: u32 = SHORT | INTERRUPT | TRUNCATE | CORRUPT;
/// Fault classes for binary file writers.
pub const FILE_WRITE: u32 = SHORT | INTERRUPT | TRUNCATE | ENOSPC;
/// Fault classes for socket read halves (no corruption: see module docs).
pub const SOCK_READ: u32 = SHORT | INTERRUPT | WOULD_BLOCK | TRUNCATE;
/// Fault classes for socket write halves (no corruption: see module docs).
pub const SOCK_WRITE: u32 = SHORT | INTERRUPT | WOULD_BLOCK | TRUNCATE;

static GATE: SeedGate = SeedGate::new("LLP_FAULT_SEED", "fault injection");
/// Monotone per-process connection index: drives [`connection_classes`].
static CONNS: AtomicU64 = AtomicU64::new(0);

/// True when a fault seed is active.
#[inline]
pub fn enabled() -> bool {
    GATE.enabled()
}

/// Activates (`Some(seed)`) or deactivates (`None`) fault injection,
/// overriding the `LLP_FAULT_SEED` environment gate. Harnesses call this
/// to sweep seeds within one process.
pub fn set_seed(seed: Option<u64>) {
    GATE.set(seed)
}

/// The active seed, or `None` when fault injection is off.
pub fn seed_active() -> Option<u64> {
    GATE.active()
}

/// Per-connection fault gate: returns `classes` for roughly one in five
/// calls (seed-determined), `0` for the rest, so a server under a fault
/// sweep serves a mix of clean and faulty connections. Deterministic in
/// `(seed, call index)`; returns `0` whenever injection is inactive.
pub fn connection_classes(classes: u32) -> u32 {
    if !enabled() {
        return 0;
    }
    let idx = CONNS.fetch_add(1, Ordering::Relaxed);
    let h = finalize(GATE.seed() ^ idx.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xC0FF);
    if h.is_multiple_of(5) {
        classes
    } else {
        0
    }
}

/// Hashes a site name into the decision stream, so distinct wrap points
/// (e.g. the sharded reader vs. a serve socket) draw independent faults
/// under the same seed.
pub fn site_hash(site: &str) -> u64 {
    // FNV-1a: stable across runs and platforms, no allocation.
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// A fault-injecting wrapper over any `Read`/`Write`/`Seek` stream.
///
/// With no seed active, every operation delegates straight to the inner
/// stream. With a seed active, roughly one in [`FAULT_PERIOD`] operations
/// injects a fault drawn from the wrapper's class mask (see the module
/// consts).
#[derive(Debug)]
pub struct Faulty<T> {
    inner: T,
    site: u64,
    classes: u32,
    op: u64,
    truncated: bool,
}

/// One operation in [`FAULT_PERIOD`] faults (when a seed is active).
pub const FAULT_PERIOD: u64 = 8;

impl<T> Faulty<T> {
    /// Wraps `inner`. `site` names the wrap point (mixed into the decision
    /// stream); `classes` is an OR of the fault-class consts and bounds what
    /// this wrapper may inject. `classes == 0` never faults.
    pub fn new(inner: T, site: &str, classes: u32) -> Self {
        Faulty {
            inner,
            site: site_hash(site),
            classes,
            op: 0,
            truncated: false,
        }
    }

    /// Consumes the wrapper, returning the inner stream.
    pub fn into_inner(self) -> T {
        self.inner
    }

    /// A shared reference to the inner stream.
    pub fn get_ref(&self) -> &T {
        &self.inner
    }

    /// A mutable reference to the inner stream (bypasses injection).
    pub fn get_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    /// Draws the next decision: `Some(class_bit | entropy)` when this
    /// operation should fault, `None` to pass through. Returns `None`
    /// without advancing the op counter when no seed is active or no
    /// allowed class is left; otherwise advances it on every draw, faulted
    /// or not, so retries after a transient error land on a fresh decision
    /// and eventually make progress.
    #[inline]
    fn decide(&mut self, allowed: u32) -> Option<u64> {
        if !enabled() {
            return None;
        }
        self.draw(allowed)
    }

    /// The seeded half of [`Self::decide`], out of line so a seedless
    /// stream pays only the inlined gate.
    #[cold]
    #[inline(never)]
    fn draw(&mut self, allowed: u32) -> Option<u64> {
        let mask = self.classes & allowed;
        if mask == 0 {
            return None;
        }
        // Per-(seed, site) class subsetting: each seed activates a random
        // subset of this wrapper's classes (falling back to the transient
        // classes, then the full mask, when the draw is empty). Seeds whose
        // subset is transient-only must complete through the retry paths —
        // the sweep proves fault *handling*, not just error classification.
        let subset = finalize(GATE.seed() ^ finalize(self.site ^ 0x5EED_C1A55)) as u32;
        let mask = match mask & subset {
            0 => match mask & (SHORT | INTERRUPT) {
                0 => mask,
                transient => transient,
            },
            picked => picked,
        };
        let op = self.op;
        self.op += 1;
        let h = finalize(GATE.seed() ^ finalize(self.site) ^ op.wrapping_mul(0x9E3779B97F4A7C15));
        if !h.is_multiple_of(FAULT_PERIOD) {
            return None;
        }
        // Pick uniformly among the set bits of the mask.
        let nbits = mask.count_ones();
        let pick = ((h >> 8) % nbits as u64) as u32;
        let mut seen = 0;
        for bit in 0..u32::BITS {
            let b = 1 << bit;
            if mask & b != 0 {
                if seen == pick {
                    return Some(b as u64 | (h & !0xFFFF_FFFF));
                }
                seen += 1;
            }
        }
        unreachable!("mask had {nbits} bits but none matched pick {pick}")
    }
}

impl<T: Read> Read for Faulty<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.truncated {
            return Ok(0); // sticky: a torn file stays torn
        }
        match self.decide(SHORT | INTERRUPT | WOULD_BLOCK | TRUNCATE | CORRUPT) {
            Some(d) if d as u32 & SHORT != 0 && buf.len() > 1 => {
                let k = (buf.len() / 2).max(1);
                self.inner.read(&mut buf[..k])
            }
            Some(d) if d as u32 & INTERRUPT != 0 => {
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"))
            }
            Some(d) if d as u32 & WOULD_BLOCK != 0 => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected EWOULDBLOCK",
            )),
            Some(d) if d as u32 & TRUNCATE != 0 => {
                self.truncated = true;
                Ok(0)
            }
            Some(d) if d as u32 & CORRUPT != 0 => {
                let n = self.inner.read(buf)?;
                // Detectably-invalid fill; see module docs for why not flips.
                let k = n.min(12);
                buf[..k].fill(0xFF);
                Ok(n)
            }
            _ => self.inner.read(buf),
        }
    }
}

impl<T: Write> Write for Faulty<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.truncated {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected broken pipe (sticky)",
            ));
        }
        match self.decide(SHORT | INTERRUPT | WOULD_BLOCK | TRUNCATE | ENOSPC) {
            Some(d) if d as u32 & SHORT != 0 && buf.len() > 1 => {
                self.inner.write(&buf[..(buf.len() / 2).max(1)])
            }
            Some(d) if d as u32 & INTERRUPT != 0 => {
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"))
            }
            Some(d) if d as u32 & WOULD_BLOCK != 0 => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "injected EWOULDBLOCK",
            )),
            Some(d) if d as u32 & TRUNCATE != 0 => {
                self.truncated = true;
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected broken pipe",
                ))
            }
            Some(d) if d as u32 & ENOSPC != 0 => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            )),
            _ => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.truncated {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected broken pipe (sticky)",
            ));
        }
        self.inner.flush()
    }
}

impl<T: Seek> Seek for Faulty<T> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

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
    fn inactive_wrapper_is_transparent() {
        let _g = crate::test_serial_lock();
        set_seed(None);
        let data: Vec<u8> = (0..255).collect();
        let mut r = Faulty::new(Cursor::new(data.clone()), "test", FILE_READ);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn zero_classes_never_fault() {
        let _g = crate::test_serial_lock();
        set_seed(Some(42));
        let data: Vec<u8> = (0..255).collect();
        let mut r = Faulty::new(Cursor::new(data.clone()), "test", 0);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn faults_are_deterministic_in_seed() {
        let _g = crate::test_serial_lock();
        let run = |seed| {
            set_seed(Some(seed));
            let data = vec![0u8; 4096];
            let mut r = Faulty::new(Cursor::new(data), "det", FILE_READ);
            let mut log = Vec::new();
            let mut buf = [0u8; 64];
            for _ in 0..128 {
                match r.read(&mut buf) {
                    Ok(n) => log.push(format!("ok{n}:{}", buf[0])),
                    Err(e) => log.push(format!("err:{:?}", e.kind())),
                }
            }
            log
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds should differ");
    }

    #[test]
    fn truncation_is_sticky() {
        let _g = crate::test_serial_lock();
        // Sweep seeds until one truncates, then assert EOF persists.
        for seed in 1..64 {
            set_seed(Some(seed));
            let data = vec![7u8; 1 << 16];
            let mut r = Faulty::new(Cursor::new(data), "sticky", TRUNCATE);
            let mut buf = [0u8; 64];
            for _ in 0..256 {
                if r.read(&mut buf).unwrap() == 0 {
                    for _ in 0..8 {
                        assert_eq!(r.read(&mut buf).unwrap(), 0, "EOF must be sticky");
                    }
                    return;
                }
            }
        }
        panic!("no seed in 1..64 triggered truncation");
    }

    #[test]
    fn corrupt_fill_is_ff() {
        let _g = crate::test_serial_lock();
        for seed in 1..64 {
            set_seed(Some(seed));
            let data = vec![0u8; 1 << 16];
            let mut r = Faulty::new(Cursor::new(data), "corrupt", CORRUPT);
            let mut buf = [0u8; 16];
            for _ in 0..256 {
                let n = r.read(&mut buf).unwrap();
                if n > 0 && buf[0] == 0xFF {
                    assert!(buf[..n.min(12)].iter().all(|&b| b == 0xFF));
                    return;
                }
            }
        }
        panic!("no seed in 1..64 triggered corruption");
    }

    #[test]
    fn read_exact_survives_transients_and_short_reads() {
        let _g = crate::test_serial_lock();
        set_seed(Some(11));
        let data: Vec<u8> = (0..=255u8).cycle().take(1 << 14).collect();
        let mut r = Faulty::new(Cursor::new(data.clone()), "exact", SHORT | INTERRUPT);
        let mut out = vec![0u8; data.len()];
        // read_exact retries Interrupted and loops short reads internally:
        // with only transient classes the payload must come through intact.
        r.read_exact(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn write_all_hits_enospc_eventually() {
        let _g = crate::test_serial_lock();
        for seed in 1..64 {
            set_seed(Some(seed));
            let mut w = Faulty::new(Vec::new(), "wfull", ENOSPC);
            let chunk = [9u8; 128];
            for _ in 0..256 {
                if let Err(e) = w.write_all(&chunk) {
                    assert_eq!(e.kind(), io::ErrorKind::StorageFull);
                    return;
                }
            }
        }
        panic!("no seed in 1..64 triggered ENOSPC");
    }

    #[test]
    fn connection_gate_mixes_clean_and_faulty() {
        let _g = crate::test_serial_lock();
        set_seed(Some(5));
        let mut faulty = 0;
        for _ in 0..200 {
            if connection_classes(SOCK_READ) != 0 {
                faulty += 1;
            }
        }
        // ~1 in 5; loose bounds, the stream is deterministic but shared.
        assert!(faulty > 0, "some connections must fault");
        assert!(faulty < 150, "most connections must stay clean");
    }
}

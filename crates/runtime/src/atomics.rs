//! Atomic utilities for priority writes.
//!
//! The MST algorithms need atomic min-by-key writes, which the standard
//! library does not provide directly: LLP-Prim's relaxation writes the
//! *index* of the best incoming arc per vertex ([`AtomicIndexMin`]), and the
//! Boruvka family's minimum-weight-edge selection writes a packed
//! weight/index word per component ([`mwe_propose`]). GBBS calls this a
//! `priority_write`.
//!
//! Both are built on compare-exchange loops over `AtomicU64`, keyed through
//! an order-preserving bijection between `f64` and `u64`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Order-preserving encoding of an `f64` into a `u64`.
///
/// For any finite floats `a <= b`, `f64_to_ordered(a) <= f64_to_ordered(b)`.
/// Non-negative floats map monotonically via their IEEE-754 bits; negative
/// floats have all bits flipped so they sort below the positives.
#[inline]
pub fn f64_to_ordered(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits & (1 << 63) == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`f64_to_ordered`].
#[inline]
pub fn ordered_to_f64(bits: u64) -> f64 {
    if bits & (1 << 63) != 0 {
        f64::from_bits(bits & !(1 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

/// Sentinel meaning "no index written yet" in [`AtomicIndexMin`].
pub const NO_INDEX: u64 = u64::MAX;

/// Atomic "argmin" cell: stores the index whose key is smallest so far.
///
/// This is the GBBS `priority_write` idiom: concurrent writers propose
/// indices, the cell keeps whichever index has the smallest key under the
/// caller-supplied key function. The key function must be pure for the
/// duration of the operation (in MST use it reads immutable edge weights).
pub struct AtomicIndexMin {
    idx: AtomicU64,
}

impl Default for AtomicIndexMin {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicIndexMin {
    /// Creates an empty cell ([`NO_INDEX`]).
    #[inline]
    pub fn new() -> Self {
        AtomicIndexMin {
            idx: AtomicU64::new(NO_INDEX),
        }
    }

    /// Loads the current winning index, or [`NO_INDEX`] if none.
    #[inline]
    pub fn load(&self, order: Ordering) -> u64 {
        self.idx.load(order)
    }

    /// Proposes `candidate`; keeps whichever of {current, candidate} has the
    /// smaller `key`. Returns `true` if `candidate` won.
    ///
    /// Ties must be impossible (the MST crates compare by a strict total
    /// order over edges); equal keys keep the incumbent.
    pub fn propose_min_by<K, F>(&self, candidate: u64, key: F) -> bool
    where
        K: Ord,
        F: Fn(u64) -> K,
    {
        debug_assert_ne!(candidate, NO_INDEX, "NO_INDEX is reserved");
        let cand_key = key(candidate);
        let mut cur = self.idx.load(Ordering::Relaxed);
        loop {
            if cur != NO_INDEX && key(cur) <= cand_key {
                return false;
            }
            match self.idx.compare_exchange_weak(
                cur,
                candidate,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl std::fmt::Debug for AtomicIndexMin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.load(Ordering::Relaxed);
        if v == NO_INDEX {
            write!(f, "AtomicIndexMin(empty)")
        } else {
            write!(f, "AtomicIndexMin({v})")
        }
    }
}

// ---------------------------------------------------------------------------
// Packed MWE (minimum-weight-edge) words.
//
// The Boruvka family's per-component argmin cell used to be an
// [`AtomicIndexMin`] whose key function chased `edge index -> EdgeKey`
// through two extra cache lines on every propose. The packed protocol folds
// the discriminating 32 bits of the weight into the atomic word itself:
//
//     word = (weight_hi32 << 32) | edge_index
//
// where `weight_hi32` is the high half of the order-preserving `u64` float
// encoding. Because that encoding is monotone, `a.whi < b.whi` implies
// weight(a) < weight(b), so almost every propose resolves with one atomic
// load and an integer compare. Only a tie in the high 32 bits (equal raw
// weights, or weights closer than 2^-20 relative) falls back to the exact
// `EdgeKey` comparison — preserving the strict total edge order every
// algorithm's canonical-MSF cross-check depends on.

/// Empty packed MWE cell. Distinct from every real candidate word: a
/// non-NaN weight encodes to `whi <= 0xFFF0_0000` (`+inf`), so a real word's
/// high half can never be `u32::MAX`.
pub const MWE_EMPTY: u64 = u64::MAX;

/// High 32 bits of the order-preserving encoding of `w` — the packed word's
/// weight discriminant. Monotone: `a <= b` implies
/// `weight_hi32(a) <= weight_hi32(b)` for non-NaN floats.
#[inline]
pub fn weight_hi32(w: f64) -> u32 {
    (f64_to_ordered(w) >> 32) as u32
}

/// Packs a weight discriminant and an edge index into one MWE word.
#[inline]
pub fn mwe_pack(whi: u32, idx: u32) -> u64 {
    ((whi as u64) << 32) | idx as u64
}

/// Edge index half of a packed MWE word.
#[inline]
pub fn mwe_idx(word: u64) -> u32 {
    word as u32
}

/// Weight-discriminant half of a packed MWE word.
#[inline]
pub fn mwe_whi(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Proposes edge `idx` with weight discriminant `whi` to a packed MWE cell.
///
/// Keeps whichever edge is smaller under the exact total order: the high-bit
/// fast path decides strictly different discriminants without touching edge
/// data; a discriminant tie is broken by `exact_key(edge index)` (the full
/// `EdgeKey`). Equal exact keys keep the incumbent, so re-proposing the
/// current winner returns `false`. Returns `true` when `idx` won the cell.
pub fn mwe_propose<K, F>(cell: &AtomicU64, whi: u32, idx: u32, exact_key: F) -> bool
where
    K: Ord,
    F: Fn(u32) -> K,
{
    let cand = mwe_pack(whi, idx);
    debug_assert_ne!(cand, MWE_EMPTY, "real candidates cannot collide with MWE_EMPTY");
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if cur != MWE_EMPTY {
            let cur_whi = mwe_whi(cur);
            if cur_whi < whi {
                return false;
            }
            if cur_whi == whi {
                let cur_idx = mwe_idx(cur);
                if cur_idx == idx || exact_key(cur_idx) <= exact_key(idx) {
                    return false;
                }
            }
        }
        match cell.compare_exchange_weak(cur, cand, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(actual) => cur = actual,
        }
    }
}

/// Views a mutable `u32` slice as atomics.
///
/// The exclusive borrow guarantees no other non-atomic access for the
/// returned lifetime, and `AtomicU32` has the same size and alignment as
/// `u32`, so the cast is sound. It lets `llp_core::solve_parallel` advance
/// a caller's plain `&mut [u32]` lattice state with relaxed atomics.
#[inline]
pub fn as_atomic_u32(slice: &mut [u32]) -> &[std::sync::atomic::AtomicU32] {
    // SAFETY: AtomicU32 has the same size and alignment as u32 (per std
    // docs for AtomicU32::from_mut_slice), and the &mut borrow excludes
    // all other access during the shared lifetime.
    unsafe { &*(slice as *mut [u32] as *const [std::sync::atomic::AtomicU32]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn ordered_encoding_is_monotone() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-300,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(
                f64_to_ordered(w[0]) <= f64_to_ordered(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn ordered_encoding_round_trips() {
        for x in [-123.456, -0.0, 0.0, 1.0, 6.02e23, f64::INFINITY] {
            let y = ordered_to_f64(f64_to_ordered(x));
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn index_min_keeps_smallest_key() {
        let keys = [9u64, 3, 7, 1, 5];
        let cell = AtomicIndexMin::new();
        for i in 0..keys.len() as u64 {
            cell.propose_min_by(i, |j| keys[j as usize]);
        }
        assert_eq!(cell.load(Ordering::Relaxed), 3); // index of key 1
    }

    #[test]
    fn index_min_concurrent() {
        let pool = ThreadPool::new(4);
        let n = 100_000u64;
        let cell = AtomicIndexMin::new();
        crate::parallel_for(
            &pool,
            0..n as usize,
            crate::ParallelForConfig::with_grain(512),
            |i| {
                let i = i as u64;
                // key descends with i, so the max index wins
                cell.propose_min_by(i, |j| n - j);
            },
        );
        assert_eq!(cell.load(Ordering::Relaxed), n - 1);
    }

    #[test]
    fn weight_hi32_is_monotone_and_below_empty() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            0.0,
            1e-300,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(weight_hi32(w[0]) <= weight_hi32(w[1]), "{} vs {}", w[0], w[1]);
        }
        // Even +inf leaves headroom below u32::MAX, so a real candidate
        // never packs to MWE_EMPTY.
        assert!(weight_hi32(f64::INFINITY) < u32::MAX);
        assert_ne!(mwe_pack(weight_hi32(f64::INFINITY), u32::MAX), MWE_EMPTY);
    }

    #[test]
    fn mwe_pack_round_trips() {
        for (whi, idx) in [(0u32, 0u32), (7, 42), (u32::MAX - 1, u32::MAX), (0x8000_0000, 1)] {
            let w = mwe_pack(whi, idx);
            assert_eq!(mwe_whi(w), whi);
            assert_eq!(mwe_idx(w), idx);
        }
    }

    #[test]
    fn mwe_propose_keeps_smallest_weight() {
        let weights = [9.0f64, 3.0, 7.0, 1.0, 5.0];
        let cell = AtomicU64::new(MWE_EMPTY);
        for (i, &w) in weights.iter().enumerate() {
            mwe_propose(&cell, weight_hi32(w), i as u32, |j| {
                f64_to_ordered(weights[j as usize])
            });
        }
        assert_eq!(mwe_idx(cell.load(Ordering::Relaxed)), 3); // index of 1.0
    }

    #[test]
    fn mwe_propose_breaks_hi32_ties_by_exact_key() {
        // Same raw weight -> identical whi; exact key (here: the index as a
        // stand-in for EdgeKey's endpoint tie-break) must decide.
        let whi = weight_hi32(2.5);
        let cell = AtomicU64::new(MWE_EMPTY);
        assert!(mwe_propose(&cell, whi, 9, |j| j));
        assert!(!mwe_propose(&cell, whi, 9, |j| j), "re-propose of winner must lose");
        assert!(mwe_propose(&cell, whi, 4, |j| j));
        assert!(!mwe_propose(&cell, whi, 7, |j| j));
        assert_eq!(mwe_idx(cell.load(Ordering::Relaxed)), 4);
    }

    #[test]
    fn mwe_propose_concurrent_converges() {
        let pool = ThreadPool::new(4);
        let n = 100_000usize;
        let cell = AtomicU64::new(MWE_EMPTY);
        let weight = |i: usize| 1.0 + ((i * 2654435761) % 997) as f64;
        crate::parallel_for(
            &pool,
            0..n,
            crate::ParallelForConfig::with_grain(512),
            |i| {
                mwe_propose(&cell, weight_hi32(weight(i)), i as u32, |j| {
                    (f64_to_ordered(weight(j as usize)), j)
                });
            },
        );
        let best = (0..n)
            .map(|i| (f64_to_ordered(weight(i)), i as u32))
            .min()
            .unwrap();
        assert_eq!(mwe_idx(cell.load(Ordering::Relaxed)), best.1);
    }

    #[test]
    fn atomic_slice_view_shares_storage() {
        let mut buf = vec![0u32; 8];
        {
            let cells = as_atomic_u32(&mut buf);
            cells[0].store(7, Ordering::Relaxed);
            cells[7].fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(buf[0], 7);
        assert_eq!(buf[7], 1);
    }
}

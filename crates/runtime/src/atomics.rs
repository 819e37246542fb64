//! Atomic utilities for priority writes.
//!
//! The MST algorithms need an atomic min-by-key write, which the standard
//! library does not provide directly; GBBS calls it a `priority_write`.
//! Every argmin cell in the workspace is one packed MWE word
//! ([`mwe_propose`]): the Boruvka family's per-component minimum-weight
//! edge, and LLP-Prim's best incoming arc per vertex.
//!
//! The word is keyed through an order-preserving bijection between `f64`
//! and `u64` ([`f64_to_ordered`]).

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

// ---------------------------------------------------------------------------
// Packed MWE (minimum-weight-edge) words.
//
// An argmin cell that stores only an index must chase `index -> key`
// through extra cache lines on every propose. The packed protocol folds
// the discriminating 32 bits of the weight into the atomic word itself:
//
//     word = (weight_hi32 << 32) | edge_index
//
// where `weight_hi32` is the high half of the order-preserving `u64` float
// encoding. Because that encoding is monotone, `a.whi < b.whi` implies
// weight(a) < weight(b), so almost every propose resolves with one atomic
// load and an integer compare. Only a tie in the high 32 bits (equal raw
// weights, or weights closer than 2^-20 relative) falls back to the
// caller's exact key — preserving the strict total edge order every
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
fn mwe_whi(word: u64) -> u32 {
    (word >> 32) as u32
}

/// Proposes edge `idx` with weight discriminant `whi` to a packed MWE cell.
///
/// Keeps whichever edge is smaller under the exact total order: the high-bit
/// fast path decides strictly different discriminants without touching edge
/// data; a discriminant tie is broken by `exact_key(edge index)`, a total
/// order whose first component orders like the weight (the Boruvka
/// family's `(EdgeKey, edge id)`, LLP-Prim's `(weight, arc source)`).
/// Equal exact keys keep the incumbent, so re-proposing the current winner
/// returns `false`. Returns `true` when `idx` won the cell.
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
}

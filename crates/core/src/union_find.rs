//! Disjoint-set (union–find) structures.
//!
//! [`UnionFind`] is the sequential rank + path-halving structure Kruskal
//! and the verifiers use. [`ConcurrentUnionFind`] is a lock-free variant
//! (CAS hooking of the higher root under the lower, best-effort path
//! halving) used by the parallel Boruvka baseline; it matches the
//! wait-free union-find used in GBBS's connectivity kernels.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sequential union–find with union by rank and path halving.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Read-only find (no compression), for `&self` contexts.
    pub fn find_immutable(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `false` when already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        self.link(ra, rb);
        true
    }

    /// Merges the sets whose roots are `ra` and `rb` (two distinct
    /// roots, as [`Self::find`] returned them) and returns the new root:
    /// a caller that already holds both roots pays no further `find`.
    #[inline]
    pub fn link(&mut self, ra: u32, rb: u32) -> u32 {
        debug_assert!(ra != rb && self.parent[ra as usize] == ra && self.parent[rb as usize] == rb);
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        hi
    }

    /// True when `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Lock-free union–find over atomics.
///
/// `union` hooks the *larger* root id under the smaller via CAS, which
/// keeps representatives canonical (the minimum id of the set) — the same
/// convention as the paper's BFS labelling. Path halving is best-effort:
/// failed halving CASes are simply skipped.
#[derive(Debug)]
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
    /// CAS retries observed (contention metric).
    retries: AtomicU64,
}

impl ConcurrentUnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        ConcurrentUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            retries: AtomicU64::new(0),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// CAS retries observed so far.
    pub fn cas_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Representative of `x`'s set, with best-effort path halving.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if p != gp {
                // Best-effort halving; losing the race is harmless.
                let _ = self.parent[x as usize].compare_exchange_weak(
                    p,
                    gp,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns `false` when already joined.
    ///
    /// Linearizable: the winning CAS hooks one root directly under another
    /// root; on failure the find is restarted.
    pub fn union(&self, a: u32, b: u32) -> bool {
        let mut ra = self.find(a);
        let mut rb = self.find(b);
        loop {
            if ra == rb {
                return false;
            }
            // Hook the larger id under the smaller: canonical minimum roots.
            let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(_) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    ra = self.find(hi);
                    rb = self.find(lo);
                }
            }
        }
    }

    /// True when `a` and `b` are currently in the same set (racy under
    /// concurrent unions; exact once unions quiesce).
    pub fn same(&self, a: u32, b: u32) -> bool {
        loop {
            let ra = self.find(a);
            let rb = self.find(b);
            if ra == rb {
                return true;
            }
            // ra may have been hooked concurrently; confirm it is still root.
            if self.parent[ra as usize].load(Ordering::Acquire) == ra {
                return false;
            }
        }
    }

    /// Snapshot of current representatives (call after parallel phase).
    pub fn labels(&self) -> Vec<u32> {
        (0..self.parent.len() as u32).map(|v| self.find(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_runtime::{parallel_for, ParallelForConfig, ThreadPool};

    #[test]
    fn sequential_union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        assert!(uf.union(1, 3));
        assert!(uf.same(0, 2));
        assert_eq!(uf.num_components(), 2);
    }

    #[test]
    fn sequential_path_halving_converges() {
        let mut uf = UnionFind::new(100);
        for i in 1..100 {
            uf.union(i - 1, i);
        }
        let r = uf.find(99);
        assert!((0..100).all(|i| uf.find(i) == r));
        assert_eq!(uf.num_components(), 1);
    }

    #[test]
    fn concurrent_matches_sequential_semantics() {
        let uf = ConcurrentUnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(4, 5));
        assert!(!uf.union(1, 0));
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 4));
        assert!(uf.union(1, 5));
        assert!(uf.same(0, 4));
    }

    #[test]
    fn concurrent_roots_are_minimum_ids() {
        let uf = ConcurrentUnionFind::new(5);
        uf.union(4, 3);
        uf.union(3, 2);
        uf.union(2, 0);
        assert_eq!(uf.find(4), 0);
        assert_eq!(uf.find(3), 0);
    }

    #[test]
    fn concurrent_parallel_chain_union() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let uf = ConcurrentUnionFind::new(n);
        parallel_for(&pool, 1..n, ParallelForConfig::with_grain(64), |i| {
            uf.union(i as u32 - 1, i as u32);
        });
        let r = uf.find(0);
        assert_eq!(r, 0, "canonical root is the minimum id");
        for i in 0..n as u32 {
            assert_eq!(uf.find(i), 0);
        }
    }

    #[test]
    fn concurrent_parallel_random_unions_match_sequential() {
        use llp_runtime::rng::SmallRng;
        let pool = ThreadPool::new(4);
        let n = 2000;
        let mut rng = SmallRng::seed_from_u64(99);
        let pairs: Vec<(u32, u32)> = (0..3000)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let cuf = ConcurrentUnionFind::new(n);
        let pairs_ref = &pairs;
        parallel_for(
            &pool,
            0..pairs.len(),
            ParallelForConfig::with_grain(16),
            |i| {
                let (a, b) = pairs_ref[i];
                cuf.union(a, b);
            },
        );
        let mut suf = UnionFind::new(n);
        for &(a, b) in &pairs {
            suf.union(a, b);
        }
        for a in 0..n as u32 {
            for b in [0u32, 1, 7, 1999] {
                assert_eq!(cuf.same(a, b), suf.same(a, b), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn empty_structures() {
        assert!(UnionFind::new(0).is_empty());
        assert!(ConcurrentUnionFind::new(0).is_empty());
    }
}

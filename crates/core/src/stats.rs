//! Machine-independent work metrics.
//!
//! The paper's speedup claims reduce to work and synchronization structure:
//! LLP-Prim beats Prim because early fixing removes heap operations;
//! LLP-Boruvka beats parallel Boruvka because pointer jumping with relaxed
//! writes replaces contended priority updates. These counters expose that
//! structure directly, so the benchmark harness can reproduce the *shape*
//! of Figs 2–4 even on machines with fewer cores than the paper's 48-vCPU
//! testbed.

/// Per-run work metrics. Every algorithm fills the fields relevant to it;
/// the rest stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgoStats {
    /// Heap insertions.
    pub heap_pushes: u64,
    /// Heap removals, including lazy-deleted stale entries.
    pub heap_pops: u64,
    /// Directed edge explorations.
    pub edges_scanned: u64,
    /// Vertices fixed through the LLP early-fixing (MWE) rule.
    pub early_fixes: u64,
    /// Vertices fixed by a heap extraction (classic Prim path).
    pub heap_fixes: u64,
    /// Boruvka / solver rounds.
    pub rounds: u64,
    /// Pointer-jump assignments (`G[j] := G[G[j]]`).
    pub pointer_jumps: u64,
    /// Compare-and-swap retries (contention proxy).
    pub cas_retries: u64,
    /// Atomic read-modify-write operations issued (synchronization proxy).
    pub atomic_rmw: u64,
    /// Parallel-region launches (barrier proxy).
    pub parallel_regions: u64,
}

impl AlgoStats {
    /// Total heap traffic, the quantity LLP-Prim is designed to reduce.
    pub fn heap_ops(&self) -> u64 {
        self.heap_pushes + self.heap_pops
    }

    /// Coarse synchronization score used by the ablation benches.
    pub fn sync_score(&self) -> u64 {
        self.atomic_rmw + self.cas_retries + self.parallel_regions
    }

    /// Component-wise sum (for aggregating repeated runs).
    pub fn merge(&self, other: &AlgoStats) -> AlgoStats {
        AlgoStats {
            heap_pushes: self.heap_pushes + other.heap_pushes,
            heap_pops: self.heap_pops + other.heap_pops,
            edges_scanned: self.edges_scanned + other.edges_scanned,
            early_fixes: self.early_fixes + other.early_fixes,
            heap_fixes: self.heap_fixes + other.heap_fixes,
            rounds: self.rounds + other.rounds,
            pointer_jumps: self.pointer_jumps + other.pointer_jumps,
            cas_retries: self.cas_retries + other.cas_retries,
            atomic_rmw: self.atomic_rmw + other.atomic_rmw,
            parallel_regions: self.parallel_regions + other.parallel_regions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_ops_sums_traffic() {
        let s = AlgoStats {
            heap_pushes: 3,
            heap_pops: 2,
            ..Default::default()
        };
        assert_eq!(s.heap_ops(), 5);
    }

    #[test]
    fn merge_adds_fields() {
        let a = AlgoStats {
            rounds: 2,
            edges_scanned: 10,
            ..Default::default()
        };
        let b = AlgoStats {
            rounds: 3,
            pointer_jumps: 7,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.rounds, 5);
        assert_eq!(m.edges_scanned, 10);
        assert_eq!(m.pointer_jumps, 7);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(AlgoStats::default().heap_ops(), 0);
        assert_eq!(AlgoStats::default().sync_score(), 0);
    }
}

//! Uniform runner over every algorithm in the evaluation.

use llp_graph::CsrGraph;
use llp_mst::prelude::*;
use llp_runtime::ThreadPool;

/// Every algorithm the paper's figures mention, plus the extra baselines
/// this workspace ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Classic Prim, lazy heap (the paper's "Prim").
    Prim,
    /// Kruskal (reference baseline).
    Kruskal,
    /// Filter-Kruskal with partition, filter and sorts on the pool.
    FilterKruskalPar,
    /// Parallel Boruvka, GBBS-style (the paper's "Boruvka"; Fig. 2's
    /// single-thread run is this on one thread).
    Boruvka,
    /// LLP-Prim sequential (the paper's "LLP-Prim (1T)").
    LlpPrimSeq,
    /// LLP-Prim parallel.
    LlpPrim,
    /// LLP-Boruvka, Algorithm 6.
    LlpBoruvka,
    /// Out-of-core sharded Borůvka (edge file sharded to disk, per-shard
    /// contraction, each shard's forest merged into the accumulated one by
    /// a Kruskal scan, certified streaming).
    Sharded,
}

impl Algorithm {
    /// Figure-label used in output tables (matches the paper's names).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Prim => "Prim",
            Algorithm::Kruskal => "Kruskal",
            Algorithm::FilterKruskalPar => "Filter-Kruskal (par)",
            Algorithm::Boruvka => "Boruvka",
            Algorithm::LlpPrimSeq => "LLP-Prim (1T)",
            Algorithm::LlpPrim => "LLP-Prim",
            Algorithm::LlpBoruvka => "LLP-Boruvka",
            Algorithm::Sharded => "Sharded OOC",
        }
    }

    /// All algorithms.
    pub fn all() -> &'static [Algorithm] {
        &[
            Algorithm::Prim,
            Algorithm::Kruskal,
            Algorithm::FilterKruskalPar,
            Algorithm::Boruvka,
            Algorithm::LlpPrimSeq,
            Algorithm::LlpPrim,
            Algorithm::LlpBoruvka,
            Algorithm::Sharded,
        ]
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs `algo` on `graph` with `pool`, rooting tree algorithms at `root`.
///
/// # Panics
/// Panics when a Prim-family algorithm is given a disconnected graph —
/// benchmark workloads are connected by construction.
pub fn run_algorithm(
    algo: Algorithm,
    graph: &CsrGraph,
    root: u32,
    pool: &ThreadPool,
) -> MstResult {
    const CONNECTED: &str = "benchmark graph must be connected";
    match algo {
        Algorithm::Prim => prim_lazy(graph, root).expect(CONNECTED),
        Algorithm::Kruskal => kruskal(graph),
        Algorithm::FilterKruskalPar => filter_kruskal_par(graph, pool),
        Algorithm::Boruvka => boruvka_par(graph, pool),
        Algorithm::LlpPrimSeq => llp_prim_seq(graph, root).expect(CONNECTED),
        Algorithm::LlpPrim => llp_prim_par(graph, root, pool).expect(CONNECTED),
        Algorithm::LlpBoruvka => llp_boruvka(graph, pool),
        // Round-trips through a temp binary file with a shard size small
        // enough that every sweep genuinely exercises multi-shard folding
        // (and the run is certified end-to-end by the streaming sweep).
        Algorithm::Sharded => {
            sharded_msf_graph(graph, (graph.num_edges() / 6).max(1), pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_graph::samples::{fig1, FIG1_MST_WEIGHT};

    #[test]
    fn every_algorithm_solves_fig1_identically() {
        let g = fig1();
        let pool = ThreadPool::new(2);
        let oracle = kruskal(&g).canonical_keys();
        for &algo in Algorithm::all() {
            let r = run_algorithm(algo, &g, 0, &pool);
            assert_eq!(r.total_weight, FIG1_MST_WEIGHT, "{algo}");
            assert_eq!(r.canonical_keys(), oracle, "{algo}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Algorithm::all().iter().map(|a| a.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Algorithm::all().len());
    }
}

//! Filter-Kruskal (Osipov–Sanders–Singler) on the thread pool.
//!
//! The practical Kruskal variant: quicksort-style pivot partitioning where
//! the *light* half is solved first and the *heavy* half is **filtered** —
//! edges whose endpoints the light half already connected are discarded
//! without ever being sorted. On random weights the expected work drops
//! from O(m log m) to O(m + n log n log (m/n)); the paper's §III discusses
//! Kruskal's sorting bottleneck, and this is the standard engineering
//! answer to it.
//!
//! [`filter_kruskal_par`] runs the data-parallel steps on the thread pool:
//! the pivot partition uses the scan-based three-way partition from
//! [`llp_runtime::partition`], the filter drops intra-component edges with
//! [`retain_parallel`] over concurrent *read-only* union-find lookups
//! ([`UnionFind::find_immutable`] snapshots roots without path compression,
//! so no writes race; a sequential epilogue re-compresses the survivors'
//! paths), and base-case sorts go through the parallel sample sort. The
//! union operations themselves stay sequential — they are O(n α(n)) total,
//! far below the O(m) partition/filter traffic the pool absorbs.
//!
//! The recursion's pivots, partition sizes and filter outcomes do not
//! depend on the thread count, so its telemetry — the `partition` /
//! `filter` spans and the `fk-partition-rounds`, `fk-filter-kept`,
//! `fk-filter-dropped` counters plus the `fk-recursion-depth` /
//! `fk-base-case` series — is identical for identical inputs, which the
//! golden-trace test in `tests/paper_traces.rs` pins down.

use crate::result::MstResult;
use crate::stats::AlgoStats;
use crate::union_find::UnionFind;
use llp_graph::{CsrGraph, Edge, EdgeKey};
use llp_runtime::partition::{partition3_in_place, retain_parallel};
use llp_runtime::sort::par_sort_by_key;
use llp_runtime::{telemetry, ScratchArena, ThreadPool};

/// Below this many edges, sort-and-scan beats further partitioning:
/// partition and filter passes scale with the pool, the base-case union
/// scan does not.
const PAR_BASE_CASE: usize = 4096;

/// Parallel Filter-Kruskal: partition, filter and base-case sorts on the
/// pool; computes the canonical MSF.
pub fn filter_kruskal_par(graph: &CsrGraph, pool: &ThreadPool) -> MstResult {
    filter_kruskal_par_with_base_case(graph, pool, PAR_BASE_CASE)
}

/// [`filter_kruskal_par`] with an explicit base-case threshold (testing
/// knob: small thresholds force deterministic deep recursions on tiny
/// graphs).
pub fn filter_kruskal_par_with_base_case(
    graph: &CsrGraph,
    pool: &ThreadPool,
    base_case: usize,
) -> MstResult {
    let n = graph.num_vertices();
    let mut edges: Vec<Edge> = graph.edges().collect();
    // Introsort-style depth budget: degenerate pivot sequences fall back to
    // sort-and-scan instead of deep recursion.
    let depth_budget = 2 * (usize::BITS - edges.len().leading_zeros()) as usize + 16;
    let mut ctx = FilterCtx {
        uf: UnionFind::new(n),
        chosen: Vec::with_capacity(n.saturating_sub(1)),
        stats: AlgoStats::default(),
        pool,
        base_case: base_case.max(1),
    };
    {
        let _t = telemetry::span("partition");
        telemetry::record_value("edges-input", edges.len() as u64);
        ctx.recurse(&mut edges, depth_budget, 0);
    }
    let FilterCtx {
        mut chosen, stats, ..
    } = ctx;
    par_sort_by_key(pool, &mut chosen, &ScratchArena::new(), Edge::key); // canonical output order
    MstResult::from_edges(n, chosen, stats)
}

/// State threaded through the recursion.
struct FilterCtx<'p> {
    uf: UnionFind,
    chosen: Vec<Edge>,
    stats: AlgoStats,
    pool: &'p ThreadPool,
    base_case: usize,
}

impl FilterCtx<'_> {
    fn recurse(&mut self, edges: &mut Vec<Edge>, depth_budget: usize, depth: u64) {
        // The heavy half is handled by looping (tail recursion elimination);
        // only the light half recurses.
        loop {
            if edges.is_empty() {
                return;
            }
            if edges.len() <= self.base_case || depth_budget == 0 {
                telemetry::record_value("fk-base-case", edges.len() as u64);
                self.sort_and_scan(edges);
                return;
            }
            self.stats.rounds += 1; // partitioning levels
            telemetry::counter_add("fk-partition-rounds", 1);
            telemetry::record_value("fk-recursion-depth", depth);

            let pivot = median_of_three(edges);
            let light_len = self.partition(edges, pivot);
            let mut heavy = edges.split_off(light_len);
            self.recurse(edges, depth_budget - 1, depth + 1);
            self.filter(&mut heavy);
            *edges = heavy; // loop continues on the filtered heavy half
        }
    }

    /// Three-way pivot partition; returns the light length (keys <= pivot).
    fn partition(&mut self, edges: &mut [Edge], pivot: EdgeKey) -> usize {
        self.stats.parallel_regions += 1;
        let (lt, eq) = partition3_in_place(self.pool, edges, |e| e.key().cmp(&pivot));
        lt + eq
    }

    /// Base case: sort the remaining edges and grow the forest.
    fn sort_and_scan(&mut self, edges: &mut Vec<Edge>) {
        self.stats.parallel_regions += 1;
        par_sort_by_key(self.pool, edges, &ScratchArena::new(), Edge::key);
        for e in edges.drain(..) {
            self.stats.edges_scanned += 1;
            if self.uf.union(e.u, e.v) {
                self.chosen.push(e);
            }
        }
    }

    /// Filter step: heavy edges already intra-component cannot be in the
    /// MSF — drop them before doing any sorting work on them.
    fn filter(&mut self, heavy: &mut Vec<Edge>) {
        let _t = telemetry::span("filter");
        let before = heavy.len();
        self.stats.parallel_regions += 1;
        // Concurrent lookups snapshot roots read-only: no path compression
        // during the parallel phase, so threads never write the parent
        // array they are racing to read.
        let uf: &UnionFind = &self.uf;
        retain_parallel(self.pool, heavy, |e| {
            uf.find_immutable(e.u) != uf.find_immutable(e.v)
        });
        // Sequential epilogue: path-halve the survivors' endpoints so later
        // rounds keep union-find's amortised bounds.
        for e in heavy.iter() {
            self.uf.find(e.u);
            self.uf.find(e.v);
        }
        self.stats.edges_scanned += before as u64;
        telemetry::counter_add("fk-filter-kept", heavy.len() as u64);
        telemetry::counter_add("fk-filter-dropped", (before - heavy.len()) as u64);
    }
}

/// Median-of-three pivot on the canonical key. Keys are distinct (short of
/// exact duplicate edges), so the max of the sample is strictly above the
/// pivot: both halves are non-empty and every level makes progress.
fn median_of_three(edges: &[Edge]) -> EdgeKey {
    let a = edges[0].key();
    let b = edges[edges.len() / 2].key();
    let c = edges[edges.len() - 1].key();
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    if c < lo {
        lo
    } else if c > hi {
        hi
    } else {
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use llp_graph::samples::{fig1, small_forest, FIG1_MST_WEIGHT};

    #[test]
    fn fig1_mst() {
        let pool = ThreadPool::new(4);
        let mst = filter_kruskal_par(&fig1(), &pool);
        assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
        assert_eq!(mst.canonical_keys(), kruskal(&fig1()).canonical_keys());
    }

    #[test]
    fn forest_support() {
        let pool = ThreadPool::new(2);
        let msf = filter_kruskal_par(&small_forest(), &pool);
        assert_eq!(msf.canonical_keys(), kruskal(&small_forest()).canonical_keys());
        assert_eq!(msf.num_trees, 3);
    }

    #[test]
    fn matches_kruskal_above_base_case() {
        // Enough edges to force real partitioning levels.
        let pool = ThreadPool::new(4);
        for seed in 0..4 {
            let g = llp_graph::generators::erdos_renyi(800, 6000, seed);
            let oracle = kruskal(&g).canonical_keys();
            let fkp = filter_kruskal_par_with_base_case(&g, &pool, 1024);
            assert_eq!(fkp.canonical_keys(), oracle, "seed {seed}");
            assert!(fkp.stats.rounds > 0, "partitioning should trigger");
            assert!(fkp.stats.parallel_regions > 0);
        }
    }

    #[test]
    fn thread_count_does_not_change_the_trace() {
        // Same base case => same pivots, same partition sizes, same filter
        // outcomes: the machine-independent stats must agree exactly.
        let p1 = ThreadPool::new(1);
        let p4 = ThreadPool::new(4);
        for seed in [3u64, 9] {
            let g = llp_graph::generators::erdos_renyi(600, 5000, seed);
            let s = filter_kruskal_par_with_base_case(&g, &p1, 256);
            let p = filter_kruskal_par_with_base_case(&g, &p4, 256);
            assert_eq!(s.canonical_keys(), p.canonical_keys(), "seed {seed}");
            assert_eq!(s.stats.rounds, p.stats.rounds, "seed {seed}");
            assert_eq!(s.stats.edges_scanned, p.stats.edges_scanned, "seed {seed}");
        }
    }

    #[test]
    fn duplicate_weights_canonical() {
        let g = llp_graph::samples::all_equal_weights(60);
        let pool = ThreadPool::new(2);
        assert_eq!(
            filter_kruskal_par_with_base_case(&g, &pool, 8).canonical_keys(),
            kruskal(&g).canonical_keys()
        );
    }

    #[test]
    fn degenerate_inputs() {
        let pool = ThreadPool::new(2);
        assert!(filter_kruskal_par(&CsrGraph::empty(0), &pool).edges.is_empty());
        assert_eq!(filter_kruskal_par(&CsrGraph::empty(7), &pool).num_trees, 7);
    }

    #[test]
    fn road_and_rmat_agreement() {
        let pool = ThreadPool::new(4);
        let road = llp_graph::generators::road_network(
            llp_graph::generators::RoadParams::usa_like(40, 40, 2),
        );
        assert_eq!(
            filter_kruskal_par(&road, &pool).canonical_keys(),
            kruskal(&road).canonical_keys()
        );
        let rmat =
            llp_graph::generators::rmat(llp_graph::generators::RmatParams::graph500(10, 16, 2));
        assert_eq!(
            filter_kruskal_par(&rmat, &pool).canonical_keys(),
            kruskal(&rmat).canonical_keys()
        );
    }
}

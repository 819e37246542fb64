//! RMAT / Kronecker generator (the Graph500 graph family).
//!
//! Recursive-matrix sampling with the Graph500 reference probabilities
//! `(A, B, C, D) = (0.57, 0.19, 0.19, 0.05)`: each edge picks one of four
//! quadrants per bit of the vertex id, producing the heavy-tailed degree
//! distribution of the paper's `graph500-s25-ef16` dataset ("scalefree" in
//! Table I). `edge_factor` is the Graph500 `ef` (edges per vertex), 16 in
//! the paper.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::edge::Edge;
use llp_runtime::rng::SmallRng;

/// Parameters of the RMAT generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// log2 of the vertex count (Graph500 "scale"). Paper: 25.
    pub scale: u32,
    /// Edges per vertex (Graph500 "edge factor"). Paper: 16.
    pub edge_factor: usize,
    /// Quadrant probabilities; must be positive and sum to ~1.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Per-level probability noise, as in the Graph500 reference code
    /// (keeps the graph from being exactly self-similar).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RmatParams {
    /// Graph500 reference parameters at the given scale and edge factor.
    pub fn graph500(scale: u32, edge_factor: usize, seed: u64) -> Self {
        RmatParams {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            noise: 0.1,
            seed,
        }
    }
}

/// Generates an RMAT graph with `2^scale` vertices and roughly
/// `edge_factor * 2^scale` undirected edges (self-loops and duplicates are
/// sanitised away, so the final count is slightly lower — as in Graph500,
/// which also generates with repetition).
///
/// Weights are uniform in `(0, 1)`, mirroring GBBS's weighted-graph
/// benchmarks which attach uniform random weights to Graph500 inputs.
pub fn rmat(params: RmatParams) -> CsrGraph {
    let edges = rmat_edges(params);
    let n = 1usize << params.scale;
    let mut builder = GraphBuilder::with_capacity(n, params.edge_factor * n);
    builder.extend(edges);
    builder.build()
}

/// The RMAT edge sample in sampling order: `edge_factor · 2^scale` draws,
/// self-loops skipped. The one sampling loop behind [`rmat()`] and
/// [`rmat_stream`](crate::generators::rmat_stream).
pub(crate) fn rmat_edges(params: RmatParams) -> impl Iterator<Item = Edge> {
    assert!(params.scale <= 31, "scale > 31 would overflow VertexId");
    let abc = params.a + params.b + params.c;
    assert!(
        params.a > 0.0 && params.b > 0.0 && params.c > 0.0 && abc < 1.0,
        "invalid quadrant probabilities"
    );
    let m = params.edge_factor as u64 * (1u64 << params.scale);
    let mut rng = SmallRng::seed_from_u64(params.seed);
    (0..m).filter_map(move |_| {
        let mut u: u64 = 0;
        let mut v: u64 = 0;
        for _level in 0..params.scale {
            // Per-level noisy probabilities (Graph500 reference style).
            let jitter = |p: f64, rng: &mut SmallRng| {
                p * (1.0 - params.noise / 2.0 + params.noise * rng.gen::<f64>())
            };
            let na = jitter(params.a, &mut rng);
            let nb = jitter(params.b, &mut rng);
            let nc = jitter(params.c, &mut rng);
            let nd = jitter(1.0 - abc, &mut rng);
            let total = na + nb + nc + nd;
            let r = rng.gen::<f64>() * total;
            let (bit_u, bit_v) = if r < na {
                (0, 0)
            } else if r < na + nb {
                (0, 1)
            } else if r < na + nb + nc {
                (1, 0)
            } else {
                (1, 1)
            };
            u = (u << 1) | bit_u;
            v = (v << 1) | bit_v;
        }
        if u == v {
            return None; // self-loop; Graph500 also discards these downstream
        }
        let w = rng.gen::<f64>();
        Some(Edge::new(u as u32, v as u32, w))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_expected_size() {
        let g = rmat(RmatParams::graph500(10, 8, 42));
        assert_eq!(g.num_vertices(), 1024);
        // duplicates/self-loops removed, but most edges survive
        assert!(g.num_edges() > 4 * 1024, "m = {}", g.num_edges());
        assert!(g.num_edges() <= 8 * 1024);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat(RmatParams::graph500(8, 8, 7));
        let b = rmat(RmatParams::graph500(8, 8, 7));
        assert_eq!(a, b);
        let c = rmat(RmatParams::graph500(8, 8, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // Scale-free shape: the max degree should far exceed the average.
        let g = rmat(RmatParams::graph500(12, 16, 1));
        let avg = g.average_degree();
        let max = (0..g.num_vertices() as u32)
            .map(|v| g.degree(v))
            .max()
            .unwrap() as f64;
        assert!(
            max > 8.0 * avg,
            "expected heavy tail: max {max}, avg {avg}"
        );
    }

    #[test]
    fn weights_in_unit_interval() {
        let g = rmat(RmatParams::graph500(8, 4, 3));
        assert!(g.edges().all(|e| e.w > 0.0 && e.w < 1.0));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn oversized_scale_rejected() {
        let _ = rmat(RmatParams::graph500(32, 1, 0));
    }
}

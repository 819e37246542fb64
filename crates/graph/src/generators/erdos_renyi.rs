//! Erdős–Rényi G(n, m) random graphs.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::edge::Edge;
use llp_runtime::rng::SmallRng;

/// Generates a G(n, m)-style random graph: `m` endpoint pairs sampled
/// uniformly (duplicates and self-loops sanitised away, so the final edge
/// count can be slightly below `m`). Weights uniform in `(0, 1)`.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    let edges = erdos_renyi_edges(n, m as u64, seed);
    let mut builder = GraphBuilder::with_capacity(n, m);
    builder.extend(edges);
    builder.build()
}

/// The G(n, m) edge sample in sampling order: `m` endpoint-pair draws,
/// self-loops skipped (none at all when `n < 2`). The one sampling loop
/// behind [`erdos_renyi()`] and
/// [`erdos_renyi_stream`](crate::generators::erdos_renyi_stream).
pub(crate) fn erdos_renyi_edges(n: usize, m: u64, seed: u64) -> impl Iterator<Item = Edge> {
    assert!(n < u32::MAX as usize, "n too large for VertexId");
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = if n < 2 { 0 } else { m };
    (0..m).filter_map(move |_| {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        (u != v).then(|| Edge::new(u, v, rng.gen::<f64>()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_approximately_m() {
        let g = erdos_renyi(1000, 5000, 11);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.num_edges() > 4500 && g.num_edges() <= 5000);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(100, 300, 5), erdos_renyi(100, 300, 5));
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(erdos_renyi(0, 10, 0).num_vertices(), 0);
        assert_eq!(erdos_renyi(1, 10, 0).num_edges(), 0);
    }
}

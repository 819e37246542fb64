//! Graph transformations.
//!
//! Used by property tests: MST invariance under relabelling and monotone
//! reweighting, and tie-heavy certifier inputs.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::VertexId;
use llp_runtime::rng::SmallRng;

/// Relabels vertices by the given permutation: vertex `v` becomes
/// `perm[v]`. The MST is equivariant under this map, which the property
/// tests exploit.
///
/// # Panics
/// Panics unless `perm` is a permutation of `0..n`.
pub fn permute_vertices(graph: &CsrGraph, perm: &[VertexId]) -> CsrGraph {
    let n = graph.num_vertices();
    assert_eq!(perm.len(), n, "permutation must cover every vertex");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(
            (p as usize) < n && !seen[p as usize],
            "not a permutation of 0..n"
        );
        seen[p as usize] = true;
    }
    let mut b = GraphBuilder::with_capacity(n, graph.num_edges());
    for e in graph.edges() {
        b.add_edge(perm[e.u as usize], perm[e.v as usize], e.w);
    }
    b.build()
}

/// A uniformly random permutation of `0..n`.
pub fn random_permutation(n: usize, seed: u64) -> Vec<VertexId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    rng.shuffle(&mut perm);
    perm
}

/// Applies a monotone transform to every weight. Monotone transforms
/// preserve the MST edge set exactly (the classic invariance), which the
/// property tests assert.
pub fn map_weights<F: Fn(f64) -> f64>(graph: &CsrGraph, f: F) -> CsrGraph {
    let mut b = GraphBuilder::with_capacity(graph.num_vertices(), graph.num_edges());
    for e in graph.edges() {
        b.add_edge(e.u, e.v, f(e.w));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::samples::fig1;

    #[test]
    fn identity_permutation_preserves_edge_set() {
        // The builder may reorder adjacency lists, so compare canonical
        // edge keys rather than raw CSR layout.
        let g = fig1();
        let perm: Vec<u32> = (0..5).collect();
        let p = permute_vertices(&g, &perm);
        let mut a: Vec<_> = g.edges().map(|e| e.key()).collect();
        let mut b: Vec<_> = p.edges().map(|e| e.key()).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_preserves_shape() {
        let g = erdos_renyi(50, 200, 1);
        let perm = random_permutation(50, 9);
        let p = permute_vertices(&g, &perm);
        assert_eq!(p.num_vertices(), g.num_vertices());
        assert_eq!(p.num_edges(), g.num_edges());
        // Degrees are permuted, not changed.
        let mut d1: Vec<usize> = (0..50).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..50).map(|v| p.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_permutation_rejected() {
        let g = fig1();
        let _ = permute_vertices(&g, &[0, 0, 1, 2, 3]);
    }

    #[test]
    fn map_weights_applies_function() {
        let g = fig1();
        let doubled = map_weights(&g, |w| 2.0 * w);
        assert_eq!(doubled.total_weight(), 2.0 * g.total_weight());
    }
}

//! Streaming counterparts of the in-RAM generators.
//!
//! [`rmat_stream`] and [`erdos_renyi_stream`] run the one sampling loop of
//! [`rmat()`](crate::generators::rmat()) and
//! [`erdos_renyi()`](crate::generators::erdos_renyi()) but hand edges to a
//! sink in bounded chunks instead of materializing the full `Vec<Edge>`,
//! so scale-24+ workloads can be written straight to disk (e.g. through
//! [`crate::io::BinaryWriter`]) without the generator itself blowing RAM.
//!
//! For any seed the emitted edge multiset is exactly what the in-RAM
//! generator feeds its builder — a file streamed out and read back through
//! the sanitising whole-graph readers equals the in-RAM graph exactly.
//! Self-loops are skipped at the source; parallel edges are emitted as
//! sampled (the format stores a multiset).

use super::erdos_renyi::erdos_renyi_edges;
use super::rmat::{rmat_edges, RmatParams};
use crate::edge::Edge;

/// Default chunk size for the streaming generators (~16 MiB of `Edge`).
pub const DEFAULT_CHUNK_EDGES: usize = 1 << 20;

/// Streams an RMAT edge sample in chunks of at most `chunk_edges` edges.
/// Returns the number of edges emitted (self-loops are discarded during
/// sampling, so this is slightly below `edge_factor · 2^scale`).
pub fn rmat_stream<F>(params: RmatParams, chunk_edges: usize, sink: F) -> std::io::Result<u64>
where
    F: FnMut(&[Edge]) -> std::io::Result<()>,
{
    in_chunks(rmat_edges(params), chunk_edges, sink)
}

/// Streams a G(n, m) edge sample in chunks of at most `chunk_edges`
/// edges. Returns the number of edges emitted (pairs that land on a
/// self-loop are discarded, so this can be slightly below `m`).
pub fn erdos_renyi_stream<F>(
    n: usize,
    m: u64,
    seed: u64,
    chunk_edges: usize,
    sink: F,
) -> std::io::Result<u64>
where
    F: FnMut(&[Edge]) -> std::io::Result<()>,
{
    in_chunks(erdos_renyi_edges(n, m, seed), chunk_edges, sink)
}

/// Hands `edges` to `sink` in chunks of at most `chunk_edges` and returns
/// how many it emitted.
fn in_chunks<F>(
    edges: impl Iterator<Item = Edge>,
    chunk_edges: usize,
    mut sink: F,
) -> std::io::Result<u64>
where
    F: FnMut(&[Edge]) -> std::io::Result<()>,
{
    assert!(chunk_edges > 0, "chunk_edges must be positive");
    let mut chunk: Vec<Edge> = Vec::with_capacity(chunk_edges.min(1 << 24));
    let mut emitted = 0u64;
    for e in edges {
        chunk.push(e);
        if chunk.len() >= chunk_edges {
            sink(&chunk)?;
            emitted += chunk.len() as u64;
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        sink(&chunk)?;
        emitted += chunk.len() as u64;
    }
    Ok(emitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;
    use crate::generators::{erdos_renyi, rmat};

    fn collect<G>(gen: G) -> Vec<Edge>
    where
        G: FnOnce(&mut dyn FnMut(&[Edge]) -> std::io::Result<()>) -> std::io::Result<u64>,
    {
        let mut all = Vec::new();
        let n = gen(&mut |chunk: &[Edge]| {
            all.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        assert_eq!(n as usize, all.len());
        all
    }

    /// Edge count and FNV-1a checksum of a graph's edges, in `edges()`
    /// order.
    fn fingerprint(g: &CsrGraph) -> (usize, u64) {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for e in g.edges() {
            for word in [e.u as u64, e.v as u64, e.w.to_bits()] {
                h = (h ^ word).wrapping_mul(0x100_0000_01B3);
            }
        }
        (g.num_edges(), h)
    }

    /// The graph `edges` build on `n` vertices.
    fn built(n: usize, edges: Vec<Edge>) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        b.extend(edges);
        b.build()
    }

    /// Both entry points of each family build the same graph, pinned bit
    /// for bit: the benchmark's inputs must not drift when a sampling loop
    /// is edited.
    #[test]
    fn generators_match_their_golden_fingerprints() {
        let params = RmatParams::graph500(10, 8, 42);
        let want = (5989, 0x65a6_4bb2_3d6f_e86e);
        assert_eq!(fingerprint(&rmat(params)), want);
        let edges = collect(|sink| rmat_stream(params, 1 << 10, sink));
        assert_eq!(fingerprint(&built(1 << 10, edges)), want);

        let want = (1976, 0xedf6_ed3b_b569_35f4);
        assert_eq!(fingerprint(&erdos_renyi(500, 2000, 7)), want);
        let edges = collect(|sink| erdos_renyi_stream(500, 2000, 7, 333, sink));
        assert_eq!(fingerprint(&built(500, edges)), want);
    }

    #[test]
    fn chunk_size_does_not_change_the_stream() {
        let params = RmatParams::graph500(8, 8, 7);
        let tiny = collect(|sink| rmat_stream(params, 1, sink));
        let huge = collect(|sink| rmat_stream(params, 1 << 20, sink));
        assert_eq!(tiny.len(), huge.len());
        for (a, b) in tiny.iter().zip(&huge) {
            assert_eq!((a.u, a.v, a.w), (b.u, b.v, b.w));
        }
    }

    #[test]
    fn chunks_stay_bounded() {
        let cap = 64;
        rmat_stream(RmatParams::graph500(8, 8, 1), cap, |chunk| {
            assert!(!chunk.is_empty() && chunk.len() <= cap);
            Ok(())
        })
        .unwrap();
    }
}

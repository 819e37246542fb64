//! Benchmark workloads mirroring the paper's Table I at laptop scale.
//!
//! | Paper dataset | Type | Here |
//! |---|---|---|
//! | `USA-road-d.USA` (23.9M vertices) | road | [`Workload::road`] — grid road network, scale-parameterised |
//! | `graph500-s25-ef16` (~17M used) | scalefree | [`Workload::rmat`] — Kronecker, scale-parameterised |
//!
//! A real DIMACS file can be substituted with [`Workload::from_dimacs`],
//! so dropping the authentic `USA-road-d.USA.gr` next to the harness
//! reproduces on the paper's exact dataset.

use llp_graph::generators::{
    erdos_renyi_stream, rmat, rmat_stream, road_network, RmatParams, RoadParams,
    DEFAULT_CHUNK_EDGES,
};
use llp_graph::io::{read_dimacs, BinaryFileWriter};
use llp_graph::CsrGraph;
use std::io::BufRead;
use std::path::Path;

/// Workload family, matching Table I's "Type" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Sparse, large-diameter, locally-weighted (USA-road morphology).
    Road,
    /// Scale-free Kronecker (Graph500 morphology).
    ScaleFree,
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadKind::Road => write!(f, "road"),
            WorkloadKind::ScaleFree => write!(f, "scalefree"),
        }
    }
}

/// Benchmark size presets. The paper's graphs are ~20M vertices; presets
/// scale the same morphologies down to what a laptop-class machine builds
/// and solves in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~10k vertices: smoke tests.
    Small,
    /// ~120k vertices: default for `repro`.
    Medium,
    /// ~1M vertices: closest to paper conditions that 1 machine-hour allows.
    Large,
}

/// Parses `small` / `medium` / `large`.
impl std::str::FromStr for Scale {
    type Err = ();

    fn from_str(s: &str) -> Result<Scale, ()> {
        match s {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            _ => Err(()),
        }
    }
}

/// A named benchmark graph.
pub struct Workload {
    /// Display name (Table I "Name used" analogue).
    pub name: String,
    /// Morphology family.
    pub kind: WorkloadKind,
    /// The graph.
    pub graph: CsrGraph,
}

impl Workload {
    /// Road-network workload at the given scale.
    pub fn road(scale: Scale, seed: u64) -> Workload {
        let side = match scale {
            Scale::Small => 105,
            Scale::Medium => 350,
            Scale::Large => 1000,
        };
        let graph = road_network(RoadParams::usa_like(side, side, seed));
        Workload {
            name: format!("Road {}k", graph.num_vertices() / 1000),
            kind: WorkloadKind::Road,
            graph,
        }
    }

    /// Graph500-style RMAT workload at the given scale (edge factor 16,
    /// like the paper's `graph500-s25-ef16`).
    pub fn rmat(scale: Scale, seed: u64) -> Workload {
        let s = match scale {
            Scale::Small => 13,
            Scale::Medium => 17,
            Scale::Large => 20,
        };
        // Like the paper's "Graph500 18M" (the used subset of the scale-25
        // graph): benchmark on the giant connected component so the
        // Prim-family algorithms apply.
        let graph = llp_graph::algo::largest_component(&rmat(RmatParams::graph500(s, 16, seed)));
        Workload {
            name: format!("Graph500 s{s} ef16"),
            kind: WorkloadKind::ScaleFree,
            graph,
        }
    }

    /// Loads a real DIMACS `.gr` dataset (e.g. `USA-road-d.USA.gr`),
    /// keeping its largest connected component as [`Workload::rmat`] does,
    /// so the Prim-family runners get a connected graph. A file with no
    /// vertices is an error: there is no root to grow a tree from.
    pub fn from_dimacs<R: BufRead>(name: &str, reader: R) -> Result<Workload, String> {
        let graph = read_dimacs(reader).map_err(|e| e.to_string())?;
        if graph.num_vertices() == 0 {
            return Err("graph has no vertices".into());
        }
        let graph = llp_graph::algo::largest_component(&graph);
        Ok(Workload {
            name: name.to_string(),
            kind: WorkloadKind::Road,
            graph,
        })
    }

    /// The largest connected component's representative root (vertex 0 is
    /// always on the road skeleton; for RMAT it is almost always in the
    /// giant component, and the Prim-family runners check anyway).
    pub fn root(&self) -> u32 {
        0
    }
}

/// Generator family for [`stream_to_binary`]. Separate from
/// [`WorkloadKind`] because the streamable families are the sampled ones
/// (RMAT, Erdős–Rényi); the road grid is built structurally and stays an
/// in-RAM workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Graph500-style Kronecker sample.
    Rmat,
    /// G(n, m) uniform sample.
    ErdosRenyi,
}

/// Parses `rmat` / `er`.
impl std::str::FromStr for StreamKind {
    type Err = ();

    fn from_str(s: &str) -> Result<StreamKind, ()> {
        match s {
            "rmat" => Ok(StreamKind::Rmat),
            "er" => Ok(StreamKind::ErdosRenyi),
            _ => Err(()),
        }
    }
}

impl std::fmt::Display for StreamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamKind::Rmat => write!(f, "rmat"),
            StreamKind::ErdosRenyi => write!(f, "er"),
        }
    }
}

/// Shape of a file written by [`stream_to_binary`].
#[derive(Debug, Clone, Copy)]
pub struct StreamedFile {
    /// Vertex-id domain (`2^scale`).
    pub num_vertices: u64,
    /// Edge records written (self-loops are discarded at the source, so
    /// slightly below `edge_factor · 2^scale`).
    pub num_edges: u64,
    /// On-disk size, header included.
    pub file_bytes: u64,
}

/// Streams a sampled workload straight to `path` in the on-disk binary
/// format, holding at most `chunk_edges` edges (16 B each) in memory.
///
/// The in-RAM generators materialize the full edge list and then the CSR
/// — ~3× the file size in peak RAM — which is exactly what the
/// out-of-core pipeline cannot afford; this path keeps the generator's
/// footprint at the chunk size no matter the scale. The streams draw
/// from the same seeded RNG sequence as the in-RAM twins, so the file
/// read back through the sanitising readers equals the in-RAM graph for
/// the same parameters. Pass `chunk_edges = 0` for the default
/// ([`DEFAULT_CHUNK_EDGES`], ~16 MiB).
pub fn stream_to_binary(
    path: &Path,
    kind: StreamKind,
    scale: u32,
    edge_factor: usize,
    seed: u64,
    chunk_edges: usize,
) -> Result<StreamedFile, String> {
    let n = 1u64 << scale;
    let chunk_edges = if chunk_edges == 0 { DEFAULT_CHUNK_EDGES } else { chunk_edges };
    // Crash-safe path: the file lands under its real name only after a
    // complete, fsynced write (a killed generation leaves no torn file).
    let mut w = BinaryFileWriter::create(path, n as usize)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let sink = |chunk: &[llp_graph::Edge]| -> std::io::Result<()> {
        w.write_edges(chunk).map_err(|e| std::io::Error::other(e.to_string()))
    };
    match kind {
        StreamKind::Rmat => {
            rmat_stream(RmatParams::graph500(scale, edge_factor, seed), chunk_edges, sink)
        }
        StreamKind::ErdosRenyi => {
            erdos_renyi_stream(n as usize, edge_factor as u64 * n, seed, chunk_edges, sink)
        }
    }
    .map_err(|e| e.to_string())?;
    let m = w.finish().map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok(StreamedFile { num_vertices: n, num_edges: m, file_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_algorithm, Algorithm};
    use llp_runtime::ThreadPool;

    #[test]
    fn small_road_is_connected_and_sparse() {
        let w = Workload::road(Scale::Small, 1);
        assert_eq!(w.kind, WorkloadKind::Road);
        assert!(llp_graph::algo::is_connected(&w.graph));
        assert!(w.graph.average_degree() < 4.0);
    }

    #[test]
    fn small_rmat_is_scalefree_sized_and_connected() {
        let w = Workload::rmat(Scale::Small, 1);
        // giant component of the scale-13 graph: most vertices survive
        assert!(w.graph.num_vertices() > (1 << 12));
        assert!(w.graph.num_vertices() <= (1 << 13));
        assert!(w.graph.num_edges() > 4 * (1 << 12));
        assert!(llp_graph::algo::is_connected(&w.graph));
    }

    #[test]
    fn scale_parses() {
        assert_eq!("small".parse(), Ok(Scale::Small));
        assert_eq!("medium".parse(), Ok(Scale::Medium));
        assert_eq!("huge".parse::<Scale>(), Err(()));
    }

    #[test]
    fn streamed_file_equals_in_ram_generator() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("llp-bench-stream-{}.bin", std::process::id()));
        let info = stream_to_binary(&path, StreamKind::Rmat, 8, 8, 9, 100).unwrap();
        assert_eq!(info.num_vertices, 1 << 8);
        assert_eq!(info.file_bytes, 28 + 16 * info.num_edges);
        let g = llp_graph::io::read_binary_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(g, llp_graph::generators::rmat(RmatParams::graph500(8, 8, 9)));
    }

    #[test]
    fn streamed_er_equals_in_ram_generator() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("llp-bench-stream-er-{}.bin", std::process::id()));
        stream_to_binary(&path, StreamKind::ErdosRenyi, 7, 4, 3, 0).unwrap();
        let g = llp_graph::io::read_binary_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(g, llp_graph::generators::erdos_renyi(1 << 7, 4 << 7, 3));
    }

    #[test]
    fn stream_kind_parses() {
        assert_eq!("rmat".parse(), Ok(StreamKind::Rmat));
        assert_eq!("er".parse(), Ok(StreamKind::ErdosRenyi));
        assert_eq!("road".parse::<StreamKind>(), Err(()));
    }

    #[test]
    fn dimacs_loader_works() {
        let src = "p sp 3 2\na 1 2 5\na 2 3 7\n";
        let w = Workload::from_dimacs("test", std::io::BufReader::new(src.as_bytes())).unwrap();
        assert_eq!(w.graph.num_vertices(), 3);
    }

    #[test]
    fn dimacs_loader_rejects_a_graph_with_no_vertices() {
        let src = std::io::BufReader::new("p sp 0 0\n".as_bytes());
        let err = Workload::from_dimacs("e0", src).err().expect("no root to grow from");
        assert!(err.contains("no vertices"), "{err}");
    }

    #[test]
    fn dimacs_workload_keeps_the_largest_component() {
        // Two components: a triangle on 1..3 and an edge 4–5.
        let src = "p sp 5 4\na 1 2 5\na 2 3 7\na 3 1 2\na 4 5 1\n";
        let w = Workload::from_dimacs("split", std::io::BufReader::new(src.as_bytes())).unwrap();
        assert_eq!(w.graph.num_vertices(), 3);
        assert!(llp_graph::algo::is_connected(&w.graph));
        let pool = ThreadPool::new(1);
        let mst = run_algorithm(Algorithm::Prim, &w.graph, w.root(), &pool);
        assert_eq!(mst.total_weight, 7.0);
    }
}

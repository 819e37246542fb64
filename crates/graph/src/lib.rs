//! # llp-graph — graph substrate for the LLP-MST reproduction
//!
//! Undirected weighted graphs stored in compressed sparse row (CSR) form,
//! plus everything the paper's evaluation needs around them:
//!
//! * [`csr::CsrGraph`] — immutable CSR adjacency (structure-of-arrays),
//!   built from edge lists.
//! * [`generators`] — synthetic workloads standing in for the paper's
//!   datasets: RMAT/Kronecker graphs (Graph500's generator family) and grid
//!   road networks (USA-road morphology), plus Erdős–Rényi, random geometric
//!   and classic fixed topologies for tests.
//! * [`io`] — DIMACS `.gr` reader/writer (the format the real USA road
//!   dataset ships in) and a fast binary format.
//! * [`algo`] — connected components and degree statistics (Table I).
//!
//! ## Unique-weight semantics
//!
//! The paper assumes distinct edge weights ("if edge weights are not unique,
//! then they can be made unique by incorporating identities of its
//! endpoints"). [`weight::EdgeKey`] implements exactly that: edges compare
//! by `(weight, min endpoint, max endpoint)`, a strict total order on the
//! edges of a simple graph. Every algorithm in `llp-mst` compares edges only
//! through `EdgeKey`, so all of them return the *same, canonical* MST/MSF on
//! any input — which the test suite asserts.

pub mod algo;
pub mod builder;
pub mod csr;
pub mod edge;
pub mod generators;
pub mod io;
pub mod samples;
pub mod transform;
pub mod weight;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use edge::Edge;
pub use weight::EdgeKey;

/// Vertex identifier. Graphs in this workspace are limited to `u32::MAX - 1`
/// vertices, which halves index memory traffic versus `usize` (the paper's
/// graphs are ~24M vertices).
pub type VertexId = u32;

/// Sentinel for "no vertex".
pub const NO_VERTEX: VertexId = u32::MAX;

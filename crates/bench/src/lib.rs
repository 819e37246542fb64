//! # llp-bench — reproduction harness for the paper's evaluation
//!
//! Regenerates every table and figure of the paper:
//!
//! | Paper artifact | Module / binary command |
//! |---|---|
//! | Table I (datasets) | [`workloads`] / `repro table1` |
//! | Fig. 2 (single-threaded: Prim vs LLP-Prim(1T) vs Boruvka) | `repro fig2` |
//! | Fig. 3 (thread sweep on the road network) | `repro fig3` |
//! | Fig. 4 (low vs high core counts across graph types) | `repro fig4` |
//! | §V claims (heap-op reduction, early fixing, sync reduction) | `repro ablation` |
//!
//! The paper measured a 48-vCPU GCE C2 VM with ≤ 32 threads; this harness
//! also reports **machine-independent work metrics** (heap operations,
//! early fixes, rounds, pointer jumps, atomic RMW traffic) so the figures'
//! *shapes* are reproducible on any core count. End-to-end performance of
//! the solve, out-of-core, serve and dynamic paths is measured by the
//! repository's benchmark (`benchmark/`).
//!
//! The crate also owns every command-line tool of the workspace, all four
//! on the one flag parser in [`cli`]: `repro`, `differential` (the
//! certified chaos sweep and the fault-injection matrix), `ooc-bench`
//! (streamed graph generation and the out-of-core run) and
//! `llp-mst-serve` (the query server and its verifying load generator,
//! over the `llp-serve` library). A usage error exits 2 and a run-time
//! failure exits 1 in every one of them.

pub mod algorithms;
pub mod cli;
pub mod harness;
pub mod workloads;

pub use algorithms::{run_algorithm, Algorithm};
pub use harness::{format_table, time_algorithm, Sample};
pub use workloads::{stream_to_binary, Scale, StreamKind, StreamedFile, Workload, WorkloadKind};

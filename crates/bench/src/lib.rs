//! # llp-bench — reproduction harness for the paper's evaluation
//!
//! Counts the work behind the paper's tables and figures:
//!
//! | Paper artifact | Where it comes from |
//! |---|---|
//! | Table I (datasets) | [`workloads`] / `repro table1` |
//! | §V/§VI claims (heap-op reduction, early fixing, fewer atomics, rounds) | `repro ablation` |
//! | Figs 3–4's synchronisation profile (barriers = parallel regions) | `repro ablation` |
//! | Fig. 2 (single-threaded Prim vs LLP-Prim (1T) vs Boruvka) | the benchmark (`benchmark/`) |
//!
//! `repro` runs each algorithm once, on a one-thread pool, certifies its
//! output and reports the **machine-independent work counters** (heap
//! operations, early fixes, rounds, barriers, atomic RMW traffic). On one
//! thread these are exact, so the same inputs give byte-identical
//! reports. The paper's wall-clock plots come from a 48-vCPU machine;
//! wall-clock time here is measured by one tool only, the repository's
//! benchmark (`benchmark/`), which times the Fig. 2 solvers and the
//! certify, out-of-core, serve and dynamic paths.
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
pub use harness::format_table;
pub use workloads::{stream_to_binary, Scale, StreamKind, StreamedFile, Workload, WorkloadKind};

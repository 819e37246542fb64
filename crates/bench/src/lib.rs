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
//! repository's benchmark (`benchmark/`); `benches/micro_substrates.rs`
//! and the `microbench` binary time the substrates underneath.

pub mod algorithms;
pub mod harness;
pub mod microbench;
pub mod workloads;

pub use algorithms::{run_algorithm, Algorithm};
pub use harness::{format_table, time_algorithm, Measurement, Sample};
pub use workloads::{stream_to_binary, Scale, StreamKind, StreamedFile, Workload, WorkloadKind};

/// Parses the value of the command-line flag `flag`, or prints a usage
/// error and exits with status 2: a bad flag value is the caller's
/// mistake, not a panic.
pub fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.trim().parse().unwrap_or_else(|_| {
        eprintln!("{flag}: '{value}' is not a valid value");
        std::process::exit(2);
    })
}

/// [`parse_flag`] for a count that must be at least 1 (threads,
/// repetitions); 0 is a usage error with exit status 2.
pub fn parse_count(flag: &str, value: &str) -> usize {
    match parse_flag(flag, value) {
        0 => {
            eprintln!("{flag} must be at least 1");
            std::process::exit(2);
        }
        n => n,
    }
}

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

pub mod algorithms;
pub mod harness;
pub mod workloads;

pub use algorithms::{run_algorithm, Algorithm};
pub use harness::{format_table, time_algorithm, Measurement, Sample};
pub use workloads::{stream_to_binary, Scale, StreamKind, StreamedFile, Workload, WorkloadKind};

/// Prints `msg` and exits with status 2: a bad, missing or unknown flag
/// is the caller's mistake, not a run failure (status 1) or a panic.
pub fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses the value of the command-line flag `flag`, or exits through
/// [`usage_error`].
pub fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .trim()
        .parse()
        .unwrap_or_else(|_| usage_error(format_args!("{flag}: '{value}' is not a valid value")))
}

/// [`parse_flag`] for a count that must be at least 1 (threads,
/// repetitions); 0 is a usage error with exit status 2.
pub fn parse_count(flag: &str, value: &str) -> usize {
    match parse_flag(flag, value) {
        0 => usage_error(format_args!("{flag} must be at least 1")),
        n => n,
    }
}

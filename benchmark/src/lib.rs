//! End-to-end benchmark of the llp-mst stack; the binary in `main.rs` is
//! its command line. See `README.md` for workloads, metrics and method.

pub mod alloc;
pub mod compare;
pub mod conditions;
pub mod host;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

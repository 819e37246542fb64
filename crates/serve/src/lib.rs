//! MSF-as-a-service: the certifier's path-max index behind a wire.
//!
//! This crate turns a certified minimum spanning forest into a query
//! server. The pipeline is: load and validate a binary graph with the
//! hardened reader ([`service::load_graph`]), build the MSF with the
//! flat-memory LLP-Borůvka engine, build the shared
//! [`llp_mst::index::PathMaxIndex`], certify the forest against that
//! exact index, then answer `component` / `path_max` /
//! `connected_under` queries in O(1) each over a hand-rolled TCP
//! protocol ([`protocol`]).
//!
//! - [`protocol`] — length-prefixed frames and the query/response codec.
//! - [`service`] — builds the certified index and answers queries.
//! - [`server`] — blocking accept loop + worker pool, no external
//!   runtime; per-connection deadlines, bounded-queue load shedding
//!   (the tag-4 overloaded frame), and graceful drain.
//! - [`retry`] — full-jitter exponential backoff and the reconnecting
//!   client that rides out shed/reaped/faulted connections.
//! - [`loadgen`] — batch-size sweep, latency percentiles and retry
//!   counts, with every response optionally verified.
//!
//! This crate is a library. The `llp-mst-serve` binary in `llp-bench`
//! front-ends it with `serve` and `loadgen` (with `--verify`, every
//! response re-checked against a local certified index); graph files come
//! from `ooc-bench gen`. The repository's benchmark (`benchmark/`)
//! measures serving throughput and latency.

pub mod loadgen;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod service;

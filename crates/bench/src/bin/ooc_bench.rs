//! `ooc-bench` — the out-of-core pipeline end to end, with an RSS gate.
//!
//! ```text
//! ooc-bench gen --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1]
//!               [--chunk-edges N]
//! ooc-bench run --graph g.bin [--shard-edges N] [--threads T] [--report out.json]
//!               [--max-rss-frac 0.5] [--rss-baseline-mb 0]
//!               [--checkpoint ck.llp] [--stop-after-shards N]
//! ```
//!
//! `gen` streams an RMAT / Erdős–Rényi sample straight to the binary
//! file in bounded chunks — RAM stays at the chunk size no matter the
//! scale, so graphs far bigger than memory can be produced; it is the
//! graph generator for every tool in this crate. `run` solves and
//! certifies the file with the sharded Borůvka solver (the reader thread
//! keeps one shard queued ahead of the one being contracted), then gates
//! the process peak RSS against
//! `max_rss_frac · file_bytes + rss_baseline_mb`: the baseline term
//! absorbs the fixed runtime footprint that dominates on tiny graphs,
//! the fractional term is the headline out-of-core claim (default: peak
//! RSS at most half the edge list). A shard costs about 64 B per edge
//! while it is contracted, so `--shard-edges 8388608` is a 512 MiB shard.
//!
//! `--checkpoint` names a manifest that is fsync'd after every
//! completed shard: a killed run re-launched with the same flags skips
//! the shards already folded in and still certifies. `--stop-after-shards`
//! interrupts deliberately so CI can rehearse the kill-and-resume path
//! without an actual SIGKILL.
//!
//! Flags are parsed by [`llp_bench::cli`], as in the crate's other tools.
//! Exit codes:
//!
//! * 0 — success;
//! * 1 — the run failed: the RSS gate failed, certification rejected, or
//!   an I/O error;
//! * 2 — usage error: an unknown command or argument, a missing or
//!   unparsable value, a count of 0, an out-of-range `--rss-baseline-mb`,
//!   or a `--max-rss-frac` that is negative, NaN or infinite;
//! * 3 — deliberately interrupted by `--stop-after-shards`; the same
//!   command line resumes.
//!
//! The JSON report (`llp-mst-ooc-report/v1`):
//!
//! ```json
//! {
//!   "schema": "llp-mst-ooc-report/v1",
//!   "graph": { "path": "g.bin", "n": 65536, "m": 1043931, "bytes": 16702924 },
//!   "shard_edges": 262144, "shards": 4, "threads": 2, "read_ahead": 1,
//!   "certified": true, "msf_edges": 65535, "total_weight": 123.456,
//!   "candidate_edges": 180000, "filtered_edges": 0,
//!   "wall_ms": 1234.5,
//!   "peak_rss_bytes": 52428800, "rss_frac": 0.31,
//!   "gate": { "max_rss_frac": 0.5, "rss_baseline_mb": 24,
//!             "limit_bytes": 33522462, "pass": true }
//! }
//! ```
//!
//! `read_ahead` is always 1 and `filtered_edges` always 0: the reader
//! queues one shard ahead, the sharded solver has no cross-shard filter,
//! and the keys keep the schema stable.

use llp_bench::cli::{
    command, exit_status, no_leftovers, parse_flag, take_count, take_opt, take_parsed,
    take_required, take_threads, usage_error,
};
use llp_bench::workloads::{stream_to_binary, StreamKind};
use llp_mst::prelude::*;
use llp_runtime::{telemetry, ThreadPool};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let (cmd, mut args) = command(USAGE);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&mut args),
        "run" => cmd_run(&mut args),
        other => usage_error(format_args!("unknown command `{other}`\n{USAGE}")),
    };
    exit_status("ooc-bench", &cmd, result)
}

const USAGE: &str = "usage: ooc-bench <gen|run> [options]
  gen --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1] [--chunk-edges N]
  run --graph g.bin [--shard-edges N] [--threads T] [--report out.json]
      [--max-rss-frac 0.5] [--rss-baseline-mb 0]
      [--checkpoint ck.llp] [--stop-after-shards N]   (exit 3 = interrupted, resumable)";

fn cmd_gen(args: &mut Vec<String>) -> Result<(), String> {
    let out = take_required(args, "--out");
    let kind: StreamKind = take_parsed(args, "--kind", StreamKind::Rmat);
    let scale: u32 = take_parsed(args, "--scale", 16);
    let ef: usize = take_parsed(args, "--ef", 16);
    let seed: u64 = take_parsed(args, "--seed", 1);
    let chunk: usize = take_parsed(args, "--chunk-edges", 0);
    no_leftovers(args);
    if scale > 31 {
        usage_error("--scale must be <= 31");
    }
    let t0 = Instant::now();
    let info = stream_to_binary(&PathBuf::from(&out), kind, scale, ef, seed, chunk)?;
    println!(
        "gen {kind} scale={scale} ef={ef} seed={seed}: n={} m={} bytes={} ({:.1}s)",
        info.num_vertices,
        info.num_edges,
        info.file_bytes,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Everything `run` measures, marshalled into the report and the gate.
struct RunReport {
    graph: String,
    n: usize,
    m: u64,
    file_bytes: u64,
    shard_edges: usize,
    shards: usize,
    threads: usize,
    certified: bool,
    msf_edges: usize,
    total_weight: f64,
    candidate_edges: u64,
    filtered_edges: u64,
    wall_ms: f64,
    peak_rss_bytes: Option<u64>,
    max_rss_frac: f64,
    rss_baseline_mb: u64,
}

impl RunReport {
    /// `max_rss_frac · file_bytes + rss_baseline_mb` in bytes.
    fn limit_bytes(&self) -> u64 {
        ((self.max_rss_frac * self.file_bytes as f64) as u64)
            .saturating_add(self.rss_baseline_mb << 20)
    }

    /// The gate passes when peak RSS is measurable and under the limit.
    /// On platforms without an RSS probe the gate abstains (passes) —
    /// the report says so via `"peak_rss_bytes": null`.
    fn gate_pass(&self) -> bool {
        match self.peak_rss_bytes {
            Some(rss) => rss <= self.limit_bytes(),
            None => true,
        }
    }

    fn to_json(&self) -> String {
        let (rss, frac) = match self.peak_rss_bytes {
            Some(b) => (b.to_string(), format!("{:.4}", b as f64 / self.file_bytes as f64)),
            None => ("null".into(), "null".into()),
        };
        let mut graph = String::new();
        telemetry::escape_json(&self.graph, &mut graph);
        format!(
            "{{\"schema\":\"llp-mst-ooc-report/v1\",\
             \"graph\":{{\"path\":\"{}\",\"n\":{},\"m\":{},\"bytes\":{}}},\
             \"shard_edges\":{},\"shards\":{},\"threads\":{},\"read_ahead\":1,\
             \"certified\":{},\"msf_edges\":{},\"total_weight\":{:.6},\
             \"candidate_edges\":{},\"filtered_edges\":{},\
             \"wall_ms\":{:.3},\"peak_rss_bytes\":{rss},\"rss_frac\":{frac},\
             \"gate\":{{\"max_rss_frac\":{},\"rss_baseline_mb\":{},\
             \"limit_bytes\":{},\"pass\":{}}}}}",
            graph,
            self.n,
            self.m,
            self.file_bytes,
            self.shard_edges,
            self.shards,
            self.threads,
            self.certified,
            self.msf_edges,
            self.total_weight,
            self.candidate_edges,
            self.filtered_edges,
            self.wall_ms,
            self.max_rss_frac,
            self.rss_baseline_mb,
            self.limit_bytes(),
            self.gate_pass(),
        )
    }
}

fn cmd_run(args: &mut Vec<String>) -> Result<(), String> {
    let graph = take_required(args, "--graph");
    let shard_edges = take_count(args, "--shard-edges", ShardedConfig::default().shard_edges);
    let threads = take_threads(args);
    let report_path = take_opt(args, "--report");
    let max_rss_frac: f64 = take_parsed(args, "--max-rss-frac", 0.5);
    if !(max_rss_frac.is_finite() && max_rss_frac >= 0.0) {
        usage_error("--max-rss-frac must be a finite number >= 0");
    }
    let rss_baseline_mb: u64 = take_parsed(args, "--rss-baseline-mb", 0);
    if rss_baseline_mb.checked_mul(1 << 20).is_none() {
        usage_error("--rss-baseline-mb is out of range");
    }
    let checkpoint = take_opt(args, "--checkpoint").map(PathBuf::from);
    let stop_after_shards: Option<usize> =
        take_opt(args, "--stop-after-shards").map(|v| parse_flag("--stop-after-shards", &v));
    no_leftovers(args);
    if stop_after_shards.is_some() && checkpoint.is_none() {
        usage_error("--stop-after-shards without --checkpoint would lose the partial run");
    }

    let path = PathBuf::from(&graph);
    let file_bytes = std::fs::metadata(&path).map_err(|e| format!("{graph}: {e}"))?.len();
    let pool = ThreadPool::new(threads);
    let cfg = ShardedConfig {
        shard_edges,
        checkpoint,
        stop_after_shards,
        ..ShardedConfig::default()
    };

    let t0 = Instant::now();
    let run = match sharded_msf_file(&path, &cfg, &pool) {
        Ok(run) => run,
        Err(ShardedError::Interrupted { shards_done, shards_total }) => {
            // Deliberate interruption is not a failure: the manifest holds
            // shards_done folded shards, and the same command line resumes.
            println!(
                "run {graph}: interrupted after shard {shards_done}/{shards_total}; \
                 re-run with the same --checkpoint to resume"
            );
            std::process::exit(3);
        }
        Err(e) => return Err(e.to_string()),
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(done) = run.resumed_from {
        println!("resumed from checkpoint: {done} shards skipped");
    }

    let report = RunReport {
        graph,
        n: run.num_vertices,
        m: run.num_edges,
        file_bytes,
        shard_edges: cfg.shard_edges,
        shards: run.shards,
        threads,
        certified: run.certified,
        msf_edges: run.result.edges.len(),
        total_weight: run.result.total_weight,
        candidate_edges: run.candidate_edges,
        filtered_edges: run.filtered_edges,
        wall_ms,
        peak_rss_bytes: telemetry::peak_rss_bytes(),
        max_rss_frac,
        rss_baseline_mb,
    };

    println!(
        "run {}: n={} m={} shards={} msf_edges={} weight={:.6} certified={} wall={:.1}ms",
        report.graph,
        report.n,
        report.m,
        report.shards,
        report.msf_edges,
        report.total_weight,
        report.certified,
        report.wall_ms,
    );
    match report.peak_rss_bytes {
        Some(rss) => println!(
            "peak rss {:.1} MiB / file {:.1} MiB = {:.3} (limit {:.1} MiB) gate={}",
            rss as f64 / (1 << 20) as f64,
            report.file_bytes as f64 / (1 << 20) as f64,
            rss as f64 / report.file_bytes as f64,
            report.limit_bytes() as f64 / (1 << 20) as f64,
            if report.gate_pass() { "pass" } else { "FAIL" },
        ),
        None => println!("peak rss unavailable on this platform; gate abstains"),
    }

    if let Some(p) = report_path {
        std::fs::write(&p, report.to_json()).map_err(|e| format!("{p}: {e}"))?;
        println!("report written to {p}");
    }

    if !report.gate_pass() {
        return Err(format!(
            "RSS gate failed: peak {} > limit {} bytes",
            report.peak_rss_bytes.unwrap_or(0),
            report.limit_bytes()
        ));
    }
    Ok(())
}

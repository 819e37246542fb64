//! `llp-mst-serve` — the MSF query service front-end.
//!
//! ```text
//! llp-mst-serve serve   --graph g.bin [--addr 127.0.0.1:0] [--threads T]
//!                       [--workers 2] [--port-file p.txt]
//!                       [--dynamic [--update-threads 2]]
//!                       [--read-timeout-ms 30000] [--write-timeout-ms 30000]
//!                       [--queue-cap 64] [--retry-after-ms 100]
//! llp-mst-serve loadgen --addr HOST:PORT [--graph g.bin --verify] [--threads T]
//!                       [--batches 1,16,256,4096] [--queries 100000] [--seed 42]
//!                       [--shutdown]
//! ```
//!
//! `serve` builds and certifies the MSF of a binary graph file (make one
//! with `ooc-bench gen`), then answers queries over TCP. `loadgen
//! --verify` replays every response against a certified index built
//! locally from `--graph`; throughput and latency are measured by the
//! repository's benchmark (`benchmark/`), not here.
//!
//! Flags are parsed by [`llp_bench::cli`]: a bad or missing flag, or a
//! count of 0 (`--threads`, `--workers`, `--update-threads`,
//! `--queue-cap`), is a usage error (exit 2); a command that fails at run
//! time exits 1. A timeout of 0 disables that deadline.

use llp_bench::cli::{
    command, exit_status, no_leftovers, take_count, take_flag, take_list, take_opt, take_parsed,
    take_required, take_threads, usage_error,
};
use llp_runtime::ThreadPool;
use llp_serve::loadgen::{run_sweep, LoadgenConfig, SweepPoint};
use llp_serve::protocol::{
    decode_responses, encode_queries, read_frame, write_frame, Query, Response, MAX_PAYLOAD,
};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::{load_graph, MsfService};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let (cmd, mut args) = command(USAGE);
    let result = match cmd.as_str() {
        "serve" => cmd_serve(&mut args),
        "loadgen" => cmd_loadgen(&mut args),
        other => usage_error(format_args!("unknown command `{other}`\n{USAGE}")),
    };
    exit_status("llp-mst-serve", &cmd, result)
}

const USAGE: &str = "usage: llp-mst-serve <serve|loadgen> [options]
  serve   --graph g.bin [--addr 127.0.0.1:0] [--threads T] [--workers 2] [--port-file p.txt]
          [--dynamic [--update-threads 2]] [--read-timeout-ms 30000]
          [--write-timeout-ms 30000] [--queue-cap 64] [--retry-after-ms 100]
  loadgen --addr HOST:PORT [--graph g.bin --verify] [--threads T]
          [--batches 1,16,256,4096] [--queries 100000] [--seed 42] [--shutdown]";

fn cmd_serve(args: &mut Vec<String>) -> Result<(), String> {
    let graph_path = take_required(args, "--graph");
    let addr = take_opt(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let threads = take_threads(args);
    let workers = take_count(args, "--workers", 2);
    let port_file = take_opt(args, "--port-file");
    let dynamic = take_flag(args, "--dynamic");
    let update_threads = take_count(args, "--update-threads", 2);
    let read_timeout_ms: u64 = take_parsed(args, "--read-timeout-ms", 30_000);
    let write_timeout_ms: u64 = take_parsed(args, "--write-timeout-ms", 30_000);
    let queue_cap = take_count(args, "--queue-cap", 64);
    let retry_after_ms: u32 = take_parsed(args, "--retry-after-ms", 100);
    no_leftovers(args);

    let graph =
        load_graph(&PathBuf::from(&graph_path)).map_err(|e| format!("{graph_path}: {e}"))?;
    let pool = ThreadPool::new(threads);
    let service = if dynamic {
        Arc::new(
            MsfService::build_dynamic(&graph, &pool, update_threads)
                .map_err(|e| format!("dynamic build failed: {e}"))?,
        )
    } else {
        Arc::new(
            MsfService::build(&graph, &pool).map_err(|e| format!("certification failed: {e}"))?,
        )
    };
    drop(pool);
    print_build(&service);
    if dynamic {
        println!("dynamic updates: enabled ({update_threads} update threads)");
    }

    let listener = TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {local}");
    if let Some(pf) = port_file {
        std::fs::write(&pf, format!("{}\n", local.port())).map_err(|e| format!("{pf}: {e}"))?;
    }
    let deadline = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let cfg = ServerConfig {
        workers,
        read_timeout: deadline(read_timeout_ms),
        write_timeout: deadline(write_timeout_ms),
        queue_cap,
        retry_after_ms,
    };
    let accepted = run_server(listener, service, cfg).map_err(|e| e.to_string())?;
    println!("shut down after {accepted} connections");
    Ok(())
}

fn print_build(service: &MsfService) {
    println!(
        "certified MSF: n={} m={} trees={} weight={:.6}",
        service.n, service.m, service.num_trees, service.total_weight
    );
    println!(
        "build: msf {:.1} ms, index {:.1} ms, certify {:.1} ms",
        service.timings.msf_ms, service.timings.index_ms, service.timings.certify_ms
    );
}

/// One short-lived connection: sends `batch`, returns the responses.
fn one_shot(addr: &str, batch: &[Query]) -> Result<Vec<Response>, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).ok();
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = std::io::BufWriter::new(conn);
    let mut payload = Vec::new();
    encode_queries(batch, &mut payload);
    write_frame(&mut writer, &payload).map_err(|e| e.to_string())?;
    let reply = read_frame(&mut reader, MAX_PAYLOAD)
        .map_err(|e| e.to_string())?
        .ok_or("server closed the connection")?;
    decode_responses(&reply, batch).map_err(|e| e.to_string())
}

/// Asks the server for its graph summary.
fn query_info(addr: &str) -> Result<(u32, u32, f64), String> {
    match one_shot(addr, &[Query::Info])?.as_slice() {
        [Response::Info {
            n,
            trees,
            total_weight,
        }] => Ok((*n, *trees, *total_weight)),
        other => Err(format!("unexpected info response: {other:?}")),
    }
}

fn loadgen_config(args: &mut Vec<String>) -> LoadgenConfig {
    let d = LoadgenConfig::default();
    LoadgenConfig {
        batches: take_list(args, "--batches", d.batches),
        queries_per_point: take_parsed(args, "--queries", d.queries_per_point),
        seed: take_parsed(args, "--seed", d.seed),
    }
}

fn print_sweep(sweep: &[SweepPoint]) {
    println!("batch      queries        qps    p50_us    p99_us   retries");
    for p in sweep {
        println!(
            "{:>5} {:>12} {:>10.0} {:>9.2} {:>9.2} {:>9}",
            p.batch, p.queries, p.qps, p.p50_us, p.p99_us, p.retries
        );
    }
}

fn cmd_loadgen(args: &mut Vec<String>) -> Result<(), String> {
    let addr = take_required(args, "--addr");
    let graph_path = take_opt(args, "--graph");
    let verify = take_flag(args, "--verify");
    let shutdown = take_flag(args, "--shutdown");
    let threads = take_threads(args);
    let cfg = loadgen_config(args);
    no_leftovers(args);
    if verify && graph_path.is_none() {
        usage_error("--verify needs --graph to build the local index");
    }

    let (n, trees, weight) = query_info(&addr)?;
    println!("server reports n={n} trees={trees} weight={weight:.6}");

    let local = match &graph_path {
        Some(path) => {
            let graph = load_graph(&PathBuf::from(path)).map_err(|e| format!("{path}: {e}"))?;
            let pool = ThreadPool::new(threads);
            let svc = MsfService::build(&graph, &pool)
                .map_err(|e| format!("local certification failed: {e}"))?;
            if svc.n as u32 != n {
                return Err(format!(
                    "--graph has n={}, but the server serves n={n}; wrong file?",
                    svc.n
                ));
            }
            Some(svc)
        }
        None => None,
    };

    let sweep = run_sweep(&addr, n, &cfg, if verify { local.as_ref() } else { None })?;
    print_sweep(&sweep);
    if verify {
        println!("verified: every response matched the local certified index");
    }

    if shutdown {
        one_shot(&addr, &[Query::Shutdown])?;
        println!("server acknowledged shutdown");
    }
    Ok(())
}

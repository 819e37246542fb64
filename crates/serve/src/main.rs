//! `llp-mst-serve` — the MSF query service front-end.
//!
//! ```text
//! llp-mst-serve gen        --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1]
//! llp-mst-serve serve      --graph g.bin [--addr 127.0.0.1:0] [--threads T]
//!                          [--workers W] [--port-file p.txt]
//!                          [--dynamic [--update-threads U]]
//!                          [--read-timeout-ms 30000] [--write-timeout-ms 30000]
//!                          [--queue-cap 64] [--retry-after-ms 100]
//! llp-mst-serve loadgen    --addr HOST:PORT [--graph g.bin --verify] [--threads T]
//!                          [--batches 1,16,256,4096] [--queries 100000] [--seed 42]
//!                          [--shutdown]
//! llp-mst-serve fuzz-ingest [--fault-seeds N]
//! ```
//!
//! A bad or missing flag is a usage error (exit 2); a command that fails
//! at run time exits 1. `loadgen --verify` replays every response
//! against a certified index built locally from `--graph`; throughput and
//! latency are measured by the repository's benchmark (`benchmark/`), not
//! here. `fuzz-ingest` runs the corrupt-file
//! matrix against the hardened binary reader and fails if any corruption
//! is accepted; `--fault-seeds N` (needs the `faults` feature) addition-
//! ally sweeps N seeds of injected file-I/O faults through the real
//! file-backed read and write paths, asserting every run either matches
//! the pristine graph bit-for-bit or fails with a classified error.

use llp_graph::generators::{erdos_renyi, rmat, RmatParams};
use llp_graph::io::{read_binary_range, read_binary_slice, write_binary, IoError};
use llp_graph::CsrGraph;
use llp_runtime::ThreadPool;
use llp_serve::loadgen::{run_sweep, LoadgenConfig, SweepPoint};
use llp_serve::protocol::{decode_responses, encode_queries, read_frame, write_frame, Query, Response, MAX_PAYLOAD};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::{load_graph, MsfService};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    args.remove(0);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&mut args),
        "serve" => cmd_serve(&mut args),
        "loadgen" => cmd_loadgen(&mut args),
        "fuzz-ingest" => cmd_fuzz_ingest(&mut args),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("llp-mst-serve {cmd}: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("llp-mst-serve {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: llp-mst-serve <gen|serve|loadgen|fuzz-ingest> [options]
run `llp-mst-serve <command>` with no options for that command's defaults";

/// Why a command stopped: a bad or missing flag (exit 2), or a failure
/// while running (exit 1).
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

/// Removes `--name value` from `args`, if present.
fn take_opt(args: &mut Vec<String>, name: &str) -> Result<Option<String>, CliError> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(CliError::Usage(format!("{name} needs a value")));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// Removes the bare flag `--name` from `args`; true if it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == name) else {
        return false;
    };
    args.remove(i);
    true
}

/// Removes the required `--name value` from `args`.
fn take_required(args: &mut Vec<String>, name: &str) -> Result<String, CliError> {
    take_opt(args, name)?.ok_or_else(|| CliError::Usage(format!("{name} is required")))
}

fn parse<T: std::str::FromStr>(name: &str, v: Option<String>, default: T) -> Result<T, CliError> {
    match v {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| CliError::Usage(format!("bad value for {name}: {s}"))),
    }
}

/// Errors on leftover (unrecognized) arguments.
fn no_leftovers(args: &[String]) -> Result<(), CliError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(CliError::Usage(format!(
            "unrecognized arguments: {}",
            args.join(" ")
        )))
    }
}

/// `--threads T`: the build pool's size, at least 1 (default: the
/// available parallelism).
fn take_threads(args: &mut Vec<String>) -> Result<usize, CliError> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get());
    match parse("--threads", take_opt(args, "--threads")?, default)? {
        0 => Err(CliError::Usage("--threads must be at least 1".into())),
        t => Ok(t),
    }
}

/// Builds the graph named by `--graph`, or generates one from
/// `--kind/--scale/--ef/--seed`.
fn graph_from_args(args: &mut Vec<String>) -> Result<CsrGraph, CliError> {
    if let Some(path) = take_opt(args, "--graph")? {
        return load_graph(&PathBuf::from(&path))
            .map_err(|e| CliError::Failed(format!("{path}: {e}")));
    }
    let kind = take_opt(args, "--kind")?.unwrap_or_else(|| "rmat".into());
    let scale: u32 = parse("--scale", take_opt(args, "--scale")?, 16)?;
    let ef: usize = parse("--ef", take_opt(args, "--ef")?, 16)?;
    let seed: u64 = parse("--seed", take_opt(args, "--seed")?, 1)?;
    match kind.as_str() {
        "rmat" => Ok(rmat(RmatParams::graph500(scale, ef, seed))),
        "er" => {
            let n = 1usize << scale;
            Ok(erdos_renyi(n, n * ef, seed))
        }
        other => Err(CliError::Usage(format!(
            "unknown --kind `{other}` (want rmat or er)"
        ))),
    }
}

fn cmd_gen(args: &mut Vec<String>) -> Result<(), CliError> {
    let out = take_required(args, "--out")?;
    let graph = graph_from_args(args)?;
    no_leftovers(args)?;
    // Atomic install: the reader side (a server starting against this
    // path) either sees the complete file or none at all.
    let mut w = llp_graph::io::BinaryFileWriter::create(std::path::Path::new(&out), graph.num_vertices())
        .map_err(|e| format!("{out}: {e}"))?;
    for e in graph.edges() {
        w.write_edge(e).map_err(|e| format!("{out}: {e}"))?;
    }
    w.finish().map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {} (n={}, m={})",
        out,
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_serve(args: &mut Vec<String>) -> Result<(), CliError> {
    let graph_path = take_required(args, "--graph")?;
    let addr = take_opt(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".into());
    let threads = take_threads(args)?;
    let workers: usize = parse("--workers", take_opt(args, "--workers")?, 2)?;
    let port_file = take_opt(args, "--port-file")?;
    let dynamic = take_flag(args, "--dynamic");
    let update_threads: usize =
        parse("--update-threads", take_opt(args, "--update-threads")?, 2)?;
    // Robustness knobs; a timeout of 0 disables that deadline.
    let read_timeout_ms: u64 =
        parse("--read-timeout-ms", take_opt(args, "--read-timeout-ms")?, 30_000)?;
    let write_timeout_ms: u64 =
        parse("--write-timeout-ms", take_opt(args, "--write-timeout-ms")?, 30_000)?;
    let queue_cap: usize = parse("--queue-cap", take_opt(args, "--queue-cap")?, 64)?;
    let retry_after_ms: u32 =
        parse("--retry-after-ms", take_opt(args, "--retry-after-ms")?, 100)?;
    no_leftovers(args)?;

    let graph = load_graph(&PathBuf::from(&graph_path)).map_err(|e| format!("{graph_path}: {e}"))?;
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
    let cfg = ServerConfig {
        workers,
        read_timeout: (read_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(read_timeout_ms)),
        write_timeout: (write_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(write_timeout_ms)),
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

fn loadgen_config(args: &mut Vec<String>) -> Result<LoadgenConfig, CliError> {
    let mut cfg = LoadgenConfig::default();
    if let Some(list) = take_opt(args, "--batches")? {
        cfg.batches = list
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|_| CliError::Usage(format!("bad --batches list: {list}")))?;
        if cfg.batches.is_empty() {
            return Err(CliError::Usage(
                "--batches must name at least one batch size".into(),
            ));
        }
    }
    cfg.queries_per_point = parse("--queries", take_opt(args, "--queries")?, cfg.queries_per_point)?;
    cfg.seed = parse("--seed", take_opt(args, "--seed")?, cfg.seed)?;
    Ok(cfg)
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

fn cmd_loadgen(args: &mut Vec<String>) -> Result<(), CliError> {
    let addr = take_required(args, "--addr")?;
    let graph_path = take_opt(args, "--graph")?;
    let verify = take_flag(args, "--verify");
    let shutdown = take_flag(args, "--shutdown");
    let threads = take_threads(args)?;
    let cfg = loadgen_config(args)?;
    no_leftovers(args)?;

    let (n, trees, weight) = query_info(&addr)?;
    println!("server reports n={n} trees={trees} weight={weight:.6}");

    let local = match (&graph_path, verify) {
        (Some(path), _) => {
            let graph = load_graph(&PathBuf::from(path)).map_err(|e| format!("{path}: {e}"))?;
            let pool = ThreadPool::new(threads);
            let svc = MsfService::build(&graph, &pool)
                .map_err(|e| format!("local certification failed: {e}"))?;
            if svc.n as u32 != n {
                return Err(CliError::Failed(format!(
                    "--graph has n={}, but the server serves n={n}; wrong file?",
                    svc.n
                )));
            }
            Some(svc)
        }
        (None, true) => {
            return Err(CliError::Usage(
                "--verify needs --graph to build the local index".into(),
            ))
        }
        (None, false) => None,
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

/// The corrupt-file matrix: every mutation of a valid binary graph file
/// must be rejected by the hardened reader — with a `ParseBytes` error
/// (never a panic, never a giant allocation) for format violations.
/// `--fault-seeds N` additionally sweeps N seeds of injected file-I/O
/// faults through the real file-backed read/write paths.
fn cmd_fuzz_ingest(args: &mut Vec<String>) -> Result<(), CliError> {
    let fault_seeds: u64 = parse("--fault-seeds", take_opt(args, "--fault-seeds")?, 0)?;
    no_leftovers(args)?;
    let graph = erdos_renyi(64, 128, 7);
    let mut pristine = Vec::new();
    write_binary(&graph, &mut pristine).map_err(|e| e.to_string())?;
    read_binary_slice(&pristine).map_err(|e| format!("pristine bytes must parse: {e}"))?;
    println!(
        "pristine: ok (n={}, m={}, {} bytes)",
        graph.num_vertices(),
        graph.num_edges(),
        pristine.len()
    );

    type Mutation = (&'static str, Box<dyn Fn(&mut Vec<u8>)>);
    let n_bytes = (graph.num_vertices() as u32).to_le_bytes();
    let cases: Vec<Mutation> = vec![
        ("truncated-header", Box::new(|b| b.truncate(10))),
        ("bad-magic", Box::new(|b| b[0] ^= 0xff)),
        ("bad-version", Box::new(|b| b[8..12].copy_from_slice(&999u32.to_le_bytes()))),
        ("giant-n", Box::new(|b| b[12..20].copy_from_slice(&u64::MAX.to_le_bytes()))),
        ("giant-m", Box::new(|b| b[20..28].copy_from_slice(&u64::MAX.to_le_bytes()))),
        (
            "m-overclaims-payload",
            Box::new(|b| {
                let m = u64::from_le_bytes(b[20..28].try_into().unwrap());
                b[20..28].copy_from_slice(&(m + 1).to_le_bytes());
            }),
        ),
        (
            "m-underclaims-payload",
            Box::new(|b| {
                let m = u64::from_le_bytes(b[20..28].try_into().unwrap());
                b[20..28].copy_from_slice(&(m - 1).to_le_bytes());
            }),
        ),
        ("truncated-edge", Box::new(|b| b.truncate(b.len() - 3))),
        (
            "self-loop",
            Box::new(|b| {
                let u: [u8; 4] = b[28..32].try_into().unwrap();
                b[32..36].copy_from_slice(&u);
            }),
        ),
        (
            "endpoint-out-of-range",
            Box::new(move |b| b[28..32].copy_from_slice(&n_bytes)),
        ),
        ("nan-weight", Box::new(|b| b[36..44].copy_from_slice(&f64::NAN.to_le_bytes()))),
        ("inf-weight", Box::new(|b| b[36..44].copy_from_slice(&f64::INFINITY.to_le_bytes()))),
    ];

    let mut failures = 0;
    for (name, mutate) in &cases {
        let mut bytes = pristine.clone();
        mutate(&mut bytes);
        match read_binary_slice(&bytes) {
            Err(e @ IoError::ParseBytes(..)) => println!("{name}: rejected ({e})"),
            Err(e) => println!("{name}: rejected with unexpected error kind ({e})"),
            Ok(g) => {
                println!(
                    "{name}: ACCEPTED a corrupt file (n={}, m={})",
                    g.num_vertices(),
                    g.num_edges()
                );
                failures += 1;
            }
        }
    }
    // The range reader is a separate entry point with its own seek
    // arithmetic (used by the out-of-core sharded pipeline); exercise
    // its bounds, truncation and per-record checks too.
    let m = graph.num_edges() as u64;
    type RangeMutation = (&'static str, Box<dyn Fn(&mut Vec<u8>) -> (u64, u64)>);
    let range_cases: Vec<RangeMutation> = vec![
        ("range-out-of-bounds", Box::new(move |_b: &mut Vec<u8>| (0, m + 1))),
        (
            "range-truncated-payload",
            Box::new(move |b: &mut Vec<u8>| {
                b.truncate(b.len() - 3);
                (0, m)
            }),
        ),
        (
            "range-bad-edge",
            Box::new(|b: &mut Vec<u8>| {
                // Corrupt edge #5 into a self-loop, then request a window
                // containing it: the error must carry the edge's absolute
                // file offset even though decoding started mid-file.
                let off = 28 + 5 * 16;
                let u: [u8; 4] = b[off..off + 4].try_into().unwrap();
                b[off + 4..off + 8].copy_from_slice(&u);
                (4, 8)
            }),
        ),
    ];
    for (name, mutate) in &range_cases {
        let mut bytes = pristine.clone();
        let (lo, hi) = mutate(&mut bytes);
        match read_binary_range(&mut std::io::Cursor::new(&bytes), lo, hi) {
            Err(e @ IoError::ParseBytes(..)) => println!("{name}: rejected ({e})"),
            Err(e) => println!("{name}: rejected with unexpected error kind ({e})"),
            Ok(r) => {
                println!("{name}: ACCEPTED a corrupt range ({} edges)", r.edges.len());
                failures += 1;
            }
        }
    }

    if failures > 0 {
        return Err(format!("{failures} corruptions were accepted").into());
    }
    println!(
        "fuzz-ingest: all {} corruptions rejected",
        cases.len() + range_cases.len()
    );
    if fault_seeds > 0 {
        fault_sweep(&graph, &pristine, fault_seeds)?;
    }
    Ok(())
}

/// Seeded fault-injection sweep over the file-backed ingest paths: for
/// every seed, a read of a pristine file through the faulty reader must
/// either reproduce the pristine graph exactly or fail with a classified
/// `IoError`; a faulted [`BinaryFileWriter`] run must install a complete,
/// re-readable file or nothing at all. Any third outcome — a *wrong*
/// graph, a torn file under the destination name — fails the sweep.
///
/// [`BinaryFileWriter`]: llp_graph::io::BinaryFileWriter
fn fault_sweep(graph: &CsrGraph, pristine: &[u8], seeds: u64) -> Result<(), String> {
    use llp_runtime::faults;
    if !faults::compiled_in() {
        return Err(
            "--fault-seeds needs fault injection compiled in; rebuild with --features faults"
                .into(),
        );
    }
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let src = dir.join(format!("llp-fuzz-faults-{pid}.bin"));
    std::fs::write(&src, pristine).map_err(|e| e.to_string())?;

    let (mut clean, mut classified) = (0u64, 0u64);
    let mut run = || -> Result<(), String> {
        for seed in 1..=seeds {
            faults::set_seed(Some(seed));
            // Read leg: faulty reader over the pristine file.
            match llp_graph::io::read_binary_file(&src) {
                Ok(g) if g == *graph => clean += 1,
                Ok(g) => {
                    return Err(format!(
                        "seed {seed}: read produced a WRONG graph (n={}, m={}) \
                         instead of an error",
                        g.num_vertices(),
                        g.num_edges()
                    ))
                }
                Err(IoError::ParseBytes(..) | IoError::Io(..)) => classified += 1,
                Err(e) => return Err(format!("seed {seed}: unclassified error {e}")),
            }
            // Write leg: faulty writer must install completely or not at all.
            let dest = dir.join(format!("llp-fuzz-faults-{pid}-w{seed}.bin"));
            let wrote = llp_graph::io::BinaryFileWriter::create(&dest, graph.num_vertices())
                .and_then(|mut w| {
                    for e in graph.edges() {
                        w.write_edge(e)?;
                    }
                    w.finish()
                });
            match wrote {
                Ok(_) => {
                    let g = llp_graph::io::read_binary_file(&dest);
                    std::fs::remove_file(&dest).ok();
                    match g {
                        Ok(g) if g == *graph => clean += 1,
                        // The *read-back* itself ran under the seed and may
                        // fault; that is the read leg's territory, not a
                        // torn install.
                        Err(IoError::ParseBytes(..) | IoError::Io(..)) => classified += 1,
                        other => {
                            return Err(format!(
                                "seed {seed}: finished write read back wrong: {other:?}"
                            ))
                        }
                    }
                }
                Err(_) if dest.exists() => {
                    std::fs::remove_file(&dest).ok();
                    return Err(format!(
                        "seed {seed}: failed write left a file under the destination name"
                    ));
                }
                Err(_) => classified += 1,
            }
        }
        Ok(())
    };
    let result = run();
    faults::set_seed(None);
    std::fs::remove_file(&src).ok();
    result?;
    println!(
        "fault sweep: {seeds} seeds x 2 legs -> {clean} clean runs, \
         {classified} classified errors, 0 wrong answers"
    );
    Ok(())
}

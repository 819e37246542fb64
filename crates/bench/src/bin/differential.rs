//! `differential` — cross-algorithm differential tester under chaos
//! scheduling.
//!
//! ```text
//! differential sweep [options]     (default command)
//!   --families LIST   comma list of road,rmat,er,ba,rgg (default: road,rmat,er,ba)
//!   --gen-seeds LIST  comma list of generator seeds (default: 1,2)
//!   --chaos-seeds LIST comma list of chaos seeds (default: 1,2,3,4)
//!   --threads N       pool size per run (default: 4)
//!   --size N          approximate vertex count per graph (default: 4000)
//!
//! differential fault-matrix [options]   (requires --features faults)
//!   --fault-seeds LIST  comma list of LLP_FAULT_SEED values (default: 1..16)
//!   --threads N         pool size (default: 4)
//!   --size N            approximate vertex count (default: 4000)
//!   --seed N            generator seed (default: 42)
//!   --watchdog-secs N   hard wall-clock bound; exit 4 on expiry (default: 300)
//! ```
//!
//! `sweep` fans every algorithm in [`Algorithm::all`] across generator
//! families × generator seeds × chaos seeds, certifies every output with
//! the oracle-free near-linear certifier, and cross-checks that all
//! algorithms return the identical canonical edge set. On any failure it
//! reports the lexicographically minimal failing `(family, gen-seed,
//! chaos-seed)` triple — the smallest reproducer — and exits nonzero.
//!
//! Chaos perturbation requires the `chaos` cargo feature
//! (`cargo run --release --features chaos --bin differential`); without it
//! the sweep still runs and certifies, but the chaos seeds are inert and
//! the binary says so.
//!
//! `fault-matrix` is the robustness counterpart of `sweep`: instead of
//! perturbing schedules it injects I/O faults (short reads/writes,
//! `Interrupted`, `WouldBlock`, truncation, corruption, `ENOSPC`) via
//! `llp_runtime::faults` and sweeps the seeds across four legs — binary
//! ingest read, atomic-install write, the checkpointed sharded solver
//! (with a crash-resume re-run whenever the injected fault aborts it),
//! and a live query server driven by the retrying load generator with
//! every response verified against the local certified index. Every run
//! must end in a certified-correct result or a typed, classified error:
//! a wrong answer anywhere fails the matrix, and a watchdog thread turns
//! any hang into a hard exit. Without `--features faults` the command
//! refuses to run rather than green-lighting an inert matrix.

use llp_bench::{parse_count, parse_flag, run_algorithm, usage_error, Algorithm};
use llp_graph::algo::largest_component;
use llp_graph::generators::{
    barabasi_albert, erdos_renyi, random_geometric, rmat, road_network, RmatParams, RoadParams,
};
use llp_graph::io::{read_binary_file, write_binary, BinaryFileWriter};
use llp_graph::CsrGraph;
use llp_mst::certify::{certify_msf, certify_msf_par};
use llp_mst::prelude::{kruskal, sharded_msf_file, ShardedConfig, ShardedError};
use llp_runtime::{chaos, faults, ThreadPool};
use llp_serve::loadgen::{run_sweep, LoadgenConfig};
use llp_serve::protocol::{encode_queries, write_frame, Query};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::MsfService;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A generator family in the sweep, ordered as written on the command line
/// (the order used for minimal-reproducer ranking).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    Road,
    Rmat,
    Er,
    Ba,
    Rgg,
}

impl Family {
    fn parse(s: &str) -> Option<Family> {
        match s {
            "road" => Some(Family::Road),
            "rmat" => Some(Family::Rmat),
            "er" => Some(Family::Er),
            "ba" => Some(Family::Ba),
            "rgg" => Some(Family::Rgg),
            _ => None,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Family::Road => "road",
            Family::Rmat => "rmat",
            Family::Er => "er",
            Family::Ba => "ba",
            Family::Rgg => "rgg",
        }
    }

    /// Builds a connected graph of roughly `size` vertices. Families that
    /// do not guarantee connectivity are cut to their giant component so
    /// the Prim-family algorithms apply.
    fn build(&self, size: usize, seed: u64) -> CsrGraph {
        match self {
            Family::Road => {
                let side = (size as f64).sqrt().ceil() as usize;
                road_network(RoadParams::usa_like(side.max(2), side.max(2), seed))
            }
            Family::Rmat => {
                let scale = (usize::BITS - size.next_power_of_two().leading_zeros() - 1).max(4);
                largest_component(&rmat(RmatParams::graph500(scale, 8, seed)))
            }
            Family::Er => largest_component(&erdos_renyi(size, size * 4, seed)),
            Family::Ba => barabasi_albert(size, 3, seed),
            Family::Rgg => {
                // radius ~ sqrt(8/n) keeps the giant component near-total.
                let r = (8.0 / size as f64).sqrt();
                largest_component(&random_geometric(size, r, seed))
            }
        }
    }
}

struct Options {
    families: Vec<Family>,
    gen_seeds: Vec<u64>,
    chaos_seeds: Vec<u64>,
    fault_seeds: Vec<u64>,
    threads: usize,
    size: usize,
    seed: u64,
    watchdog_secs: u64,
}

fn parse_list(name: &str, v: &str) -> Vec<u64> {
    v.split(',').map(|s| parse_flag(name, s)).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("sweep") => ("sweep", &args[1..]),
        Some("fault-matrix") => ("fault-matrix", &args[1..]),
        Some(s) if s.starts_with("--") => ("sweep", &args[..]),
        None => ("sweep", &args[..]),
        Some(other) => usage_error(format_args!(
            "unknown command {other}; usage: differential [sweep|fault-matrix] [options]"
        )),
    };

    let mut opts = Options {
        families: vec![Family::Road, Family::Rmat, Family::Er, Family::Ba],
        gen_seeds: vec![1, 2],
        chaos_seeds: vec![1, 2, 3, 4],
        fault_seeds: (1..=16).collect(),
        threads: 4,
        size: 4000,
        seed: 42,
        watchdog_secs: 300,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage_error(format_args!("{name} needs a value")))
        };
        match flag.as_str() {
            "--families" => {
                let v = value("--families");
                opts.families = v
                    .split(',')
                    .map(|s| {
                        Family::parse(s.trim())
                            .unwrap_or_else(|| usage_error(format_args!("unknown family '{s}'")))
                    })
                    .collect();
            }
            "--gen-seeds" => opts.gen_seeds = parse_list("--gen-seeds", &value("--gen-seeds")),
            "--chaos-seeds" => {
                opts.chaos_seeds = parse_list("--chaos-seeds", &value("--chaos-seeds"))
            }
            "--fault-seeds" => {
                opts.fault_seeds = parse_list("--fault-seeds", &value("--fault-seeds"))
            }
            "--watchdog-secs" => {
                opts.watchdog_secs = parse_flag("--watchdog-secs", &value("--watchdog-secs"))
            }
            "--threads" => opts.threads = parse_count("--threads", &value("--threads")),
            "--size" => opts.size = parse_flag("--size", &value("--size")),
            "--seed" => opts.seed = parse_flag("--seed", &value("--seed")),
            other => usage_error(format_args!("unknown option {other}")),
        }
    }

    let failed = match command {
        "sweep" => sweep(&opts),
        _ => fault_matrix(&opts),
    };
    if failed {
        std::process::exit(1);
    }
}

/// One failing configuration, ordered for minimal-reproducer reporting.
struct Failure {
    family_rank: usize,
    family: Family,
    gen_seed: u64,
    chaos_seed: u64,
    algo: Algorithm,
    what: String,
}

fn sweep(opts: &Options) -> bool {
    if !chaos::compiled_in() {
        println!(
            "note: chaos feature not compiled in — chaos seeds are inert \
             (rebuild with --features chaos for schedule perturbation)"
        );
    }
    let pool = ThreadPool::new(opts.threads);
    let mut failures: Vec<Failure> = Vec::new();
    let mut runs = 0usize;

    for (family_rank, &family) in opts.families.iter().enumerate() {
        for &gen_seed in &opts.gen_seeds {
            let graph = family.build(opts.size, gen_seed);
            println!(
                "[{}/seed {}] n={} m={}",
                family.label(),
                gen_seed,
                graph.num_vertices(),
                graph.num_edges()
            );
            // Reference edge set: any certified run would do; use the
            // deterministic sequential Kruskal output, certified once.
            let reference = kruskal(&graph);
            if let Err(e) = certify_msf(&graph, &reference) {
                failures.push(Failure {
                    family_rank,
                    family,
                    gen_seed,
                    chaos_seed: 0,
                    algo: Algorithm::Kruskal,
                    what: format!("reference Kruskal run failed certification: {e}"),
                });
                continue;
            }
            let reference_keys = reference.canonical_keys();

            for &chaos_seed in &opts.chaos_seeds {
                chaos::set_seed(Some(chaos_seed));
                for &algo in Algorithm::all() {
                    runs += 1;
                    let result = run_algorithm(algo, &graph, 0, &pool);
                    let what = if let Err(e) = certify_msf_par(&graph, &result, &pool) {
                        Some(format!("certification failed: {e}"))
                    } else if result.canonical_keys() != reference_keys {
                        Some(format!(
                            "edge set diverges from reference ({} vs {} edges, \
                             weight {} vs {})",
                            result.edges.len(),
                            reference.edges.len(),
                            result.total_weight,
                            reference.total_weight
                        ))
                    } else {
                        None
                    };
                    if let Some(what) = what {
                        failures.push(Failure {
                            family_rank,
                            family,
                            gen_seed,
                            chaos_seed,
                            algo,
                            what,
                        });
                    }
                }
                chaos::set_seed(None);
            }
        }
    }

    if failures.is_empty() {
        println!(
            "OK: {} runs ({} algorithms x {} famil{} x {} gen seed{} x {} chaos seed{}) \
             all certified and agree",
            runs,
            Algorithm::all().len(),
            opts.families.len(),
            if opts.families.len() == 1 { "y" } else { "ies" },
            opts.gen_seeds.len(),
            if opts.gen_seeds.len() == 1 { "" } else { "s" },
            opts.chaos_seeds.len(),
            if opts.chaos_seeds.len() == 1 { "" } else { "s" },
        );
        return false;
    }

    failures.sort_by_key(|f| (f.family_rank, f.gen_seed, f.chaos_seed));
    let min = &failures[0];
    println!("FAIL: {} of {} runs failed", failures.len(), runs);
    println!(
        "minimal reproducer: --families {} --gen-seeds {} --chaos-seeds {}",
        min.family.label(),
        min.gen_seed,
        min.chaos_seed
    );
    println!("  algorithm: {}", min.algo.label());
    println!("  failure:   {}", min.what);
    if chaos::compiled_in() {
        println!("  rerun with LLP_CHAOS_SEED={} --features chaos", min.chaos_seed);
    }
    true
}

/// The seeded fault-injection matrix: every `(seed, leg)` cell must end
/// in a certified-correct result or a typed classified error — never a
/// wrong answer, never a hang. Returns true on failure (like `sweep`).
fn fault_matrix(opts: &Options) -> bool {
    if !faults::compiled_in() {
        eprintln!(
            "fault-matrix needs fault injection compiled in; rebuild with --features faults \
             (an inert matrix would prove nothing)"
        );
        return true;
    }
    faults::set_seed(None);

    // Watchdog: the never-hang guarantee is enforced, not assumed. Any
    // cell that wedges past the budget turns into a hard exit 4 — CI sees
    // a distinct code instead of a stuck job.
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        let budget = Duration::from_secs(opts.watchdog_secs);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            while t0.elapsed() < budget {
                std::thread::sleep(Duration::from_millis(200));
                if done.load(Ordering::Acquire) {
                    return;
                }
            }
            eprintln!(
                "fault-matrix: watchdog expired after {}s — a leg hung",
                budget.as_secs()
            );
            std::process::exit(4);
        });
    }

    let pool = ThreadPool::new(opts.threads);
    let graph = largest_component(&erdos_renyi(opts.size, opts.size * 4, opts.seed));
    println!(
        "fault matrix over n={} m={} ({} seeds x 4 legs, watchdog {}s)",
        graph.num_vertices(),
        graph.num_edges(),
        opts.fault_seeds.len(),
        opts.watchdog_secs
    );
    let reference = kruskal(&graph);
    certify_msf(&graph, &reference).expect("reference Kruskal run must certify");
    let reference_keys = reference.canonical_keys();

    // Pristine binary image, written with injection off.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let src = dir.join(format!("llp-fault-matrix-{pid}.bin"));
    let dest = dir.join(format!("llp-fault-matrix-{pid}-copy.bin"));
    let ck = dir.join(format!("llp-fault-matrix-{pid}.ck"));
    {
        let f = std::fs::File::create(&src).expect("temp graph file");
        write_binary(&graph, std::io::BufWriter::new(f)).expect("pristine write");
    }
    // Small shards so every sharded run crosses several checkpoint
    // boundaries — the resume path has real state to pick up.
    let shard_edges = (graph.num_edges() as usize / 4).max(1);

    // One live server for every serve-leg sweep; short deadlines so an
    // injected stall reaps in test time rather than the default 30 s.
    let service = Arc::new(MsfService::build(&graph, &pool).expect("service build"));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = {
        let service = Arc::clone(&service);
        let cfg = ServerConfig {
            workers: 2,
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            ..ServerConfig::default()
        };
        std::thread::spawn(move || run_server(listener, service, cfg))
    };

    let mut runs = 0usize;
    let mut clean = 0usize;
    let mut classified = 0usize;
    let mut total_retries = 0u64;
    let mut failures: Vec<String> = Vec::new();

    for &seed in &opts.fault_seeds {
        // Leg 1 — ingest read: the hardened reader either reconstructs
        // the exact graph or returns a typed IoError; a structurally
        // different Ok is a silent corruption escape.
        runs += 1;
        faults::set_seed(Some(seed));
        let read = read_binary_file(&src);
        faults::set_seed(None);
        match read {
            Ok(g) if g == graph => clean += 1,
            Ok(_) => failures.push(format!(
                "seed {seed} ingest-read: injection produced a WRONG graph that decoded cleanly"
            )),
            Err(_) => classified += 1,
        }

        // Leg 2 — ingest write: complete install or nothing. A failed
        // write must not leave anything under the destination name, and
        // an installed file must round-trip to the identical graph.
        runs += 1;
        let _ = std::fs::remove_file(&dest);
        faults::set_seed(Some(seed));
        let wrote = BinaryFileWriter::create(&dest, graph.num_vertices()).and_then(|mut w| {
            for e in graph.edges() {
                w.write_edge(e)?;
            }
            w.finish()
        });
        faults::set_seed(None);
        match wrote {
            Ok(_) => match read_binary_file(&dest) {
                Ok(g) if g == graph => clean += 1,
                Ok(_) => failures.push(format!(
                    "seed {seed} ingest-write: installed file decodes to a DIFFERENT graph"
                )),
                Err(e) => failures.push(format!(
                    "seed {seed} ingest-write: installed file unreadable with faults off: {e}"
                )),
            },
            Err(_) if dest.exists() => failures.push(format!(
                "seed {seed} ingest-write: failed write left a file under the destination name"
            )),
            Err(_) => classified += 1,
        }

        // Leg 3 — checkpointed sharded solve. An injected I/O fault plays
        // the crash; the fsync'd manifest must then resume the aborted
        // run to the identical certified forest with injection off.
        runs += 1;
        let _ = std::fs::remove_file(&ck);
        let cfg = ShardedConfig {
            shard_edges,
            certify: true,
            read_ahead: 1,
            checkpoint: Some(ck.clone()),
            stop_after_shards: None,
        };
        faults::set_seed(Some(seed));
        let sharded = sharded_msf_file(&src, &cfg, &pool);
        faults::set_seed(None);
        match sharded {
            Ok(run) if run.certified && run.result.canonical_keys() == reference_keys => {
                clean += 1
            }
            Ok(_) => failures.push(format!(
                "seed {seed} sharded: forest diverges from the reference under injection"
            )),
            // Corruption in the shard stream is detectable by
            // construction, so injection can only surface as Io; a
            // certifier rejection under injection is a genuinely wrong
            // forest that the fault merely exposed.
            Err(ShardedError::Verify(e)) => failures.push(format!(
                "seed {seed} sharded: WRONG forest (certifier rejection): {e}"
            )),
            Err(ShardedError::Interrupted { .. }) => failures.push(format!(
                "seed {seed} sharded: interrupted without stop_after_shards"
            )),
            Err(ShardedError::Io(_)) => {
                classified += 1;
                runs += 1;
                match sharded_msf_file(&src, &cfg, &pool) {
                    Ok(run) if run.certified
                        && run.result.canonical_keys() == reference_keys =>
                    {
                        clean += 1
                    }
                    Ok(_) => failures.push(format!(
                        "seed {seed} sharded-resume: resumed forest diverges from the reference"
                    )),
                    Err(e) => failures.push(format!(
                        "seed {seed} sharded-resume: clean resume after the injected crash \
                         failed: {e}"
                    )),
                }
            }
        }

        // Leg 4 — live server under socket faults: the retrying load
        // generator verifies EVERY response against the local certified
        // index. Divergence is a wrong answer; an exhausted retry budget
        // is a classified (loud) failure, not a correctness escape.
        runs += 1;
        faults::set_seed(Some(seed));
        let lg = LoadgenConfig {
            batches: vec![4, 64],
            queries_per_point: 200,
            seed,
        };
        let sweep = run_sweep(&addr, service.n as u32, &lg, Some(service.as_ref()));
        faults::set_seed(None);
        match sweep {
            Ok(points) => {
                total_retries += points.iter().map(|p| p.retries).sum::<u64>();
                clean += 1;
            }
            Err(e) if e.contains("diverges") => {
                failures.push(format!("seed {seed} serve: WRONG answer: {e}"))
            }
            Err(_) => classified += 1,
        }
    }

    // Injection is off: the shutdown frame cannot be eaten by a fault.
    let mut conn = TcpStream::connect(&addr).expect("shutdown connect");
    let mut payload = Vec::new();
    encode_queries(&[Query::Shutdown], &mut payload);
    write_frame(&mut conn, &payload).expect("shutdown frame");
    server.join().expect("server thread").expect("server run");

    for p in [&src, &dest, &ck] {
        let _ = std::fs::remove_file(p);
    }
    done.store(true, Ordering::Release);

    if failures.is_empty() {
        println!(
            "OK: fault matrix {} seeds x 4 legs -> {runs} runs, {clean} certified-clean, \
             {classified} classified errors, {total_retries} retries absorbed, 0 wrong answers",
            opts.fault_seeds.len()
        );
        return false;
    }
    println!("FAIL: {} of {runs} fault-matrix runs failed", failures.len());
    for f in &failures {
        println!("  {f}");
    }
    println!("rerun a cell with LLP_FAULT_SEED=<seed> --features faults");
    true
}

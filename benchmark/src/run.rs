//! One run of one workload: set-ups, a discarded warm-up round, then
//! round-robin rounds over every op until the time budget is spent, with
//! every output checked for correctness.
//!
//! A round runs each batch op once (each solver, certify, the out-of-core
//! solve, and in traced runs an index build), then a block of batch-1
//! frames, a block of batch-256 frames, the same batches answered
//! in-process (codec and answer costs without the socket) and a block of
//! dynamic epochs. The host's speed drifts within a process, so
//! interleaving puts every op under the same drift, every end-to-end
//! timing is scaled to the reference host by the gauges read next to it
//! (see [`crate::host`]), and reported values are medians (of
//! repetitions, or of nearest-rank tails taken per chunk of frames or per
//! window of epochs).

use crate::host::{at_reference, gauge_ms, Loopback, LOOPBACK_P50_REF_US, LOOPBACK_P99_REF_US};
use crate::stats;
use crate::trace::{self, Folded, Tracer};
use crate::workload::{self, Inputs, SetupTimes, Sizes, Workload};
use llp_graph::{CsrGraph, Edge};
use llp_mst::certify::certify_msf_par;
use llp_mst::dynamic::{DynamicMsf, EpochReport};
use llp_mst::filter_kruskal::filter_kruskal_par;
use llp_mst::index::PathMaxIndex;
use llp_mst::llp_boruvka::llp_boruvka;
use llp_mst::llp_prim::llp_prim_seq;
use llp_mst::parallel_boruvka::boruvka_par;
use llp_mst::prim::prim_lazy;
use llp_mst::sharded::{sharded_msf_file, ShardedConfig, ShardedRun};
use llp_mst::{AlgoStats, MstResult};
use llp_runtime::rng::SmallRng;
use llp_runtime::telemetry::{self, RunReport};
use llp_runtime::ThreadPool;
use llp_serve::protocol::{
    decode_queries, decode_responses, encode_queries, encode_responses, Query, Response,
};
use llp_serve::retry::{RetryPolicy, RetryingClient};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::MsfService;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time after the warm-up round; at least one round runs.
    pub seconds: f64,
    /// Also run every batch op traced and report per-layer metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory for the run's binary graph file.
    pub work_dir: PathBuf,
}

/// Everything a run measured.
pub struct Outcome {
    /// Every catalogue metric the run computed, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// End-to-end timings as measured, before scaling to the reference
    /// host.
    pub raw: BTreeMap<&'static str, f64>,
    /// `(samples, min, max)` behind each end-to-end timing metric.
    pub samples: BTreeMap<&'static str, (usize, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Latency tails backed by too few samples.
    pub warnings: Vec<String>,
    /// Measured rounds (warm-up excluded).
    pub rounds: usize,
    /// Largest attribution gap over all traced calls (see [`Folded`]).
    pub max_gap_frac: f64,
    /// The span log of a traced run.
    pub tracer: Option<Tracer>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Solver {
    Prim,
    LlpPrim,
    Boruvka,
    LlpBoruvka,
    FilterKruskal,
}

/// A call timed as one unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BatchOp {
    Solve(Solver),
    Certify,
    Index,
    Ooc,
}

const BATCH_OPS: [BatchOp; 8] = [
    BatchOp::Solve(Solver::Prim),
    BatchOp::Solve(Solver::LlpPrim),
    BatchOp::Solve(Solver::Boruvka),
    BatchOp::Solve(Solver::LlpBoruvka),
    BatchOp::Solve(Solver::FilterKruskal),
    BatchOp::Certify,
    BatchOp::Index,
    BatchOp::Ooc,
];

impl BatchOp {
    /// Metric prefix (`<name>_ms` end-to-end, `<name>.<phase>_ms` layers).
    fn name(self) -> &'static str {
        match self {
            BatchOp::Solve(Solver::Prim) => "prim",
            BatchOp::Solve(Solver::LlpPrim) => "llp_prim",
            BatchOp::Solve(Solver::Boruvka) => "boruvka",
            BatchOp::Solve(Solver::LlpBoruvka) => "llp_boruvka",
            BatchOp::Solve(Solver::FilterKruskal) => "filter_kruskal",
            BatchOp::Certify => "certify",
            BatchOp::Index => "index",
            BatchOp::Ooc => "ooc",
        }
    }
}

enum Output {
    Forest(MstResult),
    Certified,
    Index(PathMaxIndex),
    Ooc(ShardedRun),
}

/// One of the run's graphs, and what the batch ops read about it.
struct Instance {
    graph: CsrGraph,
    /// The graph's binary file: the out-of-core input.
    file: PathBuf,
    file_bytes: u64,
    /// LLP-Borůvka's certified forest: what every solver must reproduce.
    reference: MstResult,
    sharded: ShardedConfig,
}

fn exec(op: BatchOp, inst: &Instance, pool: &ThreadPool) -> Result<Output, String> {
    let g = &inst.graph;
    let forest =
        |r: Result<MstResult, llp_mst::MstError>| r.map(Output::Forest).map_err(|e| e.to_string());
    match op {
        BatchOp::Solve(Solver::Prim) => forest(prim_lazy(g, 0)),
        BatchOp::Solve(Solver::LlpPrim) => forest(llp_prim_seq(g, 0)),
        BatchOp::Solve(Solver::Boruvka) => Ok(Output::Forest(boruvka_par(g, pool))),
        BatchOp::Solve(Solver::LlpBoruvka) => Ok(Output::Forest(llp_boruvka(g, pool))),
        BatchOp::Solve(Solver::FilterKruskal) => Ok(Output::Forest(filter_kruskal_par(g, pool))),
        BatchOp::Certify => certify_msf_par(g, &inst.reference, pool)
            .map(|_| Output::Certified)
            .map_err(|e| e.to_string()),
        BatchOp::Index => PathMaxIndex::build_par(g.num_vertices(), &inst.reference, pool)
            .map(Output::Index)
            .map_err(|e| e.to_string()),
        BatchOp::Ooc => sharded_msf_file(&inst.file, &inst.sharded, pool)
            .map(Output::Ooc)
            .map_err(|e| e.to_string()),
    }
}

/// Same forest as the reference, up to summation order of the weight.
fn same_forest(got: &MstResult, want: &MstResult) -> Result<(), String> {
    let tol = 1e-9 * want.total_weight.abs().max(1.0);
    if got.edges.len() != want.edges.len() || (got.total_weight - want.total_weight).abs() > tol {
        return Err(format!(
            "forest of {} edges / weight {} differs from the reference's {} / {}",
            got.edges.len(),
            got.total_weight,
            want.edges.len(),
            want.total_weight
        ));
    }
    Ok(())
}

fn check(op: BatchOp, out: &Output, inst: &Instance) -> Result<(), String> {
    let r = match out {
        Output::Forest(f) => same_forest(f, &inst.reference),
        Output::Certified => Ok(()),
        Output::Index(ix) => {
            let want = inst.graph.num_vertices() - inst.reference.edges.len();
            if ix.num_components() == want {
                Ok(())
            } else {
                Err(format!(
                    "index has {} components, want {want}",
                    ix.num_components()
                ))
            }
        }
        Output::Ooc(run) if !run.certified => Err("out-of-core run was not certified".into()),
        Output::Ooc(run) => same_forest(&run.result, &inst.reference),
    };
    r.map_err(|e| format!("{}: {e}", op.name()))
}

/// Attempted/failed bookkeeping.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn record(&mut self, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.notes.len() < 8 {
                    self.notes.push(e);
                }
                false
            }
        }
    }
}

/// Named sample vectors.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, key: &str, v: f64) {
        self.0.entry(key.to_string()).or_default().push(v);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }

    fn median(&self, key: &str) -> f64 {
        stats::median(self.get(key))
    }
}

/// Samples a round's latency percentile must have beyond it.
const TAIL_SAMPLES: usize = 10;

/// Batch-1 frames per chunk: each chunk is followed by as many loopback
/// echoes, and its percentiles are scaled by theirs (a p99 of 1,000 has 10
/// samples beyond it).
const B1_CHUNK: usize = 1000;

/// Batch-256 frames generated, held and timed at once (~6 MB of queries).
const B256_CHUNK: usize = 1000;

/// Dynamic epochs timed between two gauge readings.
const EPOCH_BLOCK: usize = 10;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Draws a query over `n` vertices: 1/4 `component`, 1/2 `path_max`, 1/4
/// `connected_under` with λ the weight of a random tree edge (so the
/// threshold falls inside the graph's weight range whatever the family).
fn random_query(rng: &mut SmallRng, n: u32, lambdas: &[f64]) -> Query {
    let u = rng.gen_range(0..n);
    let v = rng.gen_range(0..n);
    match rng.gen_range(0..4u32) {
        0 => Query::Component(u),
        1 | 2 => Query::PathMax(u, v),
        _ => Query::ConnectedUnder(u, v, lambdas[rng.gen_range(0..lambdas.len())]),
    }
}

/// A server on loopback with one worker, and one client connection.
struct Rig {
    client: RetryingClient,
    server: JoinHandle<std::io::Result<usize>>,
}

impl Rig {
    fn start(service: &Arc<MsfService>, seed: u64) -> Result<Rig, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // Deadlines far beyond a round: the client idles while the batch
        // ops run and must not be reaped between serve blocks.
        let cfg = ServerConfig {
            workers: 1,
            read_timeout: Some(Duration::from_secs(600)),
            write_timeout: Some(Duration::from_secs(600)),
            ..ServerConfig::default()
        };
        let svc = Arc::clone(service);
        let server = std::thread::spawn(move || run_server(listener, svc, cfg));
        let client = RetryingClient::new(&addr.to_string(), RetryPolicy::default(), seed);
        Ok(Rig { client, server })
    }

    /// Sends `frames` one at a time, timing each round trip in µs.
    fn exchange_all(
        &mut self,
        frames: &[Vec<Query>],
        frame_us: &mut Vec<f64>,
    ) -> Result<Vec<Vec<Response>>, String> {
        let mut out = Vec::with_capacity(frames.len());
        for f in frames {
            let t = Instant::now();
            let r = self.client.exchange(f)?;
            frame_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.push(r);
        }
        Ok(out)
    }

    fn stop(mut self) -> Result<(), String> {
        let ack = self.client.exchange(&[Query::Shutdown])?;
        if ack != [Response::ShuttingDown] {
            return Err(format!("shutdown answered {ack:?}"));
        }
        match self.server.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Counts every frame of a serve block as one op, failed unless each of
/// its responses equals the service's own answer.
fn record_frames(
    tally: &mut Tally,
    svc: &MsfService,
    frames: &[Vec<Query>],
    got: Result<Vec<Vec<Response>>, String>,
) -> bool {
    let got = match got {
        Ok(got) => got,
        Err(e) => {
            let rest = frames.len().saturating_sub(1) as u64;
            tally.attempted += rest;
            tally.failed += rest;
            return tally.record(Err(format!("serve block: {e}")));
        }
    };
    let mut all = true;
    for (qs, rs) in frames.iter().zip(&got) {
        let verdict = qs.iter().zip(rs).try_for_each(|(q, r)| {
            let want = svc.answer(q);
            if *r == want {
                Ok(())
            } else {
                Err(format!(
                    "served {r:?} for {q:?}, the index answers {want:?}"
                ))
            }
        });
        all &= tally.record(verdict);
    }
    all
}

/// In-process costs of the batches a serve block sent: `answer_batch`,
/// the request+response encoders and the two decoders, ns per query.
fn in_process(svc: &MsfService, frames: &[Vec<Query>]) -> (f64, f64, f64) {
    let queries: usize = frames.iter().map(Vec::len).sum();
    let per_query = |t: Instant| t.elapsed().as_secs_f64() * 1e9 / queries as f64;

    let t = Instant::now();
    let answers: Vec<Vec<Response>> = frames.iter().map(|f| svc.answer_batch(f)).collect();
    let answer_ns = per_query(t);

    let (mut qbuf, mut rbuf) = (Vec::new(), Vec::new());
    let t = Instant::now();
    for (f, a) in frames.iter().zip(&answers) {
        encode_queries(f, &mut qbuf);
        encode_responses(a, &mut rbuf);
        black_box((&qbuf, &rbuf));
    }
    let encode_ns = per_query(t);

    let payloads: Vec<(Vec<u8>, Vec<u8>)> = frames
        .iter()
        .zip(&answers)
        .map(|(f, a)| {
            let (mut q, mut r) = (Vec::new(), Vec::new());
            encode_queries(f, &mut q);
            encode_responses(a, &mut r);
            (q, r)
        })
        .collect();
    let t = Instant::now();
    for ((q, r), f) in payloads.iter().zip(frames) {
        black_box(decode_queries(q).ok());
        black_box(decode_responses(r, f).ok());
    }
    let decode_ns = per_query(t);
    (answer_ns, encode_ns, decode_ns)
}

/// In-process cost of one batch-1 frame, µs: decode, answer and both
/// encodes, i.e. everything a served frame pays except the socket.
fn in_process_b1_us(svc: &MsfService, frames: &[Vec<Query>]) -> f64 {
    let (mut qbuf, mut rbuf) = (Vec::new(), Vec::new());
    let t = Instant::now();
    for f in frames {
        encode_queries(f, &mut qbuf);
        let qs = decode_queries(&qbuf).unwrap_or_default();
        let rs = svc.answer_batch(&qs);
        encode_responses(&rs, &mut rbuf);
        black_box(decode_responses(&rbuf, &qs).ok());
    }
    t.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64
}

/// Closed-loop update traffic: each epoch deletes `batch/2` random live
/// edges and re-inserts the previous epoch's deletes at weights drawn from
/// the graph's own. The graph is always the original minus one batch, so
/// every epoch sees the same kind of graph however many epochs a run
/// affords (with fresh random pairs as inserts, later epochs of a run got
/// ever slower, so the epoch metrics depended on how many rounds the
/// host's speed allowed).
struct Updates {
    rng: SmallRng,
    live: Vec<(u32, u32)>,
    /// The previous epoch's deletes, re-inserted by the next one.
    pending: Vec<(u32, u32)>,
    weights: Vec<f64>,
}

struct EpochSample {
    report: EpochReport,
    start: Instant,
    wall_ms: f64,
    /// `wall_ms` at the reference host's speed.
    norm_ms: f64,
    deletes: usize,
    tree_deletes: usize,
}

impl Updates {
    fn new(d: &DynamicMsf, seed: u64) -> Updates {
        let edges = d.current_edges();
        Updates {
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            live: edges.iter().map(Edge::canonical_endpoints).collect(),
            pending: Vec::new(),
            weights: edges.iter().map(|e| e.w).collect(),
        }
    }

    fn epoch(
        &mut self,
        d: &mut DynamicMsf,
        batch: usize,
        pool: &ThreadPool,
    ) -> Result<EpochSample, String> {
        let half = (batch / 2).min(self.live.len().saturating_sub(1));
        let deletes: Vec<(u32, u32)> = (0..half)
            .map(|_| {
                let i = self.rng.gen_range(0..self.live.len());
                self.live.swap_remove(i)
            })
            .collect();
        let inserts: Vec<Edge> = self
            .pending
            .iter()
            .map(|&(u, v)| {
                Edge::new(
                    u,
                    v,
                    self.weights[self.rng.gen_range(0..self.weights.len())],
                )
            })
            .collect();
        self.live.append(&mut self.pending);
        self.pending.clone_from(&deletes);
        let tree: HashSet<(u32, u32)> = d
            .msf()
            .edges
            .iter()
            .map(Edge::canonical_endpoints)
            .collect();
        let tree_deletes = deletes.iter().filter(|e| tree.contains(e)).count();

        let t = Instant::now();
        let report = d
            .apply_batch(&inserts, &deletes, pool)
            .map_err(|e| format!("dynamic epoch: {e}"))?;
        let wall_ms = ms(t);
        Ok(EpochSample {
            report,
            start: t,
            wall_ms,
            norm_ms: wall_ms,
            deletes: deletes.len(),
            tree_deletes,
        })
    }
}

/// Per-op accumulation of the traced calls.
#[derive(Default)]
struct TraceAcc {
    max_gap: f64,
    scratch_high_water: u64,
    heap_peak_len: u64,
}

impl TraceAcc {
    fn absorb(&mut self, report: &RunReport, folded: &Folded) {
        self.max_gap = self.max_gap.max(folded.gap_frac);
        for s in &report.series {
            match s.name.as_str() {
                "scratch-high-water-bytes" => {
                    self.scratch_high_water = self.scratch_high_water.max(s.max)
                }
                "heap-peak-len" => self.heap_peak_len = self.heap_peak_len.max(s.max),
                _ => {}
            }
        }
    }
}

/// Runs the workload. `Err` only when set-up itself fails; failures of
/// timed ops are counted in the outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    telemetry::set_enabled(false);
    let pool = ThreadPool::new(1);
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("{}: {e}", cfg.work_dir.display()))?;
    let file = cfg.work_dir.join(format!(
        "{}-{}-{}.bin",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let result = run_with_file(cfg, &pool, file.clone());
    let _ = std::fs::remove_file(&file);
    result
}

fn run_with_file(cfg: &Config, pool: &ThreadPool, file: PathBuf) -> Result<Outcome, String> {
    let sizes = &cfg.sizes;
    let mut tally = Tally::default();
    let mut s = Samples::default();

    // ---- Set-up, several times: `setup_s` is the median. The last one
    // is kept for the rounds.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..sizes.setups.max(1) {
        drop(inputs.take());
        let before = gauge_ms();
        let (i, t) = workload::setup(cfg.workload, sizes, &file, pool)?;
        let after = gauge_ms();
        tally.attempted += 1;
        s.push("setup_s", at_reference(t.total_s, before, after));
        s.push("raw.setup_s", t.total_s);
        setups.push(t);
        inputs = Some(i);
    }
    let Inputs {
        graph,
        file_bytes,
        service,
        mut dynamic,
    } = inputs.expect("at least one set-up ran");

    // ---- Warm-up round (discarded): the reference forest, each solver's
    // output certified, and exact work counters.
    let reference = llp_boruvka(&graph, pool);
    certify_msf_par(&graph, &reference, pool).map_err(|e| format!("reference forest: {e}"))?;
    let inst = Instance {
        sharded: ShardedConfig {
            shard_edges: graph.num_edges().div_ceil(8).max(1),
            certify: true,
            ..ShardedConfig::default()
        },
        graph,
        file,
        file_bytes,
        reference,
    };
    let mut counters: BTreeMap<&'static str, AlgoStats> = BTreeMap::new();
    let mut ooc_counts = (0u64, 0u64);
    let mut reps = [1usize; BATCH_OPS.len()];
    for (op, reps) in BATCH_OPS.into_iter().zip(&mut reps) {
        let t = Instant::now();
        let out = exec(op, &inst, pool);
        *reps = (sizes.op_ms_per_round / ms(t)).round().max(1.0) as usize;
        let ok = out.and_then(|out| {
            check(op, &out, &inst)?;
            match &out {
                Output::Forest(f) => {
                    certify_msf_par(&inst.graph, f, pool)
                        .map_err(|e| format!("{}: {e}", op.name()))?;
                    counters.insert(op.name(), f.stats);
                }
                Output::Ooc(run) => ooc_counts = (run.candidate_edges, run.filtered_edges),
                _ => {}
            }
            Ok(())
        });
        tally.record(ok);
    }

    let n = inst.graph.num_vertices() as u32;
    let lambdas: Vec<f64> = inst.reference.edges.iter().map(|e| e.w).collect();
    let mut qrng = SmallRng::seed_from_u64(cfg.seed ^ 0x005e_ed0f_9e4e);
    let frames = |count: usize, batch: usize, rng: &mut SmallRng| -> Vec<Vec<Query>> {
        (0..count)
            .map(|_| (0..batch).map(|_| random_query(rng, n, &lambdas)).collect())
            .collect()
    };
    let mut loopback = Loopback::start()?;
    let mut rig = Rig::start(&service, cfg.seed)?;
    let mut discard = Vec::new();
    for (count, batch) in [(sizes.b1_frames / 10, 1), (sizes.b256_frames / 10, 256)] {
        let warm = frames(count.max(1), batch, &mut qrng);
        let got = rig.exchange_all(&warm, &mut discard);
        record_frames(&mut tally, &service, &warm, got);
    }
    let mut updates = Updates::new(&dynamic, cfg.seed);
    let mut dynamic_ok = true;
    for _ in 0..2 {
        let r = updates.epoch(&mut dynamic, sizes.batch, pool).map(|_| ());
        dynamic_ok &= tally.record(r);
    }

    // ---- Measured rounds. Latency tails are taken per chunk of frames
    // (epoch tails per window of epochs) and the median is reported: a host
    // hiccup then costs one chunk's tail instead of setting the tail of the
    // whole run. A round starts only if it can end within the time budget
    // at the pace of the last one.
    let mut tracer = cfg.trace.then(Tracer::default);
    let mut acc = TraceAcc::default();
    let mut epochs: Vec<EpochSample> = Vec::new();
    let mut thin_tails: Vec<(&'static str, usize, f64)> = Vec::new();
    let mut tail = |name: &'static str, sample: &[f64], p: f64| -> f64 {
        if stats::beyond(sample.len(), p) < TAIL_SAMPLES && !thin_tails.iter().any(|t| t.0 == name)
        {
            thin_tails.push((name, sample.len(), p));
        }
        stats::percentile(&stats::sorted(sample), p)
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let mut last_round = Duration::ZERO;
    let mut rounds = 0usize;
    let (mut frame_us, mut echo_us) = (Vec::new(), Vec::new());
    while rounds == 0 || start.elapsed() + last_round <= budget {
        let round_start = Instant::now();
        rounds += 1;
        let ops = BATCH_OPS.into_iter().zip(reps);
        for op in ops.flat_map(|(op, n)| std::iter::repeat_n(op, n)) {
            // The index build is a layer of certify, timed for the trace.
            if op == BatchOp::Index && !cfg.trace {
                continue;
            }
            let before = gauge_ms();
            let t = Instant::now();
            let out = exec(op, &inst, pool);
            let wall = ms(t);
            let after = gauge_ms();
            if tally.record(out.and_then(|o| check(op, &o, &inst))) {
                s.push(op.name(), at_reference(wall, before, after));
                s.push(&format!("raw.{}", op.name()), wall);
            }
            if let Some(tracer) = tracer.as_mut() {
                let start = Instant::now();
                let (out, wall, report) = trace::traced(|| exec(op, &inst, pool));
                if tally.record(out.and_then(|o| check(op, &o, &inst))) {
                    let folded = trace::fold(op.name(), wall, &report);
                    acc.absorb(&report, &folded);
                    tracer.record(op.name(), start, wall, Some(&folded));
                    s.push(&format!("traced.{}", op.name()), wall);
                    for (metric, v) in &folded.self_ms {
                        s.push(&format!("{}.{metric}_ms", op.name()), *v);
                    }
                    s.push(
                        &format!("{}.unattributed_ms", op.name()),
                        folded.unattributed_ms,
                    );
                }
            }
        }

        // Each chunk of batch-1 frames is followed by as many bare loopback
        // round trips, which read the host's socket speed at that moment.
        let b1 = frames(sizes.b1_frames, 1, &mut qrng);
        for chunk in b1.chunks(B1_CHUNK) {
            frame_us.clear();
            echo_us.clear();
            let got = rig.exchange_all(chunk, &mut frame_us);
            let served = record_frames(&mut tally, &service, chunk, got);
            let echoed = tally.record(loopback.round_trips(chunk.len(), &mut echo_us));
            if !(served && echoed) {
                break;
            }
            let p50 = tail("b1_p50_us", &frame_us, 50.0);
            let p99 = tail("b1_p99_us", &frame_us, 99.0);
            let echo = stats::sorted(&echo_us);
            let echo_p50 = stats::percentile(&echo, 50.0);
            let echo_p99 = stats::percentile(&echo, 99.0);
            s.push("b1_p50_us", p50 * LOOPBACK_P50_REF_US / echo_p50);
            s.push("b1_p99_us", p99 * LOOPBACK_P99_REF_US / echo_p99);
            s.push("raw.b1_p50_us", p50);
            s.push("raw.b1_p99_us", p99);
        }
        if cfg.trace {
            s.push("b1_inproc_us", in_process_b1_us(&service, &b1));
        }

        // Batch-256 frames are generated, sent and checked a chunk at a
        // time, so the benchmark's own buffers stay small next to the
        // system's memory that `peak_heap_mb` is about.
        let mut sent = 0usize;
        let mut chunk = Vec::new();
        while sent < sizes.b256_frames {
            let count = B256_CHUNK.min(sizes.b256_frames - sent);
            chunk = frames(count, 256, &mut qrng);
            let before = gauge_ms();
            let t = Instant::now();
            let got = rig.exchange_all(&chunk, &mut discard);
            let wall_s = t.elapsed().as_secs_f64();
            let after = gauge_ms();
            discard.clear();
            sent += count;
            if !record_frames(&mut tally, &service, &chunk, got) {
                break;
            }
            let qps = (count * 256) as f64 / wall_s;
            s.push(
                "b256_qps",
                (count * 256) as f64 / at_reference(wall_s, before, after),
            );
            s.push("raw.b256_qps", qps);
        }
        if cfg.trace {
            let (answer, encode, decode) = in_process(&service, &chunk);
            s.push("service.answer_ns_per_query", answer);
            s.push("protocol.encode_ns_per_query", encode);
            s.push("protocol.decode_ns_per_query", decode);
        }

        let mut left = sizes.epochs_per_round;
        while dynamic_ok && left > 0 {
            let block = left.min(EPOCH_BLOCK);
            left -= block;
            let first = epochs.len();
            let before = gauge_ms();
            for _ in 0..block {
                match updates.epoch(&mut dynamic, sizes.batch, pool) {
                    Ok(e) => {
                        tally.record(Ok(()));
                        if let Some(tracer) = tracer.as_mut() {
                            tracer.record("dynamic.epoch", e.start, e.wall_ms, None);
                        }
                        epochs.push(e);
                    }
                    Err(e) => {
                        dynamic_ok = tally.record(Err(e));
                        break;
                    }
                }
            }
            let after = gauge_ms();
            for e in &mut epochs[first..] {
                e.norm_ms = at_reference(e.wall_ms, before, after);
            }
        }
        last_round = round_start.elapsed();
    }
    // Epoch tails over windows of consecutive epochs that span rounds, so
    // a round affords more repetitions of everything else. Windows overlap
    // by half: a run holds only 5–8 disjoint ones.
    let step = (sizes.epoch_window / 2).max(1);
    for (key, ms_of) in [
        (
            "epoch_p90_ms",
            (|e: &EpochSample| e.norm_ms) as fn(&EpochSample) -> f64,
        ),
        ("raw.epoch_p90_ms", |e| e.wall_ms),
    ] {
        let epoch_ms: Vec<f64> = epochs.iter().map(ms_of).collect();
        for window in epoch_ms.windows(sizes.epoch_window).step_by(step) {
            let p90 = tail("epoch_p90_ms", window, 90.0);
            s.push(key, p90);
        }
    }
    let retries = rig.client.retries;
    tally.record(rig.stop());
    tally.record(loopback.stop());

    // ---- Metrics.
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        values.insert(name, v);
    };
    let mut sample_info = |name: &'static str, v: &[f64]| {
        let sorted = stats::sorted(v);
        samples.insert(
            name,
            (
                v.len(),
                sorted.first().copied().unwrap_or(f64::NAN),
                sorted.last().copied().unwrap_or(f64::NAN),
            ),
        );
    };

    for (key, ms_of) in [
        (
            "updates_per_s",
            (|e: &EpochSample| e.norm_ms) as fn(&EpochSample) -> f64,
        ),
        ("raw.updates_per_s", |e| e.wall_ms),
    ] {
        let rates = epochs
            .iter()
            .map(|e| e.report.updates() as f64 / (ms_of(e) / 1e3))
            .collect();
        s.0.insert(key.into(), rates);
    }
    let mut raw: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, key) in [
        ("setup_s", "setup_s"),
        ("prim_ms", "prim"),
        ("llp_prim_ms", "llp_prim"),
        ("boruvka_ms", "boruvka"),
        ("llp_boruvka_ms", "llp_boruvka"),
        ("filter_kruskal_ms", "filter_kruskal"),
        ("certify_ms", "certify"),
        ("ooc_ms", "ooc"),
        ("b1_p50_us", "b1_p50_us"),
        ("b1_p99_us", "b1_p99_us"),
        ("b256_qps", "b256_qps"),
        ("updates_per_s", "updates_per_s"),
        ("epoch_p90_ms", "epoch_p90_ms"),
    ] {
        put(metric, s.median(key));
        sample_info(metric, s.get(key));
        raw.insert(metric, s.median(&format!("raw.{key}")));
    }
    put(
        "peak_heap_mb",
        crate::alloc::peak_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64),
    );
    let warnings: Vec<String> = thin_tails
        .iter()
        .map(|&(name, n, p)| {
            let supported = stats::highest_supported(n, &[50.0, 90.0, 95.0, 99.0], TAIL_SAMPLES);
            format!(
                "{name}: p{p} of {n} samples has fewer than {TAIL_SAMPLES} beyond it; \
                 the highest that does is {supported:?}"
            )
        })
        .collect();

    // Per-layer metrics are as measured: they carry no bound.
    // Per-layer: set-up steps.
    let setup_median =
        |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    put("graph.generate_ms", setup_median(|t| t.generate_ms));
    put(
        "graph.largest_component_ms",
        setup_median(|t| t.largest_component_ms),
    );
    put("graph.write_binary_ms", setup_median(|t| t.write_binary_ms));
    put("graph.read_binary_ms", setup_median(|t| t.read_binary_ms));
    put("service.build_msf_ms", setup_median(|t| t.service.msf_ms));
    put(
        "service.build_index_ms",
        setup_median(|t| t.service.index_ms),
    );
    put(
        "service.build_certify_ms",
        setup_median(|t| t.service.certify_ms),
    );

    // Per-layer: exact work counters of the untraced warm-up calls.
    let stat = |op: &str| counters.get(op).copied().unwrap_or_default();
    put("prim.edges_scanned", stat("prim").edges_scanned as f64);
    put("prim.heap_ops", stat("prim").heap_ops() as f64);
    put(
        "llp_prim.edges_scanned",
        stat("llp_prim").edges_scanned as f64,
    );
    put("llp_prim.heap_ops", stat("llp_prim").heap_ops() as f64);
    put(
        "llp_prim.early_fix_frac",
        stat("llp_prim").early_fixes as f64 / inst.graph.num_vertices() as f64,
    );
    put(
        "boruvka.edges_scanned",
        stat("boruvka").edges_scanned as f64,
    );
    put("boruvka.rounds", stat("boruvka").rounds as f64);
    put("boruvka.atomic_rmw", stat("boruvka").atomic_rmw as f64);
    put(
        "llp_boruvka.edges_scanned",
        stat("llp_boruvka").edges_scanned as f64,
    );
    put("llp_boruvka.rounds", stat("llp_boruvka").rounds as f64);
    put(
        "llp_boruvka.pointer_jumps",
        stat("llp_boruvka").pointer_jumps as f64,
    );
    put(
        "filter_kruskal.edges_scanned",
        stat("filter_kruskal").edges_scanned as f64,
    );
    put(
        "filter_kruskal.rounds",
        stat("filter_kruskal").rounds as f64,
    );
    put("index.build_ms", s.median("raw.index"));
    put("ooc.candidate_edges", ooc_counts.0 as f64);
    put(
        "ooc.filtered_frac",
        ooc_counts.1 as f64 / ooc_counts.0.max(1) as f64,
    );
    put(
        "ooc.stream_mb_per_s",
        2.0 * inst.file_bytes as f64 / (1 << 20) as f64 / (s.median("raw.ooc") / 1e3),
    );

    // Per-layer: serve (the in-process costs are measured in traced runs).
    if cfg.trace {
        for name in [
            "service.answer_ns_per_query",
            "protocol.encode_ns_per_query",
            "protocol.decode_ns_per_query",
        ] {
            put(name, s.median(name));
        }
        put(
            "server.wire_us_b1",
            s.median("raw.b1_p50_us") - s.median("b1_inproc_us"),
        );
    }
    put("retry.retries", retries as f64);

    // Per-layer: dynamic epochs.
    let epoch_median =
        |f: &dyn Fn(&EpochSample) -> f64| stats::median(&epochs.iter().map(f).collect::<Vec<_>>());
    put(
        "dynamic.classify_ms",
        epoch_median(&|e| e.report.classify_ms),
    );
    put("dynamic.rebuild_ms", epoch_median(&|e| e.report.rebuild_ms));
    put("dynamic.index_ms", epoch_median(&|e| e.report.index_ms));
    put("dynamic.certify_ms", epoch_median(&|e| e.report.certify_ms));
    put(
        "dynamic.unattributed_ms",
        epoch_median(&|e| {
            let r = &e.report;
            e.wall_ms - (r.classify_ms + r.rebuild_ms + r.index_ms + r.certify_ms)
        }),
    );
    let sum = |f: &dyn Fn(&EpochSample) -> usize| epochs.iter().map(f).sum::<usize>() as f64;
    put(
        "dynamic.fast_path_frac",
        sum(&|e| e.report.fast_swaps + e.report.fast_rejects)
            / sum(&|e| e.report.inserts_applied).max(1.0),
    );
    put(
        "dynamic.tree_delete_frac",
        sum(&|e| e.tree_deletes) / sum(&|e| e.deletes).max(1.0),
    );
    put(
        "dynamic.dirty_components",
        epoch_median(&|e| e.report.dirty_components as f64),
    );
    put(
        "dynamic.rebuild_edges",
        epoch_median(&|e| e.report.rebuild_edges as f64),
    );
    put("dynamic.links", epoch_median(&|e| e.report.links as f64));

    // Per-layer: the traced calls.
    if cfg.trace {
        for op in BATCH_OPS {
            for p in trace::phases(op.name()) {
                let key = format!("{}.{}_ms", op.name(), p.metric);
                if let Some(m) = crate::metrics::find(&key) {
                    put(m.name, s.median(&key));
                }
            }
            let key = format!("{}.unattributed_ms", op.name());
            if let Some(m) = crate::metrics::find(&key) {
                put(m.name, s.median(&key));
            }
        }
        let (mut traced, mut untraced) = (0.0, 0.0);
        for op in BATCH_OPS {
            traced += s.median(&format!("traced.{}", op.name()));
            untraced += s.median(&format!("raw.{}", op.name()));
        }
        put("trace.overhead_frac", traced / untraced - 1.0);
        put(
            "runtime.scratch_high_water_mb",
            acc.scratch_high_water as f64 / (1 << 20) as f64,
        );
        put("runtime.heap_peak_len", acc.heap_peak_len as f64);
    }

    Ok(Outcome {
        values,
        raw,
        samples,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.notes,
        warnings,
        rounds,
        max_gap_frac: acc.max_gap,
        tracer,
    })
}

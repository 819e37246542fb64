//! Out-of-core sharded Borůvka: certified MSF over graphs bigger than
//! RAM.
//!
//! Every other backend in this crate materializes the full edge list.
//! This module computes the canonical MSF of a graph stored in the binary
//! on-disk format while holding only a bounded number of edges resident,
//! following the Borůvka shape of Sanders & Schimek's massively parallel
//! MST engineering (partition edges → contract locally → merge):
//!
//! 1. **Shard.** The edge file is cut into fixed-size record ranges and
//!    streamed through [`llp_graph::io::read_binary_range`] by a reader
//!    thread, with at most two shards resident at once.
//! 2. **Contract locally.** Each shard's touched vertices are densely
//!    renumbered in ascending global order (a monotone relabeling keeps
//!    the local [`llp_graph::EdgeKey`] order isomorphic to the global
//!    one, so the local canonical MSF is the canonical restriction even
//!    under duplicate weights), then run to exhaustion through the
//!    flat-memory contraction engine
//!    ([`crate::contraction::Contraction`]), reusing one scratch arena
//!    across shards. At most `n_shard − 1` candidate edges survive per
//!    shard.
//! 3. **Merge.** The shard's candidates (key-sorted) are two-pointer merged
//!    with the accumulated forest into a Kruskal scan over a fresh
//!    union-find: `MSF(A ∪ B) = MSF(MSF(A) ∪ MSF(B))` under the strict
//!    key order, so the accumulator is always the canonical MSF of every
//!    edge streamed so far — an accumulated edge can still be evicted by
//!    a lighter edge from a later shard. There is no cross-shard filter:
//!    every candidate reaches the merge scan, which discards the ones that
//!    close a cycle.
//!
//! The optional certification pass re-streams the file and checks every
//! record against a [`PathMaxIndex`] of the final forest — the same cycle
//! property sweep as [`crate::certify::certify_msf_par`], run over each
//! shard's edge slice by the edge-slice certifier the dynamic MSF uses,
//! without ever building an in-RAM [`CsrGraph`]. Violations are
//! classified exactly like the in-RAM certifier. Tree-edge presence is
//! matched-degree accounting: each record that realises its own path
//! maximum takes one off both endpoints' forest degree, and all-zero
//! counters prove every tree edge present. Only when a counter ends
//! non-zero (a raw file's repeated tree-edge record, or a tree edge the
//! file lacks) is the file streamed a third time to name the absent edge.

use crate::certify::SliceCertifier;
use crate::contraction::Contraction;
use crate::index::PathMaxIndex;
use crate::result::MstResult;
use crate::stats::AlgoStats;
use crate::union_find::UnionFind;
use crate::verify::VerifyError;
use llp_graph::io::{
    faulty_reader, install_durably, read_binary_range, tmp_path, write_binary, IoError,
};
use llp_graph::{CsrGraph, Edge, EdgeKey};
use llp_runtime::sort::par_sort_by_key;
use llp_runtime::{telemetry, ParallelForConfig, ScratchArena, ThreadPool};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};

/// Tuning knobs for [`sharded_msf_file`].
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Maximum edge records per shard. The build's transient memory is
    /// roughly `64 B × shard_edges` (contraction buffers) plus the one
    /// read-ahead shard at 16 B per record.
    pub shard_edges: usize,
    /// Re-stream the file after the build and certify the result
    /// end-to-end against a [`PathMaxIndex`] of the forest.
    pub certify: bool,
    /// Crash-safe checkpointing: after every completed shard the
    /// accumulated forest and stream position are written to this path
    /// (tmp + fsync + atomic rename), and a later run against the same
    /// file resumes from the last completed shard instead of byte zero.
    /// A missing, torn or mismatched manifest is ignored (fresh start);
    /// the manifest is removed once a run fully succeeds.
    pub checkpoint: Option<PathBuf>,
    /// Deterministic interruption for tests and the fault matrix: stop
    /// with [`ShardedError::Interrupted`] once this many shards are
    /// complete (checkpoint already durable), as if the process had been
    /// killed at the cleanest possible instant.
    pub stop_after_shards: Option<usize>,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shard_edges: 1 << 24,
            certify: true,
            checkpoint: None,
            stop_after_shards: None,
        }
    }
}

/// Everything a run produced, for reports and gates.
#[derive(Debug)]
pub struct ShardedRun {
    /// Vertex count from the file header.
    pub num_vertices: usize,
    /// Edge records in the file (the raw multiset, pre-dedup).
    pub num_edges: u64,
    /// Shards the file was cut into.
    pub shards: usize,
    /// The canonical minimum spanning forest.
    pub result: MstResult,
    /// Whether the certification pass ran (and therefore passed — a
    /// failed certification is an error, never a silent flag).
    pub certified: bool,
    /// Local MSF candidates produced by per-shard contraction.
    pub candidate_edges: u64,
    /// Candidates discarded by a cross-shard filter before the merge
    /// scan. Always 0: the solver has no such filter, and the field keeps
    /// the report shape stable.
    pub filtered_edges: u64,
    /// `Some(s)` when the run resumed from a checkpoint with `s` shards
    /// already complete (so only `shards - s` were processed here).
    pub resumed_from: Option<usize>,
}

/// A sharded run failed: either the file is unreadable/corrupt, or the
/// certification pass rejected the forest.
#[derive(Debug)]
pub enum ShardedError {
    /// Reading or parsing the binary edge file failed.
    Io(IoError),
    /// The certification sweep rejected the computed forest.
    Verify(VerifyError),
    /// The run stopped at a configured shard boundary
    /// ([`ShardedConfig::stop_after_shards`]) with a durable checkpoint;
    /// re-running with the same checkpoint path picks up from here.
    Interrupted {
        /// Shards complete (and checkpointed) when the run stopped.
        shards_done: usize,
        /// Total shards the file cuts into.
        shards_total: usize,
    },
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedError::Io(e) => write!(f, "sharded msf: {e}"),
            ShardedError::Verify(e) => write!(f, "sharded msf failed certification: {e}"),
            ShardedError::Interrupted {
                shards_done,
                shards_total,
            } => write!(
                f,
                "sharded msf interrupted at shard {shards_done}/{shards_total} \
                 (checkpoint durable; re-run to resume)"
            ),
        }
    }
}

impl std::error::Error for ShardedError {}

impl From<IoError> for ShardedError {
    fn from(e: IoError) -> Self {
        ShardedError::Io(e)
    }
}

impl From<VerifyError> for ShardedError {
    fn from(e: VerifyError) -> Self {
        ShardedError::Verify(e)
    }
}

/// Spawns a reader thread streaming the file's shards in order through a
/// bounded channel: at most one shard queues ahead of the one the
/// consumer holds. The reader owns its own file handle, so disk
/// latency overlaps shard `s`'s compute with shard `s+1`'s read.
fn stream_shards(
    path: &Path,
    total_edges: u64,
    shard_edges: usize,
    start_edge: u64,
) -> Receiver<Result<Vec<Edge>, IoError>> {
    let (tx, rx) = sync_channel(1);
    let path: PathBuf = path.to_path_buf();
    let step = shard_edges.max(1) as u64;
    std::thread::spawn(move || {
        // The stream runs through the seeded fault injector (site
        // `sharded.reader`): under an active fault seed this thread sees
        // short reads, transient errors, sticky truncation and detectable
        // corruption, all of which surface to the consumer as classified
        // IoErrors through the same channel as real disk failures.
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => faulty_reader(f, "sharded.reader"),
            Err(e) => {
                let _ = tx.send(Err(IoError::Io(e)));
                return;
            }
        };
        let mut lo = start_edge;
        while lo < total_edges {
            let hi = (lo + step).min(total_edges);
            // Rewind: the range reader validates header + length at the
            // current position on every call.
            let res = std::io::Seek::seek(&mut file, std::io::SeekFrom::Start(0))
                .map_err(IoError::Io)
                .and_then(|_| read_binary_range(&mut file, lo, hi))
                .map(|r| r.edges);
            let failed = res.is_err();
            if tx.send(res).is_err() || failed {
                return; // consumer gone, or nothing sane follows an error
            }
            lo = hi;
        }
    });
    rx
}

/// Checkpoint manifest magic: format version baked into the last byte.
const CKPT_MAGIC: &[u8; 8] = b"LLPCKPT\x01";

/// State recovered from (or about to be persisted as) a checkpoint
/// manifest: the accumulated canonical forest after `shards_done` shards,
/// plus the running counter the final report carries. The manifest also
/// keeps a filtered-edge word, always written as 0 and ignored on load.
struct Checkpoint {
    shards_done: u64,
    candidate_edges: u64,
    acc: Vec<Edge>,
}

/// FNV-1a over the manifest body, so a torn checkpoint write (the
/// non-atomic failure mode the tmp+rename dance already makes near
/// impossible) is detected rather than resumed from.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// Serializes and durably installs the checkpoint: body to `<path>.tmp`,
/// then [`install_durably`]'s fsync, atomic rename over `path` and
/// parent-directory fsync (best effort). After this returns, a kill at
/// any instant leaves either the previous complete manifest or this one
/// — never a torn hybrid.
fn write_checkpoint(
    path: &Path,
    file_bytes: u64,
    n: u64,
    m: u64,
    shard_edges: u64,
    ck: &Checkpoint,
) -> Result<(), IoError> {
    let mut buf = Vec::with_capacity(80 + ck.acc.len() * 16);
    buf.extend_from_slice(CKPT_MAGIC);
    for v in [
        file_bytes,
        n,
        m,
        shard_edges,
        ck.shards_done,
        ck.candidate_edges,
        0, // filtered edges
        ck.acc.len() as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for e in &ck.acc {
        buf.extend_from_slice(&e.u.to_le_bytes());
        buf.extend_from_slice(&e.v.to_le_bytes());
        buf.extend_from_slice(&e.w.to_le_bytes());
    }
    let sum = fnv64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());

    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    std::io::Write::write_all(&mut f, &buf)?;
    install_durably(f, &tmp, path)?;
    Ok(())
}

/// Loads and validates a checkpoint manifest against the run it is about
/// to resume. Returns `None` — a silent fresh start — when the file is
/// missing, torn (bad magic/length/checksum), describes a different
/// source file or shard size, or carries records the validators reject.
/// A checkpoint can make a run *skip* work, never trust bad state.
fn load_checkpoint(
    path: &Path,
    file_bytes: u64,
    n: u64,
    m: u64,
    shard_edges: u64,
) -> Option<Checkpoint> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < 80 || &bytes[..8] != CKPT_MAGIC {
        return None;
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    if fnv64(body) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(body[8 + i * 8..16 + i * 8].try_into().unwrap());
    if word(0) != file_bytes || word(1) != n || word(2) != m || word(3) != shard_edges {
        return None; // a different file, or different shard geometry
    }
    let shards_done = word(4);
    let acc_len = word(7);
    if shards_done > m.div_ceil(shard_edges.max(1)) || acc_len >= n.max(1) {
        return None; // more shards/forest edges than the file can have
    }
    if body.len() as u64 != 72 + acc_len * 16 {
        return None;
    }
    let mut acc = Vec::with_capacity(acc_len as usize);
    let mut prev_key: Option<EdgeKey> = None;
    for i in 0..acc_len as usize {
        let rec = &body[72 + i * 16..72 + (i + 1) * 16];
        let u = u32::from_le_bytes(rec[0..4].try_into().unwrap());
        let v = u32::from_le_bytes(rec[4..8].try_into().unwrap());
        let w = f64::from_le_bytes(rec[8..16].try_into().unwrap());
        let e = Edge::new(u, v, w);
        // The accumulator is a key-sorted forest over [0, n): anything
        // else is corruption that slipped past the checksum.
        if (u as u64) >= n || (v as u64) >= n || u == v || !w.is_finite() {
            return None;
        }
        if prev_key.is_some_and(|p| p >= e.key()) {
            return None;
        }
        prev_key = Some(e.key());
        acc.push(e);
    }
    Some(Checkpoint {
        shards_done,
        candidate_edges: word(5),
        acc,
    })
}

/// Dense ascending renumbering of the vertices a shard touches, reusable
/// across shards: a vertex bitmap over the global id space plus a
/// per-word popcount prefix, so `global → local` is one word load, a
/// mask and a popcount. Ascending order makes the relabeling monotone.
struct ShardRemap {
    bits: Vec<u64>,
    prefix: Vec<u32>,
    /// `local → global`, ascending.
    locals: Vec<u32>,
}

impl ShardRemap {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        ShardRemap {
            bits: vec![0; words],
            prefix: vec![0; words],
            locals: Vec::new(),
        }
    }

    /// Marks both endpoints of every edge, builds the rank structure and
    /// returns the number of distinct vertices in the shard.
    fn build(&mut self, edges: &[Edge]) -> usize {
        self.bits.fill(0);
        for e in edges {
            self.bits[(e.u >> 6) as usize] |= 1u64 << (e.u & 63);
            self.bits[(e.v >> 6) as usize] |= 1u64 << (e.v & 63);
        }
        let mut running = 0u32;
        self.locals.clear();
        for (wi, &word) in self.bits.iter().enumerate() {
            self.prefix[wi] = running;
            let mut rest = word;
            while rest != 0 {
                let bit = rest.trailing_zeros();
                self.locals.push((wi as u32) << 6 | bit);
                rest &= rest - 1;
            }
            running += word.count_ones();
        }
        running as usize
    }

    #[inline]
    fn local(&self, g: u32) -> u32 {
        let word = self.bits[(g >> 6) as usize];
        self.prefix[(g >> 6) as usize] + (word & ((1u64 << (g & 63)) - 1)).count_ones()
    }
}

/// Computes the certified canonical MSF of a binary edge file without
/// ever materializing the whole edge list. See the module docs for the
/// algorithm; see [`ShardedConfig`] for the memory knobs.
pub fn sharded_msf_file(
    path: &Path,
    cfg: &ShardedConfig,
    pool: &ThreadPool,
) -> Result<ShardedRun, ShardedError> {
    let (n, m) = {
        let mut f = faulty_reader(std::fs::File::open(path).map_err(IoError::Io)?, "sharded.probe");
        let probe = read_binary_range(&mut f, 0, 0)?;
        (probe.num_vertices, probe.total_edges)
    };
    let file_bytes = std::fs::metadata(path).map_err(IoError::Io)?.len();
    let shard_edges = cfg.shard_edges.max(1);
    let shards = m.div_ceil(shard_edges as u64) as usize;
    let par = ParallelForConfig::with_grain(512);

    let mut stats = AlgoStats::default();
    let mut acc: Vec<Edge> = Vec::new();
    let mut arena = ScratchArena::new();
    let mut remap = ShardRemap::new(n);
    let mut candidate_edges = 0u64;

    // Resume: adopt a durable checkpoint's forest and counter. The
    // accumulator is the whole state the remaining shards merge into.
    let mut start_shard = 0usize;
    let mut resumed_from = None;
    if let Some(ck_path) = &cfg.checkpoint {
        if let Some(ck) = load_checkpoint(ck_path, file_bytes, n as u64, m, shard_edges as u64) {
            acc = ck.acc;
            candidate_edges = ck.candidate_edges;
            start_shard = ck.shards_done as usize;
            resumed_from = Some(start_shard);
            telemetry::counter_add("sharded-resumes", 1);
        }
    }

    {
        let _s = telemetry::span("sharded-build");
        let rx = stream_shards(path, m, shard_edges, start_shard as u64 * shard_edges as u64);
        for s in start_shard..shards {
            let mut edges = {
                let _s = telemetry::span("sharded-build-read");
                rx.recv().expect("shard reader hung up")?
            };

            // Contract the shard locally under the monotone dense relabel.
            let contract = telemetry::span("sharded-build-contract");
            let n_local = remap.build(&edges);
            for e in edges.iter_mut() {
                e.u = remap.local(e.u);
                e.v = remap.local(e.v);
            }
            let mut c = Contraction::from_edge_list(n_local, edges);
            c.arena = std::mem::replace(&mut arena, ScratchArena::new());
            while !c.is_done() {
                c.round(pool, par, &mut stats);
            }
            c.arena.report_telemetry();
            let mut cand = std::mem::take(&mut c.chosen);
            arena = std::mem::replace(&mut c.arena, ScratchArena::new());
            drop(c);
            for e in cand.iter_mut() {
                e.u = remap.locals[e.u as usize];
                e.v = remap.locals[e.v as usize];
            }
            candidate_edges += cand.len() as u64;
            drop(contract);

            {
                let _s = telemetry::span("sharded-build-sort");
                par_sort_by_key(pool, &mut cand, &ScratchArena::new(), Edge::key);
            }

            // Merge-scan the two key-sorted forests through a fresh
            // union-find: the Kruskal scan over MSF(acc) ∪ MSF(shard)
            // yields MSF(acc ∪ shard).
            let merge = telemetry::span("sharded-build-merge");
            let mut uf = UnionFind::new(n);
            let mut merged = Vec::with_capacity(acc.len() + cand.len());
            let (mut i, mut j) = (0, 0);
            while i < acc.len() || j < cand.len() {
                let take_acc = j >= cand.len()
                    || (i < acc.len() && acc[i].key() <= cand[j].key());
                let e = if take_acc {
                    let e = acc[i];
                    i += 1;
                    e
                } else {
                    let e = cand[j];
                    j += 1;
                    e
                };
                if uf.union(e.u, e.v) {
                    merged.push(e);
                }
            }
            acc = merged;
            drop(merge);

            // Durable progress: after this returns, a kill anywhere up to
            // the next boundary resumes from shard s+1.
            if let Some(ck_path) = &cfg.checkpoint {
                let ck = Checkpoint {
                    shards_done: s as u64 + 1,
                    candidate_edges,
                    acc: std::mem::take(&mut acc),
                };
                write_checkpoint(ck_path, file_bytes, n as u64, m, shard_edges as u64, &ck)?;
                acc = ck.acc;
            }
            if cfg.stop_after_shards.is_some_and(|k| s + 1 >= k) && s + 1 < shards {
                return Err(ShardedError::Interrupted {
                    shards_done: s + 1,
                    shards_total: shards,
                });
            }
        }
    }

    telemetry::counter_add("sharded-shards", shards as u64);
    telemetry::counter_add("sharded-candidates", candidate_edges);
    let result = MstResult::from_edges(n, acc, stats);

    if cfg.certify {
        let _s = telemetry::span("sharded-certify");
        certify_streaming(path, m, &result, cfg, pool)?;
    }

    // The run is complete (and certified, if asked): the manifest has
    // served its purpose and must not shadow a future run over a
    // rewritten file of identical size.
    if let Some(ck_path) = &cfg.checkpoint {
        let _ = std::fs::remove_file(ck_path);
    }

    Ok(ShardedRun {
        num_vertices: n,
        num_edges: m,
        shards,
        result,
        certified: cfg.certify,
        candidate_edges,
        filtered_edges: 0,
        resumed_from,
    })
}

/// Re-streams the file and certifies `result` as its canonical MSF: one
/// [`SliceCertifier`] fed shard by shard instead of a CSR sweep. Every
/// record must not beat the path maximum between its endpoints (the
/// witness is the smallest-key violating record of the whole file), and
/// every tree edge must be matched by some record. Matched-degree
/// counters settle presence in the sweep; only when one ends non-zero is
/// the file streamed once more, to name the first tree edge of
/// `result.edges` that no record matches (telemetry counter
/// `sharded-certify-restreams`).
fn certify_streaming(
    path: &Path,
    total_edges: u64,
    result: &MstResult,
    cfg: &ShardedConfig,
    pool: &ThreadPool,
) -> Result<(), ShardedError> {
    let n = {
        // The forest never names a vertex the header does not cover, but
        // the index must be built over the file's full vertex set.
        let mut f = faulty_reader(std::fs::File::open(path).map_err(IoError::Io)?, "sharded.probe");
        read_binary_range(&mut f, 0, 0)?.num_vertices
    };
    let index = {
        let _s = telemetry::span("sharded-certify-index");
        PathMaxIndex::build_par(n, result, pool)?
    };
    let shard_edges = cfg.shard_edges.max(1);
    let shards = total_edges.div_ceil(shard_edges as u64);
    let par = ParallelForConfig::with_grain(2048);

    let mut check = SliceCertifier::new(&index, result);
    let rx = stream_shards(path, total_edges, shard_edges, 0);
    for _ in 0..shards {
        let edges = {
            let _s = telemetry::span("sharded-certify-read");
            rx.recv().expect("shard reader hung up")?
        };
        let _s = telemetry::span("sharded-certify-sweep");
        check.sweep(&edges, pool, par);
    }
    check.finish(result, |mark| {
        telemetry::counter_add("sharded-certify-restreams", 1);
        let rx = stream_shards(path, total_edges, shard_edges, 0);
        for _ in 0..shards {
            mark(&rx.recv().expect("shard reader hung up")?);
        }
        Ok(())
    })
}

/// In-RAM convenience used by the bench harness, sweeps and tests: writes
/// `graph` to a temporary binary file, runs the sharded backend over it
/// (certified) and returns the forest. Panics if the run fails — callers
/// hold a well-formed in-RAM graph, so any failure is a bug.
pub fn sharded_msf_graph(graph: &CsrGraph, shard_edges: usize, pool: &ThreadPool) -> MstResult {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "llp-sharded-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let run = (|| -> Result<ShardedRun, ShardedError> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).map_err(IoError::Io)?);
        write_binary(graph, &mut w).map_err(IoError::Io)?;
        std::io::Write::flush(&mut w).map_err(IoError::Io)?;
        drop(w);
        let cfg = ShardedConfig {
            shard_edges,
            ..ShardedConfig::default()
        };
        sharded_msf_file(&path, &cfg, pool)
    })();
    let _ = std::fs::remove_file(&path);
    run.expect("sharded msf over an in-RAM graph").result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify_edges;
    use crate::filter_kruskal::filter_kruskal_par;
    use crate::kruskal::kruskal;
    use crate::verify::reference_certify;
    use llp_graph::generators::{erdos_renyi, random_geometric, rmat, road_network};
    use llp_graph::generators::{RmatParams, RoadParams};
    use llp_graph::io::BinaryFileWriter;
    use llp_graph::samples::fig1;
    use llp_runtime::rng::SmallRng;

    fn pool() -> ThreadPool {
        ThreadPool::new(3)
    }

    #[test]
    fn matches_kruskal_on_fig1_at_every_shard_size() {
        let g = fig1();
        let keys = kruskal(&g).canonical_keys();
        let pool = pool();
        for shard_edges in [1, 2, 3, g.num_edges()] {
            let r = sharded_msf_graph(&g, shard_edges, &pool);
            assert_eq!(r.canonical_keys(), keys, "shard_edges {shard_edges}");
        }
    }

    #[test]
    fn matches_reference_across_generator_families() {
        let pool = pool();
        for (name, g) in [
            ("er", erdos_renyi(300, 1200, 7)),
            ("er-sparse", erdos_renyi(200, 120, 3)),
            ("geom", random_geometric(150, 0.15, 5)),
            ("road", road_network(RoadParams::usa_like(12, 12, 9))),
            ("rmat", rmat(RmatParams::graph500(9, 8, 1))),
        ] {
            let want = filter_kruskal_par(&g, &pool).canonical_keys();
            let got = sharded_msf_graph(&g, 257, &pool);
            assert_eq!(got.canonical_keys(), want, "{name}");
        }
    }

    #[test]
    fn multi_shard_runs_count_every_shards_priority_writes() {
        // Every sharded round is edge-centric: on one thread, exactly two
        // priority writes per edge scanned, summed over all shards.
        let g = erdos_renyi(300, 1200, 7);
        let shard_edges = 257;
        assert!(g.num_edges().div_ceil(shard_edges) >= 3);
        let stats = sharded_msf_graph(&g, shard_edges, &ThreadPool::new(1)).stats;
        assert!(stats.edges_scanned > g.num_edges() as u64);
        assert_eq!(stats.atomic_rmw, 2 * stats.edges_scanned);
    }

    #[test]
    fn file_run_reports_shape_and_certifies() {
        let g = erdos_renyi(400, 1600, 21);
        let path = std::env::temp_dir().join(format!("llp-sharded-test-{}.bin", std::process::id()));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        write_binary(&g, &mut w).unwrap();
        std::io::Write::flush(&mut w).unwrap();
        drop(w);
        let pool = pool();
        let cfg = ShardedConfig {
            shard_edges: 100,
            certify: true,
            ..ShardedConfig::default()
        };
        let run = sharded_msf_file(&path, &cfg, &pool).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(run.num_vertices, 400);
        assert_eq!(run.num_edges, g.num_edges() as u64);
        assert_eq!(run.shards, g.num_edges().div_ceil(100));
        assert!(run.certified);
        assert!(run.result.stats.rounds > 0);
        assert_eq!(
            run.result.canonical_keys(),
            kruskal(&g).canonical_keys()
        );
    }

    #[test]
    fn certification_rejects_a_corrupted_file_not_matching_the_forest() {
        // Build a forest over one file, then certify it against a file
        // whose lightest record was made even lighter: the forest is no
        // longer minimum for the file, and the streaming sweep must say
        // so with a cut violation.
        let g = erdos_renyi(120, 500, 2);
        let pool = pool();
        let path = std::env::temp_dir().join(format!("llp-sharded-bad-{}.bin", std::process::id()));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        write_binary(&g, &mut w).unwrap();
        std::io::Write::flush(&mut w).unwrap();
        drop(w);
        let cfg = ShardedConfig {
            shard_edges: 64,
            certify: false,
            ..ShardedConfig::default()
        };
        let run = sharded_msf_file(&path, &cfg, &pool).unwrap();

        // Rewrite one non-tree record strictly lighter than every weight.
        let tree: std::collections::HashSet<(u32, u32)> = run
            .result
            .edges
            .iter()
            .map(|e| (e.u.min(e.v), e.u.max(e.v)))
            .collect();
        let victim = g
            .edges()
            .position(|e| !tree.contains(&(e.u.min(e.v), e.u.max(e.v))))
            .expect("a non-tree edge exists");
        let mut bytes = std::fs::read(&path).unwrap();
        let off = 28 + victim * 16 + 8;
        bytes[off..off + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let err = certify_streaming(&path, run.num_edges, &run.result, &cfg, &pool).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(
            matches!(err, ShardedError::Verify(VerifyError::CutViolation(_))),
            "{err}"
        );
    }

    fn write_graph_file(g: &CsrGraph, tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "llp-sharded-{tag}-{}.bin",
            std::process::id()
        ));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        write_binary(g, &mut w).unwrap();
        std::io::Write::flush(&mut w).unwrap();
        path
    }

    /// Writes a raw record multiset (repeats and either orientation kept)
    /// as a binary file.
    fn write_records(n: usize, records: &[Edge], tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("llp-sharded-{tag}-{}.bin", std::process::id()));
        let mut w = BinaryFileWriter::create(&path, n).unwrap();
        w.write_edges(records).unwrap();
        w.finish().unwrap();
        path
    }

    /// `m` random records over `n` vertices in random orientation, with
    /// weights from {1, 2, 3, 4} when `ties`, and one record in three
    /// repeated verbatim when `repeats`.
    fn raw_records(seed: u64, n: usize, m: usize, ties: bool, repeats: bool) -> Vec<Edge> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(m + m / 2);
        for _ in 0..m {
            let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if u == v {
                continue;
            }
            let w = if ties {
                rng.gen_range(1u32..5) as f64
            } else {
                rng.gen::<f64>()
            };
            out.push(Edge { u, v, w });
            if repeats && rng.gen_range(0u32..3) == 0 {
                out.push(Edge { u, v, w });
            }
        }
        out
    }

    #[test]
    fn streamed_certifier_agrees_with_certify_edges() {
        // `certify_streaming` and `certify_edges` run the same edge-slice
        // certifier, one shard at a time and over one slice: on the same
        // records they must return exactly the naive reference's `Result`,
        // witness included, for the genuine forest and every mutation of
        // the forest or the file, at every shard size.
        let _serial = llp_runtime::test_serial_lock();
        let pool = pool();
        for seed in 0..6u64 {
            for (kind, n, records) in [
                ("tie-heavy", 60, raw_records(seed, 60, 200, true, false)),
                ("disconnected", 80, raw_records(seed, 80, 50, false, false)),
                (
                    "verbatim-duplicate",
                    50,
                    raw_records(seed, 50, 150, true, true),
                ),
            ] {
                let msf = kruskal(&CsrGraph::from_edges(n, &records));
                let t = msf.edges.len();
                assert!(t >= 2, "{kind}/{seed}: forest too small to mutate");
                let (i, j) = (seed as usize % t, (seed as usize + 1) % t);
                let (a, b) = (msf.edges[i], msf.edges[j]);
                let record_of = |e: Edge| *records.iter().find(|r| r.key() == e.key()).unwrap();

                let mut repeat_absent: Vec<Edge> = records
                    .iter()
                    .filter(|r| r.key() != a.key())
                    .copied()
                    .collect();
                repeat_absent.push(record_of(b));
                let mut duplicated = records.clone();
                duplicated.extend(msf.edges.iter().map(|&e| record_of(e)));
                let mut reversed = records.clone();
                reversed.extend(msf.edges.iter().step_by(3).map(|&e| {
                    let r = record_of(e);
                    Edge {
                        u: r.v,
                        v: r.u,
                        w: r.w,
                    }
                }));

                let forest = |f: &dyn Fn(&mut Vec<Edge>)| {
                    let mut e = msf.edges.clone();
                    f(&mut e);
                    MstResult::from_edges(n, e, AlgoStats::default())
                };
                let forests = [
                    ("genuine", msf.clone()),
                    (
                        "drop",
                        forest(&|e| {
                            e.remove(i);
                        }),
                    ),
                    ("heavier", forest(&|e| e[i].w += 0.5)),
                    ("cycle", forest(&|e| e.push(e[i]))),
                    ("foreign", forest(&|e| e[i].w -= 0.5)),
                ];
                for (file, recs) in [
                    ("as generated", &records),
                    ("repeat+absent", &repeat_absent),
                    ("duplicate-only", &duplicated),
                    ("reversed duplicate", &reversed),
                ] {
                    let path = write_records(n, recs, "agree");
                    for (what, f) in &forests {
                        let via_edges = PathMaxIndex::build_par(n, f, &pool)
                            .and_then(|index| certify_edges(recs, f, &index, &pool));
                        for shard_edges in [1, 7, recs.len()] {
                            let cfg = ShardedConfig {
                                shard_edges,
                                ..ShardedConfig::default()
                            };
                            let streamed =
                                certify_streaming(&path, recs.len() as u64, f, &cfg, &pool)
                                    .map_err(|e| match e {
                                        ShardedError::Verify(v) => v,
                                        other => panic!("{kind}/{seed}/{file}/{what}: {other}"),
                                    });
                            assert_eq!(
                                streamed, via_edges,
                                "{kind}/{seed}/{file}/{what}, {shard_edges} per shard"
                            );
                        }
                        let want = reference_certify(n, recs, f);
                        let at = format!("{kind}/{seed}/{file}/{what}");
                        match *what {
                            "genuine" if file == "repeat+absent" => {
                                assert_eq!(want, Err(VerifyError::ForeignEdge(a)), "{at}")
                            }
                            "genuine" => assert_eq!(want, Ok(()), "{at}"),
                            _ if file == "as generated" => assert!(want.is_err(), "{at}: accepted"),
                            _ => {}
                        }
                        assert_eq!(via_edges, want, "{at}");
                    }
                    std::fs::remove_file(&path).unwrap();
                }
            }
        }
    }

    #[test]
    fn certify_restreams_only_when_a_counter_ends_non_zero() {
        // The presence counters settle a duplicate-free file in the sweep;
        // a repeated tree-edge record sends the certifier back over the
        // file exactly once. A cold path that always ran would fail here.
        let _serial = llp_runtime::test_serial_lock();
        let pool = pool();
        let restreams = |path: &Path| {
            let was = telemetry::enabled();
            telemetry::set_enabled(true);
            telemetry::begin_run();
            let cfg = ShardedConfig {
                shard_edges: 100,
                ..ShardedConfig::default()
            };
            let run = sharded_msf_file(path, &cfg, &pool);
            let report = telemetry::take_report();
            telemetry::set_enabled(was);
            assert!(run.unwrap().certified);
            report
                .counters
                .iter()
                .find(|(name, _)| name == "sharded-certify-restreams")
                .map_or(0, |&(_, c)| c)
        };
        let g = erdos_renyi(300, 1200, 41);
        let path = write_graph_file(&g, "restream");
        assert_eq!(restreams(&path), 0, "duplicate-free file");
        std::fs::remove_file(&path).unwrap();

        let mut records: Vec<Edge> = g.edges().collect();
        let tree = kruskal(&g).edges[0];
        let copy = *records.iter().find(|r| r.key() == tree.key()).unwrap();
        records.push(copy);
        let path = write_records(g.num_vertices(), &records, "restream-dup");
        assert_eq!(restreams(&path), 1, "one tree edge recorded twice");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interrupted_run_resumes_bit_identical() {
        let g = erdos_renyi(300, 1500, 17);
        let path = write_graph_file(&g, "ckpt");
        let ck = path.with_extension("ckpt");
        let pool = pool();
        let base = ShardedConfig {
            shard_edges: 128,
            certify: true,
            checkpoint: Some(ck.clone()),
            stop_after_shards: None,
        };
        let uninterrupted = sharded_msf_file(&path, &base, &pool).unwrap();
        assert!(uninterrupted.resumed_from.is_none());
        assert!(!ck.exists(), "successful run must remove its checkpoint");

        // Interrupt at every boundary; resume must certify and match the
        // uninterrupted forest bit for bit.
        let shards = uninterrupted.shards;
        for stop in [1, shards / 2, shards - 1] {
            let mut cfg = base.clone();
            cfg.stop_after_shards = Some(stop);
            let err = sharded_msf_file(&path, &cfg, &pool).unwrap_err();
            match err {
                ShardedError::Interrupted {
                    shards_done,
                    shards_total,
                } => {
                    assert_eq!(shards_done, stop);
                    assert_eq!(shards_total, shards);
                }
                other => panic!("expected Interrupted, got {other}"),
            }
            assert!(ck.exists(), "interrupted run must leave its checkpoint");

            let resumed = sharded_msf_file(&path, &base, &pool).unwrap();
            assert_eq!(resumed.resumed_from, Some(stop), "stop {stop}");
            assert!(resumed.certified);
            assert_eq!(
                resumed.result.edges, uninterrupted.result.edges,
                "stop {stop}: resumed forest must be bit-identical"
            );
            assert_eq!(resumed.candidate_edges, uninterrupted.candidate_edges);
            assert_eq!(resumed.filtered_edges, uninterrupted.filtered_edges);
            assert!(!ck.exists());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_or_mismatched_checkpoint_falls_back_to_fresh_start() {
        let g = erdos_renyi(200, 900, 23);
        let path = write_graph_file(&g, "ckpt-torn");
        let ck = path.with_extension("ckpt");
        let pool = pool();
        let base = ShardedConfig {
            shard_edges: 100,
            certify: true,
            checkpoint: Some(ck.clone()),
            stop_after_shards: None,
        };
        let want = sharded_msf_file(&path, &base, &pool).unwrap();

        // Leave a real checkpoint behind, then tamper with it.
        let mut cfg = base.clone();
        cfg.stop_after_shards = Some(2);
        sharded_msf_file(&path, &cfg, &pool).unwrap_err();
        let pristine = std::fs::read(&ck).unwrap();

        // (a) torn tail: checksum fails.
        std::fs::write(&ck, &pristine[..pristine.len() - 5]).unwrap();
        let r = sharded_msf_file(&path, &base, &pool).unwrap();
        assert!(r.resumed_from.is_none(), "torn checkpoint must be ignored");
        assert_eq!(r.result.edges, want.result.edges);

        // (b) flipped byte inside the forest: checksum fails.
        sharded_msf_file(&path, &cfg, &pool).unwrap_err();
        let mut bad = std::fs::read(&ck).unwrap();
        let mid = 72 + 4;
        bad[mid] ^= 0x40;
        std::fs::write(&ck, &bad).unwrap();
        let r = sharded_msf_file(&path, &base, &pool).unwrap();
        assert!(r.resumed_from.is_none());
        assert_eq!(r.result.edges, want.result.edges);

        // (c) shard-geometry mismatch: a valid manifest for different
        // shard_edges must not be adopted.
        sharded_msf_file(&path, &cfg, &pool).unwrap_err();
        let mut other = base.clone();
        other.shard_edges = 150;
        let r = sharded_msf_file(&path, &other, &pool).unwrap();
        assert!(r.resumed_from.is_none(), "geometry mismatch must be ignored");
        assert_eq!(r.result.canonical_keys(), want.result.canonical_keys());

        let _ = std::fs::remove_file(&ck);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_survives_process_style_reuse_of_completed_manifest() {
        // A checkpoint claiming *all* shards done: the resumed run should
        // skip straight to certification and still succeed.
        let g = erdos_renyi(150, 600, 31);
        let path = write_graph_file(&g, "ckpt-done");
        let ck = path.with_extension("ckpt");
        let pool = pool();
        let shards = (g.num_edges() as u64).div_ceil(100) as usize;
        let base = ShardedConfig {
            shard_edges: 100,
            certify: true,
            checkpoint: Some(ck.clone()),
            stop_after_shards: None,
        };
        let mut cfg = base.clone();
        // stop_after_shards == shards means no interruption (the guard
        // only fires strictly before the last shard).
        cfg.stop_after_shards = Some(shards);
        let full = sharded_msf_file(&path, &cfg, &pool).unwrap();
        assert!(full.certified);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_edgeless_files_work() {
        let pool = pool();
        for n in [0usize, 5] {
            let g = CsrGraph::empty(n);
            let r = sharded_msf_graph(&g, 8, &pool);
            assert!(r.edges.is_empty());
            assert_eq!(r.num_trees, n);
        }
    }
}

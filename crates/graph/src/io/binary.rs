//! Fast little-endian binary graph format, for caching generated workloads
//! and feeding long-running services.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   8 bytes  b"LLPGRAPH"
//! version u32      1
//! n       u64
//! m       u64      undirected edge count
//! m × (u: u32, v: u32, w: f64)
//! ```
//!
//! ## Untrusted input
//!
//! Readers never trust the header: a corrupt or adversarial file cannot
//! force a multi-gigabyte allocation or a panic. The vertex count is
//! bounded by the `u32` id space, edge-buffer pre-allocation is capped
//! until the claimed `m` has been proven against the input's actual length
//! ([`read_binary_slice`] / [`read_binary_seek`] check `m × 16` bytes
//! against the remaining input up front; the plain [`read_binary`]
//! streaming path grows the buffer only as edges really arrive), and every
//! violation — truncation, out-of-range endpoints, self-loops, non-finite
//! weights — fails with [`IoError::ParseBytes`] naming the byte offset and
//! edge ordinal where it happened.
//!
//! [`read_binary_range`] reads a contiguous record range without building
//! a graph (for out-of-core sharding), and [`BinaryWriter`] streams a file
//! out in bounded chunks (for generators too big to materialize).

use super::{check_vertex_count, check_weight, IoError, PREALLOC_EDGES};
use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::edge::Edge;
use llp_runtime::faults::{self, Faulty};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"LLPGRAPH";
const VERSION: u32 = 1;

/// Fixed header size: magic (8) + version (4) + n (8) + m (8).
const HEADER_BYTES: u64 = 28;
/// On-disk size of one edge record: `u: u32, v: u32, w: f64`.
const EDGE_BYTES: u64 = 16;

/// Writes the graph in binary form.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut w: W) -> std::io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(graph.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_edges() as u64).to_le_bytes())?;
    for e in graph.edges() {
        w.write_all(&e.u.to_le_bytes())?;
        w.write_all(&e.v.to_le_bytes())?;
        w.write_all(&e.w.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a graph written by [`write_binary`] from a plain byte stream.
///
/// Streaming: the claimed edge count cannot be checked against an input
/// length, so pre-allocation is capped and truncation surfaces as a
/// [`IoError::ParseBytes`] naming the edge where the stream ended. Prefer
/// [`read_binary_slice`] / [`read_binary_seek`] when the input's length is
/// knowable — they reject a lying header before reading any edge.
pub fn read_binary<R: Read>(r: R) -> Result<CsrGraph, IoError> {
    read_binary_impl(r, None)
}

/// [`read_binary`] over an in-memory slice: the header's claimed `m` is
/// validated against `buf.len()` (exactly `28 + 16·m` bytes, no trailing
/// garbage) before any allocation or edge decoding.
pub fn read_binary_slice(buf: &[u8]) -> Result<CsrGraph, IoError> {
    read_binary_impl(buf, Some(buf.len() as u64))
}

/// [`read_binary`] over a seekable reader (e.g. a [`std::fs::File`]): the
/// header is read and validated at the reader's **current** position
/// first; only then is the remaining input length measured (one seek to
/// the end and back) and checked against the claimed `m`, exactly like
/// [`read_binary_slice`]. Header violations therefore surface at their
/// own byte offsets even when the reader starts at a nonzero offset or
/// its end cannot be measured at all.
pub fn read_binary_seek<R: Read + Seek>(mut r: R) -> Result<CsrGraph, IoError> {
    let header = read_header(&mut r)?;
    check_payload(header.m, remaining_len(&mut r)?)?;
    decode_graph(r, header, true)
}

/// Opens `path` and reads the whole graph, length-checked like
/// [`read_binary_seek`]. The stream is routed through the seeded fault
/// injector ([`llp_runtime::faults`], site `graph.file-read`): under an
/// active fault seed this path sees short reads, transient `Interrupted`
/// errors, sticky truncation and `0xFF` corruption, all of which the
/// validators above must turn into classified [`IoError`]s — never a wrong
/// graph. With no fault seed it is a plain buffered read.
pub fn read_binary_file(path: &Path) -> Result<CsrGraph, IoError> {
    let f = File::open(path)?;
    read_binary_seek(faulty_reader(f, "graph.file-read"))
}

/// Wraps an open file in the fault injector at the record-aligned layer
/// (outside the [`BufReader`], so injected corruption lands inside exactly
/// one validated header field or edge record — see the corruption notes in
/// [`llp_runtime::faults`]). Shared by [`read_binary_file`] and the
/// out-of-core shard streamer.
pub fn faulty_reader(f: File, site: &str) -> Faulty<BufReader<File>> {
    Faulty::new(BufReader::new(f), site, faults::FILE_READ)
}

/// Header facts: claimed vertex and edge counts.
struct Header {
    n: u64,
    m: u64,
}

/// Reads and validates the 28-byte header at the reader's current
/// position. Error offsets are relative to the header start.
fn read_header<R: Read>(r: &mut R) -> Result<Header, IoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| eof_at(e, 0, "magic"))?;
    if &magic != MAGIC {
        return Err(IoError::ParseBytes(0, "bad magic".into()));
    }
    let version = read_u32(r, 8, "version")?;
    if version != VERSION {
        return Err(IoError::ParseBytes(
            8,
            format!("unsupported version {version}"),
        ));
    }
    let n = read_u64(r, 12, "vertex count")?;
    check_vertex_count(n).map_err(|msg| IoError::ParseBytes(12, msg))?;
    let m = read_u64(r, 20, "edge count")?;
    Ok(Header { n, m })
}

/// Measures the bytes between the reader's current position and its end
/// (one round-trip of seeks; the position is restored).
fn remaining_len<R: Seek>(r: &mut R) -> Result<u64, IoError> {
    let pos = r.stream_position()?;
    let end = r.seek(SeekFrom::End(0))?;
    r.seek(SeekFrom::Start(pos))?;
    Ok(end.saturating_sub(pos))
}

/// Checks the claimed edge count against a measured payload length:
/// exactly `m × 16` bytes, or the file is corrupt. Reported at offset 20,
/// where the lying `m` lives.
fn check_payload(m: u64, payload: u64) -> Result<(), IoError> {
    if m > payload / EDGE_BYTES {
        return Err(IoError::ParseBytes(
            20,
            format!(
                "header claims {m} edges ({} bytes) but only {payload} \
                 payload bytes remain",
                m.saturating_mul(EDGE_BYTES),
            ),
        ));
    }
    if payload != m * EDGE_BYTES {
        return Err(IoError::ParseBytes(
            20,
            format!(
                "payload length {payload} disagrees with header \
                 (expected exactly {} bytes for {m} edges)",
                m * EDGE_BYTES,
            ),
        ));
    }
    Ok(())
}

/// Decodes and validates one 16-byte edge record. `i` is the edge's
/// global ordinal in the file and `off` its byte offset, for errors.
fn decode_edge(
    rec: &[u8; EDGE_BYTES as usize],
    n: u64,
    i: u64,
    off: u64,
) -> Result<Edge, IoError> {
    let u = u32::from_le_bytes(rec[0..4].try_into().unwrap());
    let v = u32::from_le_bytes(rec[4..8].try_into().unwrap());
    let w = f64::from_le_bytes(rec[8..16].try_into().unwrap());
    if (u as u64) >= n || (v as u64) >= n {
        return Err(IoError::ParseBytes(
            off,
            format!("edge #{i}: endpoint ({u},{v}) out of range (n = {n})"),
        ));
    }
    if u == v {
        return Err(IoError::ParseBytes(
            off,
            format!("edge #{i}: self-loop at vertex {u}"),
        ));
    }
    check_weight(w).map_err(|msg| IoError::ParseBytes(off + 8, format!("edge #{i}: {msg}")))?;
    Ok(Edge::new(u, v, w))
}

fn read_binary_impl<R: Read>(mut r: R, total_len: Option<u64>) -> Result<CsrGraph, IoError> {
    let header = read_header(&mut r)?;
    // With a known input length the header is either exactly right or the
    // file is corrupt — reject before allocating or decoding anything.
    // Without one (pure stream), cap the pre-allocation; a lying `m` then
    // dies on the first missing edge record instead of in the allocator.
    if let Some(len) = total_len {
        check_payload(header.m, len.saturating_sub(HEADER_BYTES))?;
    }
    decode_graph(r, header, total_len.is_some())
}

fn decode_graph<R: Read>(
    mut r: R,
    header: Header,
    length_checked: bool,
) -> Result<CsrGraph, IoError> {
    let prealloc = if length_checked {
        header.m as usize
    } else {
        header.m.min(PREALLOC_EDGES as u64) as usize
    };
    let mut b = GraphBuilder::with_capacity(header.n as usize, prealloc);
    let mut rec = [0u8; EDGE_BYTES as usize];
    for i in 0..header.m {
        let off = HEADER_BYTES + i * EDGE_BYTES;
        r.read_exact(&mut rec)
            .map_err(|e| eof_at(e, off, &format!("edge #{i}")))?;
        let e = decode_edge(&rec, header.n, i, off)?;
        b.add_edge(e.u, e.v, e.w);
    }
    Ok(b.build())
}

/// A contiguous slice of a binary graph file, plus the file's header
/// facts. Unlike the whole-graph readers this does **not** run the
/// records through [`GraphBuilder`]: edges come back exactly as stored
/// (parallel edges preserved, file order kept), which out-of-core
/// algorithms rely on to shard a file without changing its edge multiset.
#[derive(Debug)]
pub struct EdgeRange {
    /// Vertex count claimed by the (validated) header.
    pub num_vertices: usize,
    /// Total edge count in the file — not the range length.
    pub total_edges: u64,
    /// The decoded records `[lo, hi)`, in file order.
    pub edges: Vec<Edge>,
}

/// Reads edge records `[lo_edge, hi_edge)` of a binary graph file.
///
/// The header is read and validated at the reader's current position
/// first; then the remaining length is measured and checked against the
/// claimed `m` (a truncated file is rejected at offset 20 before any
/// decoding, like [`read_binary_seek`]); then the reader seeks straight
/// to `lo_edge` and decodes the range. Per-edge violations — and a
/// mid-range truncation behind a reader whose measured length lied — are
/// reported with the edge's **global** ordinal and **absolute** byte
/// offset in the file, so a shard-local failure names the real record.
///
/// `read_binary_range(r, 0, 0)` is a cheap header probe: it validates
/// header and payload length and returns no edges.
pub fn read_binary_range<R: Read + Seek>(
    mut r: R,
    lo_edge: u64,
    hi_edge: u64,
) -> Result<EdgeRange, IoError> {
    let base = r.stream_position()?;
    let header = read_header(&mut r)?;
    check_payload(header.m, remaining_len(&mut r)?)?;
    if lo_edge > hi_edge || hi_edge > header.m {
        return Err(IoError::ParseBytes(
            20,
            format!(
                "requested edge range [{lo_edge}, {hi_edge}) outside the \
                 file's {} edges",
                header.m
            ),
        ));
    }
    r.seek(SeekFrom::Start(base + HEADER_BYTES + lo_edge * EDGE_BYTES))?;
    // hi ≤ m and m × 16 was just proven against the measured payload, so
    // this allocation is bounded by real bytes on disk.
    let mut edges = Vec::with_capacity((hi_edge - lo_edge) as usize);
    let mut rec = [0u8; EDGE_BYTES as usize];
    for i in lo_edge..hi_edge {
        let off = HEADER_BYTES + i * EDGE_BYTES;
        r.read_exact(&mut rec)
            .map_err(|e| eof_at(e, off, &format!("edge #{i}")))?;
        edges.push(decode_edge(&rec, header.n, i, off)?);
    }
    Ok(EdgeRange {
        num_vertices: header.n as usize,
        total_edges: header.m,
        edges,
    })
}

/// Flush threshold for [`BinaryWriter`]'s internal buffer.
const WRITE_BUF_BYTES: usize = 1 << 20;

/// Incremental writer for the binary graph format.
///
/// [`write_binary`] needs the whole graph in memory; this writer streams
/// edge records as they are produced (generator chunks, shard merges)
/// through an internal ~1 MiB buffer, then back-patches the header's edge
/// count on [`finish`](BinaryWriter::finish). Records are validated on
/// the way in (endpoint range, self-loops, non-finite weights) so a
/// finished file always round-trips through the readers. Parallel
/// (duplicate) edges are allowed: the format stores a multiset, the
/// range reader preserves it, and the whole-graph readers collapse
/// duplicates through [`GraphBuilder`].
pub struct BinaryWriter<W: Write + Seek> {
    w: W,
    /// Position of the header start, so `finish` can patch `m` even when
    /// the file began at a nonzero offset.
    base: u64,
    n: u64,
    m: u64,
    buf: Vec<u8>,
}

impl<W: Write + Seek> BinaryWriter<W> {
    /// Starts a file for `n` vertices at the writer's current position,
    /// buffering a header with a placeholder edge count.
    pub fn new(mut w: W, n: usize) -> Result<Self, IoError> {
        check_vertex_count(n as u64).map_err(|msg| IoError::ParseBytes(12, msg))?;
        let base = w.stream_position()?;
        let mut buf = Vec::with_capacity(WRITE_BUF_BYTES + EDGE_BYTES as usize);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // m, patched by finish()
        Ok(BinaryWriter {
            w,
            base,
            n: n as u64,
            m: 0,
            buf,
        })
    }

    /// Appends one edge record, validated like the readers validate it.
    pub fn write_edge(&mut self, e: Edge) -> Result<(), IoError> {
        let off = HEADER_BYTES + self.m * EDGE_BYTES;
        if (e.u as u64) >= self.n || (e.v as u64) >= self.n {
            return Err(IoError::ParseBytes(
                off,
                format!(
                    "edge #{}: endpoint ({},{}) out of range (n = {})",
                    self.m, e.u, e.v, self.n
                ),
            ));
        }
        if e.u == e.v {
            return Err(IoError::ParseBytes(
                off,
                format!("edge #{}: self-loop at vertex {}", self.m, e.u),
            ));
        }
        check_weight(e.w)
            .map_err(|msg| IoError::ParseBytes(off + 8, format!("edge #{}: {msg}", self.m)))?;
        self.buf.extend_from_slice(&e.u.to_le_bytes());
        self.buf.extend_from_slice(&e.v.to_le_bytes());
        self.buf.extend_from_slice(&e.w.to_le_bytes());
        self.m += 1;
        if self.buf.len() >= WRITE_BUF_BYTES {
            self.w.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Appends a chunk of edge records.
    pub fn write_edges(&mut self, edges: &[Edge]) -> Result<(), IoError> {
        for &e in edges {
            self.write_edge(e)?;
        }
        Ok(())
    }

    /// Number of edges written so far.
    pub fn edges_written(&self) -> u64 {
        self.m
    }

    /// Flushes the buffer, back-patches the header's edge count and
    /// returns the inner writer plus the final count. Dropping a writer
    /// without `finish` leaves a header claiming zero edges, which the
    /// length-checked readers then reject against the payload.
    pub fn finish(mut self) -> Result<(W, u64), IoError> {
        self.w.write_all(&self.buf)?;
        self.buf.clear();
        self.w.seek(SeekFrom::Start(self.base + 20))?;
        self.w.write_all(&self.m.to_le_bytes())?;
        self.w.seek(SeekFrom::End(0))?;
        self.w.flush()?;
        Ok((self.w, self.m))
    }
}

/// Crash-safe file-backed [`BinaryWriter`]: writes to `<dest>.tmp`, fsyncs,
/// then atomically renames onto `dest` on [`finish`](BinaryFileWriter::finish).
///
/// The plain [`BinaryWriter`] back-patches the header's edge count as its
/// last act, which means a process killed mid-generation leaves a file whose
/// header is either the zero placeholder or — worse, if the kill lands
/// between the patch and the final data flush reaching disk — a *valid-looking*
/// header over a truncated body. Writing to a sibling `*.tmp` and renaming
/// only after `fsync` closes that hole: readers either see the complete old
/// file, the complete new file, or no file at all; a leftover `*.tmp` is
/// never picked up by any reader and is rejected by all of them anyway
/// (placeholder header vs. non-empty payload).
///
/// The byte stream runs through the seeded fault injector (site
/// `graph.file-write`): under an active fault seed, short writes are retried
/// by `write_all`, transient `Interrupted` errors are absorbed, and hard
/// faults (ENOSPC, broken pipe) surface as classified errors *before* the
/// rename — so a faulted generation never installs a destination file.
///
/// Dropping an unfinished writer removes the temporary file (best effort).
pub struct BinaryFileWriter {
    inner: Option<BinaryWriter<Faulty<BufWriter<File>>>>,
    tmp: PathBuf,
    dest: PathBuf,
    finished: bool,
}

impl BinaryFileWriter {
    /// Starts a file for `n` vertices at `<dest>.tmp`.
    pub fn create(dest: &Path, n: usize) -> Result<Self, IoError> {
        let tmp = tmp_path(dest);
        let f = File::create(&tmp)?;
        let w = Faulty::new(BufWriter::new(f), "graph.file-write", faults::FILE_WRITE);
        match BinaryWriter::new(w, n) {
            Ok(inner) => Ok(BinaryFileWriter {
                inner: Some(inner),
                tmp,
                dest: dest.to_path_buf(),
                finished: false,
            }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Appends one edge record, validated like the readers validate it.
    pub fn write_edge(&mut self, e: Edge) -> Result<(), IoError> {
        self.inner.as_mut().expect("writer finished").write_edge(e)
    }

    /// Appends a chunk of edge records.
    pub fn write_edges(&mut self, edges: &[Edge]) -> Result<(), IoError> {
        self.inner
            .as_mut()
            .expect("writer finished")
            .write_edges(edges)
    }

    /// Number of edges written so far.
    pub fn edges_written(&self) -> u64 {
        self.inner.as_ref().expect("writer finished").edges_written()
    }

    /// Flushes, fsyncs the temporary, atomically renames it onto the
    /// destination, and fsyncs the parent directory (best effort), so the
    /// completed file survives a crash right after this call returns. Any
    /// failure leaves the destination untouched.
    pub fn finish(mut self) -> Result<u64, IoError> {
        let (w, m) = self.inner.take().expect("writer finished").finish()?;
        let f = w
            .into_inner()
            .into_inner()
            .map_err(|e| IoError::Io(e.into_error()))?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&self.tmp, &self.dest)?;
        self.finished = true;
        if let Some(dir) = self.dest.parent() {
            // Persist the rename itself; non-fatal on filesystems that
            // refuse to open or fsync directories.
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            }) {
                let _ = d.sync_all();
            }
        }
        Ok(m)
    }
}

impl Drop for BinaryFileWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Release the handle before unlinking (harmless to reorder on
            // Unix, required for the rename-never-happened invariant to be
            // observable on platforms that lock open files).
            self.inner = None;
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Sibling temporary path for [`BinaryFileWriter`]: `<dest>.tmp`.
fn tmp_path(dest: &Path) -> PathBuf {
    let mut name = dest.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    dest.with_file_name(name)
}

/// Maps an unexpected end-of-input to a [`IoError::ParseBytes`] naming
/// what was being read and where; other I/O failures pass through.
fn eof_at(e: std::io::Error, offset: u64, what: &str) -> IoError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        IoError::ParseBytes(offset, format!("input truncated while reading {what}"))
    } else {
        IoError::Io(e)
    }
}

fn read_u32<R: Read>(r: &mut R, offset: u64, what: &str) -> Result<u32, IoError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).map_err(|e| eof_at(e, offset, what))?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R, offset: u64, what: &str) -> Result<u64, IoError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).map_err(|e| eof_at(e, offset, what))?;
    Ok(u64::from_le_bytes(b))
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::generators::erdos_renyi;

    /// Under every fault seed, the file reader either returns the correct
    /// graph or a classified error — never a different graph, never a
    /// panic. This is the ingest leg of the never-lie invariant the
    /// fault-matrix sweep enforces end to end.
    #[test]
    fn faulted_file_read_is_correct_or_classified() {
        let _g = llp_runtime::test_serial_lock();
        let dir = std::env::temp_dir().join(format!("llp-faultread-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("g.bin");
        let g = erdos_renyi(200, 800, 21);
        faults::set_seed(None);
        let mut w = BinaryFileWriter::create(&dest, 200).unwrap();
        let edges: Vec<Edge> = g.edges().collect();
        w.write_edges(&edges).unwrap();
        w.finish().unwrap();

        let (mut ok, mut classified) = (0u32, 0u32);
        for seed in 1..=32 {
            faults::set_seed(Some(seed));
            match read_binary_file(&dest) {
                Ok(got) => {
                    assert_eq!(got, g, "seed {seed} returned a WRONG graph");
                    ok += 1;
                }
                Err(IoError::ParseBytes(..)) | Err(IoError::Io(_)) => classified += 1,
                Err(other) => panic!("seed {seed}: unexpected error class {other:?}"),
            }
        }
        assert!(classified > 0, "32 seeds should fault at least once");
        // Transient-only seeds must still succeed sometimes, proving the
        // retry paths (read_exact over Interrupted/short reads) work.
        assert!(ok > 0, "32 seeds should also let some reads through");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A faulted atomic write either installs a byte-perfect file or
    /// nothing at all.
    #[test]
    fn faulted_file_write_installs_complete_file_or_nothing() {
        let _g = llp_runtime::test_serial_lock();
        let dir = std::env::temp_dir().join(format!("llp-faultwrite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let g = erdos_renyi(100, 400, 7);
        let edges: Vec<Edge> = g.edges().collect();
        let (mut ok, mut failed) = (0u32, 0u32);
        for seed in 1..=32 {
            faults::set_seed(Some(seed));
            let dest = dir.join(format!("g{seed}.bin"));
            let r = BinaryFileWriter::create(&dest, 100)
                .and_then(|mut w| {
                    w.write_edges(&edges)?;
                    w.finish()
                });
            faults::set_seed(None);
            match r {
                Ok(m) => {
                    assert_eq!(m, edges.len() as u64);
                    assert_eq!(read_binary_file(&dest).unwrap(), g, "seed {seed}");
                    ok += 1;
                }
                Err(_) => {
                    assert!(!dest.exists(), "seed {seed}: failed write installed dest");
                    failed += 1;
                }
            }
        }
        assert!(ok > 0 && failed > 0, "sweep should see both outcomes (ok={ok}, failed={failed})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi, road_network, RoadParams};
    use crate::io::MAX_VERTICES;

    /// A syntactically valid file: header plus raw edge records.
    fn file(n: u64, m: u64, edges: &[(u32, u32, f64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        buf.extend_from_slice(&m.to_le_bytes());
        for &(u, v, w) in edges {
            buf.extend_from_slice(&u.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    fn parse_offset(err: IoError) -> u64 {
        match err {
            IoError::ParseBytes(off, _) => off,
            other => panic!("expected ParseBytes, got {other:?}"),
        }
    }

    #[test]
    fn round_trips() {
        for g in [
            erdos_renyi(100, 400, 1),
            road_network(RoadParams::usa_like(10, 10, 2)),
            CsrGraph::empty(5),
        ] {
            let mut buf = Vec::new();
            write_binary(&g, &mut buf).unwrap();
            let g2 = read_binary(buf.as_slice()).unwrap();
            assert_eq!(g, g2);
            let g3 = read_binary_slice(&buf).unwrap();
            assert_eq!(g, g3);
            let g4 = read_binary_seek(std::io::Cursor::new(&buf)).unwrap();
            assert_eq!(g, g4);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = b"NOTAGRPH\x01\x00\x00\x00".to_vec();
        assert_eq!(parse_offset(read_binary(buf.as_slice()).unwrap_err()), 0);
    }

    #[test]
    fn rejects_truncated_input_with_edge_ordinal() {
        let g = erdos_renyi(20, 50, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let m = g.num_edges() as u64;
        buf.truncate(buf.len() - 3);
        // Streaming: dies inside the last edge record, naming it.
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(parse_offset(err), HEADER_BYTES + (m - 1) * EDGE_BYTES);
        let msg = read_binary(buf.as_slice()).unwrap_err().to_string();
        assert!(msg.contains(&format!("edge #{}", m - 1)), "{msg}");
        // Length-checked: rejected at the header, before any decoding.
        assert_eq!(parse_offset(read_binary_slice(&buf).unwrap_err()), 20);
        assert_eq!(
            parse_offset(read_binary_seek(std::io::Cursor::new(&buf)).unwrap_err()),
            20
        );
        // A header cut inside the version field is reported at that field.
        buf.truncate(10);
        let msg = read_binary_slice(&buf).unwrap_err().to_string();
        assert!(msg.contains("version"), "{msg}");
        assert_eq!(parse_offset(read_binary_slice(&buf).unwrap_err()), 8);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(parse_offset(read_binary(buf.as_slice()).unwrap_err()), 8);
    }

    #[test]
    fn huge_edge_count_is_an_error_not_an_allocation() {
        // m = u64::MAX with an empty payload: the streaming path must not
        // reserve m × 16 bytes; the length-checked paths reject up front.
        let buf = file(4, u64::MAX, &[]);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(parse_offset(err), HEADER_BYTES);
        assert_eq!(parse_offset(read_binary_slice(&buf).unwrap_err()), 20);
        assert_eq!(
            parse_offset(read_binary_seek(std::io::Cursor::new(&buf)).unwrap_err()),
            20
        );
    }

    #[test]
    fn huge_vertex_count_is_rejected() {
        for n in [MAX_VERTICES + 1, u64::MAX] {
            let buf = file(n, 0, &[]);
            let err = read_binary_slice(&buf).unwrap_err();
            assert_eq!(parse_offset(err), 12, "n = {n}");
        }
    }

    #[test]
    fn edge_count_must_match_payload_exactly() {
        // Three edges on disk, header claims two: trailing bytes are
        // corruption, not slack.
        let edges = [(0u32, 1u32, 1.0), (1, 2, 2.0), (0, 2, 3.0)];
        let buf = file(3, 2, &edges);
        assert_eq!(parse_offset(read_binary_slice(&buf).unwrap_err()), 20);
        // Header claims four: too short.
        let buf = file(3, 4, &edges);
        assert_eq!(parse_offset(read_binary_slice(&buf).unwrap_err()), 20);
    }

    #[test]
    fn rejects_out_of_range_endpoint_at_its_offset() {
        let buf = file(3, 2, &[(0, 1, 1.0), (1, 7, 2.0)]);
        let err = read_binary_slice(&buf).unwrap_err();
        assert_eq!(parse_offset(err), HEADER_BYTES + EDGE_BYTES);
        let msg = read_binary_slice(&buf).unwrap_err().to_string();
        assert!(msg.contains("edge #1") && msg.contains("(1,7)"), "{msg}");
        // Ids run 0..n: an endpoint equal to n is already out of range.
        let buf = file(3, 1, &[(3, 0, 1.0)]);
        let err = read_binary_slice(&buf).unwrap_err();
        assert_eq!(parse_offset(err), HEADER_BYTES);
    }

    #[test]
    fn rejects_self_loops() {
        let buf = file(3, 1, &[(2, 2, 1.0)]);
        let msg = read_binary_slice(&buf).unwrap_err().to_string();
        assert!(msg.contains("self-loop"), "{msg}");
    }

    #[test]
    fn rejects_non_finite_weights() {
        for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let buf = file(3, 1, &[(0, 1, w)]);
            let err = read_binary_slice(&buf).unwrap_err();
            assert_eq!(parse_offset(err), HEADER_BYTES + 8, "weight {w}");
        }
    }

    use std::io::Cursor;

    /// A reader whose end cannot be measured: every `SeekFrom::End` seek
    /// fails. Header validation must come first, so header violations
    /// still surface at their own offsets.
    struct SeekEndFails<R>(R);

    impl<R: Read> Read for SeekEndFails<R> {
        fn read(&mut self, b: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(b)
        }
    }

    impl<R: Seek> Seek for SeekEndFails<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            if matches!(pos, SeekFrom::End(_)) {
                Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "end not measurable",
                ))
            } else {
                self.0.seek(pos)
            }
        }
    }

    /// A reader that lies about its end position — models a file
    /// truncated between the length measurement and the decode loop.
    struct LyingEnd<R> {
        inner: R,
        end: u64,
    }

    impl<R: Read> Read for LyingEnd<R> {
        fn read(&mut self, b: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(b)
        }
    }

    impl<R: Seek> Seek for LyingEnd<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            match pos {
                SeekFrom::End(0) => Ok(self.end),
                other => self.inner.seek(other),
            }
        }
    }

    #[test]
    fn seek_reader_validates_header_before_measuring_length() {
        // Bad magic on a reader whose end seek errors: the header must be
        // rejected at offset 0 before any length measurement is attempted.
        let mut buf = b"NOTAGRPH".to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_binary_seek(SeekEndFails(Cursor::new(buf))).unwrap_err();
        assert_eq!(parse_offset(err), 0);
    }

    #[test]
    fn seek_reader_supports_nonzero_start_offsets() {
        let g = erdos_renyi(30, 60, 5);
        let mut buf = vec![0xAB; 13]; // arbitrary preamble before the header
        write_binary(&g, &mut buf).unwrap();
        let mut c = Cursor::new(&buf);
        c.seek(SeekFrom::Start(13)).unwrap();
        assert_eq!(read_binary_seek(&mut c).unwrap(), g);
        // The range reader honours the same convention.
        c.seek(SeekFrom::Start(13)).unwrap();
        let r = read_binary_range(&mut c, 0, g.num_edges() as u64).unwrap();
        assert_eq!(r.edges.len(), g.num_edges());
    }

    #[test]
    fn range_reader_round_trips_in_pieces() {
        let g = erdos_renyi(80, 200, 11);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let m = g.num_edges() as u64;
        let all: Vec<Edge> = g.edges().collect();
        for step in [1u64, 7, 64, m] {
            let mut got = Vec::new();
            let mut lo = 0;
            while lo < m {
                let hi = (lo + step).min(m);
                let r = read_binary_range(Cursor::new(&buf), lo, hi).unwrap();
                assert_eq!(r.num_vertices, 80);
                assert_eq!(r.total_edges, m);
                assert_eq!(r.edges.len(), (hi - lo) as usize);
                got.extend(r.edges);
                lo = hi;
            }
            assert_eq!(got.len(), all.len(), "step {step}");
            for (a, b) in got.iter().zip(&all) {
                assert_eq!((a.u, a.v, a.w), (b.u, b.v, b.w), "step {step}");
            }
        }
    }

    #[test]
    fn range_header_probe_and_bounds() {
        let g = erdos_renyi(20, 40, 2);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let m = g.num_edges() as u64;
        let probe = read_binary_range(Cursor::new(&buf), 0, 0).unwrap();
        assert_eq!(probe.num_vertices, 20);
        assert_eq!(probe.total_edges, m);
        assert!(probe.edges.is_empty());
        // hi past the end or an inverted range: rejected at the header.
        let err = read_binary_range(Cursor::new(&buf), 0, m + 1).unwrap_err();
        assert_eq!(parse_offset(err), 20);
        let err = read_binary_range(Cursor::new(&buf), 3, 2).unwrap_err();
        assert_eq!(parse_offset(err), 20);
    }

    #[test]
    fn range_rejects_truncation_at_header_and_mid_range_with_offsets() {
        let g = erdos_renyi(20, 50, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let m = g.num_edges() as u64;
        let full_len = buf.len() as u64;
        buf.truncate(buf.len() - 3);
        // Honest length: rejected up front at offset 20, like the other
        // length-checked readers.
        let err = read_binary_range(Cursor::new(&buf), 0, m).unwrap_err();
        assert_eq!(parse_offset(err), 20);
        // A reader whose measured length lies (a file truncated between
        // the measurement and the read): the decode loop dies mid-range
        // naming the edge's global ordinal and absolute byte offset.
        let lying = LyingEnd {
            inner: Cursor::new(&buf),
            end: full_len,
        };
        let err = read_binary_range(lying, m - 2, m).unwrap_err();
        assert_eq!(parse_offset(err), HEADER_BYTES + (m - 1) * EDGE_BYTES);
        let lying = LyingEnd {
            inner: Cursor::new(&buf),
            end: full_len,
        };
        let msg = read_binary_range(lying, m - 2, m).unwrap_err().to_string();
        assert!(msg.contains(&format!("edge #{}", m - 1)), "{msg}");
    }

    #[test]
    fn range_rejects_corrupt_edges_at_absolute_offsets() {
        let edges: Vec<(u32, u32, f64)> = (0..10).map(|i| (i, i + 1, i as f64)).collect();
        let mut buf = file(11, 10, &edges);
        // Corrupt edge #5 into a self-loop; read a range straddling it.
        let off = (HEADER_BYTES + 5 * EDGE_BYTES) as usize;
        buf[off..off + 4].copy_from_slice(&6u32.to_le_bytes());
        let err = read_binary_range(Cursor::new(&buf), 4, 8).unwrap_err();
        assert_eq!(parse_offset(err), HEADER_BYTES + 5 * EDGE_BYTES);
        let msg = read_binary_range(Cursor::new(&buf), 4, 8)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("edge #5") && msg.contains("self-loop"), "{msg}");
    }

    #[test]
    fn binary_writer_round_trips_and_patches_edge_count() {
        let g = erdos_renyi(60, 150, 9);
        let mut w = BinaryWriter::new(Cursor::new(Vec::new()), 60).unwrap();
        let edges: Vec<Edge> = g.edges().collect();
        w.write_edges(&edges).unwrap();
        assert_eq!(w.edges_written(), edges.len() as u64);
        let (cur, m) = w.finish().unwrap();
        assert_eq!(m, edges.len() as u64);
        let buf = cur.into_inner();
        assert_eq!(read_binary_seek(Cursor::new(&buf)).unwrap(), g);
        let r = read_binary_range(Cursor::new(&buf), 0, m).unwrap();
        assert_eq!(r.edges.len(), edges.len());
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "llp-binary-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    // The file writer and reader go through `Faulty`: hold the fault
    // lock so a seeded test running concurrently cannot inject into them,
    // and clear a seed the run was started under (the guard restores it).
    #[test]
    fn file_writer_round_trips_through_rename() {
        let _g = llp_runtime::test_serial_lock();
        faults::set_seed(None);
        let dir = temp_dir("atomic");
        let dest = dir.join("g.bin");
        let g = erdos_renyi(40, 100, 13);
        let mut w = BinaryFileWriter::create(&dest, 40).unwrap();
        let edges: Vec<Edge> = g.edges().collect();
        w.write_edges(&edges).unwrap();
        assert!(!dest.exists(), "dest must not appear before finish");
        assert!(tmp_path(&dest).exists());
        let m = w.finish().unwrap();
        assert_eq!(m, edges.len() as u64);
        assert!(!tmp_path(&dest).exists(), "tmp must be renamed away");
        assert_eq!(read_binary_file(&dest).unwrap(), g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_writer_drop_removes_tmp_and_never_creates_dest() {
        let _g = llp_runtime::test_serial_lock();
        faults::set_seed(None);
        let dir = temp_dir("drop");
        let dest = dir.join("g.bin");
        {
            let mut w = BinaryFileWriter::create(&dest, 8).unwrap();
            w.write_edge(Edge::new(0, 1, 1.0)).unwrap();
            // Abandoned (error path / early return): no finish.
        }
        assert!(!dest.exists(), "abandoned write must not install dest");
        assert!(!tmp_path(&dest).exists(), "drop must clean the tmp");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_mid_gen_leftover_tmp_is_rejected_by_every_reader() {
        // Simulate SIGKILL between writes: the bytes a killed
        // BinaryFileWriter can have made durable are header (placeholder
        // m = 0) + some prefix of records + no rename. Readers never look
        // at `*.tmp` paths, and even read directly the torn file must be
        // rejected, not half-parsed.
        let dir = temp_dir("kill");
        let dest = dir.join("g.bin");
        let torn = {
            let mut w = BinaryWriter::new(Cursor::new(Vec::new()), 8).unwrap();
            for i in 0..100u32 {
                w.write_edge(Edge::new(i % 8, (i + 1) % 8, i as f64)).unwrap();
            }
            // No finish(): m stays the placeholder 0, like a killed process.
            // Reach into the buffered state the way the OS would see it.
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&w.buf);
            bytes
        };
        std::fs::write(tmp_path(&dest), &torn).unwrap();
        assert!(!dest.exists(), "no rename happened, dest must not exist");
        let err = read_binary_slice(&torn).unwrap_err();
        assert_eq!(parse_offset(err), 20, "placeholder header vs payload");
        let err = read_binary_seek(Cursor::new(&torn)).unwrap_err();
        assert_eq!(parse_offset(err), 20);
        let err = read_binary_range(Cursor::new(&torn), 0, 0).unwrap_err();
        assert_eq!(parse_offset(err), 20);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_writer_keeps_parallel_edges_and_validates_records() {
        let mut w = BinaryWriter::new(Cursor::new(Vec::new()), 4).unwrap();
        w.write_edge(Edge::new(0, 1, 1.0)).unwrap();
        w.write_edge(Edge::new(1, 0, 2.0)).unwrap(); // parallel duplicate: allowed
        assert!(w.write_edge(Edge::new(2, 2, 1.0)).is_err()); // self-loop
        assert!(w.write_edge(Edge::new(0, 9, 1.0)).is_err()); // out of range
        assert!(w.write_edge(Edge::new(0, 3, f64::NAN)).is_err()); // non-finite
        let (cur, m) = w.finish().unwrap();
        assert_eq!(m, 2);
        // The range reader sees the multiset verbatim...
        let r = read_binary_range(Cursor::new(cur.get_ref()), 0, m).unwrap();
        assert_eq!(r.edges.len(), 2);
        // ...while the whole-graph reader collapses the duplicate to the
        // minimum weight through GraphBuilder.
        let g = read_binary_seek(Cursor::new(cur.get_ref())).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.min_edge(0).unwrap().weight(), 1.0);
    }
}

//! Graph I/O.
//!
//! * [`dimacs`] — the 9th DIMACS Implementation Challenge `.gr` format the
//!   paper's USA road dataset ships in. Drop the real `USA-road-d.USA.gr`
//!   next to the benchmarks to reproduce on the authentic dataset.
//! * [`binary`] — a fast little-endian binary format for caching generated
//!   workloads between benchmark runs.
//!
//! Both readers treat their input as untrusted and make the same
//! decisions through the helpers below: a vertex count past the `u32` id
//! space, a non-finite weight or an unverifiable edge count never reaches
//! an allocation or a panic.

pub mod binary;
pub mod dimacs;

pub use binary::{
    faulty_reader, read_binary, read_binary_file, read_binary_range, read_binary_seek,
    read_binary_slice, write_binary, BinaryFileWriter, BinaryWriter, EdgeRange,
};
pub use dimacs::{read_dimacs, write_dimacs};

/// Errors produced by graph readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A text input violates the format (line number, message).
    Parse(usize, String),
    /// A binary input violates the format (byte offset, message). Binary
    /// readers treat every violation — including a header whose claimed
    /// sizes the payload cannot back — as a parse error rather than
    /// trusting the input, so corrupt or adversarial files fail fast
    /// instead of demanding absurd allocations.
    ParseBytes(u64, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse(line, msg) => write!(f, "parse error at line {line}: {msg}"),
            IoError::ParseBytes(off, msg) => write!(f, "parse error at byte offset {off}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Vertex ids are `u32`, so no valid input names more vertices than this.
pub(crate) const MAX_VERTICES: u64 = 1 << 32;

/// Pre-allocation cap for readers that cannot verify a claimed edge count
/// against the input's length (16 MiB of edges); the buffer grows past it
/// only as edges actually arrive, so a lying header costs nothing.
pub(crate) const PREALLOC_EDGES: usize = 1 << 20;

/// Rejects a claimed vertex count outside the `u32` id space.
pub(crate) fn check_vertex_count(n: u64) -> Result<usize, String> {
    match usize::try_from(n) {
        Ok(n) if n as u64 <= MAX_VERTICES => Ok(n),
        _ => Err(format!("vertex count {n} exceeds the u32 id space")),
    }
}

/// Rejects NaN and ±∞: weights are finite (see [`crate::weight::Weight`]).
pub(crate) fn check_weight(w: f64) -> Result<f64, String> {
    if !w.is_finite() {
        return Err(format!("non-finite weight {w}"));
    }
    Ok(w)
}

/// Parses a whitespace token for the DIMACS reader.
pub(crate) fn parse_token<T: std::str::FromStr>(
    tok: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, IoError> {
    let tok = tok.ok_or_else(|| IoError::Parse(lineno, format!("missing {what}")))?;
    tok.parse()
        .map_err(|_| IoError::Parse(lineno, format!("invalid {what}: '{tok}'")))
}

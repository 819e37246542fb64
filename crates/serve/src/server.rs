//! Hand-rolled TCP front: blocking accept loop, a bounded hand-off queue,
//! and a fixed pool of connection workers — no external runtime, matching
//! the workspace's no-dependency posture.
//!
//! Each worker owns one connection at a time and answers frames until the
//! peer closes. Malformed frames (bad length prefix, bad record count,
//! unknown opcode, non-finite weight) are answered with a one-record
//! protocol **error frame** (tag 3) before the connection closes — the
//! peer learns its request was malformed instead of watching the socket
//! drop. Workers additionally wrap each connection in `catch_unwind`, so a
//! panic anywhere in the answer path costs one connection, never a pool
//! thread.
//!
//! Three robustness properties are load-bearing under faults
//! ([`ServerConfig`] holds the knobs):
//!
//! - **Deadlines**: every accepted socket gets `read_timeout` /
//!   `write_timeout`, so a peer that opens a connection and trickles (or
//!   never sends) a frame — the slow-loris shape — frees its worker within
//!   the deadline instead of pinning it forever. A timed-out read closes
//!   the connection without an error frame.
//! - **Shedding**: the hand-off queue is bounded at `queue_cap`. When all
//!   workers are busy and the queue is full, the accept loop answers the
//!   new connection with a one-record **overloaded frame** (tag 4,
//!   `retry_after_ms`) and closes it — callers back off and retry instead
//!   of queueing unboundedly.
//! - **Graceful drain**: a `shutdown` query stops the accept loop (a
//!   loopback connect unblocks it), the queue closes, and workers finish
//!   their queued connections before the server returns. The read deadline
//!   doubles as the drain bound: an idle keep-alive peer cannot stall
//!   shutdown longer than `read_timeout`.
//!
//! Under an active `LLP_FAULT_SEED` (or `faults::set_seed`), roughly one
//! accepted connection in five has its socket halves wrapped in the
//! fault-injecting [`Faulty`] adapter, so short reads, `Interrupted`,
//! `WouldBlock`, and mid-stream truncation exercise these paths in-process.

use crate::protocol::{
    decode_queries, encode_error_response, encode_overloaded_response, encode_responses,
    read_frame, write_frame, Query, MAX_PAYLOAD,
};
use crate::service::MsfService;
use llp_runtime::faults::{self, Faulty};
use llp_runtime::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker-pool size, per-connection deadlines, and load-shedding knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection workers (minimum 1).
    pub workers: usize,
    /// Per-socket read deadline. `None` disables the deadline — and with
    /// it the slow-loris defence and the drain bound; tests only.
    pub read_timeout: Option<Duration>,
    /// Per-socket write deadline (a peer that stops draining its receive
    /// buffer would otherwise block the worker in `write_all`).
    pub write_timeout: Option<Duration>,
    /// Accepted connections allowed to wait for a worker before the
    /// accept loop sheds new arrivals with the overloaded frame.
    pub queue_cap: usize,
    /// Retry delay suggested in the overloaded frame, milliseconds.
    pub retry_after_ms: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            queue_cap: 64,
            retry_after_ms: 100,
        }
    }
}

impl ServerConfig {
    /// Default deadlines and queue bound with an explicit pool size.
    pub fn with_workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }
}

/// Accepted connections waiting for a worker, bounded at `cap`.
struct ConnQueue {
    cap: usize,
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            cap: cap.max(1),
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Hands the connection to a worker, or returns it when the queue is
    /// full (or closed) so the caller can shed it.
    fn try_push(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut s = self.state.lock();
        if s.1 || s.0.len() >= self.cap {
            return Err(conn);
        }
        s.0.push_back(conn);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    fn close(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }

    /// Next connection, or `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut s = self.state.lock();
        loop {
            if let Some(conn) = s.0.pop_front() {
                return Some(conn);
            }
            if s.1 {
                return None;
            }
            s = self.ready.wait(s);
        }
    }
}

/// Serves `service` on `listener` under `cfg`. Blocks until a client
/// sends a `shutdown` query, then drains queued connections; returns the
/// number of connections accepted for service (shed connections excluded).
pub fn run_server(
    listener: TcpListener,
    service: Arc<MsfService>,
    cfg: ServerConfig,
) -> std::io::Result<usize> {
    let addr = listener.local_addr()?;
    let queue = Arc::new(ConnQueue::new(cfg.queue_cap));
    let shutdown = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..cfg.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                while let Some(conn) = queue.pop() {
                    // A panic while answering must cost one connection,
                    // not this worker: a dead worker silently and
                    // permanently shrinks the pool.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(conn, &service, &shutdown, addr, &cfg);
                    }));
                }
            })
        })
        .collect();

    let mut accepted = 0usize;
    loop {
        let (conn, _) = listener.accept()?;
        if shutdown.load(Ordering::Acquire) {
            // The unblocking loopback connect (or any straggler): drop it.
            break;
        }
        match queue.try_push(conn) {
            Ok(()) => accepted += 1,
            Err(conn) => shed(conn, &cfg),
        }
    }
    queue.close();
    for h in handles {
        let _ = h.join();
    }
    Ok(accepted)
}

/// Tells an un-serveable connection to back off: one overloaded frame
/// (best effort, under a short write deadline so a non-draining peer
/// cannot stall the accept loop), then close.
fn shed(conn: TcpStream, cfg: &ServerConfig) {
    let deadline = cfg
        .write_timeout
        .unwrap_or(Duration::from_secs(1))
        .min(Duration::from_secs(1));
    conn.set_write_timeout(Some(deadline)).ok();
    conn.set_nodelay(true).ok();
    let mut out = Vec::new();
    encode_overloaded_response(&mut out, cfg.retry_after_ms);
    let mut conn = conn;
    let _ = write_frame(&mut conn, &out);
}

/// Answers frames on one connection until EOF, deadline, error, or
/// shutdown.
fn handle_connection(
    conn: TcpStream,
    service: &MsfService,
    shutdown: &AtomicBool,
    addr: SocketAddr,
    cfg: &ServerConfig,
) {
    // One syscall per frame and no Nagle delay: without both, the
    // two-write frame encoding stalls ~40 ms per round-trip on loopback
    // (Nagle holding the payload until the peer's delayed ACK).
    conn.set_nodelay(true).ok();
    // The deadlines that make a slow or stalled peer cost a bounded slice
    // of one worker instead of the whole worker forever.
    conn.set_read_timeout(cfg.read_timeout).ok();
    conn.set_write_timeout(cfg.write_timeout).ok();
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    // Under an active fault seed, ~1 in 5 connections gets socket faults
    // (both halves share the gate draw; the masks are identical).
    let classes = faults::connection_classes(faults::SOCK_READ);
    let mut reader = BufReader::new(Faulty::new(read_half, "serve.sock-read", classes));
    let mut writer = BufWriter::new(Faulty::new(conn, "serve.sock-write", classes));
    let mut out = Vec::new();
    loop {
        let payload = match read_frame(&mut reader, MAX_PAYLOAD) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Read deadline hit: slow-loris (or just idle) peer. The
                // stream position is mid-frame or unknown, so no error
                // frame — reap the connection and free the worker.
                return;
            }
            Err(_) => {
                // Stream position is unknowable after a framing error:
                // answer with the error frame, then close.
                encode_error_response(&mut out);
                let _ = write_frame(&mut writer, &out);
                return;
            }
        };
        let queries = match decode_queries(&payload) {
            Ok(q) => q,
            Err(_) => {
                encode_error_response(&mut out);
                let _ = write_frame(&mut writer, &out);
                return;
            }
        };
        let stop = queries.contains(&Query::Shutdown);
        let responses = service.answer_batch(&queries);
        encode_responses(&responses, &mut out);
        if write_frame(&mut writer, &out).is_err() {
            return;
        }
        if stop {
            initiate_shutdown(shutdown, addr);
            return;
        }
    }
}

/// Flags shutdown and unblocks the accept loop with a loopback connect.
fn initiate_shutdown(shutdown: &AtomicBool, addr: SocketAddr) {
    shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

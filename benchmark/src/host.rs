//! Host gauges: fixed work, owned by the benchmark, timed right next to
//! every measurement so that timings can be stated at a reference host
//! speed.
//!
//! The benchmark runs on a few vCPUs of a shared host, and the host's speed
//! moves under it: batch-1 loopback round trips switch between ~7 µs and
//! ~10.5 µs every few seconds, and the same solver call varies by 20–30%
//! within a process and between processes, with every op slowing at once.
//! Medians over a run cannot remove that: two runs of one build disagree
//! by as much as the state the host happened to be in. Timing a fixed
//! piece of work just before and just after each measurement reads the
//! host's state at that moment, and dividing by it removes most of the
//! drift (`README.md` gives the spreads with and without). The gauges are
//! this file's code only, so no change to the crates under test moves
//! them.
//!
//! - [`gauge_ms`] faults in fresh zeroed pages: kernel entry, page-table and
//!   memory-bandwidth work. Of the gauges tried (a CPU-only loop, a pointer
//!   chase over 32 MB, bare system calls), it tracked the solvers, certify,
//!   the out-of-core solve, batch-256 serving and dynamic epochs best.
//! - [`Loopback`] echoes batch-1-sized frames over a second loopback TCP
//!   connection: batch-1 serving is mostly socket, and its latency moves
//!   with the bare socket's.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// What [`gauge_ms`] takes on the reference host (see `README.md`).
pub const GAUGE_REF_MS: f64 = 4.4;

/// Median and p99 of a chunk of [`Loopback`] round trips on the reference
/// host: a batch-1 percentile is scaled by the same percentile of the
/// echoes next to it.
pub const LOOPBACK_P50_REF_US: f64 = 9.5;
pub const LOOPBACK_P99_REF_US: f64 = 12.0;

/// Bytes the gauge maps and touches, one write per 4 KiB page.
const GAUGE_BYTES: usize = 8 << 20;
const PAGE: usize = 4096;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    // The C library's entry points (`std` already links it), and the flag
    // values of these two architectures.
    extern "C" {
        pub fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
            -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    pub const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    pub const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    pub const MAP_FAILED: *mut u8 = !0usize as *mut u8;
}

/// Milliseconds it takes now to map [`GAUGE_BYTES`] of fresh anonymous
/// memory, fault in every page and unmap it. The pages come from the
/// kernel, not the allocator, so the gauge does the same work whatever the
/// heap holds and leaves resident memory as it found it.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub fn gauge_ms() -> f64 {
    let t = Instant::now();
    // SAFETY: a private anonymous mapping of GAUGE_BYTES at an address the
    // kernel picks aliases no memory Rust knows about; it is checked for
    // failure, written only within its length, and unmapped once.
    unsafe {
        let p = sys::mmap(
            std::ptr::null_mut(),
            GAUGE_BYTES,
            sys::PROT_READ_WRITE,
            sys::MAP_PRIVATE_ANONYMOUS,
            -1,
            0,
        );
        if p != sys::MAP_FAILED {
            for offset in (0..GAUGE_BYTES).step_by(PAGE) {
                p.add(offset).write_volatile(1);
            }
            sys::munmap(p, GAUGE_BYTES);
        }
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Without `mmap` at hand: fresh zeroed heap memory, the nearest portable
/// equivalent.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub fn gauge_ms() -> f64 {
    let t = Instant::now();
    let mut pages = vec![0u8; GAUGE_BYTES];
    for offset in (0..GAUGE_BYTES).step_by(PAGE) {
        pages[offset] = 1;
    }
    std::hint::black_box(&pages);
    t.elapsed().as_secs_f64() * 1e3
}

/// A time measured between the gauge readings `before` and `after`, at the
/// reference host's speed.
pub fn at_reference(time: f64, before: f64, after: f64) -> f64 {
    time * GAUGE_REF_MS / (before * after).sqrt()
}

/// Bytes of one echoed frame: a batch-1 query frame (4-byte length and one
/// 17-byte record).
const FRAME: usize = 21;

/// A loopback TCP echo: one server thread, one client connection.
pub struct Loopback {
    conn: TcpStream,
    server: JoinHandle<std::io::Result<()>>,
}

impl Loopback {
    pub fn start() -> Result<Loopback, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut frame = [0u8; FRAME];
            // Echo until the client closes its end.
            while conn.read_exact(&mut frame).is_ok() {
                conn.write_all(&frame)?;
            }
            Ok(())
        });
        let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Loopback { conn, server })
    }

    /// Sends `count` frames one at a time, pushing each round trip in µs.
    pub fn round_trips(&mut self, count: usize, us: &mut Vec<f64>) -> Result<(), String> {
        let mut frame = [0u8; FRAME];
        for _ in 0..count {
            let t = Instant::now();
            self.conn
                .write_all(&frame)
                .and_then(|()| self.conn.read_exact(&mut frame))
                .map_err(|e| format!("loopback echo: {e}"))?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    }

    /// Closes the connection and waits for the echo thread.
    pub fn stop(self) -> Result<(), String> {
        self.conn
            .shutdown(std::net::Shutdown::Both)
            .map_err(|e| format!("loopback shutdown: {e}"))?;
        match self.server.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("loopback echo server: {e}")),
            Err(_) => Err("loopback echo server panicked".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_by_the_gauge_around_them() {
        assert_eq!(at_reference(10.0, GAUGE_REF_MS, GAUGE_REF_MS), 10.0);
        // A host twice as slow as the reference halves the time; a gauge
        // that moved between the readings counts by its geometric mean.
        let slow = 2.0 * GAUGE_REF_MS;
        assert!((at_reference(10.0, slow, slow) - 5.0).abs() < 1e-12);
        assert!((at_reference(10.0, GAUGE_REF_MS, 4.0 * GAUGE_REF_MS) - 5.0).abs() < 1e-12);
        assert!(gauge_ms() > 0.0);
    }

    #[test]
    fn loopback_echoes_and_stops() {
        let mut lo = Loopback::start().expect("loopback starts");
        let mut us = Vec::new();
        lo.round_trips(50, &mut us).expect("echoes");
        assert_eq!(us.len(), 50);
        assert!(us.iter().all(|&t| t > 0.0));
        lo.stop().expect("echo thread ends cleanly");
    }
}

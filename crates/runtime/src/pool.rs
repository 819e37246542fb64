//! A persistent SPMD thread pool.
//!
//! [`ThreadPool::broadcast`] runs the *same* closure on every thread of the
//! pool; the calling thread participates as thread 0 and the call returns
//! only after every thread has finished. This mirrors how Galois and GBBS
//! drive their parallel loops: a fixed team of threads repeatedly executes
//! SPMD regions with a barrier in between, and higher-level primitives
//! (`parallel_for`, reductions, bags) are built on top of the team.
//!
//! The pool is intentionally *not* a work-stealing task scheduler: the
//! algorithms in this workspace only need flat data parallelism, and a flat
//! SPMD pool has far lower per-round overhead, which matters because
//! LLP-Prim executes many very short rounds.

use crate::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identity of the current thread inside a [`ThreadPool::broadcast`] region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerCtx {
    /// Thread index in `0..nthreads`. The caller of `broadcast` is always 0.
    pub tid: usize,
    /// Total number of threads participating in the region.
    pub nthreads: usize,
}

/// Type-erased SPMD task: pointer to the user closure plus a monomorphised
/// trampoline that knows how to call it.
#[derive(Clone, Copy)]
struct Task {
    data: *const (),
    call: fn(*const (), WorkerCtx),
}

// SAFETY: `data` points at a `Sync` closure that outlives the region (the
// broadcast caller blocks until every worker has finished running it).
unsafe impl Send for Task {}

struct State {
    /// Incremented once per broadcast; workers run when they observe a new epoch.
    epoch: u64,
    task: Option<Task>,
    /// Spawned workers that have not yet finished the current epoch.
    remaining: usize,
    shutdown: bool,
    /// Set when any spawned worker panicked during the current epoch.
    worker_panicked: bool,
}

struct Shared {
    state: Mutex<State>,
    start: Condvar,
    done: Condvar,
}

/// A fixed-size team of threads executing SPMD regions.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
}

impl ThreadPool {
    /// Creates a pool with `nthreads` total threads (including the caller).
    ///
    /// `nthreads == 1` creates a degenerate pool where [`broadcast`]
    /// simply runs the closure inline — useful for single-threaded baselines.
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    ///
    /// [`broadcast`]: ThreadPool::broadcast
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                remaining: 0,
                shutdown: false,
                worker_panicked: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(nthreads.saturating_sub(1));
        for tid in 1..nthreads {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("llp-worker-{tid}"))
                .spawn(move || worker_loop(shared, tid, nthreads))
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        ThreadPool {
            shared,
            handles,
            nthreads,
        }
    }

    /// Creates a pool sized to the machine ([`crate::available_threads`]).
    pub fn with_available_threads() -> Self {
        Self::new(crate::available_threads())
    }

    /// Total number of threads in the pool, including the caller.
    #[inline]
    pub fn threads(&self) -> usize {
        self.nthreads
    }

    /// Runs `f` once on every thread of the pool and waits for completion.
    ///
    /// The calling thread participates as `tid == 0`. `f` may borrow from the
    /// caller's stack: the region is fully synchronous, no reference escapes.
    ///
    /// ```
    /// use llp_runtime::ThreadPool;
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    ///
    /// let pool = ThreadPool::new(4);
    /// let hits = AtomicUsize::new(0);
    /// pool.broadcast(|ctx| {
    ///     assert!(ctx.tid < ctx.nthreads);
    ///     hits.fetch_add(1, Ordering::Relaxed);
    /// });
    /// assert_eq!(hits.load(Ordering::Relaxed), 4);
    /// ```
    ///
    /// Nested broadcasts on the same pool are not supported (the algorithms
    /// in this workspace only use flat parallelism) and will deadlock; debug
    /// builds assert against it.
    ///
    /// # Panics
    /// Propagates a panic if `f` panicked on any thread.
    pub fn broadcast<F>(&self, f: F)
    where
        F: Fn(WorkerCtx) + Sync,
    {
        if self.nthreads == 1 {
            f(WorkerCtx {
                tid: 0,
                nthreads: 1,
            });
            return;
        }

        fn trampoline<F: Fn(WorkerCtx) + Sync>(data: *const (), ctx: WorkerCtx) {
            // SAFETY: `data` was produced from `&f` below and `f` is kept
            // alive until `WaitGuard` has observed every worker finishing.
            let f = unsafe { &*(data as *const F) };
            f(ctx);
        }

        let task = Task {
            data: &f as *const F as *const (),
            call: trampoline::<F>,
        };

        let epoch = {
            let mut st = self.shared.state.lock();
            debug_assert!(st.task.is_none(), "nested broadcast on the same pool");
            st.task = Some(task);
            st.remaining = self.nthreads - 1;
            st.worker_panicked = false;
            st.epoch += 1;
            self.shared.start.notify_all();
            st.epoch
        };

        // Ensure we wait for the workers even if the caller's portion panics:
        // the workers hold a raw pointer into our stack frame.
        struct WaitGuard<'a>(&'a Shared);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock();
                while st.remaining > 0 {
                    st = self.0.done.wait(st);
                }
                st.task = None;
            }
        }
        let guard = WaitGuard(&self.shared);

        let caller_result = catch_unwind(AssertUnwindSafe(|| {
            crate::chaos::region_start(0, self.nthreads, epoch);
            f(WorkerCtx {
                tid: 0,
                nthreads: self.nthreads,
            })
        }));

        drop(guard);

        let worker_panicked = {
            let mut st = self.shared.state.lock();
            std::mem::replace(&mut st.worker_panicked, false)
        };
        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("llp-runtime: a pool worker panicked during broadcast");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize, nthreads: usize) {
    /// Reports this worker done for the epoch on drop. Holding the
    /// decrement in a drop guard (instead of straight-line code after the
    /// task) guarantees `remaining` reaches zero on *every* exit path —
    /// were a panic ever to escape between claiming an epoch and reporting
    /// completion, `broadcast` would otherwise wait on `remaining` forever.
    struct EpochDone<'a> {
        shared: &'a Shared,
        panicked: bool,
    }
    impl Drop for EpochDone<'_> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock();
            if self.panicked {
                st.worker_panicked = true;
            }
            st.remaining -= 1;
            if st.remaining == 0 {
                self.shared.done.notify_all();
            }
        }
    }

    let mut last_epoch = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock();
            while st.epoch == last_epoch && !st.shutdown {
                st = shared.start.wait(st);
            }
            if st.shutdown {
                return;
            }
            last_epoch = st.epoch;
            st.task
        };

        // A missing task for an advanced epoch is a pool bug; count it as a
        // panic rather than dying silently with `remaining` undecremented.
        let mut done = EpochDone {
            shared: &shared,
            panicked: true,
        };
        if let Some(task) = task {
            let result = catch_unwind(AssertUnwindSafe(|| {
                crate::chaos::region_start(tid, nthreads, last_epoch);
                (task.call)(task.data, WorkerCtx { tid, nthreads });
            }));
            done.panicked = result.is_err();
        } else {
            debug_assert!(false, "epoch advanced without a task");
        }
        drop(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_on_every_thread() {
        for n in [1, 2, 3, 4, 7] {
            let pool = ThreadPool::new(n);
            let hits = AtomicUsize::new(0);
            let seen = Mutex::new(vec![false; n]);
            pool.broadcast(|ctx| {
                assert_eq!(ctx.nthreads, n);
                hits.fetch_add(1, Ordering::Relaxed);
                seen.lock()[ctx.tid] = true;
            });
            assert_eq!(hits.load(Ordering::Relaxed), n);
            assert!(seen.lock().iter().all(|&b| b));
        }
    }

    #[test]
    fn broadcast_can_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data = [1u64, 2, 3, 4, 5];
        let sum = AtomicUsize::new(0);
        pool.broadcast(|ctx| {
            if ctx.tid == 0 {
                sum.fetch_add(data.iter().sum::<u64>() as usize, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn repeated_broadcasts_reuse_the_team() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn caller_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|ctx| {
                if ctx.tid == 0 {
                    panic!("caller boom");
                }
            });
        }));
        assert!(r.is_err());
        // Pool is still usable afterwards.
        let n = AtomicUsize::new(0);
        pool.broadcast(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(|ctx| {
                if ctx.tid == 1 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(r.is_err());
        let n = AtomicUsize::new(0);
        pool.broadcast(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn mid_region_panic_on_every_tid_never_deadlocks() {
        // Regression: a panic on any thread index — including under chaos
        // start-order shuffling and delays — must propagate out of
        // `broadcast` without deadlocking on `remaining`, and the pool must
        // stay usable. Runs under an active chaos seed.
        let _serial = crate::test_serial_lock();
        crate::chaos::set_seed(Some(0xDEAD));
        let pool = ThreadPool::new(4);
        for victim in 0..pool.threads() {
            let progressed = AtomicUsize::new(0);
            let r = catch_unwind(AssertUnwindSafe(|| {
                pool.broadcast(|ctx| {
                    progressed.fetch_add(1, Ordering::Relaxed);
                    if ctx.tid == victim {
                        panic!("mid-region boom on tid {}", ctx.tid);
                    }
                });
            }));
            assert!(r.is_err(), "victim {victim} panic must propagate");
            assert_eq!(progressed.load(Ordering::Relaxed), pool.threads());
            // Next region runs normally on the full team.
            let n = AtomicUsize::new(0);
            pool.broadcast(|_| {
                n.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(n.load(Ordering::Relaxed), pool.threads());
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn pool_churn_creates_and_drops_cleanly() {
        // Thread sweeps create and drop many pools; lifecycle must be
        // leak- and deadlock-free, including immediate drops.
        for round in 0..30 {
            let pool = ThreadPool::new(1 + round % 5);
            if round % 3 != 0 {
                let n = AtomicUsize::new(0);
                pool.broadcast(|_| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(n.load(Ordering::Relaxed), pool.threads());
            }
            // pool dropped here, workers must join
        }
    }

    #[test]
    fn broadcast_results_visible_after_return() {
        // The completion barrier publishes worker writes to the caller.
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 1000];
        let slots = crate::sync::Mutex::new(&mut data);
        pool.broadcast(|ctx| {
            let mut guard = slots.lock();
            let chunk = 1000 / ctx.nthreads;
            let lo = ctx.tid * chunk;
            let hi = if ctx.tid + 1 == ctx.nthreads { 1000 } else { lo + chunk };
            for slot in &mut guard[lo..hi] {
                *slot = ctx.tid as u64 + 1;
            }
        });
        assert!(data.iter().all(|&x| x >= 1));
    }
}

//! Run conditions set before any thread starts or any input is built: one
//! CPU, and a fixed allocator policy.
//!
//! Unpinned, batch-1 serve latency on a one-core box split between
//! processes into two modes (p50 8.5 µs or ~23 µs); pinned, the client,
//! the server worker and the solvers share one CPU and the modes merge.
//! Threads inherit the affinity of the thread that spawns them, so pinning
//! first in `main` pins the server and shard-reader threads too.
//!
//! glibc adapts its mmap and trim thresholds to the history of frees, so
//! whether a solver's large buffers come back already mapped or as fresh
//! page faults depended on which ops ran before it: the same
//! `filter_kruskal_par` call took 70 ms or 140 ms. Fixing the thresholds
//! (buffers below 32 MiB come from the heap, and the heap is never
//! trimmed) gives every repetition the same steady state that a
//! long-running process reaches. Threads that allocate (the shard reader
//! each out-of-core solve spawns, the server worker) would otherwise get
//! arenas of their own, and how many arenas a run touched depended on
//! thread timing: peak RSS of one workload read 237 MB in some processes
//! and 275 MB in others; on one arena it repeats within 1 MB.

#[cfg(target_os = "linux")]
mod sys {
    // glibc entry points; `std` already links the C library.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    #[cfg(target_env = "gnu")]
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
    }
}

/// Restricts the calling thread to the lowest-numbered CPU it may run on
/// and returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    // 1024 CPUs, the size glibc's `cpu_set_t` uses.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let word = mask
        .iter()
        .position(|&w| w != 0)
        .ok_or("empty CPU affinity mask")?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes holding a
    // non-empty mask of a CPU the thread is already allowed on.
    if unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented on Linux".into())
}

/// Fixes glibc's mmap threshold at its 32 MiB maximum and disables heap
/// trimming, which also stops both from adapting at run time, and keeps
/// every thread on the one main arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_allocator_policy() -> Result<(), String> {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    for (param, value) in [
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_TRIM_THRESHOLD, i32::MAX),
        (M_ARENA_MAX, 1),
    ] {
        // SAFETY: `mallopt` takes two integers and only adjusts allocator
        // tunables; it is called before any other thread exists.
        if unsafe { sys::mallopt(param, value) } != 1 {
            return Err(format!("mallopt({param}, {value}) was refused"));
        }
    }
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_allocator_policy() -> Result<(), String> {
    Err("the allocator policy is only fixed with glibc".into())
}

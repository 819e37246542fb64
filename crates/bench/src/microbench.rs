//! A tiny micro-benchmark runner with a criterion-compatible surface.
//!
//! Hermetic builds have no registry access, so the `benches/` targets cannot
//! link `criterion`. This module reimplements the narrow slice of its API the
//! benches actually use — `Criterion::benchmark_group`, `sample_size`,
//! `bench_function` / `bench_with_input`, `BenchmarkId`, `black_box` and the
//! `criterion_group!` / `criterion_main!` macros — on a plain timing loop.
//!
//! Each benchmark runs one warm-up sample plus `sample_size` timed samples
//! (each sample is a single closure invocation; these benches measure
//! whole-graph algorithm runs, not nanosecond kernels) and reports
//! median / min / max wall time to stdout:
//!
//! ```text
//! micro_substrates/lazy_heap_push_pop_50k  median 2.345 ms  min 2.301 ms  max 2.410 ms  (20 samples)
//! ```
//!
//! Environment knobs:
//! * `LLP_BENCH_SAMPLES` — override every group's sample count.

pub use std::hint::black_box;

use std::time::Instant;

/// Top-level handle, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchGroup {
        println!("== {name} ==");
        BenchGroup {
            name: name.to_string(),
            sample_size: default_sample_size(),
        }
    }
}

fn default_sample_size() -> usize {
    std::env::var("LLP_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(10)
}

/// Identifier `label/parameter`, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Combines a function label with a parameter description.
    pub fn new(label: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{label}/{parameter}"))
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// A group of benchmarks sharing a name prefix and sample count.
#[derive(Debug)]
pub struct BenchGroup {
    name: String,
    sample_size: usize,
}

impl BenchGroup {
    /// Sets the number of timed samples per benchmark (the `LLP_BENCH_SAMPLES`
    /// environment variable still wins so CI can run quick smoke passes).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = std::env::var("LLP_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or(n);
        self
    }

    /// Runs a benchmark identified only by a name.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        report(&self.name, &id.0, &mut b.samples_ns);
    }

    /// Runs a benchmark parameterised by a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b, input);
        report(&self.name, &id.0, &mut b.samples_ns);
    }

    /// Ends the group (stdout reporting needs no teardown; kept for API parity).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; `iter` performs the timing.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<u64>,
}

impl Bencher {
    /// Times `f`: one warm-up call, then `sample_size` timed calls.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        black_box(f());
        self.samples_ns.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            self.samples_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
}

fn report(group: &str, id: &str, samples_ns: &mut [u64]) {
    if samples_ns.is_empty() {
        println!("{group}/{id}  (no samples — closure never called iter)");
        return;
    }
    samples_ns.sort_unstable();
    let median = samples_ns[samples_ns.len() / 2];
    let min = samples_ns[0];
    let max = samples_ns[samples_ns.len() - 1];
    println!(
        "{group}/{id}  median {}  min {}  max {}  ({} samples)",
        fmt_ns(median),
        fmt_ns(min),
        fmt_ns(max),
        samples_ns.len()
    );
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Mirrors `criterion_group!`: defines a function running each benchmark fn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::microbench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Mirrors `criterion_main!`: defines `main` invoking each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_closures_and_counts_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("test");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                calls
            })
        });
        group.finish();
        // 1 warm-up + 3 samples.
        assert_eq!(calls, 4);
    }

    #[test]
    fn bench_with_input_passes_input_through() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("test");
        group.sample_size(2);
        let data = vec![1u64, 2, 3];
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::new("sum", "vec3"), &data, |b, d| {
            b.iter(|| {
                seen = d.iter().sum();
                seen
            })
        });
        assert_eq!(seen, 6);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.500 s");
    }
}

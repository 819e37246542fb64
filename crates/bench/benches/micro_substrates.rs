//! Microbenchmarks of the substrates the algorithms stand on: heaps,
//! union–find, prefix sums, parallel sort, MWE precomputation.
//!
//! These attribute end-to-end differences to components (e.g. how much of
//! Prim's time is heap traffic) and guard against substrate regressions.

use llp_bench::microbench::{black_box, Criterion};
use llp_bench::{criterion_group, criterion_main};
use llp_bench::{Scale, Workload};
use llp_mst::heap::LazyHeap;
use llp_mst::union_find::{ConcurrentUnionFind, UnionFind};
use llp_runtime::ThreadPool;

fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_substrates");
    group.sample_size(20);

    let n = 50_000usize;

    group.bench_function("lazy_heap_push_pop_50k", |b| {
        b.iter(|| {
            let mut rand = xorshift(0xDEADBEEF);
            let mut h: LazyHeap<u64> = LazyHeap::new();
            for i in 0..n as u32 {
                h.push(rand(), i);
            }
            let mut acc = 0u64;
            while let Some((k, _)) = h.pop() {
                acc = acc.wrapping_add(k);
            }
            black_box(acc)
        })
    });

    group.bench_function("union_find_seq_50k", |b| {
        b.iter(|| {
            let mut rand = xorshift(0xFACADE);
            let mut uf = UnionFind::new(n);
            for _ in 0..n {
                uf.union((rand() % n as u64) as u32, (rand() % n as u64) as u32);
            }
            black_box(uf.num_components())
        })
    });

    group.bench_function("union_find_concurrent_50k_seqdrive", |b| {
        b.iter(|| {
            let mut rand = xorshift(0xBEEF);
            let uf = ConcurrentUnionFind::new(n);
            for _ in 0..n {
                uf.union((rand() % n as u64) as u32, (rand() % n as u64) as u32);
            }
            black_box(uf.find(0))
        })
    });

    let values: Vec<u64> = (0..200_000u64).map(|i| i % 17).collect();
    let pool = ThreadPool::new(llp_runtime::available_threads().min(4));
    group.bench_function("exclusive_scan_200k", |b| {
        b.iter(|| black_box(llp_runtime::scan::exclusive_scan(&pool, &values)))
    });

    group.bench_function("par_sort_200k", |b| {
        let mut rand = xorshift(0xABCD);
        let data: Vec<u64> = (0..200_000).map(|_| rand()).collect();
        b.iter(|| {
            let mut v = data.clone();
            llp_runtime::sort::par_sort(&pool, &mut v);
            black_box(v.len())
        })
    });

    let w = Workload::road(Scale::Small, 42);
    group.bench_function("compute_mwe_road_small", |b| {
        b.iter(|| black_box(w.graph.compute_mwe(&pool)))
    });

    group.finish();
}

criterion_group!(benches, substrates);
criterion_main!(benches);

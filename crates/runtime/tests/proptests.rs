//! Property-style tests for the runtime primitives: every parallel primitive
//! must agree with its obvious sequential counterpart on randomised input.
//! Cases are deterministic seed sweeps over [`llp_runtime::rng::SmallRng`]
//! (hermetic builds cannot depend on `proptest`).

use llp_runtime::rng::SmallRng;
use llp_runtime::{
    parallel_for, parallel_map_collect, sort, Bag, ParallelForConfig, ScratchArena, ThreadPool,
};
use std::sync::atomic::{AtomicU64, Ordering};

const CASES: u64 = 48;

fn random_vec(rng: &mut SmallRng, max_len: usize, max_value: u64) -> Vec<u64> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| rng.gen_range(0..max_value)).collect()
}

#[test]
fn parallel_sum_matches_sequential() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let values = random_vec(&mut rng, 5000, 1_000_000);
        let threads = rng.gen_range(1usize..5);
        let grain = rng.gen_range(1usize..512);
        let pool = ThreadPool::new(threads);
        let acc = AtomicU64::new(0);
        parallel_for(
            &pool,
            0..values.len(),
            ParallelForConfig::with_grain(grain),
            |i| {
                acc.fetch_add(values[i], Ordering::Relaxed);
            },
        );
        assert_eq!(
            acc.load(Ordering::Relaxed),
            values.iter().sum::<u64>(),
            "seed {seed}"
        );
    }
}

#[test]
fn map_collect_matches_iterator() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0usize..3000);
        let pool = ThreadPool::new(rng.gen_range(1usize..5));
        let got = parallel_map_collect(&pool, 0..n, ParallelForConfig::with_grain(37), |i| {
            (i as u64).wrapping_mul(0x9E3779B97F4A7C15)
        });
        let want: Vec<u64> = (0..n)
            .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn par_sort_matches_std() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..12_000);
        let mut values: Vec<u64> = (0..len).map(|_| rng.gen::<u64>()).collect();
        let pool = ThreadPool::new(rng.gen_range(1usize..5));
        let mut want = values.clone();
        want.sort_unstable();
        sort::par_sort_by_key(&pool, &mut values, &ScratchArena::new(), |&x| x);
        assert_eq!(values, want, "seed {seed}");
    }
}

#[test]
fn bag_preserves_all_elements() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..2000);
        let pushes: Vec<(usize, u32)> = (0..len)
            .map(|_| (rng.gen_range(0usize..4), rng.gen_range(0u32..1_000_000)))
            .collect();
        let bag: Bag<u32> = Bag::new(4);
        for &(seg, v) in &pushes {
            bag.push(seg, v);
        }
        assert_eq!(bag.len(), pushes.len(), "seed {seed}");
        let mut got = Vec::new();
        bag.drain_into(&mut got);
        got.sort_unstable();
        let mut want: Vec<u32> = pushes.iter().map(|&(_, v)| v).collect();
        want.sort_unstable();
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn ordered_f64_encoding_is_monotone() {
    use llp_runtime::atomics::{f64_to_ordered, ordered_to_f64};
    let mut rng = SmallRng::seed_from_u64(2024);
    // Random normal floats of both signs and varied magnitudes.
    let sample = |rng: &mut SmallRng| -> f64 {
        let mag = rng.gen_range(-300i64..300) as f64;
        let x = (rng.gen::<f64>() + f64::MIN_POSITIVE) * 10f64.powf(mag / 10.0);
        if rng.gen::<bool>() {
            x
        } else {
            -x
        }
    };
    for case in 0..4096 {
        let a = sample(&mut rng);
        let b = sample(&mut rng);
        assert_eq!(
            a < b,
            f64_to_ordered(a) < f64_to_ordered(b),
            "case {case}: {a} vs {b}"
        );
        assert_eq!(
            a.to_bits(),
            ordered_to_f64(f64_to_ordered(a)).to_bits(),
            "case {case}: {a}"
        );
    }
}

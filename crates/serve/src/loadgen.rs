//! Load generator: sweeps batch sizes against a running server.
//!
//! Per sweep point the generator fires a fixed number of random queries
//! (a 25/50/25 mix of `component` / `path_max` / `connected_under`) in
//! frames of the point's batch size over one connection. Reported per
//! point: the queries fired and the retries they needed. With a verifier
//! the generator replays every response against a locally built
//! [`MsfService`] — the same certified index the server answers from — so
//! a passing run re-checks the server's classifications end to end. It
//! times nothing: throughput and latency are the benchmark's
//! (`benchmark/`).

use crate::protocol::{Query, Response, MAX_BATCH};
use crate::retry::{RetryPolicy, RetryingClient};
use crate::service::MsfService;
use llp_runtime::rng::SmallRng;

/// One batch size's outcome.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Queries per frame.
    pub batch: usize,
    /// Total queries fired at this point.
    pub queries: u64,
    /// Transparent reconnect-and-resend retries this point needed
    /// (non-zero under load shedding or fault injection).
    pub retries: u64,
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Batch sizes to sweep.
    pub batches: Vec<usize>,
    /// Queries per sweep point.
    pub queries_per_point: u64,
    /// RNG seed for the query stream.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            batches: vec![1, 16, 256, 4096],
            queries_per_point: 100_000,
            seed: 42,
        }
    }
}

/// Draws a random query over `n` vertices: 1/4 `component`, 1/2
/// `path_max`, 1/4 `connected_under` (λ uniform in `[0, 1)`, the
/// generators' weight range).
fn random_query(rng: &mut SmallRng, n: u32) -> Query {
    let u = rng.gen_range(0..n);
    let v = rng.gen_range(0..n);
    match rng.gen_range(0..4u32) {
        0 => Query::Component(u),
        1 | 2 => Query::PathMax(u, v),
        _ => Query::ConnectedUnder(u, v, rng.gen::<f64>()),
    }
}

/// Runs the sweep against `addr`, whose graph has `n` vertices. `verify`
/// replays every response against a local service and fails on the first
/// divergence. An empty graph (`n == 0`) is an `Err` before any connect:
/// it has no vertex to query.
///
/// The sweep runs through a [`RetryingClient`]: a shed connection (the
/// overloaded frame), a reaped deadline, or an injected socket fault
/// costs a reconnect-and-resend (counted per point in
/// [`SweepPoint::retries`]) instead of failing the sweep. Every query is
/// an idempotent read, so resending is always safe; with `verify` on, a
/// retried frame's responses are still checked against the local
/// certified index — retries never relax correctness.
pub fn run_sweep(
    addr: &str,
    n: u32,
    cfg: &LoadgenConfig,
    verify: Option<&MsfService>,
) -> Result<Vec<SweepPoint>, String> {
    if n == 0 {
        return Err("the server's graph is empty (n=0): no vertex to query".into());
    }
    let mut client = RetryingClient::new(addr, RetryPolicy::default(), cfg.seed ^ 0xB0FF);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut points = Vec::new();
    for &batch in &cfg.batches {
        let batch = batch.clamp(1, MAX_BATCH);
        let frames = cfg.queries_per_point.div_ceil(batch as u64).max(1);
        let retries_before = client.retries;
        for _ in 0..frames {
            let queries: Vec<Query> = (0..batch).map(|_| random_query(&mut rng, n)).collect();
            let responses = client.exchange(&queries)?;
            if let Some(local) = verify {
                check_against_local(local, &queries, &responses)?;
            }
        }
        points.push(SweepPoint {
            batch,
            queries: frames * batch as u64,
            retries: client.retries - retries_before,
        });
    }
    Ok(points)
}

/// Replays `queries` against the local certified service and compares.
fn check_against_local(
    local: &MsfService,
    queries: &[Query],
    responses: &[Response],
) -> Result<(), String> {
    for (q, got) in queries.iter().zip(responses) {
        let want = local.answer(q);
        if *got != want {
            return Err(format!(
                "server diverges from the local certified index on {q:?}: \
                 got {got:?}, want {want:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_queries_cover_all_ops() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (mut c, mut p, mut t) = (0, 0, 0);
        for _ in 0..1000 {
            match random_query(&mut rng, 50) {
                Query::Component(u) => {
                    assert!(u < 50);
                    c += 1;
                }
                Query::PathMax(u, v) => {
                    assert!(u < 50 && v < 50);
                    p += 1;
                }
                Query::ConnectedUnder(_, _, l) => {
                    assert!((0.0..1.0).contains(&l));
                    t += 1;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(c > 100 && p > 300 && t > 100, "{c}/{p}/{t}");
    }

    #[test]
    fn empty_graph_is_an_error_before_any_connect() {
        // Port 1 has no listener: reaching it would be a retry error, not
        // the message below.
        let err = run_sweep("127.0.0.1:1", 0, &LoadgenConfig::default(), None).unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }
}

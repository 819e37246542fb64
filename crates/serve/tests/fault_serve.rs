//! Seeded socket-fault injection against a live server: under every
//! seed, the retrying load generator must complete its sweep with every
//! response verified against the local certified index — faults cost
//! retries, never wrong answers, and never hang (the server's read
//! deadline and the client's retry budget bound every path).
//!
//! Lives in its own integration-test binary (own process): the fault
//! seed is process-global, and the unfaulted e2e tests must not see it.

use llp_graph::generators::erdos_renyi;
use llp_runtime::{faults, ThreadPool};
use llp_serve::loadgen::{run_sweep, LoadgenConfig};
use llp_serve::protocol::{encode_queries, write_frame, Query};
use llp_serve::server::{run_server, ServerConfig};
use llp_serve::service::MsfService;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn faulted_connections_cost_retries_never_wrong_answers() {
    let _guard = llp_runtime::test_serial_lock();
    let graph = erdos_renyi(300, 520, 17);
    let pool = ThreadPool::new(2);
    let service = Arc::new(MsfService::build(&graph, &pool).unwrap());
    drop(pool);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = {
        let service = Arc::clone(&service);
        let cfg = ServerConfig {
            workers: 2,
            // Short deadline: an injected stall must resolve in test time.
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            ..ServerConfig::default()
        };
        std::thread::spawn(move || run_server(listener, service, cfg))
    };

    let mut total_retries = 0u64;
    for seed in 1..=8u64 {
        faults::set_seed(Some(seed));
        let cfg = LoadgenConfig {
            batches: vec![4, 64],
            queries_per_point: 400,
            seed,
        };
        // run_sweep verifies EVERY response against the local certified
        // index; a single wrong answer fails the sweep, and a fault the
        // retry budget cannot absorb surfaces as Err — both fail here.
        let sweep = run_sweep(&addr, service.n as u32, &cfg, Some(service.as_ref()))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        total_retries += sweep.iter().map(|p| p.retries).sum::<u64>();
    }
    // ~1 in 5 connections is faulted and every kill forces a reconnect:
    // across 8 seeds the sweep must actually have exercised the retry
    // path, or the gate is silently inert.
    assert!(
        total_retries > 0,
        "8 fault seeds produced zero retries; injection looks inert"
    );

    // Deterministic shutdown: disable injection first, so the shutdown
    // frame cannot itself be eaten by a fault.
    faults::set_seed(None);
    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut payload = Vec::new();
    encode_queries(&[Query::Shutdown], &mut payload);
    write_frame(&mut conn, &payload).unwrap();
    server.join().unwrap().unwrap();
}

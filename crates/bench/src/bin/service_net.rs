//! Network tail-latency driver: hundreds of concurrent loopback client
//! connections hammer one [`NetServer`] with a skewed query mix and
//! report p50/p99/p999 latency, queue depth, and admission outcomes to
//! `BENCH_service_net.json`.
//!
//! Before the storm, an uncontended phase runs 100 sequential one-row
//! queries on one connection and asserts their p50 is below
//! [`UNCONTENDED_P50_LIMIT_MS`]: a reply stalled on the peer's delayed
//! ACK (a 40 ms floor on loopback) fails the run.
//!
//! The run deliberately includes hostile traffic — forced mid-query
//! disconnects and malformed frames — and then **self-asserts**:
//!
//! * zero row mismatches against a precomputed reference,
//! * zero *unexpected* protocol errors (every injected poison frame is
//!   answered with exactly one typed error; clean clients see none),
//! * zero worker-slot leaks (`ServiceStats::slots_balanced`) and zero
//!   query panics once the server is quiescent.
//!
//! ```sh
//! cargo run --release -p rqo-bench --bin service_net -- \
//!     [--scale F] [--connections N] [--rounds N] [--out PATH] [--tiny]
//! ```

use std::fmt::Write as _;
use std::net::Shutdown;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use robust_qo::prelude::*;
use robust_qo::service::proto::write_frame;

/// Gate on the uncontended phase's p50, far below the 40 ms
/// delayed-ACK floor and far above a healthy loopback round trip.
const UNCONTENDED_P50_LIMIT_MS: f64 = 10.0;

/// Sequential one-row queries in the uncontended phase.
const UNCONTENDED_QUERIES: usize = 100;

struct Args {
    scale: f64,
    connections: usize,
    rounds: usize,
    out: String,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            scale: 0.005,
            connections: 128,
            rounds: 3,
            out: "BENCH_service_net.json".to_string(),
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                // CI smoke preset: small catalog, few connections.
                "--tiny" => {
                    args.scale = 0.002;
                    args.connections = 24;
                    args.rounds = 2;
                    i += 1;
                }
                flag => {
                    let value = argv
                        .get(i + 1)
                        .unwrap_or_else(|| panic!("missing value after {flag}"));
                    match flag {
                        "--scale" => args.scale = value.parse().expect("--scale"),
                        "--connections" => args.connections = value.parse().expect("--connections"),
                        "--rounds" => args.rounds = value.parse().expect("--rounds"),
                        "--out" => args.out = value.clone(),
                        other => panic!("unknown flag {other:?}"),
                    }
                    i += 2;
                }
            }
        }
        args
    }
}

/// The skewed mix: mostly cheap single-table windows, occasionally an
/// expensive multi-way join — the traffic shape where convoying and
/// queue blowups live in the tail.
fn workload() -> (Vec<Query>, Vec<usize>) {
    let mut queries = Vec::new();
    for offset in [30i64, 60, 110] {
        queries.push(
            Query::over(&["lineitem"])
                .filter("lineitem", exp1_lineitem_predicate(offset))
                .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
                .aggregate(AggExpr::count_star("n")),
        );
    }
    for window in [150i64, 212] {
        queries.push(
            Query::over(&["lineitem", "orders", "part"])
                .filter("part", exp2_part_predicate(window))
                .aggregate(AggExpr::count_star("n")),
        );
    }
    // 8 picks per round: 6 cheap, 2 heavy (25% heavy tail).
    let mix = vec![0usize, 1, 3, 2, 0, 4, 1, 2];
    (queries, mix)
}

fn percentile(sorted_ns: &[u128], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

/// A deterministic unknown-tag poison frame.
fn poison_frame() -> Vec<u8> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &[0x7Fu8, 1, 2, 3]).unwrap();
    frame
}

fn main() {
    let args = Args::parse();
    let catalog = TpchData::generate(&TpchConfig {
        scale_factor: args.scale,
        seed: 42,
    })
    .into_catalog();
    let (queries, mix) = workload();

    // Fewer slots than connections: the admission queue is the point.
    let service_config = ServiceConfig::default()
        .with_workers(2)
        .with_max_concurrent(4)
        .with_queue_capacity(2 * args.connections + 16)
        .with_queue_timeout(Duration::from_secs(600));
    let service = RobustDb::new(catalog).into_service(service_config);
    let net_config = NetServerConfig::default()
        .with_max_connections(2 * args.connections + 16)
        .with_tenant_quota(2 * args.connections);
    let mut server =
        NetServer::bind(service.clone(), "127.0.0.1:0", net_config).expect("bind loopback");
    let addr = server.local_addr();

    // Reference results (also warms the plan cache, as a server would
    // be warm under steady traffic).
    let warm = service.session();
    let expected: Vec<Vec<Vec<Value>>> = queries
        .iter()
        .map(|q| warm.run(q).expect("reference run").rows)
        .collect();
    let warm_runs = queries.len() as u64;

    // Uncontended phase: one connection, one query at a time, so the
    // latency is the wire round trip plus a warm-cache run.
    let uncontended_p50 = {
        let mut client = NetClient::connect(addr).expect("connect");
        let mut lat: Vec<u128> = (0..UNCONTENDED_QUERIES)
            .map(|_| {
                let t0 = Instant::now();
                let reply = client.run(&queries[0]).expect("uncontended run");
                let elapsed = t0.elapsed().as_nanos();
                assert_eq!(reply.rows, expected[0], "uncontended rows");
                elapsed
            })
            .collect();
        lat.sort_unstable();
        percentile(&lat, 0.50)
    };
    eprintln!("uncontended: {UNCONTENDED_QUERIES} sequential queries, p50 {uncontended_p50:.3}ms");
    assert!(
        uncontended_p50 < UNCONTENDED_P50_LIMIT_MS,
        "uncontended p50 {uncontended_p50:.3} ms ≥ {UNCONTENDED_P50_LIMIT_MS} ms: \
         replies are stalling on the wire"
    );

    let latencies: Mutex<Vec<u128>> = Mutex::new(Vec::new());
    let mismatches = AtomicU64::new(0);
    let unexpected_errors = AtomicU64::new(0);
    let injected_disconnects = AtomicU64::new(0);
    let injected_poison = AtomicU64::new(0);
    let poison_answered = AtomicU64::new(0);

    // Queue-depth sampler: polls the live admission gauge while the
    // storm runs.
    let sampling = AtomicBool::new(true);
    let depth_sum = AtomicU64::new(0);
    let depth_samples = AtomicU64::new(0);
    let depth_max = AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| {
        {
            let service = &service;
            let sampling = &sampling;
            let (depth_sum, depth_samples, depth_max) = (&depth_sum, &depth_samples, &depth_max);
            scope.spawn(move || {
                while sampling.load(Ordering::SeqCst) {
                    let (_, waiting) = service.admission_depth();
                    depth_sum.fetch_add(waiting as u64, Ordering::SeqCst);
                    depth_samples.fetch_add(1, Ordering::SeqCst);
                    depth_max.fetch_max(waiting as u64, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }

        // Inner scope so the clients are all joined *before* the outer
        // scope tries to join the sampler — which only exits once the
        // storm is over and `sampling` is cleared below.
        std::thread::scope(|scope| {
            for client_id in 0..args.connections {
                let queries = &queries;
                let mix = &mix;
                let expected = &expected;
                let latencies = &latencies;
                let mismatches = &mismatches;
                let unexpected_errors = &unexpected_errors;
                let injected_disconnects = &injected_disconnects;
                let injected_poison = &injected_poison;
                let poison_answered = &poison_answered;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    client
                        .hello(&format!("tenant-{}", client_id % 8))
                        .expect("hello");
                    let mut local_lat = Vec::with_capacity(args.rounds * mix.len());
                    for round in 0..args.rounds {
                        // Mid-storm hostility: after the first round — while
                        // the admission queue is hot — a slice of the fleet
                        // opens a second connection, fires a heavy query,
                        // and yanks the socket so the disconnect-cancel
                        // path runs under real load.
                        if round == 1 && client_id % 16 == 5 {
                            injected_disconnects.fetch_add(1, Ordering::SeqCst);
                            let mut victim = NetClient::connect(addr).expect("connect victim");
                            let req = Request::Run {
                                id: 999,
                                mode: RunMode::Run,
                                deadline_ms: 0,
                                query: queries[3].clone(),
                            };
                            let mut frame = Vec::new();
                            write_frame(&mut frame, &req.encode()).unwrap();
                            victim.send_raw(&frame).expect("send doomed run");
                            std::thread::sleep(Duration::from_millis(2));
                            let _ = victim.stream().shutdown(Shutdown::Both);
                        }
                        for (k, &slot) in mix.iter().enumerate() {
                            let qi = (slot + client_id + round + k) % queries.len();
                            let t0 = Instant::now();
                            match client.run(&queries[qi]) {
                                Ok(reply) => {
                                    local_lat.push(t0.elapsed().as_nanos());
                                    if reply.rows != expected[qi] {
                                        mismatches.fetch_add(1, Ordering::SeqCst);
                                    }
                                }
                                Err(e) => {
                                    eprintln!("client {client_id}: unexpected error: {e}");
                                    unexpected_errors.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                        }
                    }
                    latencies
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(local_lat);

                    // Hostile epilogue from another slice of the fleet: a
                    // malformed frame that must draw exactly one typed
                    // protocol error.
                    if client_id % 16 == 11 {
                        injected_poison.fetch_add(1, Ordering::SeqCst);
                        let mut attacker = NetClient::connect(addr).expect("connect attacker");
                        attacker.send_raw(&poison_frame()).expect("send poison");
                        match attacker.recv() {
                            Ok(Response::Error {
                                code: ErrorCode::Protocol,
                                ..
                            }) => {
                                poison_answered.fetch_add(1, Ordering::SeqCst);
                            }
                            other => {
                                eprintln!("client {client_id}: poison got {other:?}");
                            }
                        }
                    }
                });
            }
        });
        sampling.store(false, Ordering::SeqCst);
    });
    let wall_s = start.elapsed().as_secs_f64();

    // Quiesce: the doomed disconnect queries may still be mid-cancel.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = service.stats();
        if server.stats().active == 0 && stats.slots_balanced() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never quiesced: {stats} / {}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut sorted = latencies
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    sorted.sort_unstable();
    let stats = service.stats();
    let net = server.stats();
    let total = args.connections * args.rounds * mix.len();

    // Self-checks — the acceptance gate.
    assert_eq!(sorted.len(), total, "lost or duplicated query executions");
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "corrupted rows");
    assert_eq!(
        unexpected_errors.load(Ordering::SeqCst),
        0,
        "clean clients saw errors"
    );
    assert_eq!(
        poison_answered.load(Ordering::SeqCst),
        injected_poison.load(Ordering::SeqCst),
        "a poison frame went unanswered"
    );
    assert_eq!(
        net.protocol_errors,
        injected_poison.load(Ordering::SeqCst),
        "protocol errors beyond the injected poison: {net}"
    );
    assert!(stats.slots_balanced(), "worker slots leaked: {stats}");
    assert_eq!(stats.panicked, 0, "a query panicked: {stats}");

    let samples = depth_samples.load(Ordering::SeqCst).max(1);
    let mean_depth = depth_sum.load(Ordering::SeqCst) as f64 / samples as f64;
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let p999 = percentile(&sorted, 0.999);

    eprintln!(
        "connections={} queries={} wall={:.2}s {:.0} q/s  p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms  \
         peak_queued={} mean_depth={:.1}",
        args.connections,
        total,
        wall_s,
        total as f64 / wall_s,
        p50,
        p99,
        p999,
        stats.peak_queued,
        mean_depth
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"service_net\",").unwrap();
    writeln!(json, "  \"scale_factor\": {},", args.scale).unwrap();
    writeln!(json, "  \"connections\": {},", args.connections).unwrap();
    writeln!(json, "  \"rounds\": {},", args.rounds).unwrap();
    writeln!(json, "  \"queries\": {total},").unwrap();
    writeln!(json, "  \"uncontended_p50_ms\": {uncontended_p50:.3},").unwrap();
    writeln!(json, "  \"wall_s\": {wall_s:.4},").unwrap();
    writeln!(json, "  \"queries_per_sec\": {:.1},", total as f64 / wall_s).unwrap();
    writeln!(json, "  \"latency_ms\": {{").unwrap();
    writeln!(json, "    \"p50\": {p50:.3},").unwrap();
    writeln!(json, "    \"p99\": {p99:.3},").unwrap();
    writeln!(json, "    \"p999\": {p999:.3}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"queue_depth\": {{").unwrap();
    writeln!(json, "    \"peak\": {},", stats.peak_queued).unwrap();
    writeln!(
        json,
        "    \"sampled_max\": {},",
        depth_max.load(Ordering::SeqCst)
    )
    .unwrap();
    writeln!(json, "    \"sampled_mean\": {mean_depth:.2}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"hostile_traffic\": {{").unwrap();
    writeln!(
        json,
        "    \"forced_disconnects\": {},",
        injected_disconnects.load(Ordering::SeqCst)
    )
    .unwrap();
    writeln!(
        json,
        "    \"malformed_frames\": {},",
        injected_poison.load(Ordering::SeqCst)
    )
    .unwrap();
    writeln!(
        json,
        "    \"malformed_answered\": {},",
        poison_answered.load(Ordering::SeqCst)
    )
    .unwrap();
    writeln!(json, "    \"unexpected_protocol_errors\": 0,").unwrap();
    writeln!(json, "    \"worker_slot_leaks\": 0").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(
        json,
        "  \"service_stats\": {{\"admitted\": {}, \"queued\": {}, \"peak_queued\": {}, \
         \"rejected_queue_full\": {}, \"rejected_queue_timeout\": {}, \"completed\": {}, \
         \"cancelled\": {}, \"deadline_exceeded\": {}, \"stopped_in_queue\": {}, \
         \"panicked\": {}}},",
        stats.admitted,
        stats.queued,
        stats.peak_queued,
        stats.rejected_queue_full,
        stats.rejected_queue_timeout,
        stats.completed,
        stats.cancelled,
        stats.deadline_exceeded,
        stats.stopped_in_queue,
        stats.panicked
    )
    .unwrap();
    writeln!(
        json,
        "  \"net_stats\": {{\"accepted\": {}, \"rejected_conn_limit\": {}, \
         \"protocol_errors\": {}, \"queries_ok\": {}, \"queries_err\": {}, \
         \"tenant_rejections\": {}, \"disconnect_cancels\": {}}},",
        net.accepted,
        net.rejected_conn_limit,
        net.protocol_errors,
        net.queries_ok,
        net.queries_err,
        net.tenant_rejections,
        net.disconnect_cancels
    )
    .unwrap();
    writeln!(json, "  \"warm_runs\": {warm_runs},").unwrap();
    writeln!(json, "  \"self_check\": \"pass\"").unwrap();
    writeln!(json, "}}").unwrap();

    server.shutdown();
    print!("{json}");
    std::fs::write(&args.out, &json).expect("write BENCH json");
    eprintln!("wrote {}", args.out);
}

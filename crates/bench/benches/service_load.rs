//! Load bench for the network front-end: mixed-tenant traffic over
//! real sockets against a live `divr_service::Service`, reporting the
//! daemon's own per-objective latency histograms (p50/p99/mean) plus
//! client-side throughput, then a deliberately saturated run proving
//! overload degrades into **typed, retryable rejections** — never a
//! panic, never a lost tenant.
//!
//! Recorded numbers live in `BENCH_service.json` at the workspace
//! root. Run with `cargo bench -p divr-bench --bench service_load`;
//! set `BENCH_QUICK=1` for the CI smoke configuration, and
//! `BENCH_GATE=1` to fail (exit 1) if any objective's measured p99
//! regresses past `GATE_FACTOR ×` the recorded p99.

use divr_bench::env_flag;
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_service::json::{self, Value};
use divr_service::{serve_doc, AdmissionConfig, Client, Service, ServiceConfig};
use std::time::Instant;

/// Headroom multiplier for the p99 regression gate: generous enough to
/// absorb scheduler noise on a loaded single-core CI box, tight enough
/// to catch a real regression (an accidental `O(n²)` re-prepare per
/// frame is orders of magnitude, not 8×).
const GATE_FACTOR: u64 = 8;

/// A distinct universe document per `which`: 2-D integer tuples,
/// attribute relevance, L1-on-attr-0 distance.
fn universe_doc(which: usize, n: usize) -> Value {
    let tuples: Vec<String> = (0..n as i64)
        .map(|i| {
            format!(
                "[{}, {}]",
                (i * 7 + which as i64 * 13) % (3 * n as i64),
                (i * 5 + which as i64) % 29
            )
        })
        .collect();
    json::parse(&format!(
        r#"{{
            "tuples": [{}],
            "relevance": {{"kind": "attribute", "attr": 1, "default": [0, 1]}},
            "distance": {{"kind": "numeric", "attr": 0}},
            "lambda": [1, 2]
        }}"#,
        tuples.join(", ")
    ))
    .unwrap()
}

fn all_objectives(k: usize) -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .iter()
        .map(|&kind| EngineRequest { kind, k })
        .collect()
}

fn get_i64(v: &Value, path: &[&str]) -> i64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or(&Value::Null);
    }
    cur.as_i64().unwrap_or(-1)
}

/// Mixed-tenant steady-state load; returns the daemon's stats frame
/// and the client-observed frames/second.
fn steady_state(quick: bool) -> (Value, f64, u64) {
    let (tenants, rounds, universes, n) = if quick {
        (2usize, 6usize, 3usize, 60usize)
    } else {
        (4, 40, 6, 220)
    };
    let service = Service::start(ServiceConfig {
        workers: tenants,
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();
    let started = Instant::now();
    let mut sent = 0u64;
    let oks: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                scope.spawn(move || {
                    let tenant = format!("tenant-{t}");
                    let mut client = Client::connect(addr).unwrap();
                    let mut ok = 0u64;
                    for round in 0..rounds {
                        let which = (t + round) % universes;
                        let doc = serve_doc(
                            &tenant,
                            universe_doc(which, n),
                            &all_objectives(5 + which % 4),
                        );
                        let response = client.request(&doc).unwrap();
                        if response.get("ok") == Some(&Value::Bool(true)) {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    sent += (tenants * rounds) as u64;
    let served: u64 = oks.iter().sum();
    assert_eq!(served, sent, "every steady-state frame must be served ok");
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    service.shutdown();
    (stats, sent as f64 / elapsed, served)
}

/// Saturation run: a one-worker daemon with a one-slot backlog and a
/// near-empty token bucket. Every overloaded interaction must yield a
/// typed `429` frame — counted here — and the daemon must still serve
/// afterward.
fn saturation(quick: bool) -> (u64, u64) {
    let attempts = if quick { 4 } else { 16 };
    let service = Service::start(ServiceConfig {
        workers: 1,
        accept_backlog: 1,
        admission: AdmissionConfig {
            qps: 0.0,
            burst: 6.0, // exactly two 3-request frames, then drained
            cache_quota_bytes: u64::MAX,
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let addr = service.local_addr();

    // Drain the rate quota through the worker we then keep occupied.
    let mut occupant = Client::connect(addr).unwrap();
    let mut rejected_qps = 0u64;
    for i in 0..(2 + attempts) {
        let doc = serve_doc("greedy", universe_doc(0, 24), &all_objectives(3));
        let response = occupant.request(&doc).unwrap();
        let code = get_i64(&response, &["code"]);
        match i {
            0 | 1 => assert_eq!(
                response.get("ok"),
                Some(&Value::Bool(true)),
                "burst must be admitted"
            ),
            _ => {
                assert_eq!(code, 429, "drained bucket must answer 429");
                rejected_qps += 1;
            }
        }
    }

    // Fill the single backlog slot, then hammer the acceptor: each
    // surplus connection gets an explicit 429 queue_full frame.
    let _queued = Client::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut rejected_queue = 0u64;
    for _ in 0..attempts {
        let mut surplus = Client::connect(addr).unwrap();
        let response = surplus.read_response().unwrap();
        assert_eq!(get_i64(&response, &["code"]), 429);
        assert_eq!(
            response.get("kind").and_then(Value::as_str),
            Some("queue_full")
        );
        rejected_queue += 1;
    }

    // No panic, no lost tenant: the occupied worker still answers.
    assert!(occupant.ping().unwrap(), "daemon must survive saturation");
    service.shutdown();
    (rejected_qps, rejected_queue)
}

fn gate(stats: &Value) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let Ok(recorded) = std::fs::read_to_string(path) else {
        eprintln!("gate: BENCH_service.json not found; skipping comparison");
        return true;
    };
    let recorded = json::parse(&recorded).expect("BENCH_service.json must parse");
    let mut ok = true;
    for name in ["max_sum", "max_min", "mono"] {
        let baseline = get_i64(&recorded, &["results", "latency", name, "p99_us"]);
        let measured = get_i64(stats, &["stats", "latency", name, "p99_us"]);
        if baseline <= 0 || measured < 0 {
            eprintln!("gate: {name}: missing baseline or measurement; skipping");
            continue;
        }
        let ceiling = baseline as u64 * GATE_FACTOR;
        let pass = (measured as u64) <= ceiling;
        println!(
            "gate {name}: p99 {measured} us vs ceiling {ceiling} us (baseline {baseline} × {GATE_FACTOR}) — {}",
            if pass { "ok" } else { "REGRESSION" }
        );
        ok &= pass;
    }
    ok
}

fn main() {
    let quick = env_flag("BENCH_QUICK");
    println!(
        "service_load ({} mode): mixed-tenant load over real sockets",
        if quick { "quick" } else { "full" }
    );

    let (stats, frames_per_sec, served) = steady_state(quick);
    println!("steady state: {served} frames served, {frames_per_sec:.1} frames/s");
    for name in ["max_sum", "max_min", "mono"] {
        println!(
            "  {name:>8}: count {:>4}  mean {:>6} us  p50 {:>6} us  p99 {:>6} us",
            get_i64(&stats, &["stats", "latency", name, "count"]),
            get_i64(&stats, &["stats", "latency", name, "mean_us"]),
            get_i64(&stats, &["stats", "latency", name, "p50_us"]),
            get_i64(&stats, &["stats", "latency", name, "p99_us"]),
        );
    }
    println!(
        "  cache: hits {} misses {}",
        get_i64(&stats, &["stats", "cache", "hits"]),
        get_i64(&stats, &["stats", "cache", "misses"]),
    );

    let (rejected_qps, rejected_queue) = saturation(quick);
    println!(
        "saturation: {rejected_qps} × 429 qps_exceeded, {rejected_queue} × 429 queue_full, 0 panics, 0 lost tenants"
    );

    if env_flag("BENCH_GATE") && !gate(&stats) {
        eprintln!("service_load: p99 regression gate FAILED");
        std::process::exit(1);
    }
}

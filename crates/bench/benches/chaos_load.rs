//! Chaos bench: the self-healing serving path under deliberate abuse,
//! measured over real sockets.
//!
//! Three scenarios:
//!
//! 1. **Retry storm** — a near-drained token bucket turns most raw
//!    frames into `429`s; the retrying client must land every frame
//!    anyway. Reports client-observed p99 (backoff included) and the
//!    retry count.
//! 2. **Tight deadline, cold universe** — an `n = 8000` full-matrix
//!    prepare (seconds of work) under a 250 ms `deadline_ms` must come
//!    back `504 deadline_exceeded` within **2× the deadline** (the
//!    cooperative checkpoints bound the overshoot to one `O(n)`
//!    slice), and the abandoned prepare must not be cached.
//! 3. **Chaos proxy** — traffic through a deterministic 2 ms-per-chunk
//!    delay proxy; reports proxied p99.
//!
//! Recorded numbers live in `BENCH_chaos.json` at the workspace root.
//! `BENCH_QUICK=1` shrinks the run for CI; `BENCH_GATE=1` exits
//! nonzero if a measured p99 regresses past `GATE_FACTOR ×` its
//! recorded value, or if any chaos invariant (typed 504, ≤ 2×
//! deadline, empty cache, storm convergence) breaks.

use divr_bench::env_flag;
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_service::json::{self, Value};
use divr_service::{
    serve_doc, AdmissionConfig, ChaosProxy, Client, Fault, RetryPolicy, Service, ServiceConfig,
};
use std::time::{Duration, Instant};

/// Same headroom multiplier as the other service benches: absorbs CI
/// scheduler noise, catches order-of-magnitude regressions.
const GATE_FACTOR: u64 = 8;

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

fn requests(k: usize) -> Vec<EngineRequest> {
    vec![EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k,
    }]
}

fn get_i64(v: &Value, path: &[&str]) -> i64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or(&Value::Null);
    }
    cur.as_i64().unwrap_or(-1)
}

fn p99_us(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    if samples.is_empty() {
        return 0;
    }
    samples[(samples.len() - 1) * 99 / 100]
}

fn with_deadline(mut doc: Value, deadline_ms: i64) -> Value {
    let Value::Object(ref mut fields) = doc else {
        unreachable!("serve doc is an object")
    };
    fields.push(("deadline_ms".to_string(), Value::Int(deadline_ms)));
    doc
}

/// Retry storm: a 2-token bucket refilling at a trickle, hammered with
/// one-request frames through `request_with_retry`. Every frame must
/// converge; returns (p99 µs including backoff, retries spent).
fn retry_storm(quick: bool) -> (u64, u64) {
    let frames = if quick { 12 } else { 48 };
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        admission: AdmissionConfig {
            qps: 40.0,
            burst: 2.0,
            cache_quota_bytes: u64::MAX,
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect_with(
        service.local_addr(),
        RetryPolicy {
            max_retries: 16,
            base_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        },
    )
    .unwrap();
    let mut samples = Vec::with_capacity(frames);
    for i in 0..frames {
        let doc = serve_doc("storm", universe_doc(i % 3, 40), &requests(3));
        let started = Instant::now();
        let response = client.request_with_retry(&doc).unwrap();
        samples.push(started.elapsed().as_micros() as u64);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "storm frame {i} failed to converge"
        );
    }
    let retries = client.retries_observed();
    assert!(retries > 0, "the storm should have forced retries");
    service.shutdown();
    (p99_us(&mut samples), retries)
}

/// Tight deadline against a cold `n = 8000` universe: must be a typed
/// retryable `504` within 2× the deadline, with nothing cached.
/// Returns the observed round-trip in milliseconds.
fn tight_deadline() -> u64 {
    const DEADLINE_MS: u64 = 250;
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        admission: AdmissionConfig {
            // estimate_prepared_bytes(8000) ≈ 512 MB: the point is the
            // deadline abandoning the build, not the byte quota.
            cache_quota_bytes: u64::MAX,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(service.local_addr()).unwrap();
    let doc = with_deadline(
        serve_doc("hurried", universe_doc(0, 8000), &requests(8)),
        DEADLINE_MS as i64,
    );
    let started = Instant::now();
    let response = client.request(&doc).unwrap();
    let elapsed = started.elapsed();

    assert_eq!(get_i64(&response, &["code"]), 504, "expected a 504");
    assert_eq!(
        response.get("kind").and_then(Value::as_str),
        Some("deadline_exceeded")
    );
    assert_eq!(
        response.get("retryable").and_then(Value::as_bool),
        Some(true)
    );
    assert!(
        elapsed <= Duration::from_millis(2 * DEADLINE_MS),
        "504 took {elapsed:?} — past 2× the {DEADLINE_MS} ms deadline"
    );
    let stats = client.stats().unwrap();
    assert_eq!(
        get_i64(&stats, &["stats", "cache", "entries"]),
        0,
        "the abandoned prepare must not be cached"
    );
    assert!(get_i64(&stats, &["stats", "robustness", "deadline_exceeded"]) >= 1);
    service.shutdown();
    elapsed.as_millis() as u64
}

/// Traffic through the chaos proxy's deterministic per-chunk delay;
/// every frame must still be answered correctly. Returns proxied p99.
fn proxied_load(quick: bool) -> u64 {
    let frames = if quick { 10 } else { 40 };
    let service = Service::start(ServiceConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let proxy = ChaosProxy::start(
        service.local_addr(),
        vec![Fault::Delay(Duration::from_millis(2))],
    )
    .unwrap();
    let mut client = Client::connect(proxy.local_addr()).unwrap();
    let mut samples = Vec::with_capacity(frames);
    for i in 0..frames {
        let doc = serve_doc("lagged", universe_doc(1, 60), &requests(4));
        let started = Instant::now();
        let response = client.request(&doc).unwrap();
        samples.push(started.elapsed().as_micros() as u64);
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "proxied frame {i} failed"
        );
    }
    proxy.shutdown();
    service.shutdown();
    p99_us(&mut samples)
}

fn gate(storm_p99: u64, proxied_p99: u64) -> bool {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    let Ok(recorded) = std::fs::read_to_string(path) else {
        eprintln!("gate: BENCH_chaos.json not found; skipping comparison");
        return true;
    };
    let recorded = json::parse(&recorded).expect("BENCH_chaos.json must parse");
    let mut ok = true;
    for (name, measured) in [("storm", storm_p99), ("proxied", proxied_p99)] {
        let baseline = get_i64(&recorded, &["results", name, "p99_us"]);
        if baseline <= 0 {
            eprintln!("gate: {name}: missing baseline; skipping");
            continue;
        }
        let ceiling = baseline as u64 * GATE_FACTOR;
        let pass = measured <= ceiling;
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
        "chaos_load ({} mode): retry storm, tight deadlines, chaos proxy",
        if quick { "quick" } else { "full" }
    );

    let (storm_p99, retries) = retry_storm(quick);
    println!("retry storm: converged, p99 {storm_p99} us (backoff included), {retries} retries");

    let deadline_ms = tight_deadline();
    println!("tight deadline: 504 in {deadline_ms} ms (budget 250 ms, ceiling 500 ms), cache empty");

    let proxied_p99 = proxied_load(quick);
    println!("chaos proxy (2 ms/chunk delay): p99 {proxied_p99} us, all frames correct");

    if env_flag("BENCH_GATE") && !gate(storm_p99, proxied_p99) {
        eprintln!("chaos_load: p99 regression gate FAILED");
        std::process::exit(1);
    }
}

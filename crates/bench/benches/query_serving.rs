//! Cold query-prepare vs warm tableau-key hit: the relational
//! front-door headline number.
//!
//! A cold `{query, database}` serve pays the whole pipeline — evaluate
//! `Q(D)`, prepare the engine state (`O(n²)` distance matrix), solve.
//! A warm serve of *any semantically equivalent rewrite* of the query
//! (renamed variables, reordered atoms) hashes to the same canonical
//! tableau key and goes straight to the solve. This bench times both
//! through [`QueryFrontDoor`] and reports the ratio; recorded numbers
//! live in `BENCH_query.json` at the workspace root (acceptance bar:
//! warm ≥ 10× faster than cold).
//!
//! Run with `cargo bench -p divr-bench --bench query_serving`; set
//! `BENCH_QUICK=1` for the CI smoke configuration (small `n` — sanity
//! that the bench builds and runs, not a timing gate).

use divr_bench::env_flag;
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::Deadline;
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Value};
use divr_server::{QueryFrontDoor, QuerySpec, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `R(x, y)` with `n` rows `(i, i % 50)` — `Q(D)` of the bench query is
/// all `n` rows, under the full-matrix threshold so the cold path pays
/// the `O(n²)` prepare the warm path skips.
fn database(n: i64) -> Database {
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    for i in 0..n {
        db.insert("R", vec![Value::int(i), Value::int(i % 50)])
            .unwrap();
    }
    db
}

fn spec(text: &str) -> QuerySpec {
    QuerySpec::new(
        parse_query(text).unwrap(),
        Arc::new(divr_core::relevance::AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(divr_core::distance::NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1, 2),
    )
    .expect("valid bench query")
}

fn fmt_ns(ns: u128) -> String {
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

fn main() {
    let (n, cold_samples, warm_samples) = if env_flag("BENCH_QUICK") {
        (200i64, 2u32, 50u32)
    } else {
        (2_000i64, 3u32, 500u32)
    };
    let requests = [EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 10,
    }];
    // Two syntactically distinct, tableau-equivalent spellings: the
    // warm path must hit through the *rewrite*, proving the key is
    // semantic, not textual.
    let cold_spec = spec("Q(x, y) :- R(x, y), y <= 49");
    let warm_spec = spec("Q(a, b) :- R(a, b), R(a, b), b <= 49");

    // Cold: fresh registry per sample (registration untimed), so every
    // sample pays evaluate + prepare + solve.
    let mut cold_total = Duration::ZERO;
    for _ in 0..cold_samples {
        let front = QueryFrontDoor::new(Arc::new(Registry::default()));
        front.register_database("bench", database(n));
        let t0 = Instant::now();
        let answers = front
            .serve_query_deadline("bench", &cold_spec, &requests, Deadline::none())
            .expect("cold serve");
        cold_total += t0.elapsed();
        assert!(answers[0].is_ok(), "cold answer must be feasible");
    }
    let cold_ns = cold_total.as_nanos() / u128::from(cold_samples);
    println!(
        "{:<44} {:>14}/op   ({cold_samples} samples, evaluate + O(n²) prepare + solve)",
        format!("cold/evaluate_prepare_serve/{n}"),
        fmt_ns(cold_ns),
    );

    // Warm: one front door, first serve untimed, then the equivalent
    // rewrite hits the same tableau key every time.
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    front.register_database("bench", database(n));
    let baseline = front
        .serve_query_deadline("bench", &cold_spec, &requests, Deadline::none())
        .expect("warming serve");
    let (hits0, misses0) = {
        let c = front.registry().stats();
        (c.hits, c.misses)
    };
    let mut warm_total = Duration::ZERO;
    let mut warm_answers = None;
    for _ in 0..warm_samples {
        let t0 = Instant::now();
        let answers = front
            .serve_query_deadline("bench", &warm_spec, &requests, Deadline::none())
            .expect("warm serve");
        warm_total += t0.elapsed();
        warm_answers = Some(answers);
    }
    let counters = front.registry().stats();
    assert_eq!(
        counters.misses, misses0,
        "the equivalent rewrite must never miss"
    );
    assert!(
        counters.hits >= hits0 + u64::from(warm_samples),
        "every warm serve must be a cache hit"
    );
    assert_eq!(
        warm_answers.expect("warm samples ran"),
        baseline,
        "warm rewrite answers must be bit-identical to the cold serve"
    );
    let warm_ns = warm_total.as_nanos() / u128::from(warm_samples);
    println!(
        "{:<44} {:>14}/op   ({warm_samples} samples, tableau-key hit via equivalent rewrite)",
        format!("warm/tableau_key_hit/{n}"),
        fmt_ns(warm_ns),
    );

    let speedup = cold_ns as f64 / warm_ns.max(1) as f64;
    println!(
        "{:<44} {:>13.1}x   (acceptance bar: >= 10x)",
        "speedup/warm_vs_cold", speedup,
    );
    if !env_flag("BENCH_QUICK") {
        assert!(
            speedup >= 10.0,
            "warm tableau-key hit speedup {speedup:.1}x fell below the 10x acceptance bar"
        );
    }
}

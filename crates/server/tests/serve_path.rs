//! The one serve path diagnoses failures in one order, whatever layer a
//! request enters through: `k > n` is [`ServeError::InfeasibleK`], then
//! (coreset entries) `k > m` is [`ServeError::ExceedsCoresetBudget`],
//! and only a solve the deadline actually aborted is the retryable
//! [`ServeError::DeadlineExceeded`].
//!
//! The cases below warm an entry and then ask, with a deadline that has
//! already passed, for a `k` that can never be served. A warm hit is
//! still served past the deadline, so the request must get its typed
//! refusal (a non-retryable 422 on the wire), not a deadline error that
//! tells a retrying client to try again. A *cold* prepare past its
//! deadline is abandoned in every prepare mode and cached nowhere.

use divr_core::coreset::CORESET_AUTO_THRESHOLD;
use divr_core::engine::{EngineRequest, ServeError};
use divr_core::pipeline::{PrepareMode, PreparedVariant};
use divr_core::prelude::*;
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Tuple, Value};
use divr_server::{
    CoresetSpec, QueryError, QueryFrontDoor, QuerySpec, Registry, TenantBatch, UniverseSpec,
};
use std::sync::Arc;
use std::time::Instant;

const N: i64 = 12;
const BUDGET: usize = 4;

fn rel() -> Arc<AttributeRelevance> {
    Arc::new(AttributeRelevance {
        attr: 1,
        default: Ratio::ZERO,
    })
}

fn dis() -> Arc<NumericDistance> {
    Arc::new(NumericDistance {
        attr: 0,
        fallback: Ratio::ZERO,
    })
}

fn spec() -> UniverseSpec {
    UniverseSpec::new(
        (0..N).map(|i| Tuple::ints([i, (i * 5) % 7])).collect(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    )
}

fn request(k: usize) -> EngineRequest {
    EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k,
    }
}

fn passed() -> Deadline {
    Deadline::at(Instant::now())
}

/// Warms `spec`, then serves `k` through the registry's serve entry
/// point with a deadline that has already passed.
fn serve_warm_past_deadline(spec: UniverseSpec, k: usize) -> Result<usize, ServeError> {
    let registry = Registry::default();
    registry.try_prepare(&spec).unwrap();
    let batch = [TenantBatch {
        spec,
        requests: vec![request(k)],
    }];
    let mut answers = registry.serve_mixed_checked_deadline(&batch, passed());
    assert_eq!(registry.stats().misses, 1, "the serve must be a warm hit");
    answers.remove(0).remove(0).map(|(_, set)| set.len())
}

#[test]
fn registry_full_entry_reports_infeasible_k_past_deadline() {
    let n = N as usize;
    assert_eq!(
        serve_warm_past_deadline(spec(), n + 1),
        Err(ServeError::InfeasibleK { k: n + 1, n })
    );
    // A servable request on the same warm entry is still abandoned.
    assert_eq!(
        serve_warm_past_deadline(spec(), 4),
        Err(ServeError::DeadlineExceeded)
    );
}

#[test]
fn registry_coreset_entry_reports_budget_past_deadline() {
    let spec = spec().with_coreset(CoresetSpec::with_budget(BUDGET));
    assert_eq!(
        serve_warm_past_deadline(spec, BUDGET + 1),
        Err(ServeError::ExceedsCoresetBudget {
            k: BUDGET + 1,
            m: BUDGET,
            n: N as usize,
        })
    );
}

fn front() -> QueryFrontDoor {
    front_over(N)
}

fn front_over(n: i64) -> QueryFrontDoor {
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    for i in 0..n {
        db.insert("R", vec![Value::int(i), Value::int((i * 5) % 7)])
            .unwrap();
    }
    front.register_database("main", db);
    front
}

/// Warms the query through the front door, then serves `k` with a
/// deadline that has already passed.
fn query_warm_past_deadline(spec: &QuerySpec, k: usize) -> Result<usize, ServeError> {
    let front = front();
    front
        .serve_query_deadline("main", spec, &[request(1)], Deadline::none())
        .unwrap();
    let mut answers = front
        .serve_query_deadline("main", spec, &[request(k)], passed())
        .unwrap();
    assert_eq!(
        front.registry().stats().misses,
        1,
        "the serve must be a warm hit"
    );
    answers.remove(0).map(|(_, set)| set.len())
}

fn query_spec() -> QuerySpec {
    QuerySpec::new(
        parse_query("Q(x, y) :- R(x, y)").unwrap(),
        rel(),
        dis(),
        Ratio::new(1, 2),
    )
    .unwrap()
}

#[test]
fn front_door_full_entry_reports_infeasible_k_past_deadline() {
    let n = N as usize;
    assert_eq!(
        query_warm_past_deadline(&query_spec(), n + 1),
        Err(ServeError::InfeasibleK { k: n + 1, n })
    );
}

#[test]
fn front_door_coreset_entry_reports_budget_past_deadline() {
    let spec = query_spec().with_coreset(CoresetSpec::with_budget(BUDGET));
    assert_eq!(
        query_warm_past_deadline(&spec, BUDGET + 1),
        Err(ServeError::ExceedsCoresetBudget {
            k: BUDGET + 1,
            m: BUDGET,
            n: N as usize,
        })
    );
}

#[test]
fn prepare_past_deadline_is_refused_in_every_mode_and_never_cached() {
    let config = CoresetSpec::with_budget(BUDGET).config(1);
    let modes = [
        ("full", PrepareMode::Full),
        (
            "coreset",
            PrepareMode::Coreset {
                config,
                select_over: usize::MAX,
            },
        ),
        (
            "streamed",
            PrepareMode::Coreset {
                config,
                select_over: BUDGET,
            },
        ),
    ];
    let universe = spec().universe().to_vec();
    assert!(universe.len() > BUDGET, "the streamed mode must stream");
    for (name, mode) in modes {
        let built = PreparedVariant::build(
            universe.clone(),
            &*rel(),
            dis(),
            Ratio::new(1, 2),
            mode,
            1,
            passed(),
        );
        assert_eq!(built.err(), Some(ServeError::DeadlineExceeded), "{name}");
    }

    // The registry: full and coreset specs, both cold.
    let registry = Registry::default();
    for spec in [
        spec(),
        spec().with_coreset(CoresetSpec::with_budget(BUDGET)),
    ] {
        let batch = [TenantBatch {
            spec,
            requests: vec![request(2)],
        }];
        let answers = registry.serve_mixed_checked_deadline(&batch, passed());
        assert_eq!(answers[0][0], Err(ServeError::DeadlineExceeded));
    }
    assert_eq!(registry.stats().entries, 0);

    // The front door: full, explicit-coreset and auto-escalated queries.
    let large = front_over(CORESET_AUTO_THRESHOLD as i64 + 1);
    let small = front();
    let cases = [
        (&small, query_spec()),
        (
            &small,
            query_spec().with_coreset(CoresetSpec::with_budget(BUDGET)),
        ),
        (&large, query_spec()),
    ];
    for (front, spec) in cases {
        assert_eq!(
            front.serve_query_deadline("main", &spec, &[request(2)], passed()),
            Err(QueryError::Serve(ServeError::DeadlineExceeded))
        );
        assert!(!front.is_warm("main", &spec).unwrap());
    }
    assert_eq!(small.registry().stats().entries, 0);
    assert_eq!(large.registry().stats().entries, 0);
}

//! Fault injection: kill workers mid-batch with hostile oracles and
//! prove the blast radius. A panicking or NaN-emitting tenant must
//! cost exactly its own answers — typed, not panicked — while every
//! co-scheduled tenant's answers stay **bit-identical** to the
//! sequential oracle and the registry keeps serving afterward.

use divr_core::distance::{Distance, NumericDistance};
use divr_core::engine::{DeltaOp, EngineRequest, ScoreSource, ServeError};
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::AttributeRelevance;
use divr_core::{ByteWriter, Deadline, Ratio};
use divr_relquery::parser::parse_query;
use divr_relquery::{Database, Tuple, Value};
use divr_server::{
    CheckedAnswer, Fingerprintable, QueryError, QueryFrontDoor, QuerySpec, Registry, TenantBatch,
    UniverseSpec,
};
use std::sync::Arc;

/// One request through the registry's serve entry point.
fn try_serve(registry: &Registry, spec: &UniverseSpec, request: EngineRequest) -> CheckedAnswer {
    let batch = [TenantBatch {
        spec: spec.clone(),
        requests: vec![request],
    }];
    let mut answers = registry.serve_mixed_checked_deadline(&batch, Deadline::none());
    answers.remove(0).remove(0)
}

/// A batch of requests against one universe through the registry's
/// serve entry point, diagnoses dropped.
fn serve_universe_batch(
    registry: &Registry,
    spec: &UniverseSpec,
    requests: &[EngineRequest],
) -> Vec<Option<(Ratio, Vec<usize>)>> {
    let batch = [TenantBatch {
        spec: spec.clone(),
        requests: requests.to_vec(),
    }];
    let mut answers = registry.serve_mixed_checked_deadline(&batch, Deadline::none());
    answers.remove(0).into_iter().map(Result::ok).collect()
}

/// Panics on the first off-diagonal pair: the prepare-phase worker
/// computing this universe's matrix dies mid-batch.
#[derive(Clone, Copy, Debug)]
struct PanickingDistance;

impl Distance for PanickingDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            panic!("injected fault: distance oracle killed the worker");
        }
    }
}

impl Fingerprintable for PanickingDistance {
    fn fingerprint(&self, enc: &mut ByteWriter) {
        enc.write_str("test:panicking-distance");
    }
}

/// Exact path finite, float fast path NaN: trips validate-at-prepare.
#[derive(Clone, Copy, Debug)]
struct NanDistance;

impl Distance for NanDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        if a == b {
            Ratio::ZERO
        } else {
            Ratio::ONE
        }
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a == b {
            0.0
        } else {
            f64::NAN
        }
    }
}

impl Fingerprintable for NanDistance {
    fn fingerprint(&self, enc: &mut ByteWriter) {
        enc.write_str("test:nan-distance");
    }
}

/// A healthy universe, distinct per `which`.
fn healthy_spec(which: usize) -> UniverseSpec {
    let n = 14 + 2 * which;
    UniverseSpec::new(
        (0..n as i64)
            .map(|i| Tuple::ints([(i * 5 + which as i64) % 37, (i * 3) % 11]))
            .collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1 + which as i64 % 3, 4),
    )
}

fn hostile_spec(distance: Arc<dyn divr_server::ServableDistance>) -> UniverseSpec {
    UniverseSpec::new(
        (0..10).map(|i| Tuple::ints([i, i % 4])).collect(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        distance,
        Ratio::new(1, 2),
    )
}

fn requests() -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .into_iter()
        .flat_map(|kind| [2usize, 4].map(|k| EngineRequest { kind, k }))
        .collect()
}

#[test]
fn panicking_tenant_is_isolated_bit_identically() {
    let registry = Registry::default();
    let batch: Vec<TenantBatch> = vec![
        TenantBatch {
            spec: healthy_spec(0),
            requests: requests(),
        },
        TenantBatch {
            spec: hostile_spec(Arc::new(PanickingDistance)),
            requests: requests(),
        },
        TenantBatch {
            spec: healthy_spec(1),
            requests: requests(),
        },
        TenantBatch {
            spec: hostile_spec(Arc::new(NanDistance)),
            requests: requests(),
        },
        TenantBatch {
            spec: healthy_spec(2),
            requests: requests(),
        },
    ];
    let results = registry.serve_mixed_checked_deadline(&batch, Deadline::none());
    assert_eq!(results.len(), batch.len());

    // The hostile tenants get typed errors on every request…
    for answer in &results[1] {
        assert_eq!(answer, &Err(ServeError::WorkerPanicked));
    }
    for answer in &results[3] {
        assert!(
            matches!(
                answer,
                Err(ServeError::NonFiniteScore {
                    source: ScoreSource::Distance,
                    ..
                })
            ),
            "expected NonFiniteScore, got {answer:?}"
        );
    }

    // …and every healthy tenant's answers are bit-identical to a
    // fresh sequential oracle that never saw a fault.
    let oracle = Registry::default();
    for tenant in [0usize, 2, 4] {
        for (answer, request) in results[tenant].iter().zip(requests()) {
            let expected = try_serve(&oracle, &batch[tenant].spec, request).unwrap();
            assert_eq!(
                answer.as_ref().expect("healthy tenant must be served"),
                &expected,
                "tenant {tenant} drifted on {request:?}"
            );
        }
    }

    // Refused universes were never cached; the three healthy ones were.
    assert_eq!(registry.stats().entries, 3);

    // The same registry keeps serving after the faults.
    let after = try_serve(
        &registry,
        &healthy_spec(0),
        EngineRequest {
            kind: ObjectiveKind::MaxMin,
            k: 3,
        },
    );
    assert!(after.is_ok());
}

#[test]
fn repeated_faults_never_wear_the_registry_down() {
    let registry = Registry::default();
    let request = EngineRequest {
        kind: ObjectiveKind::MaxSum,
        k: 3,
    };
    let expected = try_serve(&Registry::default(), &healthy_spec(7), request).unwrap();
    for round in 0..5 {
        let hostile: Arc<dyn divr_server::ServableDistance> = if round % 2 == 0 {
            Arc::new(PanickingDistance)
        } else {
            Arc::new(NanDistance)
        };
        let results = registry.serve_mixed_checked_deadline(
            &[
                TenantBatch {
                    spec: hostile_spec(hostile),
                    requests: vec![request],
                },
                TenantBatch {
                    spec: healthy_spec(7),
                    requests: vec![request],
                },
            ],
            Deadline::none(),
        );
        assert!(results[0][0].is_err(), "round {round}");
        assert_eq!(results[1][0].as_ref().unwrap(), &expected, "round {round}");
    }
}

#[test]
fn empty_batches_never_touch_the_cache() {
    let registry = Registry::default();
    let spec = healthy_spec(3);

    // Empty request slice: no prepare, no cache traffic at all.
    assert!(serve_universe_batch(&registry, &spec, &[]).is_empty());
    let stats = registry.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));

    // A zero-request tenant in a mixed batch contributes no prepare
    // either — only the tenant that actually asks pays.
    let results = registry.serve_mixed_checked_deadline(
        &[
            TenantBatch {
                spec: spec.clone(),
                requests: Vec::new(),
            },
            TenantBatch {
                spec: healthy_spec(4),
                requests: vec![EngineRequest {
                    kind: ObjectiveKind::Mono,
                    k: 2,
                }],
            },
        ],
        Deadline::none(),
    );
    assert!(results[0].is_empty());
    assert!(results[1][0].is_ok());
    let stats = registry.stats();
    assert_eq!((stats.misses, stats.entries), (1, 1));
}

/// First attribute of the tuple a delta inserts into an otherwise
/// healthy universe under [`PoisonedDistance`].
const POISON: i64 = 999;

const NUMERIC: NumericDistance = NumericDistance {
    attr: 0,
    fallback: Ratio::ZERO,
};

fn poisoned(t: &Tuple) -> bool {
    t.get(0).and_then(Value::as_int) == Some(POISON)
}

/// Exact path finite everywhere; the float fast path is NaN for every
/// pair that involves a [`POISON`] tuple. A universe without one
/// prepares and serves normally; inserting one must trip validation.
#[derive(Clone, Copy, Debug)]
struct PoisonedDistance;

impl Distance for PoisonedDistance {
    fn dist(&self, a: &Tuple, b: &Tuple) -> Ratio {
        NUMERIC.dist(a, b)
    }

    fn dist_f64(&self, a: &Tuple, b: &Tuple) -> f64 {
        if a != b && (poisoned(a) || poisoned(b)) {
            f64::NAN
        } else {
            NUMERIC.dist_f64(a, b)
        }
    }
}

impl Fingerprintable for PoisonedDistance {
    fn fingerprint(&self, enc: &mut ByteWriter) {
        enc.write_str("test:poisoned-distance");
    }
}

fn base_rows() -> Vec<Tuple> {
    (0..10).map(|i| Tuple::ints([i, i % 4])).collect()
}

fn poison_row() -> Tuple {
    Tuple::ints([POISON, 1])
}

fn poisoned_spec(rows: Vec<Tuple>) -> UniverseSpec {
    UniverseSpec::new(
        rows,
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(PoisonedDistance),
        Ratio::new(1, 2),
    )
}

fn one_per_objective() -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .into_iter()
        .map(|kind| EngineRequest { kind, k: 3 })
        .collect()
}

fn serve_all(registry: &Registry, spec: &UniverseSpec) -> Vec<CheckedAnswer> {
    let batch = [TenantBatch {
        spec: spec.clone(),
        requests: one_per_objective(),
    }];
    registry
        .serve_mixed_checked_deadline(&batch, Deadline::none())
        .remove(0)
}

/// Warms a healthy universe by serving `warm`, inserts a tuple whose
/// float distances are NaN through the delta path, and serves the
/// mutated universe.
fn delta_insert_poison(warm: ObjectiveKind) -> (Registry, UniverseSpec, Vec<CheckedAnswer>) {
    let registry = Registry::default();
    let spec = poisoned_spec(base_rows());
    assert!(try_serve(&registry, &spec, EngineRequest { kind: warm, k: 3 }).is_ok());
    let mutated = registry
        .apply_delta(&spec, &DeltaOp::Insert(poison_row()))
        .unwrap();
    let answers = serve_all(&registry, &mutated);
    (registry, mutated, answers)
}

/// What a cold prepare of the poisoned content answers: the typed
/// refusal, for every request.
fn cold_poisoned_answers() -> Vec<CheckedAnswer> {
    let mut rows = base_rows();
    rows.push(poison_row());
    let cold = serve_all(&Registry::default(), &poisoned_spec(rows));
    for answer in &cold {
        assert!(
            matches!(
                answer,
                Err(ServeError::NonFiniteScore {
                    source: ScoreSource::Distance,
                    ..
                })
            ),
            "cold prepare must refuse, got {answer:?}"
        );
    }
    cold
}

#[test]
fn delta_insert_of_non_finite_tuple_into_warm_max_min_goes_cold() {
    let (registry, mutated, answers) = delta_insert_poison(ObjectiveKind::MaxMin);
    assert_eq!(answers, cold_poisoned_answers());
    assert!(
        !registry.is_cached(&mutated),
        "a refused universe is never cached"
    );
}

#[test]
fn delta_insert_of_non_finite_tuple_into_warm_max_sum_goes_cold() {
    let (registry, mutated, answers) = delta_insert_poison(ObjectiveKind::MaxSum);
    assert_eq!(answers, cold_poisoned_answers());
    assert!(
        !registry.is_cached(&mutated),
        "a refused universe is never cached"
    );
}

fn front_door(rows: &[Tuple]) -> QueryFrontDoor {
    let front = QueryFrontDoor::new(Arc::new(Registry::default()));
    let mut db = Database::new();
    db.create_relation("R", &["x", "y"]).unwrap();
    for t in rows {
        db.insert("R", t.values().to_vec()).unwrap();
    }
    front.register_database("main", db);
    front
}

fn poisoned_query() -> QuerySpec {
    QuerySpec::new(
        parse_query("Q(x, y) :- R(x, y)").unwrap(),
        Arc::new(AttributeRelevance {
            attr: 1,
            default: Ratio::ZERO,
        }),
        Arc::new(PoisonedDistance),
        Ratio::new(1, 2),
    )
    .unwrap()
}

fn serve_query_all(front: &QueryFrontDoor) -> Result<Vec<CheckedAnswer>, QueryError> {
    front.serve_query_deadline(
        "main",
        &poisoned_query(),
        &one_per_objective(),
        Deadline::none(),
    )
}

#[test]
fn base_insert_of_non_finite_tuple_into_warm_query_goes_cold() {
    let spec = poisoned_query();
    let front = front_door(&base_rows());
    let warm = EngineRequest {
        kind: ObjectiveKind::MaxMin,
        k: 3,
    };
    let warmed = front
        .serve_query_deadline("main", &spec, &[warm], Deadline::none())
        .unwrap();
    assert!(warmed[0].is_ok());
    assert!(front
        .insert_base_tuple("main", "R", poison_row().values().to_vec())
        .unwrap());
    assert!(
        !front.is_warm("main", &spec).unwrap(),
        "the entry goes cold"
    );

    let mut rows = base_rows();
    rows.push(poison_row());
    let cold = serve_query_all(&front_door(&rows));
    assert!(
        matches!(
            cold,
            Err(QueryError::Serve(ServeError::NonFiniteScore {
                source: ScoreSource::Distance,
                ..
            }))
        ),
        "cold prepare must refuse, got {cold:?}"
    );
    assert_eq!(serve_query_all(&front), cold);
}

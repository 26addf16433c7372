//! Fault injection: kill workers mid-batch with hostile oracles and
//! prove the blast radius. A panicking or NaN-emitting tenant must
//! cost exactly its own answers — typed, not panicked — while every
//! co-scheduled tenant's answers stay **bit-identical** to the
//! sequential oracle and the registry keeps serving afterward.

use divr_core::distance::{Distance, NumericDistance};
use divr_core::engine::{EngineRequest, ScoreSource, ServeError};
use divr_core::problem::ObjectiveKind;
use divr_core::relevance::AttributeRelevance;
use divr_core::{ByteWriter, Deadline, Ratio};
use divr_relquery::Tuple;
use divr_server::{CheckedAnswer, Fingerprintable, Registry, TenantBatch, UniverseSpec};
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

//! Serving-registry throughput: what does the prepared-universe cache
//! buy once traffic re-uses universes?
//!
//! * `server/cold_prepare_serve` — a fresh registry per iteration:
//!   every batch pays fingerprinting, relevance evaluation, the
//!   `O(n²)` matrix build, and the solve (the "prepare+solve" cost a
//!   cacheless deployment pays on every query).
//! * `server/warm_cache` — one long-lived registry: every batch after
//!   the first is a cache hit that skips preparation (and the
//!   k-independent solver preambles memoized in the prepared
//!   universe) and goes straight to the solve rounds.
//! * `server/warm_mixed_tenants` — four tenants over two distinct
//!   universes through [`Registry::serve_mixed`]'s work-stealing
//!   scheduler, warm.
//!
//! The PR 2 acceptance bar: warm-cache batch serving ≥ 10× faster
//! than cold at `n = 2000`, `k = 10` on the mixed
//! `[F_MM, F_mono]` batch. Run with
//! `cargo bench -p divr-bench --bench server_throughput`; recorded
//! numbers live in `BENCH_server.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divr_core::distance::NumericDistance;
use divr_core::engine::EngineRequest;
use divr_core::problem::ObjectiveKind;
use divr_core::ratio::Ratio;
use divr_core::Deadline;
use divr_server::{Registry, RegistryConfig, TenantBatch, UniverseSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const N: usize = 2000;
const K: usize = 10;

/// Deterministic serving workload: 2-D integer points, L1-on-attr-0
/// distance, random integer relevances — the same family as
/// `engine_scaling`, expressed as a content-addressable spec.
fn spec(salt: u64) -> UniverseSpec {
    let mut r = StdRng::seed_from_u64(0xE9617E ^ ((N as u64) << 8) ^ salt);
    let universe = divr_core::gen::point_universe(&mut r, N, 2, (10 * N) as i64);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 100);
    UniverseSpec::new(
        universe,
        Arc::new(rel),
        Arc::new(NumericDistance {
            attr: 0,
            fallback: Ratio::ZERO,
        }),
        Ratio::new(1, 2),
    )
}

/// The acceptance batch: one F_MM and one F_mono request at k = 10.
fn mixed_batch() -> Vec<EngineRequest> {
    vec![
        EngineRequest {
            kind: ObjectiveKind::MaxMin,
            k: K,
        },
        EngineRequest {
            kind: ObjectiveKind::Mono,
            k: K,
        },
    ]
}

fn config() -> RegistryConfig {
    RegistryConfig {
        byte_budget: 256 << 20,
        shards: 4,
        workers: divr_core::engine::default_threads(),
        solve_threads: divr_core::engine::default_threads(),
    }
}

fn cold_vs_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(100));
    g.measurement_time(std::time::Duration::from_millis(1500));
    let spec0 = spec(0);
    let batch = [TenantBatch {
        spec: spec0.clone(),
        requests: mixed_batch(),
    }];

    g.bench_with_input(
        BenchmarkId::new("cold_prepare_serve", N),
        &batch,
        |b, batch| {
            b.iter(|| {
                // A fresh registry: the batch pays full preparation.
                let registry = Registry::new(config());
                registry.serve_mixed_checked_deadline(batch, Deadline::none())[0].len()
            })
        },
    );

    let registry = Registry::new(config());
    registry.try_prepare(&spec0).unwrap(); // prime the cache
    g.bench_with_input(BenchmarkId::new("warm_cache", N), &batch, |b, batch| {
        b.iter(|| registry.serve_mixed_checked_deadline(batch, Deadline::none())[0].len())
    });

    // Mixed-tenant scheduling, warm: four tenants over two universes.
    let spec1 = spec(1);
    registry.try_prepare(&spec1).unwrap();
    let tenants: Vec<TenantBatch> = (0..4)
        .map(|t| TenantBatch {
            spec: if t % 2 == 0 { spec0.clone() } else { spec1.clone() },
            requests: mixed_batch(),
        })
        .collect();
    g.bench_with_input(
        BenchmarkId::new("warm_mixed_tenants", N),
        &tenants,
        |b, ts| {
            b.iter(|| {
                registry
                    .serve_mixed_checked_deadline(ts, Deadline::none())
                    .len()
            })
        },
    );
    g.finish();
}

criterion_group!(benches, cold_vs_warm);
criterion_main!(benches);

//! Engine-vs-`Ratio`-path scaling: how much does the batch engine's
//! precomputed `f64` distance matrix buy over the exact sequential
//! heuristics of `divr_core::approx` at serving-relevant sizes?
//!
//! Three things are timed per universe size `n`:
//!
//! * `ratio/<solver>` — the existing exact-`Ratio` path, which
//!   re-evaluates the distance oracle inside every argmax round;
//! * `engine/prepare` — the one-time `O(n²)` matrix build;
//! * `engine/<solver>` — a solve against the prepared matrix (the
//!   steady-state serving cost), plus `engine/serve_batch_6` for a
//!   whole mixed batch against one matrix.
//!
//! The acceptance bar for this PR: ≥ 5× on the greedy solvers at
//! `n ≥ 2000`. Run with `cargo bench -p divr-bench --bench engine_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use divr_bench::workloads as w;
use divr_core::approx;
use divr_core::engine::{Engine, EngineRequest, SolveScratch};
use divr_core::problem::{DiversityProblem, ObjectiveKind};
use divr_core::ratio::Ratio;
use divr_core::relevance::TableRelevance;
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 10;

/// The shared workload: 2-D integer points, L1 distance, random integer
/// relevances — deterministic per `n`.
fn workload(n: usize) -> (Vec<divr_relquery::Tuple>, TableRelevance) {
    let mut r = StdRng::seed_from_u64(0xE9617E ^ ((n as u64) << 8));
    let universe = divr_core::gen::point_universe(&mut r, n, 2, (10 * n) as i64);
    let rel = divr_core::gen::random_relevance(&mut r, &universe, 100);
    (universe, rel)
}

fn ratio_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("ratio");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(20));
    g.measurement_time(std::time::Duration::from_millis(200));
    for n in [500usize, 2000] {
        let (universe, rel) = workload(n);
        let dis = w::l1_distance();
        let p = DiversityProblem::new(universe, &rel, &dis, Ratio::new(1, 2), K);
        g.bench_with_input(BenchmarkId::new("greedy_max_sum", n), &p, |b, p| {
            b.iter(|| approx::greedy_max_sum(p).map(|s| s.len()))
        });
        g.bench_with_input(BenchmarkId::new("gmm_max_min", n), &p, |b, p| {
            b.iter(|| approx::gmm_max_min(p).map(|s| s.len()))
        });
        g.bench_with_input(BenchmarkId::new("mmr", n), &p, |b, p| {
            b.iter(|| approx::mmr(p).map(|s| s.len()))
        });
    }
    g.finish();
}

fn engine_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(20));
    g.measurement_time(std::time::Duration::from_millis(200));
    for n in [500usize, 2000] {
        let (universe, rel) = workload(n);
        let dis = w::l1_distance();
        g.bench_with_input(BenchmarkId::new("prepare", n), &n, |b, _| {
            b.iter(|| Engine::new(universe.clone(), &rel, &dis, Ratio::new(1, 2)).n())
        });
        let e = Engine::new(universe, &rel, &dis, Ratio::new(1, 2));
        g.bench_with_input(BenchmarkId::new("greedy_max_sum", n), &e, |b, e| {
            b.iter(|| e.greedy_max_sum(K).map(|s| s.len()))
        });
        g.bench_with_input(BenchmarkId::new("gmm_max_min", n), &e, |b, e| {
            b.iter(|| e.gmm_max_min(K).map(|s| s.len()))
        });
        g.bench_with_input(BenchmarkId::new("mmr", n), &e, |b, e| {
            b.iter(|| e.mmr(K).map(|s| s.len()))
        });
        // One matrix, six mixed requests: the batch serving shape.
        let batch: Vec<EngineRequest> = ObjectiveKind::ALL
            .into_iter()
            .flat_map(|kind| [5, 10].map(|k| EngineRequest { kind, k }))
            .collect();
        g.bench_with_input(BenchmarkId::new("serve_batch_6", n), &e, |b, e| {
            b.iter(|| {
                let (mut scratch, mut out) = (SolveScratch::new(), Vec::new());
                batch
                    .iter()
                    .filter(|&&r| e.serve_into(r, &mut scratch, &mut out).is_ok())
                    .count()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, ratio_path, engine_path);
criterion_main!(benches);

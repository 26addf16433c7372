//! The three workloads: set-up, the timed wire window, checks, and the
//! traced replay.

use crate::check::{self, Ans, WarmReference};
use crate::gen::{self, QFrame, QueryWorkload, Universe};
use crate::load::{self, Conn, LoopRun};
use crate::replay::{self, Tracer};
use crate::report::{median, peak_rss_mb, quantile, Outcome};
use crate::Args;
use divr_core::engine::{Engine, EngineRequest};
use divr_core::problem::ObjectiveKind;
use divr_relquery::parser::parse_query;
use divr_server::{Durability, QueryFrontDoor, QuerySpec, RecoverMode, Registry, RegistryConfig};
use divr_service::admission::{Admission, AdmissionConfig};
use divr_service::json::Value;
use divr_service::{Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` a traced run spends on its wire pass; the rest
/// goes to the in-process replay.
const TRACED_WIRE_SHARE: f64 = 0.4;
/// Set-ups per run; `setup_s` is their median.
const WARM_SETUPS: usize = 5;
const COLD_SETUPS: usize = 5;
const QUERY_SETUPS: usize = 3;
/// Length of the time windows the wire metrics are read from: long
/// enough for a few hundred frames (cold_large: about a hundred).
const WARM_WINDOW_S: f64 = 1.0;
const COLD_WINDOW_S: f64 = 3.0;
const QUERY_WINDOW_S: f64 = 2.0;
/// `query_mutate` arrival rate. One pipelined connection saturates near
/// 345 frames/s on a 2-core machine; at half that rate the read p90
/// swung by 2x between runs with the machine's background load, so the
/// schedule offers under a third of capacity.
const QUERY_RATE_HZ: f64 = 100.0;
/// Background checkpoint cadence of the durable daemon.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
/// Every Nth replayed read is checked against a fresh engine.
const FRESH_READ_EVERY: usize = 16;
/// `cold_large` frames checked against a fresh engine on untraced runs.
const COLD_FRESH_FRAMES: usize = 8;
const PINGS: usize = 200;
const MIB: f64 = 1024.0 * 1024.0;

fn no_quota() -> AdmissionConfig {
    AdmissionConfig {
        qps: 1e12,
        burst: 1e12,
        cache_quota_bytes: u64::MAX,
    }
}

fn service_config(data_dir: Option<PathBuf>) -> ServiceConfig {
    let durable = data_dir.is_some();
    ServiceConfig {
        workers: 2,
        admission: no_quota(),
        data_dir,
        recover_mode: RecoverMode::Eager,
        checkpoint_interval: durable.then_some(CHECKPOINT_EVERY),
        ..ServiceConfig::default()
    }
}

fn io_err(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

fn all_objectives(k: usize) -> Vec<EngineRequest> {
    ObjectiveKind::ALL
        .iter()
        .map(|&kind| EngineRequest { kind, k })
        .collect()
}

fn expect_ok(response: &Value, what: &str) -> io::Result<()> {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(io_err(format!("{what}: {}", response.to_json())))
    }
}

fn ping_rtt_us(conn: &mut Conn) -> io::Result<f64> {
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        conn.ping()?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&rtts))
}

/// Records up to a few failure messages, and counts every failed frame.
fn fail(out: &mut Outcome, frame: usize, message: String) {
    out.failed += 1;
    if out.problems.len() < 5 {
        out.problem(format!("frame {frame}: {message}"));
    }
}

/// Per-layer figures a traced run takes from its wire pass: the
/// daemon's cache and admission counts over the window, request size.
fn wire_layers(out: &mut Outcome, before: &Value, after: &Value, run: &LoopRun) {
    let delta = |path: &[&str]| (load::counter(after, path) - load::counter(before, path)) as f64;
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    out.set(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.set("cache.misses", misses);
    out.set("cache.evictions", delta(&["cache", "evictions"]));
    out.set(
        "cache.resident_mb",
        load::counter(after, &["cache", "bytes"]) as f64 / MIB,
    );
    out.set(
        "admission.rejected",
        delta(&["admission", "rejected_qps"])
            + delta(&["admission", "rejected_cache"])
            + delta(&["admission", "rejected_queue"]),
    );
    let bytes: Vec<f64> = run.done.iter().map(|d| d.request_bytes as f64).collect();
    out.set("proto.frame_bytes", median(&bytes));
}

/// Frame rate and latency percentiles over equal time windows of the
/// run. On a shared host the hypervisor takes CPU from this machine in
/// bursts (the `steal` column of `/proc/stat`), which slowed whole
/// stretches of `warm_serve` runs by up to 2x, so each metric is the
/// median over the half of the windows in which the least CPU was
/// stolen. `done` holds `(completion_s, latency_us)` of every completed
/// frame, `timed` of the frames whose latency is reported. Returns the
/// timed latencies.
fn wire_metrics(
    out: &mut Outcome,
    run: &LoopRun,
    done: &[(f64, f64)],
    timed: &[(f64, f64)],
) -> Vec<f64> {
    let windows = run.steal.len();
    let slot = |at: f64| ((at / run.window_s) as usize).min(windows - 1);
    let mut counts = vec![0usize; windows];
    for &(at, _) in done {
        counts[slot(at)] += 1;
    }
    let mut per_window = vec![Vec::new(); windows];
    for &(at, lat) in timed {
        per_window[slot(at)].push(lat);
    }
    let mut calm: Vec<usize> = (0..windows)
        .filter(|&w| !per_window[w].is_empty())
        .collect();
    calm.sort_by(|&a, &b| run.steal[a].total_cmp(&run.steal[b]).then(a.cmp(&b)));
    calm.truncate(calm.len().div_ceil(2));
    let over_calm =
        |f: &dyn Fn(usize) -> f64| median(&calm.iter().map(|&w| f(w)).collect::<Vec<_>>());
    let all: Vec<f64> = timed.iter().map(|&(_, lat)| lat).collect();
    if out.trace {
        out.diag("frame_p50_us (wire pass)", quantile(&all, 0.5), "us");
    } else {
        out.set(
            "frames_per_s",
            over_calm(&|w| counts[w] as f64 / run.window_s),
        );
        out.set(
            "frame_p50_us",
            over_calm(&|w| quantile(&per_window[w], 0.5)),
        );
        out.set(
            "frame_p90_us",
            over_calm(&|w| quantile(&per_window[w], 0.9)),
        );
    }
    out.diag("frame_p99_us", quantile(&all, 0.99), "us");
    out.diag("frame_samples", all.len() as f64, "count");
    out.diag("windows", windows as f64, "count");
    out.diag("steal_ticks", run.steal.iter().sum(), "count");
    out.diag(
        "steal_ticks_in_calm_windows",
        calm.iter().map(|&w| run.steal[w]).sum(),
        "count",
    );
    all
}

/// Median over frames of each span name's per-frame total (µs).
fn span_medians(tr: &Tracer, frames: impl Fn(u64) -> bool) -> BTreeMap<&'static str, f64> {
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (frame, spans) in tr.per_frame() {
        if frames(frame) {
            for (name, us) in spans {
                per_name.entry(name).or_default().push(us);
            }
        }
    }
    per_name.into_iter().map(|(n, v)| (n, median(&v))).collect()
}

fn set_layers(out: &mut Outcome, medians: &BTreeMap<&'static str, f64>) {
    let get = |name: &str| medians.get(name).copied().unwrap_or(0.0);
    for (metric, span, scale) in [
        ("json.parse_us", "json.parse", 1.0),
        ("json.serialize_us", "json.serialize", 1.0),
        ("wire.decode_us", "wire.decode", 1.0),
        ("admission.us", "admission", 1.0),
        ("spec.key_us", "spec.key", 1.0),
        ("relquery.canon_us", "relquery.canon", 1.0),
        ("query.key_us", "query.key", 1.0),
        ("registry.serve_us", "registry.serve", 1.0),
        ("engine.prepare_ms", "engine.prepare", 1e-3),
        ("coreset.prepare_ms", "coreset.prepare", 1e-3),
        ("engine.solve.max_sum_us", "engine.solve.max_sum", 1.0),
        ("engine.solve.max_min_us", "engine.solve.max_min", 1.0),
        ("engine.solve.mono_us", "engine.solve.mono", 1.0),
        ("engine.rescore.max_sum_us", "engine.rescore.max_sum", 1.0),
        ("engine.rescore.max_min_us", "engine.rescore.max_min", 1.0),
        ("engine.rescore.mono_us", "engine.rescore.mono", 1.0),
        ("query.serve_us", "query.serve", 1.0),
        ("query.insert_us", "query.insert", 1.0),
        ("query.remove_us", "query.remove", 1.0),
        ("persist.checkpoint_ms", "persist.checkpoint", 1e-3),
    ] {
        out.set(metric, get(span) * scale);
    }
}

/// `trace.coverage`: what the layer spans of a frame explain of the
/// frame time the client saw.
fn coverage(out: &mut Outcome, tr: &Tracer, wire_p50_us: f64, frames: impl Fn(u64) -> bool) {
    let totals: Vec<f64> = tr
        .layer_total_per_frame()
        .into_iter()
        .filter(|(f, _)| frames(*f))
        .map(|(_, us)| us)
        .collect();
    if wire_p50_us > 0.0 {
        out.set("trace.coverage", median(&totals) / wire_p50_us);
    }
    out.diag("trace.layer_total_us", median(&totals), "us");
}

fn write_spans(out: &mut Outcome, tr: &Tracer, name: &str) {
    let path = Path::new(".bench_out").join(format!("spans-{name}.jsonl"));
    match tr.write(&path) {
        Ok(()) => println!(
            "  spans written to {} ({} spans)",
            path.display(),
            tr.spans.len()
        ),
        Err(e) => out.problem(format!("writing spans to {}: {e}", path.display())),
    }
}

/// `warm_serve` and `cold_large`.
pub fn serve(args: &Args) -> io::Result<Outcome> {
    let warm = args.workload == "warm_serve";
    let seed = args.seed;
    let mut out = Outcome::new(&args.workload, seed, args.trace);
    let universes = if warm {
        gen::warm_universes(seed)
    } else {
        Vec::new()
    };
    let reference = if warm {
        Some(WarmReference::build(&universes).map_err(io_err)?)
    } else {
        None
    };
    // Frame `i` and what its answers must look like: the warm universe
    // it ships (warm_serve), the universe size and the requests.
    let make = |i: usize| -> (Vec<u8>, (usize, usize, Vec<EngineRequest>)) {
        if warm {
            let (u, requests) = gen::warm_frame(seed, i);
            let payload = gen::serve_frame(i % gen::TENANTS, &universes[u].json, &requests);
            (payload, (u, universes[u].rows.len(), requests))
        } else {
            let (universe, requests) = gen::cold_frame(seed, i);
            let payload = gen::serve_frame(i % gen::TENANTS, &universe.json, &requests);
            (payload, (0, universe.rows.len(), requests))
        }
    };
    // Every answer's shape is checked; on warm_serve also bit-identity
    // with a fresh engine. Answers are kept only where a later
    // comparison needs them.
    let keep = |frame: usize| args.trace || (!warm && frame < COLD_FRESH_FRAMES);
    let check_frame =
        |frame: usize, (u, n, requests): (usize, usize, Vec<EngineRequest>), response: &[u8]| {
            let answers = load::parse(response).and_then(|r| check::parse_answers(&r))?;
            check::check_shape(&answers, &requests, n)?;
            if let Some(reference) = &reference {
                check::same(
                    "daemon vs fresh engine",
                    &answers,
                    &reference.answers(u, &requests),
                )?;
            }
            Ok(keep(frame).then_some(answers))
        };

    // Set-up, repeated: start the daemon and warm the working set.
    let setups = if warm { WARM_SETUPS } else { COLD_SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut live = None;
    for rep in 0..setups {
        let started = Instant::now();
        let service = Service::start(service_config(None))?;
        let mut conn = Conn::connect(service.local_addr())?;
        if warm {
            for (u, universe) in universes.iter().enumerate() {
                let frame = gen::serve_frame(u, &universe.json, &all_objectives(gen::K_MAX));
                expect_ok(&conn.call_json(&frame)?, "warm-up frame")?;
            }
        } else {
            // No working set to warm: one frame per serving mode pays the
            // fresh process's first-touch costs outside the timed window.
            for universe in gen::cold_warmup(seed) {
                let frame = gen::serve_frame(0, &universe.json, &all_objectives(gen::K_MAX));
                expect_ok(&conn.call_json(&frame)?, "warm-up frame")?;
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 == setups {
            live = Some((service, conn));
        } else {
            drop(conn);
            service.shutdown();
        }
    }
    let (service, mut conn) = live.expect("at least one set-up");
    let addr = service.local_addr();
    let before = conn.stats()?;
    if args.trace {
        out.set("proto.ping_rtt_us", ping_rtt_us(&mut conn)?);
    }
    drop(conn);

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds * TRACED_WIRE_SHARE
    } else {
        args.seconds
    });
    let width = if warm { WARM_WINDOW_S } else { COLD_WINDOW_S };
    let run = load::closed_loop(addr, 2, window, width, &make, &check_frame);
    let after = Conn::connect(addr)?.stats()?;
    service.shutdown();
    for p in load::health(&before, &after, warm, None) {
        out.problem(p);
    }
    for e in &run.io_errors {
        out.problem(format!("transport: {e}"));
    }

    let mut daemon: BTreeMap<usize, Vec<Ans>> = BTreeMap::new();
    let mut ok = Vec::with_capacity(run.done.len());
    for d in &run.done {
        out.attempted += 1;
        match &d.checked {
            Ok(kept) => {
                ok.push((d.at_s, d.latency_us));
                if let Some(answers) = kept {
                    daemon.insert(d.frame, answers.clone());
                }
            }
            Err(e) => fail(&mut out, d.frame, e.clone()),
        }
    }
    if !warm && !args.trace {
        for (&frame, answers) in &daemon {
            let (universe, requests) = gen::cold_frame(seed, frame);
            if let Err(e) = check::fresh_answers(&universe, &requests)
                .and_then(|want| check::same("daemon vs fresh engine", answers, &want))
            {
                fail(&mut out, frame, e);
            }
        }
    }
    let latencies = wire_metrics(&mut out, &run, &ok, &ok);
    out.diag(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if !args.trace {
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    // Traced replay of the same frames, in order, in process.
    wire_layers(&mut out, &before, &after, &run);
    let registry = Registry::new(RegistryConfig::default());
    let admission = Admission::new(no_quota());
    let mut warmup = Tracer::new();
    for (u, universe) in universes.iter().enumerate() {
        let frame = gen::serve_frame(u, &universe.json, &all_objectives(gen::K_MAX));
        replay::serve_frame(&mut warmup, &registry, &admission, u as u64, &frame)
            .map_err(io_err)?;
    }
    let misses_before = registry.stats().misses;
    let mut tr = Tracer::new();
    let replay_started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * (1.0 - TRACED_WIRE_SHARE));
    for (&frame, want) in &daemon {
        if replay_started.elapsed() >= budget {
            break;
        }
        out.attempted += 1;
        let (payload, _) = make(frame);
        let replayed = replay::serve_frame(&mut tr, &registry, &admission, frame as u64, &payload)
            .and_then(|got| check::same("replay vs daemon", &got, want).map(|()| got));
        let checked = replayed.and_then(|got| {
            let check = tr.open("bench.check", replay::NO_PARENT, frame as u64);
            let fresh = if warm {
                let (u, requests) = gen::warm_frame(seed, frame);
                Ok(reference
                    .as_ref()
                    .expect("warm reference")
                    .answers(u, &requests))
            } else {
                let (universe, requests) = gen::cold_frame(seed, frame);
                check::fresh_answers(&universe, &requests)
            };
            tr.close(check);
            check::same("replay vs fresh engine", &got, &fresh?)
        });
        if let Err(e) = checked {
            fail(&mut out, frame, e);
        }
    }
    if warm && registry.stats().misses != misses_before {
        out.problem("the warm replay missed the cache");
    }
    let medians = span_medians(&tr, |_| true);
    set_layers(&mut out, &medians);
    let overhead: Vec<f64> = tr
        .per_frame()
        .values()
        .filter_map(|spans| {
            let serve = spans.get("registry.serve")?;
            let solved: f64 = spans
                .iter()
                .filter(|(n, _)| n.starts_with("engine.solve.") || n.starts_with("engine.rescore."))
                .map(|(_, us)| us)
                .sum();
            Some(serve - solved)
        })
        .collect();
    out.set("registry.overhead_us", median(&overhead));
    let (_, rejected_qps, rejected_cache) = admission.counters();
    *out.metrics.entry("admission.rejected").or_default() += (rejected_qps + rejected_cache) as f64;
    coverage(&mut out, &tr, quantile(&latencies, 0.5), |_| true);
    out.diag("replayed_frames", tr.per_frame().len() as f64, "count");
    write_spans(&mut out, &tr, &args.workload);
    anchor_table(&mut out, &registry, &admission, &args.workload)?;
    Ok(out)
}

/// The ROADMAP's re-anchor table: one warm `n = 220` frame, stage by
/// stage, next to the values recorded when the ROADMAP was written. It
/// has its own registry entry, so it reads the same under either serve
/// workload.
fn anchor_table(
    out: &mut Outcome,
    registry: &Registry,
    admission: &Admission,
    workload: &str,
) -> io::Result<()> {
    const REPS: u64 = 200;
    let universe = Universe::anchor();
    let requests = [
        EngineRequest {
            kind: ObjectiveKind::MaxSum,
            k: 5,
        },
        EngineRequest {
            kind: ObjectiveKind::MaxMin,
            k: 6,
        },
        EngineRequest {
            kind: ObjectiveKind::Mono,
            k: 7,
        },
    ];
    let frame = gen::serve_frame(0, &universe.json, &requests);
    let mut tr = Tracer::new();
    // Rep 0 prepares; reps 1.. are warm.
    for rep in 0..=REPS {
        replay::serve_frame(&mut tr, registry, admission, rep, &frame).map_err(io_err)?;
    }
    let m = span_medians(&tr, |f| f > 0);
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let overhead = get("registry.serve")
        - ["max_sum", "max_min", "mono"]
            .iter()
            .map(|o| get(&format!("engine.solve.{o}")) + get(&format!("engine.rescore.{o}")))
            .sum::<f64>();
    let rows = [
        ("JSON parse", get("json.parse"), 34.0),
        ("universe decode", get("wire.decode"), 19.0),
        ("spec.key()", get("spec.key"), 11.0),
        ("registry scheduling", overhead, 76.0),
        ("F_MS solve", get("engine.solve.max_sum"), 12.0),
        ("F_MM solve", get("engine.solve.max_min"), 16.0),
        ("F_mono solve", get("engine.solve.mono"), 156.0),
    ];
    println!(
        "  re-anchor table (n = 220 warm frame, median of {REPS} reps; ROADMAP value in brackets)"
    );
    for (stage, us, roadmap) in rows {
        println!("    {stage:<22} {us:>9.1} us   [{roadmap} us]");
    }
    let stages = [
        (
            "F_MS solve+rescore",
            get("engine.solve.max_sum") + get("engine.rescore.max_sum"),
        ),
        (
            "F_MM solve+rescore",
            get("engine.solve.max_min") + get("engine.rescore.max_min"),
        ),
        (
            "F_mono solve+rescore",
            get("engine.solve.mono") + get("engine.rescore.mono"),
        ),
        ("JSON parse", get("json.parse")),
        ("universe decode", get("wire.decode")),
        ("spec.key()", get("spec.key")),
        ("registry scheduling", overhead),
    ];
    for (stage, us) in &stages[..3] {
        println!("    {stage:<22} {us:>9.1} us");
    }
    let largest = stages
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |s| s.0);
    println!("    largest stage: {largest}");
    for (name, us) in [
        ("anchor.parse_us", get("json.parse")),
        ("anchor.decode_us", get("wire.decode")),
        ("anchor.key_us", get("spec.key")),
        ("anchor.registry_overhead_us", overhead),
        ("anchor.f_ms_us", stages[0].1),
        ("anchor.f_mm_us", stages[1].1),
        ("anchor.f_mono_us", stages[2].1),
    ] {
        out.diag(name, us, "us");
    }
    out.diag(
        "anchor.f_mono_largest",
        f64::from(u8::from(largest == "F_mono solve+rescore")),
        "bool",
    );
    write_spans(out, &tr, &format!("{workload}-anchor"));
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

fn wal_bytes(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut segments = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with("wal-") {
                bytes += entry.metadata().map_or(0, |m| m.len());
                segments += 1;
            }
        }
    }
    (bytes, segments)
}

fn warm_read(wl: &QueryWorkload, query: usize) -> Vec<u8> {
    wl.read_bytes(query, 0, &all_objectives(gen::K_MAX))
}

/// A data directory holding the database, the eight warm queries and
/// the retained universes, checkpointed by a graceful shutdown.
fn seed_data_dir(dir: &Path, wl: &QueryWorkload, seed: u64) -> io::Result<()> {
    let service = Service::start(ServiceConfig {
        checkpoint_interval: None,
        ..service_config(Some(dir.to_path_buf()))
    })?;
    let mut conn = Conn::connect(service.local_addr())?;
    for q in 0..gen::THRESHOLDS.len() {
        let response = conn.call_json(&warm_read(wl, q))?;
        expect_ok(&response, "seeding query")?;
        if response.get("database").and_then(Value::as_str) != Some(wl.db_name.as_str()) {
            return Err(io_err("daemon named the database differently"));
        }
    }
    for (u, universe) in gen::retained_universes(seed).iter().enumerate() {
        let frame = gen::serve_frame(u, &universe.json, &all_objectives(gen::K_MIN));
        expect_ok(&conn.call_json(&frame)?, "seeding universe")?;
    }
    drop(conn);
    service.shutdown();
    Ok(())
}

/// Each CQ's spellings must share one canonical tableau.
fn check_spellings(out: &mut Outcome) {
    for q in 0..gen::THRESHOLDS.len() {
        let canon: Vec<Option<Vec<u8>>> = (0..gen::SPELLINGS.len())
            .map(|s| {
                let query = parse_query(&gen::query_text(q, s)).ok()?;
                let spec = QuerySpec::new(
                    query,
                    Arc::new(gen::relevance()),
                    Arc::new(gen::distance()),
                    gen::lambda(),
                )
                .ok()?;
                Some(spec.canon().bytes().to_vec())
            })
            .collect();
        if canon.iter().any(|c| c.is_none() || *c != canon[0]) {
            out.problem(format!(
                "spellings of query {q} do not share one canonical tableau"
            ));
        }
    }
}

/// `query_mutate`.
pub fn query_mutate(args: &Args, scratch: &Path) -> io::Result<Outcome> {
    let seed = args.seed;
    let mut out = Outcome::new(&args.workload, seed, args.trace);
    let frames = (QUERY_RATE_HZ * args.seconds).ceil() as usize + 1;
    let wl = QueryWorkload::generate(seed, frames);
    check_spellings(&mut out);
    let seed_dir = scratch.join("seed");
    seed_data_dir(&seed_dir, &wl, seed)?;

    // Set-up, repeated on fresh copies of the seeded directory: eager
    // recovery, then the eight warm queries answered.
    let mut setup_s = Vec::with_capacity(QUERY_SETUPS);
    let mut live = None;
    for rep in 0..QUERY_SETUPS {
        let dir = scratch.join(format!("run{rep}"));
        copy_dir(&seed_dir, &dir)?;
        let started = Instant::now();
        let service = Service::start(service_config(Some(dir.clone())))?;
        let mut conn = Conn::connect(service.local_addr())?;
        for q in 0..gen::THRESHOLDS.len() {
            expect_ok(&conn.call_json(&warm_read(&wl, q))?, "warm query")?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 == QUERY_SETUPS {
            live = Some((service, conn, dir));
        } else {
            drop(conn);
            service.shutdown();
        }
    }
    let (service, mut conn, run_dir) = live.expect("at least one set-up");
    out.data_dir_fs = crate::report::fs_type(&run_dir);
    let addr = service.local_addr();
    let before = conn.stats()?;
    if load::counter(&before, &["cache", "misses"]) != 0 {
        out.problem("eager recovery left the warm queries cold");
    }
    if args.trace {
        out.set("proto.ping_rtt_us", ping_rtt_us(&mut conn)?);
    }
    drop(conn);

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds * TRACED_WIRE_SHARE
    } else {
        args.seconds
    });
    // Reads: answer shape against the mirror's |Q(D)|. Writes: ok and
    // changed. Read answers are kept for the traced replay.
    let check_frame = |frame: usize, response: &[u8]| -> load::Checked {
        let response = load::parse(response)?;
        match &wl.schedule[frame] {
            QFrame::Read {
                requests, expect_n, ..
            } => {
                let answers = check::parse_answers(&response)?;
                check::check_shape(&answers, requests, *expect_n)?;
                Ok(args.trace.then_some(answers))
            }
            QFrame::Write { .. } => {
                if response.get("ok").and_then(Value::as_bool) == Some(true)
                    && response.get("changed").and_then(Value::as_bool) == Some(true)
                {
                    Ok(None)
                } else {
                    Err(format!("write refused: {}", response.to_json()))
                }
            }
        }
    };
    let run: LoopRun = load::open_loop(
        addr,
        QUERY_RATE_HZ,
        wl.schedule.len(),
        window,
        QUERY_WINDOW_S,
        &|i| wl.frame_bytes(i),
        &check_frame,
    );
    let after = Conn::connect(addr)?.stats()?;
    service.shutdown();
    let sent = run.done.len();
    let writes = wl.writes_in(sent) as u64;
    for p in load::health(&before, &after, true, Some(writes)) {
        out.problem(p);
    }
    for e in &run.io_errors {
        out.problem(format!("transport: {e}"));
    }

    let mut daemon: BTreeMap<usize, Vec<Ans>> = BTreeMap::new();
    let (mut done, mut reads, mut mutates) = (Vec::new(), Vec::new(), Vec::new());
    for d in &run.done {
        out.attempted += 1;
        match &d.checked {
            Ok(kept) => {
                done.push((d.at_s, d.latency_us));
                if matches!(wl.schedule[d.frame], QFrame::Read { .. }) {
                    reads.push((d.at_s, d.latency_us));
                } else {
                    mutates.push(d.latency_us);
                }
                if let Some(answers) = kept {
                    daemon.insert(d.frame, answers.clone());
                }
            }
            Err(e) => fail(&mut out, d.frame, e.clone()),
        }
    }
    let reads = wire_metrics(&mut out, &run, &done, &reads);
    // The schedule fixes how many frames each window offers, so the
    // rate is taken over the whole run: it falls only if a backlog
    // delays the last answers.
    let last = done.iter().map(|&(at, _)| at).fold(0.0, f64::max);
    if !args.trace && last > 0.0 {
        out.set("frames_per_s", done.len() as f64 / last);
    }
    let (m50, m90) = (quantile(&mutates, 0.5), quantile(&mutates, 0.9));
    if args.trace {
        out.set("mutate_p50_us", m50);
        out.set("mutate_p90_us", m90);
        out.set("gen.late_p90_us", quantile(&run.late_us, 0.9));
    } else {
        out.diag("mutate_p50_us", m50, "us");
        out.diag("mutate_p90_us", m90, "us");
        out.diag("gen.late_p90_us", quantile(&run.late_us, 0.9), "us");
    }
    out.diag("mutate_samples", mutates.len() as f64, "count");
    out.diag(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.diag(
        "daemon.snapshots_written",
        load::counter(&after, &["durability", "snapshots_written"]) as f64,
        "count",
    );
    if !args.trace {
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    // Traced replay: recover a fresh copy of the seeded directory in
    // process, then replay the frames in schedule order.
    wire_layers(&mut out, &before, &after, &run);
    let replay_dir = scratch.join("replay");
    copy_dir(&seed_dir, &replay_dir)?;
    let registry = Arc::new(Registry::new(RegistryConfig::default()));
    let front = QueryFrontDoor::new(Arc::clone(&registry));
    let recover_started = Instant::now();
    let durability = Durability::open(&replay_dir)?;
    durability.recover(&registry, &front, RecoverMode::Eager);
    out.set(
        "persist.recover_ms",
        recover_started.elapsed().as_secs_f64() * 1e3,
    );
    registry.attach_durability(Arc::clone(&durability));
    let admission = Admission::new(no_quota());
    let mut warmup = Tracer::new();
    for q in 0..gen::THRESHOLDS.len() {
        replay::query_read(
            &mut warmup,
            &front,
            &admission,
            q as u64,
            &warm_read(&wl, q),
        )
        .map_err(io_err)?;
    }
    relquery_eval(&mut out, &wl)?;

    let mut tr = Tracer::new();
    let checkpoint_every = (QUERY_RATE_HZ * CHECKPOINT_EVERY.as_secs_f64()) as usize;
    let mut snapshot_bytes = 0u64;
    let (mut record_bytes, mut records_cut) = (0u64, 0u64);
    let mut checkpoint = |tr: &mut Tracer, frame: usize, writes_since: u64| -> io::Result<()> {
        let (bytes_before, segments) = wal_bytes(&replay_dir);
        let report = tr.time(
            "persist.checkpoint",
            replay::NO_PARENT,
            frame as u64,
            || durability.checkpoint(&registry, &front),
        )?;
        let (header, _) = wal_bytes(&replay_dir);
        record_bytes += bytes_before.saturating_sub(segments * header);
        records_cut += writes_since;
        snapshot_bytes = report.snapshot_bytes;
        Ok(())
    };
    let replay_started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds * (1.0 - TRACED_WIRE_SHARE));
    let (mut replayed, mut writes_replayed, mut writes_since, mut nth_read) =
        (0usize, 0u64, 0u64, 0usize);
    let rel = gen::relevance();
    let dis = gen::distance();
    while replayed < sent && replay_started.elapsed() < budget {
        let frame = replayed;
        replayed += 1;
        out.attempted += 1;
        let payload = wl.frame_bytes(frame);
        let result = match &wl.schedule[frame] {
            QFrame::Read { .. } => {
                replay::query_read(&mut tr, &front, &admission, frame as u64, &payload).and_then(
                    |got| {
                        let want = daemon.get(&frame).ok_or("daemon answer missing")?;
                        check::same("replay vs daemon", &got.answers, want)?;
                        nth_read += 1;
                        if nth_read % FRESH_READ_EVERY == 0 {
                            let universe = front
                                .universe_of(&got.db_name, &got.spec)
                                .map_err(|e| e.to_string())?;
                            let engine =
                                Engine::with_threads(universe, &rel, &dis, gen::lambda(), 1);
                            let fresh = got
                                .requests
                                .iter()
                                .map(|&r| check::to_ans(engine.serve(r)))
                                .collect::<Result<Vec<_>, _>>()?;
                            check::same("replay vs fresh engine", &got.answers, &fresh)?;
                        }
                        Ok(())
                    },
                )
            }
            QFrame::Write { .. } => {
                writes_replayed += 1;
                writes_since += 1;
                replay::query_write(&mut tr, &front, &admission, frame as u64, &payload)
            }
        };
        if let Err(e) = result {
            fail(&mut out, frame, e);
        }
        if replayed % checkpoint_every == 0 {
            checkpoint(&mut tr, frame, writes_since)?;
            writes_since = 0;
        }
    }
    checkpoint(&mut tr, replayed, writes_since)?;
    let wal_records = durability.stats().wal_records;
    if wal_records != writes_replayed {
        out.problem(format!(
            "replay journaled {wal_records} WAL records for {writes_replayed} writes"
        ));
    }
    out.set("persist.wal_records", wal_records as f64);
    out.set(
        "persist.wal_bytes_per_record",
        if records_cut > 0 {
            record_bytes as f64 / records_cut as f64
        } else {
            0.0
        },
    );
    out.set("persist.snapshot_bytes", snapshot_bytes as f64);
    let is_read = |f: u64| {
        wl.schedule
            .get(f as usize)
            .is_some_and(|q| matches!(q, QFrame::Read { .. }))
    };
    let medians = span_medians(&tr, |_| true);
    set_layers(&mut out, &medians);
    // Parse, decode, admission and serialize are per read frame (writes
    // are a few dozen bytes).
    let read_medians = span_medians(&tr, is_read);
    for (metric, span) in [
        ("json.parse_us", "json.parse"),
        ("wire.decode_us", "wire.decode"),
        ("admission.us", "admission"),
        ("json.serialize_us", "json.serialize"),
    ] {
        out.set(metric, read_medians.get(span).copied().unwrap_or(0.0));
    }
    let (_, rejected_qps, rejected_cache) = admission.counters();
    *out.metrics.entry("admission.rejected").or_default() += (rejected_qps + rejected_cache) as f64;
    coverage(&mut out, &tr, quantile(&reads, 0.5), is_read);
    out.diag("replayed_frames", replayed as f64, "count");
    write_spans(&mut out, &tr, &args.workload);
    Ok(out)
}

/// `relquery.eval_us`: cold evaluation of each CQ over the shipped
/// database, the work a key that misses pays before preparing.
fn relquery_eval(out: &mut Outcome, wl: &QueryWorkload) -> io::Result<()> {
    const REPS: usize = 5;
    let doc = divr_service::json::parse(&wl.db_json).map_err(io_err)?;
    let (_, db) = divr_service::wire::database_from_json(&doc).map_err(io_err)?;
    let mut times = Vec::new();
    for q in 0..gen::THRESHOLDS.len() {
        let query = parse_query(&gen::query_text(q, 0)).map_err(io_err)?;
        for _ in 0..REPS {
            let t = Instant::now();
            let result = divr_relquery::eval::eval_query(&db, &query).map_err(io_err)?;
            times.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(result);
        }
    }
    out.set("relquery.eval_us", median(&times));
    Ok(())
}

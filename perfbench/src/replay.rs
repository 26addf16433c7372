//! The traced run: frames replayed sequentially, in process, through
//! the public function of each layer in the order the daemon's
//! `handle_serve` / `handle_query` / `handle_mutate` call them. Each
//! call is wrapped in a span; spans stay in memory until the run ends.
//!
//! Spans whose names start with `bench.` are the benchmark's own work
//! (replayed solves, reference checks) and are left out of coverage.

use crate::check::{self, Ans};
use divr_core::coreset::{CoresetEngine, CORESET_AUTO_THRESHOLD};
use divr_core::engine::{Engine, EngineRequest, SolveScratch};
use divr_core::problem::ObjectiveKind;
use divr_core::Deadline;
use divr_relquery::parser::parse_query;
use divr_server::{
    CheckedAnswer, PreparedVariant, QueryFrontDoor, QuerySpec, Registry, TenantBatch,
};
use divr_service::admission::{estimate_prepared_bytes, Admission};
use divr_service::json::{self, object, Value};
use divr_service::wire::{
    database_from_json, distance_from_json, ratio_from_json, ratio_to_json, relevance_from_json,
    requests_from_json, tuple_from_json, universe_from_json,
};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The parent of a top-level span.
pub const NO_PARENT: u32 = 0;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub frame: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder. Span ids are 1-based positions.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32, frame: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize - 1].end_ns = end;
    }

    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        frame: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, frame);
        let r = f();
        self.close(id);
        r
    }

    /// Per frame, the summed duration of each span name (µs).
    pub fn per_frame(&self) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.frame).or_default().entry(s.name).or_default() += s.us();
        }
        out
    }

    /// Per frame, the summed duration of the layer spans directly under
    /// the frame's root span (bench work excluded): the part of a frame
    /// the layers explain.
    pub fn layer_total_per_frame(&self) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.parent == NO_PARENT || s.name.starts_with("bench.") {
                continue;
            }
            let parent = &self.spans[s.parent as usize - 1];
            if parent.parent == NO_PARENT {
                *out.entry(s.frame).or_default() += s.us();
            }
        }
        out
    }

    /// Writes every span as one JSON line:
    /// `{"id","name","start_ns","end_ns","parent","frame"}`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"frame":{}}}"#,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.frame
            )?;
        }
        out.flush()
    }
}

fn solve(
    engine: &Engine<'_>,
    request: EngineRequest,
    scratch: &mut SolveScratch,
    out: &mut Vec<usize>,
) -> bool {
    match request.kind {
        ObjectiveKind::MaxSum => engine.greedy_max_sum_into(request.k, scratch, out),
        ObjectiveKind::MaxMin => engine.gmm_max_min_into(request.k, scratch, out),
        ObjectiveKind::Mono => engine.mono_top_k_into(request.k, scratch, out),
    }
}

fn solve_names(kind: ObjectiveKind) -> (&'static str, &'static str) {
    match kind {
        ObjectiveKind::MaxSum => ("engine.solve.max_sum", "engine.rescore.max_sum"),
        ObjectiveKind::MaxMin => ("engine.solve.max_min", "engine.rescore.max_min"),
        ObjectiveKind::Mono => ("engine.solve.mono", "engine.rescore.mono"),
    }
}

/// The success body `handle_serve` / `handle_query` write back.
fn response_json(answers: &[CheckedAnswer]) -> Value {
    Value::Array(
        answers
            .iter()
            .map(|answer| match answer {
                Ok((value, indices)) => object([
                    ("ok", Value::Bool(true)),
                    ("value", ratio_to_json(*value)),
                    (
                        "indices",
                        Value::Array(indices.iter().map(|&i| Value::Int(i as i64)).collect()),
                    ),
                ]),
                Err(e) => object([
                    ("ok", Value::Bool(false)),
                    ("detail", Value::Str(e.to_string())),
                ]),
            })
            .collect(),
    )
}

fn to_ans(answers: Vec<CheckedAnswer>) -> Result<Vec<Ans>, String> {
    answers
        .into_iter()
        .map(|a| {
            a.map(|(value, indices)| (ratio_to_json(value), indices))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn text(payload: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(payload).map_err(|e| e.to_string())
}

/// Replays one `serve` frame. Returns the registry's answers after
/// checking that a solve-and-rescore replay on the same prepared state
/// reproduces them bit for bit.
pub fn serve_frame(
    tr: &mut Tracer,
    registry: &Registry,
    admission: &Admission,
    frame: u64,
    payload: &[u8],
) -> Result<Vec<Ans>, String> {
    let root = tr.open("frame", NO_PARENT, frame);
    let text = text(payload)?;
    let doc = tr
        .time("json.parse", root, frame, || json::parse(text))
        .map_err(|e| e.to_string())?;
    let (requests, spec) = tr.time("wire.decode", root, frame, || -> Result<_, String> {
        let requests = requests_from_json(doc.get("requests").ok_or("serve needs requests")?)?;
        let spec = universe_from_json(doc.get("universe").ok_or("serve needs a universe")?)?;
        Ok((requests, spec))
    })?;
    let tenant = doc
        .get("tenant")
        .and_then(Value::as_str)
        .ok_or("serve needs a tenant")?;
    tr.time("admission", root, frame, || {
        admission.admit_requests(tenant, requests.len() as f64)
    })
    .map_err(|r| r.to_string())?;
    let key = tr.time("spec.key", root, frame, || spec.key());
    let estimate = estimate_prepared_bytes(
        spec.universe().len(),
        spec.coreset().map(|mode| mode.budget),
    );
    tr.time("admission", root, frame, || {
        admission.charge_universe(tenant, &key, estimate)
    })
    .map_err(|r| r.to_string())?;
    if !registry.is_cached(&spec) {
        let name = if spec.coreset().is_some() {
            "coreset.prepare"
        } else {
            "engine.prepare"
        };
        tr.time(name, root, frame, || registry.try_prepare(&spec))
            .map_err(|e| e.to_string())?;
    }
    let batch = [TenantBatch {
        spec,
        requests: requests.clone(),
    }];
    let mut results = tr.time("registry.serve", root, frame, || {
        registry.serve_mixed_checked_deadline(&batch, Deadline::none())
    });
    let answers = results.pop().unwrap_or_default();
    tr.time("json.serialize", root, frame, || {
        object([
            ("ok", Value::Bool(true)),
            ("degraded", Value::Bool(false)),
            ("answers", response_json(&answers)),
        ])
        .to_json()
    });
    let got = to_ans(answers)?;

    // Replay each objective's solve and exact re-score on the prepared
    // state the registry just served from (a cache hit).
    let replay = tr.open("bench.replay", root, frame);
    let prepared = registry
        .try_prepare(&batch[0].spec)
        .map_err(|e| e.to_string())?;
    let mut scratch = SolveScratch::new();
    let mut out = Vec::new();
    let mut replayed = Vec::with_capacity(requests.len());
    for &request in &requests {
        let (solve_name, rescore_name) = solve_names(request.kind);
        let value = match &prepared {
            PreparedVariant::Full(p) => {
                let engine = Engine::from_prepared(p.clone(), 1);
                if !tr.time(solve_name, replay, frame, || {
                    solve(&engine, request, &mut scratch, &mut out)
                }) {
                    return Err(format!("replayed solve found no answer for {request:?}"));
                }
                tr.time(rescore_name, replay, frame, || {
                    engine.objective_exact(request.kind, &out)
                })
            }
            PreparedVariant::Coreset(p) => {
                let sub = Engine::from_prepared(p.sub().clone(), 1);
                if !tr.time(solve_name, replay, frame, || {
                    solve(&sub, request, &mut scratch, &mut out)
                }) {
                    return Err(format!(
                        "replayed coreset solve found no answer for {request:?}"
                    ));
                }
                let reps = p.coreset().indices();
                for local in out.iter_mut() {
                    *local = reps[*local];
                }
                let engine = CoresetEngine::from_prepared(p.clone(), 1);
                tr.time(rescore_name, replay, frame, || {
                    engine.objective_exact_full(request.kind, &out)
                })
            }
        };
        replayed.push((ratio_to_json(value), out.clone()));
    }
    tr.close(replay);
    tr.close(root);
    check::same("replayed solve vs registry", &replayed, &got)?;
    Ok(got)
}

/// What a replayed read needs for its fresh-engine check.
pub struct ReadOutcome {
    pub answers: Vec<Ans>,
    pub db_name: String,
    pub spec: QuerySpec,
    pub requests: Vec<EngineRequest>,
}

/// Replays one `query` frame, in `handle_query`'s order.
pub fn query_read(
    tr: &mut Tracer,
    front: &QueryFrontDoor,
    admission: &Admission,
    frame: u64,
    payload: &[u8],
) -> Result<ReadOutcome, String> {
    let root = tr.open("frame", NO_PARENT, frame);
    let text = text(payload)?;
    let doc = tr
        .time("json.parse", root, frame, || json::parse(text))
        .map_err(|e| e.to_string())?;
    let tenant = doc
        .get("tenant")
        .and_then(Value::as_str)
        .ok_or("query needs a tenant")?;
    let (query, (db_name, db), rel, dis, lambda, requests) =
        tr.time("wire.decode", root, frame, || -> Result<_, String> {
            let text = doc
                .get("query")
                .and_then(Value::as_str)
                .ok_or("query needs text")?;
            let query = parse_query(text).map_err(|e| e.to_string())?;
            let db = database_from_json(doc.get("database").ok_or("query needs a database")?)?;
            let rel = relevance_from_json(doc.get("relevance").ok_or("query needs relevance")?)?;
            let dis = distance_from_json(doc.get("distance").ok_or("query needs distance")?)?;
            let lambda = ratio_from_json(doc.get("lambda").ok_or("query needs lambda")?)?;
            let requests = requests_from_json(doc.get("requests").ok_or("query needs requests")?)?;
            Ok((query, db, rel, dis, lambda, requests))
        })?;
    tr.time("admission", root, frame, || {
        admission.admit_requests(tenant, requests.len() as f64)
    })
    .map_err(|r| r.to_string())?;
    let bound = tr
        .time("relquery.preflight", root, frame, || {
            divr_relquery::check_schema(&db, &query)
                .map(|()| divr_relquery::cardinality_bound(&db, &query))
        })
        .map_err(|e| e.to_string())?;
    let spec = tr
        .time("relquery.canon", root, frame, || {
            QuerySpec::new(query, rel, dis, lambda)
        })
        .map_err(|e| e.to_string())?;
    if !front.has_database(&db_name) {
        tr.time("query.register", root, frame, || {
            front.register_database(db_name.clone(), db)
        });
    }
    let n_bound = usize::try_from(bound).unwrap_or(usize::MAX).min(1 << 26);
    let budget = (n_bound > CORESET_AUTO_THRESHOLD).then(|| spec.auto_budget());
    let key = tr
        .time("query.key", root, frame, || front.key_for(&db_name, &spec))
        .map_err(|e| e.to_string())?;
    tr.time("admission", root, frame, || {
        admission.charge_universe(tenant, &key, estimate_prepared_bytes(n_bound, budget))
    })
    .map_err(|r| r.to_string())?;
    let answers = tr
        .time("query.serve", root, frame, || {
            front.serve_query_deadline(&db_name, &spec, &requests, Deadline::none())
        })
        .map_err(|e| e.to_string())?;
    tr.time("json.serialize", root, frame, || {
        object([
            ("ok", Value::Bool(true)),
            ("database", Value::Str(db_name.clone())),
            ("answers", response_json(&answers)),
        ])
        .to_json()
    });
    tr.close(root);
    Ok(ReadOutcome {
        answers: to_ans(answers)?,
        db_name,
        spec,
        requests,
    })
}

/// Replays one `mutate` frame, in `handle_mutate`'s order. Every write
/// the generator makes changes `R`, so `changed` must be true.
pub fn query_write(
    tr: &mut Tracer,
    front: &QueryFrontDoor,
    admission: &Admission,
    frame: u64,
    payload: &[u8],
) -> Result<(), String> {
    let root = tr.open("frame", NO_PARENT, frame);
    let text = text(payload)?;
    let doc = tr
        .time("json.parse", root, frame, || json::parse(text))
        .map_err(|e| e.to_string())?;
    let field = |name: &str| {
        doc.get(name)
            .and_then(Value::as_str)
            .ok_or(format!("mutate needs {name}"))
    };
    let (tenant, db, relation, action) = (
        field("tenant")?,
        field("database")?,
        field("relation")?,
        field("action")?,
    );
    let values = tr.time("wire.decode", root, frame, || {
        tuple_from_json(doc.get("tuple").ok_or("mutate needs a tuple")?)
            .map(|t| t.iter().cloned().collect::<Vec<_>>())
    })?;
    tr.time("admission", root, frame, || {
        admission.admit_requests(tenant, 1.0)
    })
    .map_err(|r| r.to_string())?;
    let changed = match action {
        "insert" => tr.time("query.insert", root, frame, || {
            front.insert_base_tuple(db, relation, values)
        }),
        "remove" => tr.time("query.remove", root, frame, || {
            front.remove_base_tuple(db, relation, values)
        }),
        other => return Err(format!("unknown action {other}")),
    }
    .map_err(|e| e.to_string())?;
    tr.time("json.serialize", root, frame, || {
        object([("ok", Value::Bool(true)), ("changed", Value::Bool(changed))]).to_json()
    });
    tr.close(root);
    if changed {
        Ok(())
    } else {
        Err(format!("{action} of a generated tuple changed nothing"))
    }
}

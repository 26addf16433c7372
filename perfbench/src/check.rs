//! Output checks: response shape on every frame, and bit-identity with
//! independently built references.

use crate::gen::{self, Universe};
use divr_core::coreset::{CoresetConfig, CoresetEngine};
use divr_core::engine::{Engine, EngineRequest};
use divr_core::Ratio;
use divr_service::json::Value;
use divr_service::wire::ratio_to_json;
use std::sync::Arc;

/// One answer as it travels: the exact value's JSON and the indices.
pub type Ans = (Value, Vec<usize>);

pub fn to_ans(answer: Option<(Ratio, Vec<usize>)>) -> Result<Ans, String> {
    answer
        .map(|(value, indices)| (ratio_to_json(value), indices))
        .ok_or_else(|| "reference has no answer".to_string())
}

/// The answers of an ok response, each one ok.
pub fn parse_answers(response: &Value) -> Result<Vec<Ans>, String> {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("frame not ok: {}", response.to_json()));
    }
    let items = response
        .get("answers")
        .and_then(Value::as_array)
        .ok_or("ok frame without answers")?;
    items
        .iter()
        .map(|a| {
            if a.get("ok").and_then(Value::as_bool) != Some(true) {
                return Err(format!("answer not ok: {}", a.to_json()));
            }
            let value = a.get("value").cloned().ok_or("answer without value")?;
            let indices = a
                .get("indices")
                .and_then(Value::as_array)
                .ok_or("answer without indices")?
                .iter()
                .map(|i| {
                    i.as_i64()
                        .and_then(|i| usize::try_from(i).ok())
                        .ok_or("index is not a non-negative integer")
                })
                .collect::<Result<Vec<usize>, _>>()?;
            Ok((value, indices))
        })
        .collect()
}

/// Each answer has exactly `k` distinct indices below `n` and an exact
/// value: a `[num, den]` pair of integers with a positive denominator.
pub fn check_shape(answers: &[Ans], requests: &[EngineRequest], n: usize) -> Result<(), String> {
    if answers.len() != requests.len() {
        return Err(format!(
            "{} answers for {} requests",
            answers.len(),
            requests.len()
        ));
    }
    for ((value, indices), request) in answers.iter().zip(requests) {
        if indices.len() != request.k {
            return Err(format!("{} indices for k = {}", indices.len(), request.k));
        }
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != indices.len() {
            return Err("repeated index in an answer".to_string());
        }
        if sorted.last().is_some_and(|&i| i >= n) {
            return Err(format!("index out of range for n = {n}"));
        }
        let exact = match value.as_array() {
            Some([num, den]) => num.as_i64().is_some() && den.as_i64().is_some_and(|d| d > 0),
            _ => false,
        };
        if !exact {
            return Err(format!("value {} is not an exact ratio", value.to_json()));
        }
    }
    Ok(())
}

pub fn same(label: &str, got: &[Ans], want: &[Ans]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let show = |a: &[Ans]| {
            a.iter()
                .map(|(v, i)| format!("{} {:?}", v.to_json(), i))
                .collect::<Vec<_>>()
                .join("; ")
        };
        Err(format!(
            "{label}: got [{}], want [{}]",
            show(got),
            show(want)
        ))
    }
}

/// Answers of a freshly built engine over `universe`: a full-matrix
/// [`Engine`] or, in coreset mode, a [`CoresetEngine`], built here and
/// never cached.
pub fn fresh_answers(universe: &Universe, requests: &[EngineRequest]) -> Result<Vec<Ans>, String> {
    let tuples = universe.tuples();
    let rel = gen::relevance();
    match universe.coreset {
        None => {
            let dis = gen::distance();
            let engine = Engine::with_threads(tuples, &rel, &dis, gen::lambda(), 1);
            requests.iter().map(|&r| to_ans(engine.serve(r))).collect()
        }
        Some(budget) => {
            let config = CoresetConfig {
                budget,
                refine_rounds: 0,
                threads: 1,
            };
            let engine = CoresetEngine::new(
                tuples,
                &rel,
                Arc::new(gen::distance()),
                gen::lambda(),
                &config,
            );
            requests.iter().map(|&r| to_ans(engine.serve(r))).collect()
        }
    }
}

/// Fresh-engine answers for every `(objective, k)` a warm frame can ask
/// of every warm universe, indexed `[universe][objective][k - K_MIN]`.
pub struct WarmReference(Vec<Vec<Vec<Ans>>>);

impl WarmReference {
    pub fn build(universes: &[Universe]) -> Result<WarmReference, String> {
        let rel = gen::relevance();
        let dis = gen::distance();
        let mut table = Vec::with_capacity(universes.len());
        for universe in universes {
            let engine = Engine::with_threads(universe.tuples(), &rel, &dis, gen::lambda(), 1);
            let mut per_kind = Vec::new();
            for kind in divr_core::problem::ObjectiveKind::ALL {
                let mut per_k = Vec::new();
                for k in gen::K_MIN..=gen::K_MAX {
                    per_k.push(to_ans(engine.serve(EngineRequest { kind, k }))?);
                }
                per_kind.push(per_k);
            }
            table.push(per_kind);
        }
        Ok(WarmReference(table))
    }

    pub fn answers(&self, universe: usize, requests: &[EngineRequest]) -> Vec<Ans> {
        requests
            .iter()
            .map(|r| {
                let kind = divr_core::problem::ObjectiveKind::ALL
                    .iter()
                    .position(|&k| k == r.kind)
                    .expect("every objective is in ALL");
                self.0[universe][kind][r.k - gen::K_MIN].clone()
            })
            .collect()
    }
}

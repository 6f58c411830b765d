//! Wire form of an [`ExploreReport`], for the hub protocol.
//!
//! The hub daemon finishes a job with a `done` event carrying the full
//! report; the client on the other end of the socket (the
//! `axi4mlir-explore --hub` mode) rebuilds an [`ExploreReport`] from it
//! and renders `BENCH_explore.json` with the *same* local code the
//! non-hub path uses — which is what makes the two paths byte-identical
//! by construction. Candidate keys and counters reuse the persistent
//! cache's spellings ([`cache::key_to_json`] and friends), so the wire
//! and the cache never drift apart.
//!
//! [`cache::key_to_json`]: super::cache::key_to_json

use axi4mlir_heuristics::TransferEstimate;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::JsonValue;

use super::cache::{counters_from_json, counters_to_json, key_from_json, key_to_json};
use super::space::Candidate;
use super::{Evaluation, ExploreReport, Objective};

/// Serializes a candidate (key plus analytical estimate) in the wire
/// spelling shared by the hub's report frames and the remote measurement
/// protocol (see [`super::measure`]).
pub fn candidate_to_json(candidate: &Candidate) -> JsonValue {
    JsonValue::object([
        ("key".to_owned(), key_to_json(&candidate.key)),
        (
            "estimate".to_owned(),
            JsonValue::object([
                ("words_to_accel".to_owned(), candidate.estimate.words_to_accel.into()),
                ("words_from_accel".to_owned(), candidate.estimate.words_from_accel.into()),
                ("transactions".to_owned(), candidate.estimate.transactions.into()),
            ]),
        ),
    ])
}

fn wire_err(what: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("malformed wire report: {what}"))
}

/// Parses a candidate serialized by [`candidate_to_json`].
///
/// # Errors
///
/// Returns a [`Diagnostic`] for missing or malformed members.
pub fn candidate_from_json(value: &JsonValue) -> Result<Candidate, Diagnostic> {
    let key = value
        .get("key")
        .and_then(|k| key_from_json(k, false))
        .ok_or_else(|| wire_err("bad candidate key"))?;
    let estimate = value.get("estimate").ok_or_else(|| wire_err("missing estimate"))?;
    let field = |name: &str| {
        estimate
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| wire_err(format!("estimate.{name} must be a non-negative integer")))
    };
    Ok(Candidate {
        key,
        estimate: TransferEstimate {
            words_to_accel: field("words_to_accel")?,
            words_from_accel: field("words_from_accel")?,
            transactions: field("transactions")?,
        },
    })
}

fn evaluation_to_json(eval: &Evaluation) -> JsonValue {
    let pass_ms = eval
        .pass_ms
        .iter()
        .map(|(pass, ms)| JsonValue::Array(vec![pass.clone().into(), (*ms).into()]))
        .collect();
    JsonValue::object([
        ("candidate".to_owned(), candidate_to_json(&eval.candidate)),
        ("counters".to_owned(), counters_to_json(&eval.counters)),
        ("task_clock_ms".to_owned(), eval.task_clock_ms.into()),
        ("verified".to_owned(), eval.verified.into()),
        ("work".to_owned(), eval.work.into()),
        ("pass_ms".to_owned(), JsonValue::Array(pass_ms)),
        ("from_cache".to_owned(), eval.from_cache.into()),
    ])
}

fn evaluation_from_json(value: &JsonValue) -> Result<Evaluation, Diagnostic> {
    let candidate =
        candidate_from_json(value.get("candidate").ok_or_else(|| wire_err("missing candidate"))?)?;
    let counters = value
        .get("counters")
        .and_then(counters_from_json)
        .ok_or_else(|| wire_err("bad counters"))?;
    let mut pass_ms = Vec::new();
    for pair in value.get("pass_ms").and_then(JsonValue::as_array).unwrap_or(&[]) {
        let items = pair.as_array().unwrap_or(&[]);
        let pass = items.first().and_then(JsonValue::as_str);
        let ms = items.get(1).and_then(JsonValue::as_f64);
        match (pass, ms) {
            (Some(pass), Some(ms)) if items.len() == 2 => pass_ms.push((pass.to_owned(), ms)),
            _ => return Err(wire_err("pass_ms must hold [name, millis] pairs")),
        }
    }
    Ok(Evaluation {
        candidate,
        counters,
        task_clock_ms: value
            .get("task_clock_ms")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| wire_err("missing task_clock_ms"))?,
        verified: value
            .get("verified")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| wire_err("missing verified"))?,
        work: value
            .get("work")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| wire_err("missing work"))?,
        pass_ms,
        from_cache: value
            .get("from_cache")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| wire_err("missing from_cache"))?,
    })
}

/// Serializes a report as the JSON object a hub `done` event carries.
pub fn report_to_json(report: &ExploreReport) -> JsonValue {
    let mut members: Vec<(String, JsonValue)> = vec![
        ("space".to_owned(), report.space.clone().into()),
        ("workload".to_owned(), report.workload.clone().into()),
        ("search".to_owned(), report.search.clone().into()),
        ("space_size".to_owned(), report.space_size.into()),
        ("pruned_out".to_owned(), report.pruned_out.into()),
        ("lint_rejected".to_owned(), report.lint_rejected.into()),
        ("cache_hits".to_owned(), report.cache_hits.into()),
        ("sims_performed".to_owned(), report.sims_performed.into()),
        ("full_sims_performed".to_owned(), report.full_sims_performed.into()),
        ("full_sim_nanos".to_owned(), report.full_sim_nanos.into()),
        ("warm_started".to_owned(), report.warm_started.into()),
        ("warm_informed".to_owned(), report.warm_informed.into()),
        ("measure_backend".to_owned(), report.measure_backend.clone().into()),
        (
            "worker_sims".to_owned(),
            JsonValue::Array(
                report
                    .worker_sims
                    .iter()
                    .map(|(worker, sims)| {
                        JsonValue::Array(vec![worker.clone().into(), (*sims).into()])
                    })
                    .collect(),
            ),
        ),
        (
            "objectives".to_owned(),
            JsonValue::Array(
                report.objectives.iter().map(|o| JsonValue::from(o.label())).collect(),
            ),
        ),
        (
            "evaluations".to_owned(),
            JsonValue::Array(report.evaluations.iter().map(evaluation_to_json).collect()),
        ),
    ];
    // Omitted when empty (local sweeps, fault-free remote sweeps) so
    // fault-free documents are byte-identical to pre-reconnect ones.
    if !report.worker_reconnects.is_empty() {
        members.push((
            "worker_reconnects".to_owned(),
            JsonValue::Array(
                report
                    .worker_reconnects
                    .iter()
                    .map(|(worker, n)| JsonValue::Array(vec![worker.clone().into(), (*n).into()]))
                    .collect(),
            ),
        ));
    }
    if let Some(heuristic) = &report.heuristic {
        members.push(("heuristic".to_owned(), candidate_to_json(heuristic)));
    }
    if let Some(eval) = &report.heuristic_eval {
        members.push(("heuristic_eval".to_owned(), evaluation_to_json(eval)));
    }
    JsonValue::object(members)
}

/// Rebuilds a report from its wire form.
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming the first malformed member.
pub fn report_from_json(value: &JsonValue) -> Result<ExploreReport, Diagnostic> {
    let text = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or_else(|| wire_err(format!("missing {name}")))
    };
    let count = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| wire_err(format!("missing {name}")))
    };
    let flag = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| wire_err(format!("missing {name}")))
    };
    let objectives = value
        .get("objectives")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| wire_err("missing objectives"))?
        .iter()
        .map(|o| o.as_str().and_then(Objective::parse))
        .collect::<Option<Vec<Objective>>>()
        .ok_or_else(|| wire_err("unknown objective label"))?;
    let evaluations = value
        .get("evaluations")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| wire_err("missing evaluations"))?
        .iter()
        .map(evaluation_from_json)
        .collect::<Result<Vec<Evaluation>, Diagnostic>>()?;
    Ok(ExploreReport {
        space: text("space")?,
        workload: text("workload")?,
        search: text("search")?,
        space_size: count("space_size")?,
        pruned_out: count("pruned_out")?,
        // Absent in pre-audit wire reports; those rejected nothing.
        lint_rejected: value
            .get("lint_rejected")
            .and_then(JsonValue::as_u64)
            .map(|n| n as usize)
            .unwrap_or(0),
        cache_hits: count("cache_hits")?,
        sims_performed: count("sims_performed")?,
        full_sims_performed: count("full_sims_performed")?,
        full_sim_nanos: value
            .get("full_sim_nanos")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| wire_err("missing full_sim_nanos"))?,
        warm_started: flag("warm_started")?,
        warm_informed: count("warm_informed")?,
        measure_backend: text("measure_backend")?,
        worker_sims: {
            let mut worker_sims = Vec::new();
            for pair in value
                .get("worker_sims")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| wire_err("missing worker_sims"))?
            {
                let items = pair.as_array().unwrap_or(&[]);
                let worker = items.first().and_then(JsonValue::as_str);
                let sims = items.get(1).and_then(JsonValue::as_u64);
                match (worker, sims) {
                    (Some(worker), Some(sims)) if items.len() == 2 => {
                        worker_sims.push((worker.to_owned(), sims as usize));
                    }
                    _ => return Err(wire_err("worker_sims must hold [worker, sims] pairs")),
                }
            }
            worker_sims
        },
        // Absent for fault-free sweeps and pre-reconnect wire reports.
        worker_reconnects: {
            let mut reconnects = Vec::new();
            for pair in value.get("worker_reconnects").and_then(JsonValue::as_array).unwrap_or(&[])
            {
                let items = pair.as_array().unwrap_or(&[]);
                let worker = items.first().and_then(JsonValue::as_str);
                let n = items.get(1).and_then(JsonValue::as_u64);
                match (worker, n) {
                    (Some(worker), Some(n)) if items.len() == 2 => {
                        reconnects.push((worker.to_owned(), n as usize));
                    }
                    _ => return Err(wire_err("worker_reconnects must hold [worker, count] pairs")),
                }
            }
            reconnects
        },
        evaluations,
        objectives,
        heuristic: match value.get("heuristic") {
            None => None,
            Some(c) => Some(candidate_from_json(c)?),
        },
        heuristic_eval: match value.get("heuristic_eval") {
            None => None,
            Some(e) => Some(evaluation_from_json(e)?),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::super::{AccelInstance, Explorer, MatMulSpace, Prune, Search};
    use super::*;
    use axi4mlir_workloads::matmul::MatMulProblem;

    fn sweep(space: &MatMulSpace, prune: Prune) -> ExploreReport {
        Explorer::new()
            .explore_streaming(space, prune, &Search::Exhaustive, 1, &[], &|_| true)
            .unwrap()
    }

    #[test]
    fn reports_round_trip_through_the_wire() {
        let space = MatMulSpace::new(MatMulProblem::new(16, 16, 16))
            .accels(vec![AccelInstance::v4(8)])
            .seed(7);
        let report = sweep(&space, Prune::KeepBest(3));
        assert!(report.heuristic.is_some() && report.heuristic_eval.is_some());

        let wire = report_to_json(&report);
        let back = report_from_json(&wire).unwrap();
        // Serializing the rebuilt report again must yield the identical
        // document — every field survived, including float metrics.
        assert_eq!(wire.to_json_string(), report_to_json(&back).to_json_string());
        assert_eq!(back.evaluations.len(), report.evaluations.len());
        assert_eq!(back.optimum().unwrap().candidate.key, report.optimum().unwrap().candidate.key);
        assert_eq!(back.sims_per_sec().is_some(), report.sims_per_sec().is_some());
    }

    #[test]
    fn malformed_wire_reports_are_diagnostics() {
        let report = sweep(&MatMulSpace::new(MatMulProblem::new(8, 8, 8)), Prune::None);
        let wire = report_to_json(&report);
        // Drop one required member at a time; each must fail by name.
        for member in ["workload", "evaluations", "objectives", "full_sim_nanos", "measure_backend"]
        {
            let pruned = JsonValue::object(
                wire.as_object().unwrap().iter().filter(|(name, _)| name != member).cloned(),
            );
            let err = report_from_json(&pruned).unwrap_err();
            assert!(err.message.contains(member), "`{}` should blame {member}", err.message);
        }
        assert!(report_from_json(&JsonValue::Null).is_err());
    }
}

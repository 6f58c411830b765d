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
use axi4mlir_support::json::{JsonValue, Members};

use super::cache::{key_from, key_to_json, payload_members, CachedEval};
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

/// The context every wire-decoding error names.
const CONTEXT: &str = "malformed wire report";

/// Reads a candidate serialized by [`candidate_to_json`] from its
/// object's members — the wire's decode boundary for keys.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for missing or malformed members ([`key_from`]).
pub fn candidate_from(m: &Members<'_>) -> Result<Candidate, Diagnostic> {
    let estimate = m.object("estimate")?;
    Ok(Candidate {
        key: key_from(&m.object("key")?)?,
        estimate: TransferEstimate {
            words_to_accel: estimate.u64("words_to_accel")?,
            words_from_accel: estimate.u64("words_from_accel")?,
            transactions: estimate.u64("transactions")?,
        },
    })
}

fn evaluation_to_json(eval: &Evaluation) -> JsonValue {
    let mut members = vec![("candidate".to_owned(), candidate_to_json(&eval.candidate))];
    members.extend(payload_members(&eval.counters, eval.task_clock_ms, eval.verified));
    members.extend([
        ("work".to_owned(), eval.work.into()),
        ("pass_ms".to_owned(), JsonValue::pairs(eval.pass_ms.iter().cloned())),
        ("from_cache".to_owned(), eval.from_cache.into()),
    ]);
    JsonValue::object(members)
}

fn evaluation_from(m: &Members<'_>) -> Result<Evaluation, Diagnostic> {
    let payload = CachedEval::from_members(m)?;
    Ok(Evaluation {
        candidate: candidate_from(&m.object("candidate")?)?,
        counters: payload.counters,
        task_clock_ms: payload.task_clock_ms,
        verified: payload.verified,
        work: m.u64("work")?,
        pass_ms: m.opt("pass_ms", |m, name| m.pairs(name, JsonValue::as_f64))?.unwrap_or_default(),
        from_cache: m.bool("from_cache")?,
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
        ("worker_sims".to_owned(), JsonValue::pairs(report.worker_sims.iter().cloned())),
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
            JsonValue::pairs(report.worker_reconnects.iter().cloned()),
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
    let m = value.members(CONTEXT)?;
    let as_count = |n: &JsonValue| n.as_u64().and_then(|n| usize::try_from(n).ok());
    let objectives = m
        .array("objectives")?
        .iter()
        .map(|o| o.as_str().and_then(Objective::parse))
        .collect::<Option<Vec<Objective>>>()
        .ok_or_else(|| m.invalid("objectives", "must hold known objective labels"))?;
    let evaluations = m
        .array("evaluations")?
        .iter()
        .map(|e| evaluation_from(&e.members(CONTEXT)?))
        .collect::<Result<Vec<Evaluation>, Diagnostic>>()?;
    Ok(ExploreReport {
        space: m.str("space")?.to_owned(),
        workload: m.str("workload")?.to_owned(),
        search: m.str("search")?.to_owned(),
        space_size: m.uint("space_size")?,
        pruned_out: m.uint("pruned_out")?,
        lint_rejected: m.uint("lint_rejected")?,
        cache_hits: m.uint("cache_hits")?,
        sims_performed: m.uint("sims_performed")?,
        full_sims_performed: m.uint("full_sims_performed")?,
        full_sim_nanos: m.u64("full_sim_nanos")?,
        warm_started: m.bool("warm_started")?,
        warm_informed: m.uint("warm_informed")?,
        measure_backend: m.str("measure_backend")?.to_owned(),
        worker_sims: m.pairs("worker_sims", as_count)?,
        // Absent for fault-free sweeps and pre-reconnect wire reports.
        worker_reconnects: m
            .opt("worker_reconnects", |m, name| m.pairs(name, as_count))?
            .unwrap_or_default(),
        evaluations,
        objectives,
        heuristic: m.opt("heuristic", Members::object)?.map(|c| candidate_from(&c)).transpose()?,
        heuristic_eval: m
            .opt("heuristic_eval", Members::object)?
            .map(|e| evaluation_from(&e))
            .transpose()?,
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

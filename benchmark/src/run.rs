//! One benchmark run: set-up, the closed measurement loop, and the
//! numbers that come out of it.
//!
//! End-to-end metrics always come from an untraced run. A traced run
//! repeats the same op list with spans on, adds a few ops of the
//! reference workloads for the layers the workload under test never
//! touches, replays sampled inputs through each layer serially, and
//! reports the per-layer ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use axi4mlir_core::explore::JobSpec;
use axi4mlir_support::json::JsonValue;

use crate::host;
use crate::layers::{self, Values};
use crate::ops::Counts;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{highest_percentile, median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{
    op_seed, reference_for, warm_up, Instance, Kind, OpOutcome, WorkloadDef, KINDS, SIM_WORKERS,
    WARMUP_OPS,
};

/// How long a measurement loop runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// Clients start ops until this much wall time has passed.
    Seconds(f64),
    /// Every client runs exactly this many ops.
    Ops(u64),
}

/// How a run is sized.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// The measurement loop's length.
    pub limit: Limit,
    /// Set-ups timed per run (the median is reported).
    pub setups: usize,
    /// Untimed warm-up ops at the end of each set-up.
    pub warmups: u64,
    /// Ops of a reference workload a traced run adds per missing kind.
    pub reference_ops: u64,
    /// How long a traced run keeps pairing the serial sweep replay with
    /// the same sweep through the program.
    pub replay_budget: Duration,
}

impl Sizing {
    /// The driver's run: `seconds` of measurement, five set-ups.
    pub fn timed(seconds: f64) -> Self {
        Self {
            limit: Limit::Seconds(seconds),
            setups: 5,
            warmups: WARMUP_OPS,
            reference_ops: 8,
            replay_budget: Duration::from_secs(3),
        }
    }

    /// The smoke and determinism runs: three ops, one set-up.
    pub fn fixed(ops: u64) -> Self {
        Self {
            limit: Limit::Ops(ops),
            setups: 1,
            warmups: 1,
            reference_ops: 2,
            replay_budget: Duration::from_secs(2),
        }
    }
}

/// What one measurement loop produced.
pub struct RunLog {
    /// Outcomes per client, in op order.
    pub outcomes: Vec<Vec<OpOutcome>>,
    /// Process CPU seconds the loop consumed.
    pub cpu_s: f64,
}

impl RunLog {
    fn all(&self) -> impl Iterator<Item = &OpOutcome> {
        self.outcomes.iter().flatten()
    }

    /// Ops attempted.
    pub fn ops(&self) -> usize {
        self.all().count()
    }

    /// Op durations in milliseconds.
    pub fn millis(&self) -> Vec<f64> {
        self.all().map(|outcome| outcome.millis).collect()
    }

    /// Failed ops, with the first failure's reason.
    pub fn failures(&self) -> (usize, Option<&str>) {
        let mut failed = self.all().filter_map(|outcome| outcome.failure.as_deref());
        let first = failed.next();
        (failed.count() + usize::from(first.is_some()), first)
    }

    /// Exact quantities, folded client by client in op order so the float
    /// sums repeat bit for bit.
    pub fn counts(&self) -> Counts {
        let mut total = Counts::default();
        for outcome in self.all() {
            total.add(&outcome.counts);
        }
        total
    }

    /// Named tallies, summed.
    pub fn tallies(&self) -> BTreeMap<&'static str, f64> {
        let mut total = BTreeMap::new();
        for (name, value) in self.all().flat_map(|outcome| outcome.tallies.iter()) {
            *total.entry(name).or_insert(0.0) += value;
        }
        total
    }
}

/// Runs the closed loop: each of the workload's clients issues its next
/// op when the previous one returned, until the limit.
pub fn drive(
    workload: &WorkloadDef,
    instance: &dyn Instance,
    limit: Limit,
    tracer: &Tracer,
) -> RunLog {
    let cpu_before = host::cpu_seconds().unwrap_or(0.0);
    let started = Instant::now();
    let client_loop = |client: usize| {
        let mut outcomes = Vec::new();
        let mut index = 0u64;
        loop {
            let go_on = match limit {
                Limit::Seconds(seconds) => started.elapsed() < Duration::from_secs_f64(seconds),
                Limit::Ops(ops) => index < ops,
            };
            if !go_on {
                return outcomes;
            }
            outcomes.push(instance.op(client, index, tracer));
            index += 1;
        }
    };
    let outcomes = std::thread::scope(|scope| {
        let clients: Vec<_> =
            (0..workload.clients).map(|client| scope.spawn(move || client_loop(client))).collect();
        clients.into_iter().map(|client| client.join().expect("client panicked")).collect()
    });
    RunLog { outcomes, cpu_s: host::cpu_seconds().unwrap_or(0.0) - cpu_before }
}

/// Sets the workload up `sizing.setups` times — instance, then warm-up
/// ops — and keeps the last instance. Returns the median set-up seconds.
fn set_up(
    workload: &WorkloadDef,
    seed: u64,
    sizing: &Sizing,
) -> Result<(Box<dyn Instance>, f64), String> {
    let mut seconds = Vec::new();
    let mut instance = None;
    for _ in 0..sizing.setups.max(1) {
        // Tear the previous instance down first: two hubs at once would
        // not be the set-up a user pays for.
        drop(instance.take());
        let started = Instant::now();
        let fresh = (workload.setup)(seed)?;
        warm_up(workload, fresh.as_ref(), sizing.warmups)?;
        seconds.push(started.elapsed().as_secs_f64());
        instance = Some(fresh);
    }
    Ok((instance.expect("at least one set-up"), median(&seconds).unwrap_or(0.0)))
}

/// The result line's `metrics` object plus the verdict keys.
pub struct Outcome {
    /// Lines for people that are not declared metrics.
    pub notes: Vec<String>,
    /// Metric values by name, in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed their correctness gate.
    pub failed: usize,
    /// The first failure, for stderr.
    pub first_failure: Option<String>,
    /// Exact quantities of the run, for `--check-determinism`.
    pub counts: Counts,
}

impl Outcome {
    /// The one JSON object the driver reads from the last line of stdout.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            let entry = JsonValue::object([
                ("value".to_owned(), JsonValue::Float(*value)),
                ("unit".to_owned(), (*unit).into()),
            ]);
            ((*name).to_owned(), entry)
        });
        JsonValue::object([
            ("correct".to_owned(), (self.failed == 0).into()),
            ("attempted".to_owned(), self.attempted.into()),
            ("failed".to_owned(), self.failed.into()),
            ("metrics".to_owned(), JsonValue::object(metrics)),
        ])
    }
}

/// The untraced run: every end-to-end metric.
///
/// # Errors
///
/// Returns a set-up failure; failed ops are counted, not raised.
pub fn run_untraced(workload: &WorkloadDef, seed: u64, sizing: &Sizing) -> Result<Outcome, String> {
    let (instance, setup_s) = set_up(workload, seed, sizing)?;
    let log = drive(workload, instance.as_ref(), sizing.limit, &Tracer::new(false));
    drop(instance);
    let millis = log.millis();
    let ops = millis.len().max(1) as f64;
    // Closed-loop clients spend all their time inside ops, so the time
    // the clients spent, averaged over them, is the timed wall.
    let timed_wall_s = millis.iter().sum::<f64>() / 1e3 / workload.clients as f64;
    let work: u64 = log.outcomes.iter().flatten().map(|outcome| outcome.work).sum();
    let value = |name: &str| -> f64 {
        match name {
            "op_ms_p50" => median(&millis).unwrap_or(0.0),
            "work_per_s" => work as f64 / timed_wall_s.max(f64::MIN_POSITIVE),
            "peak_rss_mb" => host::peak_rss_mb().unwrap_or(0.0),
            "setup_s" => setup_s,
            other => unreachable!("undeclared end-to-end metric {other}"),
        }
    };
    let (failed, first_failure) = log.failures();
    // Two figures are printed for people, not declared as metrics: on a
    // shared host their run-to-run spread or drift comes too close to the
    // largest bound the benchmark may set (see README.md, "Spreads").
    let tail = match highest_percentile(millis.len()) {
        Some(p) => format!(
            "op_ms tail: p{p} = {:.4} ms over {} ops",
            percentile(&millis, f64::from(p)).unwrap_or(0.0),
            millis.len()
        ),
        None => {
            format!("op_ms tail: none, {} ops leave no ten samples beyond a median", millis.len())
        }
    };
    let cpu = format!(
        "cpu_ms_per_op: {:.4} ms (process user+sys, in-process daemons included)",
        log.cpu_s * 1e3 / ops
    );
    Ok(Outcome {
        notes: vec![tail, cpu],
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name), m.unit)).collect(),
        attempted: log.ops(),
        failed,
        first_failure: first_failure.map(str::to_owned),
        counts: log.counts(),
    })
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// One traced loop, aggregated: span durations by name, tallies, counts.
struct Ledger {
    spans: BTreeMap<&'static str, Vec<f64>>,
    tallies: BTreeMap<&'static str, f64>,
    counts: Counts,
    ops: usize,
    fresh_ms: Vec<f64>,
    repeat_ms: Vec<f64>,
}

impl Ledger {
    fn new(log: &RunLog, spans: &[Span]) -> Self {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in spans {
            by_name.entry(span.name).or_default().push(span.nanos() as f64 / 1e6);
        }
        let of = |fresh: bool| {
            log.outcomes
                .iter()
                .flatten()
                .filter(|outcome| outcome.fresh == Some(fresh))
                .map(|outcome| outcome.millis)
                .collect()
        };
        Self {
            spans: by_name,
            tallies: log.tallies(),
            counts: log.counts(),
            ops: log.ops(),
            fresh_ms: of(true),
            repeat_ms: of(false),
        }
    }

    /// Median duration of the spans named `name`, in milliseconds.
    fn span_ms(&self, name: &str) -> f64 {
        self.spans.get(name).and_then(|durations| median(durations)).unwrap_or(0.0)
    }

    fn tally(&self, name: &str) -> f64 {
        self.tallies.get(name).copied().unwrap_or(0.0)
    }

    /// `numerator / denominator` tallies, 0 when the denominator is.
    fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let denominator = self.tally(denominator);
        if denominator == 0.0 {
            0.0
        } else {
            self.tally(numerator) / denominator
        }
    }
}

/// A traced loop over one instance: the log, its ledger, its spans.
struct Traced {
    instance: Box<dyn Instance>,
    ledger: Ledger,
    spans: Vec<Span>,
    log: RunLog,
}

/// Sets `workload` up once and runs one loop over it, spans on or off.
fn run_loop(
    workload: &WorkloadDef,
    seed: u64,
    warmups: u64,
    limit: Limit,
    spans_on: bool,
) -> Result<Traced, String> {
    let instance = (workload.setup)(seed)?;
    warm_up(workload, instance.as_ref(), warmups)?;
    let tracer = Tracer::new(spans_on);
    let log = drive(workload, instance.as_ref(), limit, &tracer);
    let spans = tracer.spans();
    Ok(Traced { ledger: Ledger::new(&log, &spans), instance, spans, log })
}

/// The conv job the replay falls back to when the sweeps under test have
/// none: the one `sweep_small_mixed` runs.
fn reference_conv_job(seed: u64) -> JobSpec {
    JobSpec {
        workload: "conv".to_owned(),
        layer: Some(crate::workloads::CONV_LAYER.to_owned()),
        seed: Some(seed),
        ..JobSpec::default()
    }
}

/// Op index whose data seed the replay's own jobs use.
const REPLAY_INDEX: u64 = 700_000;

/// The traced run: every per-layer metric.
///
/// # Errors
///
/// Returns a set-up or replay failure; failed ops are counted.
pub fn run_traced(workload: &WorkloadDef, seed: u64, sizing: &Sizing) -> Result<Outcome, String> {
    // The same op list twice, on fresh instances: spans off, then on.
    let half = match sizing.limit {
        Limit::Seconds(seconds) => Limit::Seconds(seconds / 2.0),
        ops => ops,
    };
    let untraced = run_loop(workload, seed, sizing.warmups, half, false)?.log;
    let primary = run_loop(workload, seed, sizing.warmups, half, true)?;
    let overhead = 100.0
        * (median(&primary.log.millis()).unwrap_or(0.0)
            / median(&untraced.millis()).unwrap_or(f64::MAX)
            - 1.0);

    // A few ops of the reference workload for every kind of layer the
    // workload under test does not exercise.
    let mut references: Vec<(&WorkloadDef, Traced)> = Vec::new();
    for kind in KINDS {
        let covered = |def: &WorkloadDef| def.kinds.contains(&kind);
        if !covered(workload) && !references.iter().any(|(def, _)| covered(def)) {
            let reference = reference_for(kind);
            let traced = run_loop(reference, seed, 1, Limit::Ops(sizing.reference_ops), true)?;
            references.push((reference, traced));
        }
    }
    let source = |kind: Kind| -> &Traced {
        std::iter::once((workload, &primary))
            .chain(references.iter().map(|(def, traced)| (*def, traced)))
            .find(|(def, _)| def.kinds.contains(&kind))
            .map(|(_, traced)| traced)
            .expect("every kind is the workload's own or got a reference")
    };

    let mut values = Values::new();
    values.insert("bench.trace_overhead_pct", overhead);
    let replay_seed = op_seed(seed, REPLAY_INDEX);

    // Sweep-shaped layers.
    let sweeps = source(Kind::Sweep);
    layers::replay_simulator(&mut values)?;
    layers::replay_sweeps(
        sweeps.instance.sweep_specs(),
        &reference_conv_job(replay_seed),
        replay_seed,
        sizing.replay_budget,
        &mut values,
    )?;
    values.insert("core.explore.front_ms", sweeps.ledger.span_ms("core.explore.front"));
    values.insert("core.explore.rung_ms", sweeps.ledger.span_ms("core.explore.rung"));
    values.insert("core.explore.tail_ms", sweeps.ledger.span_ms("core.explore.tail"));

    // Simulated quantities: the workload's own when it simulates.
    let simulated =
        if primary.ledger.counts.evaluations > 0 { &primary.ledger } else { &sweeps.ledger };
    let per_op = simulated.ops.max(1) as f64;
    let per_sim = simulated.counts.evaluations.max(1) as f64;
    values.insert("sim_task_clock_ms", simulated.counts.sim_task_clock_ms / per_op);
    values.insert("sim_cache_refs", simulated.counts.sim_cache_refs as f64 / per_op);
    values.insert("sim.instr_per_sim", simulated.counts.sim_instructions as f64 / per_sim);
    values.insert("sim.dma_txns_per_sim", simulated.counts.sim_dma_txns as f64 / per_sim);
    values.insert("sim.cache_refs_per_sim", simulated.counts.sim_cache_refs as f64 / per_sim);

    // The cache directory.
    let shard = source(Kind::Shard);
    let dir = shard.instance.shard_dir().ok_or("the shard workload has no cache directory")?;
    layers::replay_shard_json(dir, &mut values)?;
    values.insert("core.explore.shard.load_ms", shard.ledger.span_ms("core.explore.shard.load"));
    values.insert(
        "core.explore.shard.save_dirty_ms",
        shard.ledger.span_ms("core.explore.shard.save_dirty"),
    );
    let entries_per_fit =
        shard.ledger.tally("core.explore.transfer.entries") / shard.ledger.ops.max(1) as f64;
    values.insert(
        "core.explore.transfer.fit_us_per_entry",
        shard.ledger.span_ms("core.explore.transfer.fit") * 1e3 / entries_per_fit.max(1.0),
    );

    // The compiler.
    let compile = &source(Kind::Compile).ledger;
    let modules = compile.counts.modules.max(1) as f64;
    values.insert("code_size_ops", compile.counts.code_size_ops as f64 / compile.ops.max(1) as f64);
    values.insert("ir.ops_after_pipeline", compile.counts.code_size_ops as f64 / modules);
    values.insert("ir.parser.us_per_kb", 1.024 * compile.ratio("ir.parser.ns", "ir.parser.bytes"));
    values
        .insert("ir.printer.us_per_kb", 1.024 * compile.ratio("ir.printer.ns", "ir.printer.bytes"));
    values.insert(
        "dialects.lint.us_per_module",
        compile.ratio("dialects.lint.ns", "dialects.lint.modules") / 1e3,
    );
    values.insert(
        "workloads.build_module_us",
        compile.ratio("workloads.build_module.ns", "workloads.build_module.modules") / 1e3,
    );
    for (metric, tally) in [
        ("core.annotate.us", "core.annotate.ns"),
        ("core.codegen.us", "core.codegen.ns"),
        ("core.lower.us", "core.lower.ns"),
        ("dialects.verify.us", "dialects.verify.ns"),
    ] {
        values.insert(metric, compile.tally(tally) / 1e3 / modules);
    }

    // The hub and its workers.
    let hub = source(Kind::Hub);
    let (addr, spec) = hub.instance.hub().ok_or("the hub workload has no hub")?;
    layers::replay_frame_rtt(&mut values)?;
    layers::replay_worker(&spec.seeded(replay_seed), &mut values)?;
    let replayed = layers::replay_hub(addr, spec, replay_seed, &mut values)?;
    let ledger = &hub.ledger;
    for (metric, span) in [
        ("hub.submit_to_running_ms", "hub.submit_to_running"),
        ("hub.running_to_space_ready_ms", "hub.running_to_space_ready"),
        ("hub.measure_phase_ms", "hub.measure_phase"),
        ("hub.last_rung_to_done_ms", "hub.last_rung_to_done"),
    ] {
        values.insert(metric, ledger.span_ms(span));
    }
    let fresh = median(&ledger.fresh_ms).unwrap_or(0.0);
    // A workload that never repeats a job takes the replay's repeats.
    let repeat = median(&ledger.repeat_ms).unwrap_or(replayed.repeat_job_ms);
    values.insert("hub.job_ms_p50.fresh", fresh);
    values.insert("hub.job_ms_p50.repeat", repeat);
    // Time in a job's latency during which nobody computes, over the mix
    // of jobs the workload actually submits.
    let (compute, latency) = if ledger.repeat_ms.is_empty() {
        (replayed.fresh_compute_ms, fresh)
    } else {
        (replayed.fresh_compute_ms + replayed.repeat_compute_ms, fresh + repeat)
    };
    values.insert("hub.wait_share", 1.0 - compute / latency.max(f64::MIN_POSITIVE));
    values.insert("hub.events_per_job", ledger.counts.events as f64 / ledger.ops.max(1) as f64);
    values.insert("hub.rejected", ledger.counts.rejected as f64);
    values.insert("worker.reconnects", ledger.counts.reconnects as f64);
    values.insert("worker.sims_balance", ledger.ratio("worker.balance.sum", "worker.balance.jobs"));
    values.insert(
        "core.explore.measure.remote_overhead_us_per_sim",
        (ledger.tally("remote.job_wall.ns") * SIM_WORKERS as f64
            - ledger.tally("remote.worker_sim.ns"))
            / 1e3
            / ledger.tally("remote.sims").max(1.0),
    );

    write_trace(workload, seed, &primary.spans)?;

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for metric in &PER_LAYER {
        let value = values
            .remove(metric.name)
            .ok_or_else(|| format!("the traced run produced no `{}`", metric.name))?;
        metrics.push((metric.name, value, metric.unit));
    }
    if let Some(undeclared) = values.keys().next() {
        return Err(format!("the traced run produced undeclared `{undeclared}`"));
    }

    // Every loop this run made counts towards the verdict.
    let logs = [&untraced, &primary.log].into_iter().chain(references.iter().map(|(_, t)| &t.log));
    let (mut attempted, mut failed, mut first_failure) = (0, 0, None);
    for log in logs {
        let (failures, first) = log.failures();
        attempted += log.ops();
        failed += failures;
        first_failure = first_failure.or(first.map(str::to_owned));
    }
    Ok(Outcome {
        notes: Vec::new(),
        metrics,
        attempted,
        failed,
        first_failure,
        counts: primary.ledger.counts.clone(),
    })
}

/// Spans the trace file holds at most; a trace is read an op at a time,
/// and the ledger above already aggregated every span.
const TRACE_FILE_SPANS: usize = 50_000;

fn write_trace(workload: &WorkloadDef, seed: u64, spans: &[Span]) -> Result<(), String> {
    let dir = host::out_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", workload.name));
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    let doc = JsonValue::object([
        ("workload".to_owned(), workload.name.into()),
        ("seed".to_owned(), seed.into()),
        ("spans_recorded".to_owned(), spans.len().into()),
        ("spans".to_owned(), trace::to_json(kept)),
    ]);
    std::fs::write(&path, doc.to_json_string())
        .map_err(|err| format!("cannot write {}: {err}", path.display()))
}

//! The op primitives the workloads are built from: one local sweep, one
//! hub job, one corpus module — each timed from outside through the
//! layer's public entry point, wrapped in spans, and gated on correctness.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;

use axi4mlir_core::driver::{CompilePlan, PipelineBuilder};
use axi4mlir_core::explore::{
    CandidateKey, Evaluation, ExploreReport, Explorer, JobSpec, ProgressEvent,
};
use axi4mlir_core::options::CacheTiling;
use axi4mlir_dialects::lint::lint_module;
use axi4mlir_hub::{Hub, HubClient, HubConfig};
use axi4mlir_ir::ops::Module;
use axi4mlir_ir::parser::parse_module;
use axi4mlir_ir::pass::PassTiming;
use axi4mlir_ir::printer::print_op;
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::diag::DiagnosticEngine;
use axi4mlir_support::json::JsonValue;
use axi4mlir_worker::{Worker, WorkerConfig};

use crate::trace::Tracer;

/// Exact, deterministic quantities an op produced. Simulated time and
/// counts only — never host time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Simulator runs performed.
    pub sims: u64,
    /// Measurements served from a result cache.
    pub cache_hits: u64,
    /// Measured evaluations reported (the divisor of the `*_per_sim` means).
    pub evaluations: u64,
    /// Simulated task-clock milliseconds, summed over reported evaluations.
    pub sim_task_clock_ms: f64,
    /// Simulated L1D lookups, summed over reported evaluations.
    pub sim_cache_refs: u64,
    /// Simulated retired instructions, summed over reported evaluations.
    pub sim_instructions: u64,
    /// Simulated DMA transactions, summed over reported evaluations.
    pub sim_dma_txns: u64,
    /// Modules compiled.
    pub modules: u64,
    /// Live ops of every lowered module.
    pub code_size_ops: u64,
    /// Hub event frames received.
    pub events: u64,
    /// Hub submissions rejected or failed.
    pub rejected: u64,
    /// Remote-worker re-registrations reported.
    pub reconnects: u64,
}

impl Counts {
    /// Adds `other` in place (callers fold in op order, so the float sum
    /// repeats exactly).
    pub fn add(&mut self, other: &Counts) {
        self.sims += other.sims;
        self.cache_hits += other.cache_hits;
        self.evaluations += other.evaluations;
        self.sim_task_clock_ms += other.sim_task_clock_ms;
        self.sim_cache_refs += other.sim_cache_refs;
        self.sim_instructions += other.sim_instructions;
        self.sim_dma_txns += other.sim_dma_txns;
        self.modules += other.modules;
        self.code_size_ops += other.code_size_ops;
        self.events += other.events;
        self.rejected += other.rejected;
        self.reconnects += other.reconnects;
    }

    /// Accounts one sweep report.
    pub fn add_report(&mut self, report: &ExploreReport) {
        self.sims += report.sims_performed as u64;
        self.cache_hits += report.cache_hits as u64;
        self.evaluations += report.evaluations.len() as u64;
        for eval in &report.evaluations {
            self.sim_task_clock_ms += eval.task_clock_ms;
            self.sim_cache_refs += eval.counters.cache_references;
            self.sim_instructions += eval.counters.instructions;
            self.sim_dma_txns += eval.counters.dma_transactions;
        }
        self.reconnects += report.worker_reconnects.iter().map(|(_, n)| *n as u64).sum::<u64>();
    }
}

/// One sweep request with the outcome it must have.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// The job, data seed unset (each op supplies its own).
    pub job: JobSpec,
    /// Simulator runs a *cold* sweep of this job performs.
    pub cold_sims: usize,
    /// Measurements a fully *cached* sweep of this job serves.
    pub warm_hits: usize,
}

impl SweepSpec {
    /// The job with its data seed set.
    pub fn seeded(&self, seed: u64) -> JobSpec {
        JobSpec { seed: Some(seed), ..self.job.clone() }
    }
}

/// What a sweep is expected to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this many simulator runs.
    Sims(usize),
    /// Zero simulator runs and exactly this many cache hits.
    Hits(usize),
}

/// The correctness gate on one sweep report: every evaluation verified
/// and the simulation / cache-hit counts exactly as expected.
///
/// # Errors
///
/// Returns what differed.
pub fn check_report(report: &ExploreReport, expect: Expect) -> Result<(), String> {
    let unverified = report
        .evaluations
        .iter()
        .chain(report.heuristic_eval.iter())
        .filter(|eval| !eval.verified)
        .count();
    if unverified > 0 {
        return Err(format!("{}: {unverified} unverified evaluations", report.space));
    }
    if report.evaluations.is_empty() {
        return Err(format!("{}: no evaluations", report.space));
    }
    match expect {
        Expect::Sims(sims) if report.sims_performed != sims => {
            Err(format!("{}: {} sims, expected {sims}", report.space, report.sims_performed))
        }
        Expect::Hits(_) if report.sims_performed != 0 => {
            Err(format!("{}: {} sims, expected none", report.space, report.sims_performed))
        }
        Expect::Hits(hits) if report.cache_hits != hits => {
            Err(format!("{}: {} cache hits, expected {hits}", report.space, report.cache_hits))
        }
        _ => Ok(()),
    }
}

/// Runs one sweep on `explorer` through `explore_streaming`, recording
/// the intra-sweep phases the observer makes visible as children of a
/// `core.explore.sweep` span: `front` (call → `SpaceReady`), one `rung`
/// per `RungComplete`, and `tail` (last rung → return).
///
/// # Errors
///
/// Returns the build or exploration diagnostic's message.
pub fn run_sweep(
    explorer: &Explorer,
    job: &JobSpec,
    workers: usize,
    tracer: &Tracer,
    parent: Option<usize>,
    op: u64,
) -> Result<ExploreReport, String> {
    let request = job.build().map_err(|err| err.message)?;
    let sweep = tracer.open("core.explore.sweep", parent, op);
    let last = RefCell::new((tracer.now_ns(), false));
    let observer = |event: &ProgressEvent| {
        if tracer.enabled() {
            let now = tracer.now_ns();
            let (since, _) = *last.borrow();
            let name = match event {
                ProgressEvent::SpaceReady { .. } => "core.explore.front",
                ProgressEvent::RungComplete { .. } => "core.explore.rung",
            };
            tracer.record(name, sweep, op, since, now);
            *last.borrow_mut() = (now, matches!(event, ProgressEvent::RungComplete { .. }));
        }
        true
    };
    let report = explorer.explore_streaming(
        request.space.as_dyn(),
        request.prune,
        &request.search,
        workers,
        &request.objectives,
        &observer,
    );
    if tracer.enabled() {
        let (since, after_rung) = *last.borrow();
        if after_rung {
            tracer.record("core.explore.tail", sweep, op, since, tracer.now_ns());
        }
    }
    tracer.close(sweep);
    report.map_err(|err| err.message)
}

/// The seed-free deterministic identity of an evaluation: the simulated
/// counters and task clock do not depend on the data seed, so a report
/// measured under one seed must equal a reference measured under another
/// once the seed is masked.
pub type SeedlessKey = (CandidateKey, PerfCounters, u64, bool);

/// [`Evaluation::deterministic_key`] with the data seed masked.
pub fn seedless_key(eval: &Evaluation) -> SeedlessKey {
    let (key, counters, clock_bits, verified) = eval.deterministic_key();
    (CandidateKey { seed: 0, ..key }, counters, clock_bits, verified)
}

/// Every evaluation of a report (the heuristic pick last), seed masked.
pub fn seedless_keys(report: &ExploreReport) -> Vec<SeedlessKey> {
    report.evaluations.iter().chain(report.heuristic_eval.iter()).map(seedless_key).collect()
}

// ---------------------------------------------------------------------
// Hub jobs
// ---------------------------------------------------------------------

/// When each phase of one hub job was seen from the client, in tracer
/// nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct JobTimeline {
    /// `HubClient::run` was called.
    pub submitted: u64,
    /// The `running` event arrived.
    pub running: Option<u64>,
    /// The `space-ready` event arrived.
    pub space_ready: Option<u64>,
    /// The last `rung-complete` event arrived.
    pub last_rung: Option<u64>,
    /// The `done` event arrived (already parsed by the client's reader).
    pub done: Option<u64>,
    /// `HubClient::run` returned (the report is rebuilt).
    pub returned: u64,
    /// Event frames received.
    pub events: u64,
    /// The hub's own wall clock for the job (`elapsed_ms` of the `done`
    /// event), in nanoseconds.
    pub hub_elapsed_ns: Option<f64>,
}

/// Runs one job through a connected client, timestamping every event.
/// With `capture_done`, the terminal frame is kept (a 100 KB clone, so
/// only the layer replay asks for it).
pub fn run_hub_job(
    client: &mut HubClient,
    job: &JobSpec,
    tracer: &Tracer,
    capture_done: bool,
) -> (Result<ExploreReport, String>, JobTimeline, Option<JsonValue>) {
    let mut timeline = JobTimeline { submitted: tracer.now_ns(), ..JobTimeline::default() };
    let mut done_frame = None;
    let outcome = client.run(job, &mut |frame: &JsonValue| {
        let now = tracer.now_ns();
        timeline.events += 1;
        match frame.get("state").and_then(JsonValue::as_str) {
            Some("running") => timeline.running = Some(now),
            Some("space-ready") => timeline.space_ready = Some(now),
            Some("rung-complete") => timeline.last_rung = Some(now),
            Some("done") => {
                timeline.done = Some(now);
                timeline.hub_elapsed_ns =
                    frame.get("elapsed_ms").and_then(JsonValue::as_f64).map(|ms| ms * 1e6);
                if capture_done {
                    done_frame = Some(frame.clone());
                }
            }
            _ => {}
        }
    });
    timeline.returned = tracer.now_ns();
    (outcome.map_err(|err| err.message), timeline, done_frame)
}

/// Records a job's phases as spans under `parent`.
pub fn record_job_spans(tracer: &Tracer, parent: Option<usize>, op: u64, timeline: &JobTimeline) {
    let mut since = timeline.submitted;
    for (name, at) in [
        ("hub.submit_to_running", timeline.running),
        ("hub.running_to_space_ready", timeline.space_ready),
        ("hub.measure_phase", timeline.last_rung),
        ("hub.last_rung_to_done", timeline.done),
    ] {
        if let Some(at) = at {
            tracer.record(name, parent, op, since, at);
            since = at;
        }
    }
    tracer.record("hub.report_decode", parent, op, since, timeline.returned);
}

/// An in-process hub over in-process measurement workers, all bound to
/// `127.0.0.1:0`. Dropping it shuts the hub down through its protocol,
/// raises the workers' stop flag, and joins every thread.
pub struct Daemons {
    hub_addr: String,
    hub: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stop_workers: &'static AtomicBool,
}

impl Daemons {
    /// Starts `measure_workers` single-slot workers and a hub with
    /// `executors` job executors fanning out to them (`sim_workers` is the
    /// hub's per-job measurement budget, i.e. the in-flight window per
    /// worker). The cache stays in memory.
    ///
    /// # Errors
    ///
    /// Returns the bind diagnostic's message.
    pub fn start(
        executors: usize,
        sim_workers: usize,
        measure_workers: usize,
    ) -> Result<Daemons, String> {
        // `WorkerConfig::stop` wants a `'static` flag; one small leak per
        // daemon set is the price of running the daemon in-process.
        let stop_workers: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let mut daemons =
            Daemons { hub_addr: String::new(), hub: None, workers: Vec::new(), stop_workers };
        let mut worker_addrs = Vec::new();
        for _ in 0..measure_workers {
            let worker = Worker::bind(WorkerConfig {
                bind: "127.0.0.1:0".to_owned(),
                slots: 1,
                stop: Some(stop_workers),
            })
            .map_err(|err| err.message)?;
            worker_addrs.push(worker.local_addr().to_string());
            daemons.workers.push(std::thread::spawn(move || {
                worker.run().expect("worker daemon failed");
            }));
        }
        let hub = Hub::bind(HubConfig {
            bind: "127.0.0.1:0".to_owned(),
            workers: executors,
            sim_workers,
            measure_workers: worker_addrs,
            ..HubConfig::default()
        })
        .map_err(|err| err.message)?;
        daemons.hub_addr = hub.local_addr().to_string();
        daemons.hub = Some(std::thread::spawn(move || {
            hub.run().expect("hub daemon failed");
        }));
        Ok(daemons)
    }

    /// The hub's address.
    pub fn hub_addr(&self) -> &str {
        &self.hub_addr
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        if let Some(hub) = self.hub.take() {
            // A hub that cannot be reached has already stopped.
            if let Ok(client) = HubClient::connect(&self.hub_addr) {
                client.shutdown().ok();
            }
            hub.join().ok();
        }
        self.stop_workers.store(true, Ordering::SeqCst);
        for worker in self.workers.drain(..) {
            worker.join().ok();
        }
    }
}

// ---------------------------------------------------------------------
// Corpus modules
// ---------------------------------------------------------------------

/// One module of the compile corpus.
pub enum CorpusItem {
    /// A checked-in pre-annotated input and the exact text the pipeline
    /// must print for it.
    Golden {
        /// File stem, for failure messages.
        name: &'static str,
        /// The `.mlir` input.
        input: &'static str,
        /// The `.expected.mlir` output.
        expected: &'static str,
    },
    /// A realized design-space candidate: its workload builds the module,
    /// its plan configures the pipeline.
    Realized {
        /// Candidate label, for failure messages.
        label: String,
        /// Builds the plain `linalg` module (`Workload::build_module`).
        build: Box<dyn Fn() -> Module + Send + Sync>,
        /// Accelerator configuration and pipeline options.
        plan: Box<CompilePlan>,
    },
}

/// Named additive host-side quantities (nanoseconds, bytes, calls)
/// gathered at the layer boundaries an op crossed. An op touches a dozen
/// names at most, so a vector searched linearly is the whole structure.
#[derive(Clone, Debug, Default)]
pub struct Tallies(Vec<(&'static str, f64)>);

impl Tallies {
    /// Adds `value` to the tally `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(known, _)| *known == name) {
            Some((_, total)) => *total += value,
            None => self.0.push((name, value)),
        }
    }

    /// Times `work` and adds its nanoseconds to the tally `name`.
    fn timed<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = work();
        self.add(name, start.elapsed().as_nanos() as f64);
        out
    }

    /// Every `(name, total)`.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// Folds `PassManager::timings` into the tallies, by pass name.
fn add_pass_timings(tallies: &mut Tallies, timings: &[PassTiming]) {
    for timing in timings {
        let name = match timing.pass.as_str() {
            "axi4mlir-match-and-annotate" => "core.annotate.ns",
            "axi4mlir-generate-driver" => "core.codegen.ns",
            "axi4mlir-lower-to-runtime" => "core.lower.ns",
            "verify-dialects" => "dialects.verify.ns",
            _ => continue,
        };
        tallies.add(name, timing.millis * 1e6);
    }
}

/// The cache-tile edge `Session::run` would hand the pipeline for `plan`.
/// On matmuls the corpus draws only `Off` and `Fixed` tiling levels, which
/// need no host-cache heuristic; conv kernels never cache-tile.
fn cache_tile(plan: &CompilePlan) -> Option<i64> {
    match plan.options.cache_tiling {
        CacheTiling::Fixed(edge) => Some(edge),
        CacheTiling::Off | CacheTiling::Auto => None,
    }
}

/// Compiles one corpus module the way its user would and checks the
/// output: golden items must print exactly their expected file; realized
/// items must reach a print → parse → print fixpoint. Returns the lowered
/// module's live op count; per-stage host time goes into `tallies`.
///
/// # Errors
///
/// Returns what failed (a diagnostic, a golden diff, a fixpoint miss).
pub fn compile_item(item: &CorpusItem, tallies: &mut Tallies) -> Result<u64, String> {
    match item {
        CorpusItem::Golden { name, input, expected } => {
            let mut module = tallies
                .timed("ir.parser.ns", || parse_module(input))
                .map_err(|err| format!("{name}: {err}"))?;
            tallies.add("ir.parser.bytes", input.len() as f64);
            let mut diags = DiagnosticEngine::new();
            tallies
                .timed("dialects.lint.ns", || lint_module(&module.ctx, module.top(), &mut diags))
                .map_err(|err| format!("{name}: lint: {}", err.message))?;
            tallies.add("dialects.lint.modules", 1.0);
            let mut pipeline = PipelineBuilder::new().pre_annotated().build();
            pipeline.run(&mut module).map_err(|err| format!("{name}: {}", err.message))?;
            add_pass_timings(tallies, pipeline.timings());
            let printed = tallies.timed("ir.printer.ns", || print_op(&module.ctx, module.top()));
            tallies.add("ir.printer.bytes", printed.len() as f64);
            if printed != *expected {
                return Err(format!("{name}: output differs from {name}.expected.mlir"));
            }
            Ok(module.ctx.walk(module.top()).len() as u64)
        }
        CorpusItem::Realized { label, build, plan } => {
            let config =
                plan.config.clone().ok_or_else(|| format!("{label}: plan has no accelerator"))?;
            let mut module = tallies.timed("workloads.build_module.ns", build);
            tallies.add("workloads.build_module.modules", 1.0);
            let mut pipeline = PipelineBuilder::new()
                .cache_tile(cache_tile(plan))
                .coalesce(plan.options.coalesce_transfers)
                .lower(plan.options.lower_to_runtime_calls)
                .accelerator(config)
                .build();
            pipeline.run(&mut module).map_err(|err| format!("{label}: {}", err.message))?;
            add_pass_timings(tallies, pipeline.timings());
            let printed = tallies.timed("ir.printer.ns", || print_op(&module.ctx, module.top()));
            let reparsed = tallies
                .timed("ir.parser.ns", || parse_module(&printed))
                .map_err(|err| format!("{label}: {err}"))?;
            tallies.add("ir.parser.bytes", printed.len() as f64);
            let reprinted =
                tallies.timed("ir.printer.ns", || print_op(&reparsed.ctx, reparsed.top()));
            tallies.add("ir.printer.bytes", (printed.len() + reprinted.len()) as f64);
            if reprinted != printed {
                return Err(format!("{label}: print -> parse -> print is not a fixpoint"));
            }
            Ok(module.ctx.walk(module.top()).len() as u64)
        }
    }
}

//! The serial layer replay: a sample of a workload's inputs pushed
//! through each layer's public function, one call at a time, timed from
//! outside.
//!
//! The op loop sees a sweep as three phases and a hub job as five; what
//! happens inside `explore_streaming`, `Session::run`, a worker, or the
//! JSON codec is invisible from there. The replay calls those layers
//! directly — `enumerate`, `audit_candidate`, `prune`, `realize`,
//! `run_candidate`, `Session::run`, `handle_measure`, `JsonValue::parse`,
//! `write_frame` … — on the same inputs, so each gets a host-time figure,
//! and compares the sum with the same op run through the program: what
//! the sum cannot account for is `bench.unattributed_pct`.

use std::collections::{BTreeMap, HashSet};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use axi4mlir_accelerators::isa;
use axi4mlir_accelerators::matmul::{MatMulAccel, MatMulVersion};
use axi4mlir_core::driver::Session;
use axi4mlir_core::explore::measure::{handle_measure, measure_request, run_candidate};
use axi4mlir_core::explore::{
    audit_candidate, prune, wire, Candidate, DesignSpace, ExploreRequest, Explorer, Fidelity,
    JobSpec, Search,
};
use axi4mlir_core::options::PipelineOptions;
use axi4mlir_dialects::{arith, func, memref, scf};
use axi4mlir_hub::protocol::progress_event;
use axi4mlir_hub::HubClient;
use axi4mlir_ir::ops::Module;
use axi4mlir_ir::types::Type;
use axi4mlir_runtime::copy::{copy_view_to_region, CopyStrategy};
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::{LoopbackAccelerator, StreamAccelerator};
use axi4mlir_sim::cache::{AccessKind, CacheHierarchy};
use axi4mlir_sim::cost::CostModel;
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_sim::dma::{DmaConfig, DmaEngine};
use axi4mlir_sim::mem::{ElemType, SimMemory};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, Frame, FrameReader};

use crate::ops::{run_hub_job, run_sweep, SweepSpec};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::SIM_WORKERS;

/// Per-layer values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn nanos_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Times `work` once, in nanoseconds.
fn time_ns<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    let elapsed = nanos_since(start);
    (out, elapsed)
}

/// The median of `reps` timings of `work`, in nanoseconds.
fn median_ns<T>(reps: usize, mut work: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| time_ns(|| std::hint::black_box(work())).1).collect();
    median(&samples).unwrap_or(0.0)
}

fn median_of(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// interp / sim / runtime / accelerators micro-replays
// ---------------------------------------------------------------------

const LOOP_TRIPS: i64 = 64;

/// `for i in 0..64 { for j in 0..64 { cell += j } }`: a load, a cast, an
/// add and a store per inner iteration — pure interpreter dispatch.
fn loop_nest_module() -> Module {
    let mut module = Module::new();
    let main = func::func(&mut module, "main", vec![], vec![]);
    let mut builder = func::entry_builder(&mut module.ctx, &main);
    let cell = memref::alloc(&mut builder, vec![1], Type::i32());
    let zero = arith::const_index(&mut builder, 0);
    let trips = arith::const_index(&mut builder, LOOP_TRIPS);
    let one = arith::const_index(&mut builder, 1);
    let outer = scf::for_loop(&mut builder, zero, trips, one);
    let mut outer_body = scf::body_builder(&mut module.ctx, &outer);
    let inner = scf::for_loop(&mut outer_body, zero, trips, one);
    let mut inner_body = scf::body_builder(&mut module.ctx, &inner);
    let old = memref::load(&mut inner_body, cell, vec![zero]);
    let step = arith::index_cast(&mut inner_body, inner.iv, Type::i32());
    let new = arith::addi(&mut inner_body, old, step);
    memref::store(&mut inner_body, new, cell, vec![zero]);
    module
}

/// The simulator's inner loops, each driven directly.
///
/// # Errors
///
/// Returns the simulator's error text.
pub fn replay_simulator(values: &mut Values) -> Result<(), String> {
    // interp: a 64x64 scf.for nest.
    let module = loop_nest_module();
    let mut soc = Soc::new(Box::new(LoopbackAccelerator::new()));
    let mut failed = None;
    let nest = median_ns(15, || {
        soc.recycle();
        let run =
            axi4mlir_interp::run_func(&mut soc, &module, "main", vec![], CopyStrategy::ElementWise);
        if let Err(err) = run {
            failed = Some(err.to_string());
        }
    });
    if let Some(err) = failed {
        return Err(format!("interpreter loop nest: {err}"));
    }
    values.insert("interp.loop_ns_per_iter", nest / (LOOP_TRIPS * LOOP_TRIPS) as f64);

    // sim::dma: 4 KiB out and back through the loopback device.
    const BURST: u64 = 4096;
    let cost = CostModel::pynq_z2();
    let mut mem = SimMemory::new();
    let input = mem.alloc(BURST, 64);
    let output = mem.alloc(BURST, 64);
    let mut device = LoopbackAccelerator::new();
    let mut failed = None;
    let roundtrips = 8;
    let burst = median_ns(25, || {
        let mut counters = PerfCounters::new();
        let mut dma = DmaEngine::new();
        dma.init(
            DmaConfig {
                id: 0,
                input_base: input,
                input_size: BURST,
                output_base: output,
                output_size: BURST,
            },
            &mut counters,
            &cost,
        );
        for _ in 0..roundtrips {
            let sent = dma.start_send(&mut mem, &mut device, 0, BURST, &mut counters, &cost);
            dma.wait_send_completion(&mut counters, &cost);
            let received = dma.start_recv(&mut mem, &mut device, 0, BURST, &mut counters, &cost);
            dma.wait_recv_completion(&mut counters, &cost);
            if let Err(err) = sent.and(received) {
                failed = Some(err.to_string());
            }
        }
        counters
    });
    if let Some(err) = failed {
        return Err(format!("dma roundtrip: {err}"));
    }
    let kib_moved = (roundtrips * 2 * BURST) as f64 / 1024.0;
    values.insert("sim.dma.roundtrip_us_per_kb", burst / 1e3 / kib_moved);

    // sim::cache: a strided walk over twice the L2, so every level misses.
    let mut cache = CacheHierarchy::cortex_a9();
    let accesses = 16_384u64;
    let walk = median_ns(15, || {
        let mut misses = 0;
        for step in 0..accesses {
            misses += cache.access(0x10_0000 + step * 68, 4, AccessKind::Read).l1_misses;
        }
        misses
    });
    values.insert("sim.cache.ns_per_access", walk / accesses as f64);

    // runtime::copy: a 64x64 view staged with the specialized copy.
    let mut soc = Soc::new(Box::new(LoopbackAccelerator::new()));
    let view = MemRefDesc::alloc(&mut soc.mem, &[64, 64], ElemType::I32);
    let staging = soc.mem.alloc(view.num_bytes(), 64);
    let strategy = CopyStrategy::specialized(&soc.cost);
    let copy = median_ns(25, || copy_view_to_region(&mut soc, &view, staging, strategy));
    values.insert("runtime.copy.ns_per_word", copy / view.num_elements() as f64);

    // accelerators::matmul: one 16x16x16 tile through the v3 micro-ISA.
    let mut accel = MatMulAccel::new(MatMulVersion::V3, 16);
    let tile: Vec<u32> = (0..256).collect();
    let mut program = vec![isa::OP_SEND_A];
    program.extend(&tile);
    program.push(isa::OP_SEND_B);
    program.extend(&tile);
    program.extend([isa::OP_COMPUTE, isa::OP_READ_C]);
    let mut macs = 0;
    let tile_ns = median_ns(25, || {
        let mut counters = PerfCounters::new();
        for word in &program {
            accel.consume_word(*word, &mut counters);
        }
        while accel.pop_output_word().is_some() {}
        macs = counters.accel_macs;
    });
    if macs == 0 || accel.protocol_errors() > 0 {
        return Err("accelerator tile replay computed nothing".to_owned());
    }
    values.insert("accelerators.matmul.ns_per_mac", tile_ns / macs as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// Sweep replay
// ---------------------------------------------------------------------

/// Host nanoseconds per layer for one replayed sweep, plus the same sweep
/// through the program.
#[derive(Clone, Debug, Default)]
struct SweepReplay {
    enumerate: f64,
    candidates: usize,
    audit: f64,
    audited: usize,
    prune: f64,
    /// Per measured candidate.
    realize: Vec<f64>,
    /// Per measured candidate: `run_candidate`, a cold `Session::run`
    /// included.
    run_candidate: Vec<f64>,
    /// The rung's `Session::for_sweep`, and the heuristic pick: lookup,
    /// audit, and its measurement unless the sweep already made it.
    session_and_heuristic: f64,
    /// `explore_streaming(workers = 1)` on a fresh engine.
    through_program: f64,
}

impl SweepReplay {
    /// What the outside view can account for. `measure_set` realizes
    /// every candidate once to resolve its cache key before
    /// `run_candidate` realizes it again, so realization counts twice.
    fn layer_sum(&self) -> f64 {
        self.enumerate
            + self.audit
            + self.prune
            + self.realize.iter().sum::<f64>()
            + self.run_candidate.iter().sum::<f64>()
            + self.session_and_heuristic
    }
}

/// The candidates `explore_streaming` would measure for an exhaustive
/// request, found the way it finds them: enumerate, audit (memoized per
/// accelerator/flow/tile), prune.
fn replay_front(
    space: &dyn DesignSpace,
    request: &ExploreRequest,
    replay: &mut SweepReplay,
) -> Result<Vec<Candidate>, String> {
    let (all, enumerate) = time_ns(|| space.enumerate());
    let all = all.map_err(|err| err.message)?;
    replay.enumerate = enumerate;
    replay.candidates = all.len();
    let started = Instant::now();
    let mut verdicts = HashSet::new();
    let mut rejected = HashSet::new();
    let mut admitted = Vec::with_capacity(all.len());
    for candidate in all {
        let memo = (candidate.key.accel.clone(), candidate.key.flow.clone(), candidate.key.tile);
        if verdicts.insert(memo.clone()) {
            replay.audited += 1;
            if audit_candidate(space, &candidate).is_err() {
                rejected.insert(memo.clone());
            }
        }
        if !rejected.contains(&memo) {
            admitted.push(candidate);
        }
    }
    replay.audit = nanos_since(started);
    let ((kept, _), pruned) = time_ns(|| prune(admitted, request.prune, request.objectives[0]));
    replay.prune = pruned;
    Ok(kept)
}

/// Per-candidate driver costs, split by re-running the same plan: a cold
/// run compiles, executes and verifies; a warm run reuses the compiled
/// module; a warm run with verification off only executes.
#[derive(Clone, Debug, Default)]
struct DriverSplit {
    cold: Vec<f64>,
    warm: Vec<f64>,
    execute: Vec<f64>,
    /// Execute nanoseconds and simulated instructions, matmul-shaped.
    matmul: (f64, u64),
    /// Execute nanoseconds and simulated instructions, conv.
    conv: (f64, u64),
}

fn split_driver(
    space: &dyn DesignSpace,
    candidates: &[Candidate],
    split: &mut DriverSplit,
) -> Result<(), String> {
    // Consecutive candidates differ, so every first run of one is a
    // compile-cache miss, as it is in a sweep.
    let mut session = Session::for_sweep();
    for candidate in candidates {
        let realized = space.realize(candidate, Fidelity::Full).map_err(|err| err.message)?;
        let workload = realized.workload.as_ref();
        let (cold, cold_ns) = time_ns(|| session.run(workload, &realized.plan));
        cold.map_err(|err| err.message)?;
        let (warm, warm_ns) = time_ns(|| session.run(workload, &realized.plan));
        warm.map_err(|err| err.message)?;
        let unverified = realized
            .plan
            .clone()
            .options(PipelineOptions { verify_result: false, ..realized.plan.options });
        // The verify flag is part of the session's compile key: the first
        // unverified run recompiles, the second only executes.
        session.run(workload, &unverified).map_err(|err| err.message)?;
        let (executed, execute_ns) = time_ns(|| session.run(workload, &unverified));
        let report = executed.map_err(|err| err.message)?;
        split.cold.push(cold_ns);
        split.warm.push(warm_ns);
        split.execute.push(execute_ns);
        let bucket =
            if space.workload_kind() == "conv" { &mut split.conv } else { &mut split.matmul };
        bucket.0 += execute_ns;
        bucket.1 += report.counters.instructions;
    }
    Ok(())
}

/// Replays one exhaustive sweep serially and through the program.
fn replay_sweep(job: &JobSpec, split: Option<&mut DriverSplit>) -> Result<SweepReplay, String> {
    let mut replay = SweepReplay::default();
    let request = job.build().map_err(|err| err.message)?;
    let space = request.space.as_dyn();
    let kept = replay_front(space, &request, &mut replay)?;

    let (mut session, session_ns) = time_ns(Session::for_sweep);
    for candidate in &kept {
        let (realized, realize) = time_ns(|| space.realize(candidate, Fidelity::Full));
        realized.map_err(|err| err.message)?;
        replay.realize.push(realize);
        let (eval, ran) = time_ns(|| run_candidate(&mut session, space, candidate, Fidelity::Full));
        eval.map_err(|err| err.message)?;
        replay.run_candidate.push(ran);
    }
    let started = Instant::now();
    if let Some(pick) = space.heuristic() {
        if audit_candidate(space, &pick).is_ok() && !kept.contains(&pick) {
            run_candidate(&mut session, space, &pick, Fidelity::Full).map_err(|err| err.message)?;
        }
    }
    replay.session_and_heuristic = session_ns + nanos_since(started);

    let explorer = Explorer::new();
    let (report, through_program) = time_ns(|| {
        explorer.explore_streaming(
            space,
            request.prune,
            &request.search,
            1,
            &request.objectives,
            &|_| true,
        )
    });
    let report = report.map_err(|err| err.message)?;
    replay.through_program = through_program;
    if report.evaluations.len() != kept.len() {
        return Err(format!(
            "{}: the replay measured {} candidates, the program {}",
            report.space,
            kept.len(),
            report.evaluations.len()
        ));
    }
    if let Some(split) = split {
        split_driver(space, &kept, split)?;
    }
    Ok(replay)
}

/// The fewest replay/program pairs a replay makes. On a shared host the
/// two halves of one pair can land in spells of different speed, so a
/// single pair's residual is worth little; the median over a few seconds
/// of short pairs is.
const REPLAY_MIN_PAIRS: usize = 5;

/// One sweep on every measuring thread, then again from the now warm
/// cache: the cold rung's wall time, the warm rung's, and the hits served.
fn parallel_rungs(jobs: &[JobSpec]) -> Result<(f64, f64, usize), String> {
    let tracer = Tracer::new(true);
    let explorer = Explorer::new();
    for job in jobs {
        run_sweep(&explorer, job, SIM_WORKERS, &tracer, None, 0)?;
    }
    let cold_spans = tracer.spans().len();
    let mut hits = 0;
    for job in jobs {
        hits += run_sweep(&explorer, job, SIM_WORKERS, &tracer, None, 1)?.cache_hits;
    }
    let (mut cold, mut warm) = (0.0, 0.0);
    for (index, span) in tracer.spans().iter().enumerate() {
        if span.name == "core.explore.rung" {
            *(if index < cold_spans { &mut cold } else { &mut warm }) += span.nanos() as f64;
        }
    }
    Ok((cold, warm, hits))
}

/// Replays the exhaustive sweeps of one op. Halving sweeps are skipped:
/// which candidate runs at which fidelity is decided inside the search
/// and cannot be re-enacted from outside.
///
/// # Errors
///
/// Returns the first diagnostic's message.
pub fn replay_sweeps(
    specs: &[SweepSpec],
    conv_fallback: &JobSpec,
    seed: u64,
    budget: Duration,
    values: &mut Values,
) -> Result<(), String> {
    let exhaustive: Vec<JobSpec> = specs
        .iter()
        .map(|spec| spec.seeded(seed))
        .filter(|job| matches!(job.build().map(|r| r.search), Ok(Search::Exhaustive)))
        .collect();
    if exhaustive.is_empty() {
        return Err("no exhaustive sweep to replay".to_owned());
    }
    let mut split = DriverSplit::default();
    let mut first = Vec::new();
    let (mut residuals, mut efficiencies, mut hit_costs) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while residuals.len() < REPLAY_MIN_PAIRS || started.elapsed() < budget {
        let pair = residuals.len();
        let (mut accounted, mut through_program, mut simulating) = (0.0, 0.0, 0.0);
        for job in &exhaustive {
            let replay = replay_sweep(job, (pair == 0).then_some(&mut split))?;
            accounted += replay.layer_sum();
            through_program += replay.through_program;
            simulating += replay.run_candidate.iter().sum::<f64>();
            if pair == 0 {
                first.push(replay);
            }
        }
        residuals.push(100.0 * (through_program - accounted) / through_program);
        // The same sweeps on every measuring thread: how much of the
        // threads' time was simulation, and what a cache hit costs.
        let (cold_rungs, warm_rungs, hits) = parallel_rungs(&exhaustive)?;
        efficiencies.push(simulating / (SIM_WORKERS as f64 * cold_rungs.max(1.0)));
        hit_costs.push(warm_rungs / 1e3 / hits.max(1) as f64);
    }
    values.insert("bench.unattributed_pct", median_of(&residuals));
    values.insert("core.explore.measure.local_efficiency", median_of(&efficiencies));
    values.insert("core.explore.cache.hit_us_per_candidate", median_of(&hit_costs));

    if split.conv.1 == 0 {
        let request = conv_fallback.build().map_err(|err| err.message)?;
        let space = request.space.as_dyn();
        let candidates = space.enumerate().map_err(|err| err.message)?;
        let mut conv = DriverSplit::default();
        split_driver(space, &candidates, &mut conv)?;
        split.conv = conv.conv;
    }

    let total = |pick: fn(&SweepReplay) -> f64| first.iter().map(pick).sum::<f64>();
    let count = |pick: fn(&SweepReplay) -> usize| first.iter().map(pick).sum::<usize>().max(1);
    let all = |pick: fn(&SweepReplay) -> &Vec<f64>| -> Vec<f64> {
        first.iter().flat_map(|replay| pick(replay).iter().copied()).collect()
    };
    values.insert(
        "heuristics.space.enumerate_us_per_candidate",
        total(|r| r.enumerate) / 1e3 / count(|r| r.candidates) as f64,
    );
    values.insert(
        "core.explore.audit.us_per_candidate",
        total(|r| r.audit) / 1e3 / count(|r| r.audited) as f64,
    );
    values.insert(
        "core.explore.prune.us_per_candidate",
        total(|r| r.prune) / 1e3 / count(|r| r.candidates) as f64,
    );
    values.insert("core.explore.space.realize_us", median_of(&all(|r| &r.realize)) / 1e3);
    values.insert(
        "core.explore.measure.run_candidate_us",
        median_of(&all(|r| &r.run_candidate)) / 1e3,
    );

    // Differences are taken candidate by candidate — the three runs of one
    // candidate are back to back — and only then summarized.
    let paired = |a: &[f64], b: &[f64]| -> f64 {
        median_of(&a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<f64>>())
    };
    values.insert("core.driver.run_cold_us", median_of(&split.cold) / 1e3);
    values.insert("core.driver.run_warm_us", median_of(&split.warm) / 1e3);
    values.insert("core.driver.compile_us", paired(&split.cold, &split.warm) / 1e3);
    values.insert("core.driver.verify_us", paired(&split.warm, &split.execute) / 1e3);
    values.insert("interp.ns_per_sim_instr.matmul", split.matmul.0 / split.matmul.1.max(1) as f64);
    values.insert("interp.ns_per_sim_instr.conv", split.conv.0 / split.conv.1.max(1) as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// Worker replay
// ---------------------------------------------------------------------

/// Candidates the worker replay measures at most.
const WORKER_SAMPLE: usize = 24;

/// One `measure` frame at a time through the worker's entry point, and
/// the same candidate through `run_candidate`: the difference is what the
/// worker pays to rebuild the space from the frame's job spec.
///
/// # Errors
///
/// Returns the first diagnostic's message.
pub fn replay_worker(job: &JobSpec, values: &mut Values) -> Result<(), String> {
    let request = job.build().map_err(|err| err.message)?;
    let space = request.space.as_dyn();
    let wire_job =
        space.wire_spec().ok_or_else(|| "the hub job cannot travel".to_owned())?.to_json();
    let mut replay = SweepReplay::default();
    let candidates = replay_front(space, &request, &mut replay)?;
    let (mut worker_session, mut local_session) = (Session::for_sweep(), Session::for_sweep());
    let (mut handled, mut ran) = (Vec::new(), Vec::new());
    for (id, candidate) in candidates.iter().take(WORKER_SAMPLE).enumerate() {
        let frame = measure_request(id as u64 + 1, &wire_job, Fidelity::Full, candidate);
        let (reply, handle_ns) = time_ns(|| handle_measure(&mut worker_session, &frame));
        if reply.get("type").and_then(JsonValue::as_str) != Some("result") {
            return Err(format!("worker replay failed: {}", reply.to_json_string()));
        }
        handled.push(handle_ns);
        let (eval, run_ns) =
            time_ns(|| run_candidate(&mut local_session, space, candidate, Fidelity::Full));
        eval.map_err(|err| err.message)?;
        ran.push(run_ns);
    }
    values.insert("worker.handle_measure_us", median_of(&handled) / 1e3);
    let rebuilds: Vec<f64> = handled.iter().zip(&ran).map(|(handle, run)| handle - run).collect();
    values.insert("worker.rebuild_overhead_us", median_of(&rebuilds) / 1e3);
    Ok(())
}

// ---------------------------------------------------------------------
// support::json, support::proto, core::explore::{shard, wire}
// ---------------------------------------------------------------------

fn mb_per_s(bytes: usize, nanos: f64) -> f64 {
    bytes as f64 / 1e6 / (nanos / 1e9)
}

/// The cache directory's documents through the JSON parser.
///
/// # Errors
///
/// Returns the filesystem or parse error text.
pub fn replay_shard_json(dir: &Path, values: &mut Values) -> Result<(), String> {
    let mut largest = String::new();
    let mut bytes = 0u64;
    let entries =
        std::fs::read_dir(dir).map_err(|err| format!("cannot read {}: {err}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let text = std::fs::read_to_string(entry.path())
            .map_err(|err| format!("cannot read {}: {err}", entry.path().display()))?;
        bytes += text.len() as u64;
        if text.len() > largest.len() {
            largest = text;
        }
    }
    if largest.is_empty() {
        return Err(format!("{} holds no shard", dir.display()));
    }
    let mut failed = None;
    let parse = median_ns(3, || {
        if let Err(err) = JsonValue::parse(&largest) {
            failed = Some(err.message);
        }
    });
    if let Some(err) = failed {
        return Err(format!("shard document does not parse: {err}"));
    }
    let loaded = Explorer::with_cache_dir(dir).map_err(|err| err.message)?;
    values.insert("support.json.parse_mb_s.shard", mb_per_s(largest.len(), parse));
    values.insert("support.json.doc_kb.shard", largest.len() as f64 / 1024.0);
    values.insert("core.explore.shard.bytes", bytes as f64);
    values.insert("core.explore.shard.entries", loaded.cache_len() as f64);
    Ok(())
}

/// One newline-delimited JSON frame out and back over a loopback socket,
/// through `write_frame` and `FrameReader` on both ends.
///
/// # Errors
///
/// Returns the socket error text.
pub fn replay_frame_rtt(values: &mut Values) -> Result<(), String> {
    // A rung-complete event: the ~200-byte frame the protocols send most.
    let frame = progress_event(
        7,
        &axi4mlir_core::explore::ProgressEvent::RungComplete {
            fidelity: Fidelity::Full,
            survivors: 48,
            sims_performed: 48,
            cache_hits: 0,
            full_sims_performed: 48,
        },
    );
    let io = |err: std::io::Error| format!("loopback socket: {err}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (stream, _) = listener.accept().map_err(|err| err.to_string())?;
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone().map_err(|err| err.to_string())?;
        let mut reader = FrameReader::new(BufReader::new(stream));
        loop {
            match reader.next_frame().map_err(|err| err.message)? {
                Frame::Value(value) => {
                    write_frame(&mut writer, &value).map_err(|err| err.to_string())?
                }
                Frame::Idle => continue,
                Frame::Eof => return Ok(()),
            }
        }
    });
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().map_err(io)?;
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut samples = Vec::new();
    for _ in 0..300 {
        let started = Instant::now();
        write_frame(&mut writer, &frame).map_err(io)?;
        match reader.next_frame().map_err(|err| err.message)? {
            Frame::Value(_) => samples.push(nanos_since(started)),
            other => return Err(format!("echo answered {other:?}")),
        }
    }
    drop(writer);
    drop(reader);
    echo.join().map_err(|_| "echo thread panicked".to_owned())??;
    values.insert("support.proto.frame_rtt_us", median_of(&samples) / 1e3);
    Ok(())
}

/// What the hub replay measured beyond its `values`.
pub struct HubReplay {
    /// Critical-path compute of the job on a fresh engine, codecs included.
    pub fresh_compute_ms: f64,
    /// The same from the warm cache.
    pub repeat_compute_ms: f64,
    /// Median latency of the captured job resubmitted.
    pub repeat_job_ms: f64,
}

/// The hub from a client's chair, with no work in the request: connect,
/// `status`, then one captured job whose `done` frame feeds the JSON and
/// wire codecs, and the job's own compute replayed locally — the part of
/// a job's latency in which anybody computes.
///
/// # Errors
///
/// Returns the first diagnostic's message.
pub fn replay_hub(
    addr: &str,
    spec: &SweepSpec,
    seed: u64,
    values: &mut Values,
) -> Result<HubReplay, String> {
    let mut connects = Vec::new();
    let mut client = None;
    for _ in 0..5 {
        let (connected, connect_ns) = time_ns(|| HubClient::connect(addr));
        connects.push(connect_ns);
        client = Some(connected.map_err(|err| err.message)?);
    }
    let mut client = client.expect("connected five times");
    let mut failed = None;
    let status = median_ns(20, || {
        if let Err(err) = client.status() {
            failed = Some(err.message);
        }
    });
    if let Some(err) = failed {
        return Err(format!("status failed: {err}"));
    }
    values.insert("hub.connect_ms", median_of(&connects) / 1e6);
    values.insert("hub.status_rtt_ms", status / 1e6);

    let tracer = Tracer::new(true);
    let job = spec.seeded(seed);
    let (report, _, done) = run_hub_job(&mut client, &job, &tracer, true);
    let report = report?;
    let done = done.ok_or_else(|| "the job ended without a done frame".to_owned())?;
    let mut repeats = Vec::new();
    for _ in 0..3 {
        let (repeat, timeline, _) = run_hub_job(&mut client, &job, &tracer, false);
        repeat?;
        repeats.push((timeline.returned - timeline.submitted) as f64 / 1e6);
    }

    let text = done.to_json_string();
    let mut failed = None;
    let parse = median_ns(3, || {
        if let Err(err) = JsonValue::parse(&text) {
            failed = Some(err.message);
        }
    });
    if let Some(err) = failed {
        return Err(format!("done frame does not parse: {err}"));
    }
    let render = median_ns(5, || done.to_json_string());
    let encode = median_ns(5, || wire::report_to_json(&report));
    let wire_report = done.get("report").ok_or_else(|| "done frame has no report".to_owned())?;
    let mut failed = None;
    let decode = median_ns(5, || {
        if let Err(err) = wire::report_from_json(wire_report) {
            failed = Some(err.message);
        }
    });
    if let Some(err) = failed {
        return Err(format!("wire report does not decode: {err}"));
    }
    values.insert("support.json.parse_mb_s.done_frame", mb_per_s(text.len(), parse));
    values.insert("support.json.render_mb_s", mb_per_s(text.len(), render));
    values.insert("support.json.doc_kb.done_frame", text.len() as f64 / 1024.0);
    values.insert("core.explore.wire.report_encode_ms", encode / 1e6);
    values.insert("core.explore.wire.report_decode_ms", decode / 1e6);

    // Critical-path compute of one job: the sweep on as many measuring
    // threads as the hub has workers, plus the report's trip through the
    // codecs. Fresh first, then the repeat from the warm cache.
    let codec = encode + render + parse + decode;
    let explorer = Explorer::new();
    let local = Tracer::new(false);
    let (fresh, fresh_ns) = time_ns(|| run_sweep(&explorer, &job, SIM_WORKERS, &local, None, 0));
    fresh?;
    let (repeat, repeat_ns) = time_ns(|| run_sweep(&explorer, &job, SIM_WORKERS, &local, None, 0));
    repeat?;
    Ok(HubReplay {
        fresh_compute_ms: (fresh_ns + codec) / 1e6,
        repeat_compute_ms: (repeat_ns + codec) / 1e6,
        repeat_job_ms: median_of(&repeats),
    })
}

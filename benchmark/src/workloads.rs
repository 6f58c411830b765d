//! The six named workloads.
//!
//! Every workload is a list of homogeneous *ops* generated from the run's
//! `--seed`: op `i` uses data seed `seed * 1_000_003 + i`, and the program
//! only ever receives the generated `JobSpec`s and modules. Ops run
//! closed-loop — a client issues its next op when the previous one
//! returned — from at most two clients, so no more than two threads or
//! connections generate load.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use axi4mlir_core::driver::{BatchedMatMulWorkload, ConvWorkload, MatMulWorkload, Workload};
use axi4mlir_core::explore::{
    audit_candidate, AccelInstance, AnySpace, BatchedSpace, Candidate, ConvSpace, Explorer,
    Fidelity, JobSpec, MatMulSpace, OptionsPoint,
};
use axi4mlir_core::options::CacheTiling;
use axi4mlir_hub::HubClient;
use axi4mlir_ir::ops::Module;
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::{resnet18_layers, ConvLayer};

use crate::host::TempDir;
use crate::ops::{
    check_report, compile_item, record_job_spans, run_hub_job, run_sweep, seedless_keys,
    CorpusItem, Counts, Daemons, Expect, SeedlessKey, SweepSpec, Tallies,
};
use crate::trace::Tracer;

/// Measuring threads of a local sweep, and measuring workers behind a hub:
/// the sizing host's core count, so the load never oversubscribes it.
pub const SIM_WORKERS: usize = 2;

/// Untimed ops run at the end of every set-up.
pub const WARMUP_OPS: u64 = 5;

/// Op indices of the warm-up ops: far from any timed index, so a warm-up
/// never shares a data seed (and therefore a cache entry) with a timed op.
const WARMUP_BASE: u64 = 900_000;

/// The conv layer `sweep_small_mixed` sweeps, and the replay's stand-in for
/// sweeps that have no conv job of their own.
pub const CONV_LAYER: &str = "8_64_3_8_1";

/// The data seed of op `index` in a run seeded `seed`.
pub fn op_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index)
}

/// Which group of per-layer metrics a workload's ops feed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Local sweeps through `explore_streaming`.
    Sweep,
    /// The sharded cache directory: load, fit, save.
    Shard,
    /// The compiler pipeline over a module corpus.
    Compile,
    /// Jobs through a hub with remote measurement workers.
    Hub,
}

/// Every kind, in ledger order.
pub const KINDS: [Kind; 4] = [Kind::Sweep, Kind::Shard, Kind::Compile, Kind::Hub];

/// What one op did.
#[derive(Clone, Debug, Default)]
pub struct OpOutcome {
    /// Host milliseconds of the op's timed part.
    pub millis: f64,
    /// Work completed, in the workload's own unit.
    pub work: u64,
    /// Exact quantities.
    pub counts: Counts,
    /// Host-side quantities gathered at the layer boundaries the op
    /// crossed.
    pub tallies: Tallies,
    /// `Some(true)` for a hub job on a fresh seed, `Some(false)` for a
    /// repeat; `None` elsewhere.
    pub fresh: Option<bool>,
    /// Why the op failed its correctness gate, if it did.
    pub failure: Option<String>,
}

/// A set-up workload: ready to run ops.
pub trait Instance: Sync {
    /// Runs op `index` of `client`'s stream.
    fn op(&self, client: usize, index: u64, tracer: &Tracer) -> OpOutcome;

    /// The sweeps a [`Kind::Sweep`] workload issues per op.
    fn sweep_specs(&self) -> &[SweepSpec] {
        &[]
    }

    /// The populated cache directory of a [`Kind::Shard`] workload.
    fn shard_dir(&self) -> Option<&Path> {
        None
    }

    /// The hub of a [`Kind::Hub`] workload: its address and job.
    fn hub(&self) -> Option<(&str, &SweepSpec)> {
        None
    }
}

/// One named workload.
pub struct WorkloadDef {
    /// The name later issues cite.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// The unit `work_per_s` counts.
    pub work_unit: &'static str,
    /// Closed-loop clients.
    pub clients: usize,
    /// The per-layer metric groups its ops feed.
    pub kinds: &'static [Kind],
    /// Builds the instance (everything before the warm-up ops).
    pub setup: fn(u64) -> Result<Box<dyn Instance>, String>,
}

/// The six workloads, in the order the README discusses them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "sweep_cold",
        why: "cold local sweep of matmul 128^3 on v4_16 (24 full sims per op): simulator execution is ~95% of the op, so interpreter, DMA, copy and accelerator-model work shows here",
        work_unit: "sims",
        clients: 1,
        kinds: &[Kind::Sweep],
        setup: setup_sweep_cold,
    },
    WorkloadDef {
        name: "sweep_small_mixed",
        why: "cold sweeps of tiny matmul (v1-v4), batched (halving) and conv spaces: compile is a large share of each sim, proxy rungs and the v1-v3 and conv device models are exercised",
        work_unit: "sims",
        clients: 1,
        kinds: &[Kind::Sweep],
        setup: setup_sweep_small_mixed,
    },
    WorkloadDef {
        name: "sweep_warm_restart",
        why: "second CLI invocation: load a two-shard cache dir, fit the transfer model, re-sweep from cache (0 sims), save one dirty shard; JSON and shard code do the work, the simulator none",
        work_unit: "cache-served candidates",
        clients: 1,
        kinds: &[Kind::Sweep, Kind::Shard],
        setup: setup_sweep_warm_restart,
    },
    WorkloadDef {
        name: "compile_corpus",
        why: "the compiler user's path over ~120 modules (goldens plus a seeded draw of realizations): parse, lint, annotate, codegen, lower, verify, print; no simulation at all",
        work_unit: "modules",
        clients: 1,
        kinds: &[Kind::Compile],
        setup: setup_compile_corpus,
    },
    WorkloadDef {
        name: "hub_small_jobs",
        why: "two closed-loop clients alternate fresh and repeat matmul 16^3 jobs on a hub with two workers: almost no work per job, so dispatch floors (sleeps, timeouts, polls) dominate",
        work_unit: "jobs",
        clients: 2,
        kinds: &[Kind::Hub],
        setup: setup_hub_small_jobs,
    },
    WorkloadDef {
        name: "hub_remote_sweep",
        why: "the sweep_cold specs and seeds submitted through a hub with two remote workers: same simulations plus the distribution tax (wire, worker rebuilds, in-flight windows, done frame)",
        work_unit: "sims",
        clients: 1,
        kinds: &[Kind::Hub],
        setup: setup_hub_remote_sweep,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|workload| workload.name == name)
}

/// The workload whose ops stand in for `kind` in the traced run of a
/// workload that does not exercise that kind itself.
pub fn reference_for(kind: Kind) -> &'static WorkloadDef {
    let name = match kind {
        Kind::Sweep => "sweep_small_mixed",
        Kind::Shard => "sweep_warm_restart",
        Kind::Compile => "compile_corpus",
        Kind::Hub => "hub_small_jobs",
    };
    find(name).expect("reference workloads are declared")
}

/// Runs the warm-up ops, spread round-robin over the clients.
///
/// # Errors
///
/// Returns the first warm-up op's failure: a workload that cannot pass
/// its own gate before timing starts is not worth timing.
pub fn warm_up(workload: &WorkloadDef, instance: &dyn Instance, ops: u64) -> Result<(), String> {
    let tracer = Tracer::new(false);
    for warmup in 0..ops {
        let client = warmup as usize % workload.clients;
        let index = WARMUP_BASE + warmup / workload.clients as u64;
        if let Some(failure) = instance.op(client, index, &tracer).failure {
            return Err(format!("warm-up op {warmup} failed: {failure}"));
        }
    }
    Ok(())
}

fn matmul_job(dims: i64, accels: &[&str]) -> JobSpec {
    JobSpec {
        dims: Some((dims, dims, dims)),
        accels: accels.iter().map(|accel| (*accel).to_owned()).collect(),
        ..JobSpec::default()
    }
}

// ---------------------------------------------------------------------
// sweep_cold, sweep_small_mixed
// ---------------------------------------------------------------------

/// Cold local sweeps: every op starts a fresh [`Explorer`] and runs each
/// spec once under the op's data seed.
struct LocalSweeps {
    seed: u64,
    specs: Vec<SweepSpec>,
}

impl Instance for LocalSweeps {
    fn op(&self, _client: usize, index: u64, tracer: &Tracer) -> OpOutcome {
        let mut outcome = OpOutcome::default();
        let started = Instant::now();
        let span = tracer.open("op", None, index);
        let explorer = Explorer::new();
        for spec in &self.specs {
            let job = spec.seeded(op_seed(self.seed, index));
            let checked =
                run_sweep(&explorer, &job, SIM_WORKERS, tracer, span, index).and_then(|report| {
                    outcome.counts.add_report(&report);
                    check_report(&report, Expect::Sims(spec.cold_sims))
                });
            if let Err(failure) = checked {
                outcome.failure.get_or_insert(failure);
            }
        }
        tracer.close(span);
        outcome.millis = started.elapsed().as_secs_f64() * 1e3;
        outcome.work = outcome.counts.sims;
        outcome
    }

    fn sweep_specs(&self) -> &[SweepSpec] {
        &self.specs
    }
}

/// The `sweep_cold` job: also what `hub_remote_sweep` submits.
fn cold_spec() -> SweepSpec {
    SweepSpec {
        job: JobSpec { prune: "keep:24".to_owned(), ..matmul_job(128, &["v4_16"]) },
        cold_sims: 24,
        warm_hits: 24,
    }
}

fn setup_sweep_cold(seed: u64) -> Result<Box<dyn Instance>, String> {
    Ok(Box::new(LocalSweeps { seed, specs: vec![cold_spec()] }))
}

fn setup_sweep_small_mixed(seed: u64) -> Result<Box<dyn Instance>, String> {
    let specs = vec![
        SweepSpec {
            job: JobSpec {
                sweep_options: true,
                ..matmul_job(16, &["v1_8", "v2_8", "v3_8", "v4_8"])
            },
            cold_sims: 160,
            warm_hits: 160,
        },
        SweepSpec {
            job: JobSpec {
                workload: "batched".to_owned(),
                batch: Some(4),
                search: "halving".to_owned(),
                ..matmul_job(16, &["v3_8", "v4_8"])
            },
            cold_sims: 40,
            warm_hits: 0,
        },
        SweepSpec {
            job: JobSpec {
                workload: "conv".to_owned(),
                layer: Some(CONV_LAYER.to_owned()),
                sweep_options: true,
                ..JobSpec::default()
            },
            cold_sims: 4,
            warm_hits: 4,
        },
    ];
    Ok(Box::new(LocalSweeps { seed, specs }))
}

// ---------------------------------------------------------------------
// sweep_warm_restart
// ---------------------------------------------------------------------

/// The second CLI invocation: everything the first one measured is in a
/// sharded cache directory; this one loads it, fits the transfer model,
/// re-sweeps from the cache, measures one small new space, and saves.
struct WarmRestart {
    seed: u64,
    /// The directory as set-up wrote it; never touched by an op.
    pristine: TempDir,
    /// The copy an op loads and saves into; restored before every op.
    work: TempDir,
    /// The sweeps set-up cached (fixed data seed: their keys must hit).
    cached: Vec<SweepSpec>,
    /// The one new space each op measures, making exactly one shard dirty.
    fresh: SweepSpec,
}

/// Op index whose data seed the cached sweeps use.
const CACHED_INDEX: u64 = 800_000;

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).map_err(|err| format!("cannot create {}: {err}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|err| format!("cannot read {}: {err}", from.display()))?;
    for entry in entries.filter_map(Result::ok) {
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|err| format!("cannot copy {}: {err}", entry.path().display()))?;
    }
    Ok(())
}

impl Instance for WarmRestart {
    fn op(&self, _client: usize, index: u64, tracer: &Tracer) -> OpOutcome {
        let mut outcome = OpOutcome::default();
        // Untimed: the first invocation's directory, byte for byte.
        if let Err(failure) = copy_dir(self.pristine.path(), self.work.path()) {
            outcome.failure = Some(failure);
            return outcome;
        }
        let started = Instant::now();
        let span = tracer.open("op", None, index);
        let failure = (|| -> Result<(), String> {
            let mut explorer = tracer
                .span("core.explore.shard.load", span, index, || {
                    Explorer::with_cache_dir(self.work.path())
                })
                .map_err(|err| err.message)?;
            let entries = explorer.cache_len();
            let model =
                tracer.span("core.explore.transfer.fit", span, index, || explorer.transfer_model());
            explorer.set_warm_start(model);
            outcome.tallies.add("core.explore.transfer.entries", entries as f64);
            let cached_seed = op_seed(self.seed, CACHED_INDEX);
            for spec in &self.cached {
                let job = spec.seeded(cached_seed);
                let report = run_sweep(&explorer, &job, SIM_WORKERS, tracer, span, index)?;
                outcome.counts.add_report(&report);
                check_report(&report, Expect::Hits(spec.warm_hits))?;
            }
            let job = self.fresh.seeded(op_seed(self.seed, index));
            let report = run_sweep(&explorer, &job, SIM_WORKERS, tracer, span, index)?;
            outcome.counts.add_report(&report);
            check_report(&report, Expect::Sims(self.fresh.cold_sims))?;
            let stats = tracer
                .span("core.explore.shard.save_dirty", span, index, || {
                    explorer.save_cache_dir(self.work.path())
                })
                .map_err(|err| err.message)?;
            if stats.written.len() != 1 || stats.skipped != self.cached.len() {
                return Err(format!(
                    "save wrote {} shards and skipped {}, expected 1 and {}",
                    stats.written.len(),
                    stats.skipped,
                    self.cached.len()
                ));
            }
            Ok(())
        })()
        .err();
        tracer.close(span);
        outcome.millis = started.elapsed().as_secs_f64() * 1e3;
        outcome.work = outcome.counts.cache_hits;
        outcome.failure = failure;
        outcome
    }

    fn sweep_specs(&self) -> &[SweepSpec] {
        &self.cached
    }

    fn shard_dir(&self) -> Option<&Path> {
        Some(self.pristine.path())
    }
}

fn setup_sweep_warm_restart(seed: u64) -> Result<Box<dyn Instance>, String> {
    let cached = vec![
        SweepSpec { job: matmul_job(64, &["v4_16"]), cold_sims: 104, warm_hits: 104 },
        SweepSpec { job: matmul_job(32, &["v4_16"]), cold_sims: 32, warm_hits: 32 },
    ];
    let fresh = SweepSpec { job: matmul_job(16, &["v3_8"]), cold_sims: 4, warm_hits: 4 };
    let pristine = TempDir::create("warm-restart-pristine")?;
    let work = TempDir::create("warm-restart-work")?;
    let explorer = Explorer::new();
    let tracer = Tracer::new(false);
    for spec in &cached {
        let job = spec.seeded(op_seed(seed, CACHED_INDEX));
        let report = run_sweep(&explorer, &job, SIM_WORKERS, &tracer, None, 0)?;
        check_report(&report, Expect::Sims(spec.cold_sims))?;
    }
    let stats = explorer.save_cache_dir(pristine.path()).map_err(|err| err.message)?;
    if stats.written.len() != cached.len() {
        return Err(format!("set-up wrote {} shards, expected 2", stats.written.len()));
    }
    Ok(Box::new(WarmRestart { seed, pristine, work, cached, fresh }))
}

// ---------------------------------------------------------------------
// compile_corpus
// ---------------------------------------------------------------------

macro_rules! golden {
    ($name:literal) => {
        CorpusItem::Golden {
            name: $name,
            input: include_str!(concat!("../../tests/golden/", $name, ".mlir")),
            expected: include_str!(concat!("../../tests/golden/", $name, ".expected.mlir")),
        }
    };
}

/// One pass over the corpus per op.
struct CompileCorpus {
    corpus: Vec<CorpusItem>,
}

impl Instance for CompileCorpus {
    fn op(&self, _client: usize, index: u64, tracer: &Tracer) -> OpOutcome {
        let mut outcome = OpOutcome::default();
        let started = Instant::now();
        let span = tracer.open("op", None, index);
        for item in &self.corpus {
            let compiled = tracer
                .span("compile.module", span, index, || compile_item(item, &mut outcome.tallies));
            match compiled {
                Ok(live_ops) => {
                    outcome.counts.modules += 1;
                    outcome.counts.code_size_ops += live_ops;
                }
                Err(failure) => {
                    outcome.failure.get_or_insert(failure);
                }
            }
        }
        tracer.close(span);
        outcome.millis = started.elapsed().as_secs_f64() * 1e3;
        outcome.work = outcome.counts.modules;
        outcome
    }
}

/// SplitMix64: the seeded draw needs a few hundred well-mixed numbers, not
/// a dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws `count` distinct audit-clean candidates of `space` (all of them
/// when it has fewer) and realizes each into a corpus item.
fn draw(
    space: &AnySpace,
    count: usize,
    rng: &mut u64,
    corpus: &mut Vec<CorpusItem>,
) -> Result<(), String> {
    let view = space.as_dyn();
    let mut pool: Vec<Candidate> = view
        .enumerate()
        .map_err(|err| err.message)?
        .into_iter()
        // On a matmul, `Auto` tiling needs the host-cache heuristic
        // `Session` applies privately; the corpus keeps to levels the
        // pipeline takes as is. Conv kernels never cache-tile.
        .filter(|candidate| {
            matches!(space, AnySpace::Conv(_))
                || candidate.key.options.cache_tiling != CacheTiling::Auto
        })
        .collect();
    let mut taken = 0;
    while taken < count && !pool.is_empty() {
        let candidate = pool.swap_remove((splitmix(rng) % pool.len() as u64) as usize);
        if audit_candidate(view, &candidate).is_err() {
            continue;
        }
        let realized = view.realize(&candidate, Fidelity::Full).map_err(|err| err.message)?;
        // The realization's own workload is a non-`Send` trait object;
        // rebuild the same plain-data workload from the space and prove
        // it builds the same module.
        let (fingerprint, build): (_, Box<dyn Fn() -> Module + Send + Sync>) = match space {
            AnySpace::MatMul(s) => {
                let workload = MatMulWorkload::new(s.problem);
                (workload.module_fingerprint(), Box::new(move || workload.build_module()))
            }
            AnySpace::Batched(s) => {
                let workload = BatchedMatMulWorkload::new(s.batch);
                (workload.module_fingerprint(), Box::new(move || workload.build_module()))
            }
            AnySpace::Conv(s) => {
                let workload = ConvWorkload::new(s.layer);
                (workload.module_fingerprint(), Box::new(move || workload.build_module()))
            }
        };
        if fingerprint.is_none() || fingerprint != realized.workload.module_fingerprint() {
            return Err(format!(
                "{}: rebuilt workload differs from its realization",
                view.describe()
            ));
        }
        corpus.push(CorpusItem::Realized {
            label: format!("{} / {}", view.describe(), candidate.label()),
            build,
            plan: Box::new(realized.plan),
        });
        taken += 1;
    }
    Ok(())
}

/// The tiling levels the corpus draws from.
fn corpus_options() -> Vec<OptionsPoint> {
    OptionsPoint::cross_cache_tiling(
        &OptionsPoint::axis(),
        &[CacheTiling::Off, CacheTiling::Fixed(16), CacheTiling::Fixed(32)],
    )
}

fn setup_compile_corpus(seed: u64) -> Result<Box<dyn Instance>, String> {
    let mut corpus =
        vec![golden!("matmul8_v1_ns"), golden!("matmul16_v3_as_tiled"), golden!("matmul16_v4_cs")];
    let mut rng = op_seed(seed, 0);
    let generations = |size: i64| -> Vec<AccelInstance> {
        ["v1", "v2", "v3", "v4"]
            .iter()
            .map(|version| {
                AccelInstance::parse(&format!("{version}_{size}")).expect("a Table I label")
            })
            .collect()
    };
    for (dims, size, count) in [(16, 8, 25), (64, 8, 30), (256, 16, 30)] {
        let space = MatMulSpace::new(MatMulProblem::square(dims))
            .accels(generations(size))
            .options_axis(corpus_options());
        draw(&AnySpace::MatMul(space), count, &mut rng, &mut corpus)?;
    }
    let batched = BatchedSpace::new(BatchedMatMulProblem::new(MatMulProblem::square(32), 4))
        .accels(generations(8))
        .options_axis(corpus_options());
    draw(&AnySpace::Batched(batched), 12, &mut rng, &mut corpus)?;
    let quick = ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 3, out_channels: 16, stride: 1 };
    let mut layers = vec![quick];
    layers.extend(resnet18_layers().into_iter().filter(|layer| layer.in_hw <= 16));
    for layer in layers {
        draw(&AnySpace::Conv(ConvSpace::new(layer)), 4, &mut rng, &mut corpus)?;
    }
    Ok(Box::new(CompileCorpus { corpus }))
}

// ---------------------------------------------------------------------
// hub_small_jobs, hub_remote_sweep
// ---------------------------------------------------------------------

/// Jobs through an in-process hub whose measurements run on in-process
/// remote workers.
struct HubJobs {
    seed: u64,
    spec: SweepSpec,
    /// Alternate each fresh-seed job with a repeat of it.
    repeats: bool,
    /// The same job run locally, seed masked: what every report must equal.
    reference: Vec<SeedlessKey>,
    clients: Vec<Mutex<HubClient>>,
    /// Declared after `clients`, so connections close before the hub is
    /// asked to shut down (its goodbye waits for nobody).
    daemons: Daemons,
}

impl Instance for HubJobs {
    fn op(&self, client: usize, index: u64, tracer: &Tracer) -> OpOutcome {
        let mut outcome = OpOutcome::default();
        let (job_index, fresh) =
            if self.repeats { (index / 2, index.is_multiple_of(2)) } else { (index, true) };
        let stream_index = client as u64 + self.clients.len() as u64 * job_index;
        let job = self.spec.seeded(op_seed(self.seed, stream_index));
        let op = client as u64 + self.clients.len() as u64 * index;
        let mut connection = self.clients[client].lock().expect("hub client poisoned");
        let started = Instant::now();
        let span = tracer.open("op", None, op);
        let (report, timeline, _) = run_hub_job(&mut connection, &job, tracer, false);
        tracer.close(span);
        outcome.millis = started.elapsed().as_secs_f64() * 1e3;
        record_job_spans(tracer, span, op, &timeline);
        outcome.fresh = Some(fresh);
        outcome.counts.events = timeline.events;
        let expect = if fresh {
            Expect::Sims(self.spec.cold_sims)
        } else {
            Expect::Hits(self.spec.warm_hits)
        };
        let checked = report.and_then(|report| {
            outcome.counts.add_report(&report);
            add_remote_tallies(&mut outcome.tallies, &report, &timeline);
            check_report(&report, expect)?;
            if seedless_keys(&report) != self.reference {
                return Err(format!("{}: hub report differs from the local run", report.space));
            }
            Ok(())
        });
        if let Err(failure) = checked {
            outcome.counts.rejected += u64::from(failure.contains("rejected"));
            outcome.failure = Some(failure);
        }
        outcome.work = if self.repeats { 1 } else { outcome.counts.sims };
        outcome
    }

    fn hub(&self) -> Option<(&str, &SweepSpec)> {
        Some((self.daemons.hub_addr(), &self.spec))
    }
}

/// What a remote job's report and timeline say about the measurement
/// fan-out: the hub's wall time for the job against the workers' own
/// simulation time, and how evenly the workers were loaded. (The client
/// cannot time the rung itself: the hub forwards a job's events between
/// 50 ms socket reads, so they arrive in one batch.)
fn add_remote_tallies(
    tallies: &mut Tallies,
    report: &axi4mlir_core::explore::ExploreReport,
    timeline: &crate::ops::JobTimeline,
) {
    if report.full_sims_performed == 0 {
        return;
    }
    if let Some(elapsed) = timeline.hub_elapsed_ns {
        tallies.add("remote.job_wall.ns", elapsed);
        tallies.add("remote.worker_sim.ns", report.full_sim_nanos as f64);
        tallies.add("remote.sims", report.full_sims_performed as f64);
    }
    let loads: Vec<usize> = report.worker_sims.iter().map(|(_, sims)| *sims).collect();
    if let (Some(min), Some(max)) = (loads.iter().min(), loads.iter().max()) {
        // A worker that measured nothing is absent from the report.
        let min = if loads.len() < SIM_WORKERS { 0 } else { *min };
        tallies.add("worker.balance.sum", min as f64 / (*max).max(1) as f64);
        tallies.add("worker.balance.jobs", 1.0);
    }
}

fn setup_hub(
    seed: u64,
    spec: SweepSpec,
    executors: usize,
    clients: usize,
    repeats: bool,
) -> Result<Box<dyn Instance>, String> {
    let tracer = Tracer::new(false);
    let local = run_sweep(&Explorer::new(), &spec.seeded(seed), SIM_WORKERS, &tracer, None, 0)?;
    check_report(&local, Expect::Sims(spec.cold_sims))?;
    let daemons = Daemons::start(executors, SIM_WORKERS, SIM_WORKERS)?;
    let clients = (0..clients)
        .map(|_| HubClient::connect(daemons.hub_addr()).map(Mutex::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|err| err.message)?;
    Ok(Box::new(HubJobs {
        seed,
        spec,
        repeats,
        reference: seedless_keys(&local),
        clients,
        daemons,
    }))
}

fn setup_hub_small_jobs(seed: u64) -> Result<Box<dyn Instance>, String> {
    let spec = SweepSpec { job: matmul_job(16, &["v4_8"]), cold_sims: 32, warm_hits: 32 };
    setup_hub(seed, spec, 2, 2, true)
}

fn setup_hub_remote_sweep(seed: u64) -> Result<Box<dyn Instance>, String> {
    setup_hub(seed, cold_spec(), 1, 1, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_seeds_of_nearby_run_seeds_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..4u64 {
            for index in [0, 1, 399, CACHED_INDEX, WARMUP_BASE, WARMUP_BASE + WARMUP_OPS] {
                assert!(seen.insert(op_seed(seed, index)), "seed {seed} index {index}");
            }
        }
    }

    #[test]
    fn every_kind_has_a_reference_workload_that_provides_it() {
        for kind in KINDS {
            assert!(reference_for(kind).kinds.contains(&kind), "{kind:?}");
        }
        assert!(find("sweep_cold").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn the_draw_is_seeded() {
        let (mut a, mut b, mut c) = (7u64, 7u64, 8u64);
        let first: Vec<u64> = (0..4).map(|_| splitmix(&mut a)).collect();
        assert_eq!(first, (0..4).map(|_| splitmix(&mut b)).collect::<Vec<_>>());
        assert_ne!(first, (0..4).map(|_| splitmix(&mut c)).collect::<Vec<_>>());
    }
}

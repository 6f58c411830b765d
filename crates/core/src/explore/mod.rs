//! Workload- and generation-generic design-space exploration (the §IV-C
//! search, at scale).
//!
//! The paper's heuristics pick one `(flow, tile)` configuration
//! analytically, for MatMul on the flexible v4 accelerator. This module
//! *searches* instead — and is generic over what it searches:
//!
//! - a [`DesignSpace`] names the candidates: workload problem ×
//!   accelerator generation/base × flow × tile × [`PipelineOptions`]
//!   point. [`MatMulSpace`], [`BatchedSpace`], and [`ConvSpace`] ship
//!   in-tree, each with its own legality/capacity rules (enumerated in
//!   [`axi4mlir_heuristics::space`]) and an analytical traffic estimate
//!   per candidate — the cost hook that lets [`Prune`] and the halving
//!   ranking work on any space;
//! - a [`Search`] strategy decides which candidates are measured:
//!   [`Search::Exhaustive`] measures every survivor of the prune, while
//!   [`Search::Halving`] ranks by the transfer model and promotes
//!   survivors through rounds of increasing measurement fidelity
//!   (proxy problems growing toward the full one);
//! - the [`Explorer`] measures candidates on worker threads (one
//!   recycled-SoC [`Session`] each; results are bit-identical to fresh
//!   runs and independent of the worker count) behind a result cache
//!   keyed by the structured [`CandidateKey`] — and the cache persists:
//!   [`Explorer::with_cache_dir`] / [`Explorer::save_cache_dir`] load and
//!   merge-save a sharded `BENCH_cache/` directory (see [`shard`]) so
//!   repeated sweeps and CI runs share work;
//! - an [`Objective`] set turns the sweep multi-objective:
//!   [`Explorer::explore_streaming`] scores every evaluation under each
//!   objective and the report exposes the non-dominated
//!   [`ExploreReport::pareto_front`] plus where the paper's analytical
//!   pick lands relative to it (see [`pareto`]).
//!
//! Each phase has one door: [`JobSpec::build`] validates a request into
//! an [`ExploreRequest`], [`Explorer::explore_streaming`] runs it, and
//! the sharded directory is the only persisted form.
//!
//! [`PipelineOptions`]: crate::options::PipelineOptions
//! [`Session`]: crate::driver::Session

pub mod audit;
pub mod cache;
pub mod jobspec;
pub mod measure;
pub mod pareto;
pub mod search;
pub mod shard;
pub mod space;
pub mod transfer;
pub mod wire;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};

use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::diag::Diagnostic;

pub use audit::audit_candidate;
pub use axi4mlir_heuristics::objective::Objective;
use cache::CachedEval;
pub use cache::CACHE_SCHEMA;
pub use jobspec::{AnySpace, ExploreRequest, JobSpec};
pub use measure::{RemotePool, WORKER_SCHEMA};
pub use search::{HalvingSpec, Search};
pub use space::{
    realize, AccelInstance, BatchedSpace, Candidate, CandidateKey, ConvSpace, DesignSpace, Device,
    Fidelity, Flow, MatMulSpace, MatMulVersion, OptionsPoint, Problem,
};
pub use transfer::TransferModel;

/// How aggressively the analytical model prunes the space before any
/// simulation runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Prune {
    /// Measure every legal candidate (brute force).
    None,
    /// Keep the `n` candidates with the smallest estimated traffic.
    KeepBest(usize),
    /// Keep candidates whose estimated traffic is within `factor`× of the
    /// smallest estimate (`factor >= 1.0`).
    WithinFactor(f64),
}

/// The analytical rank the prune (and the halving round 0) sorts by: the
/// objective's transfer-model estimate where it has one, the estimated
/// traffic otherwise (task-clock and occupancy are not estimable before
/// simulation), tie-broken by total words then transactions.
fn estimate_rank(candidate: &Candidate, objective: Objective) -> (u64, u64, u64) {
    let words = candidate.estimate.words_total();
    (
        objective.estimate(&candidate.estimate).unwrap_or(words),
        words,
        candidate.estimate.transactions,
    )
}

/// Applies a [`Prune`] strategy to any space's candidates, ranking by
/// `objective`'s analytical extractor and preserving the enumeration
/// order of the survivors. Returns the kept candidates and how many were
/// pruned away.
pub fn prune(
    candidates: Vec<Candidate>,
    strategy: Prune,
    objective: Objective,
) -> (Vec<Candidate>, usize) {
    let total = candidates.len();
    let score = |c: &Candidate| estimate_rank(c, objective).0;
    let kept: Vec<Candidate> = match strategy {
        Prune::None => candidates,
        Prune::KeepBest(n) => {
            let mut ranked: Vec<usize> = (0..candidates.len()).collect();
            ranked.sort_by_key(|&i| (estimate_rank(&candidates[i], objective), i));
            let mut keep = vec![false; candidates.len()];
            for &i in ranked.iter().take(n) {
                keep[i] = true;
            }
            candidates.into_iter().zip(keep).filter_map(|(c, k)| k.then_some(c)).collect()
        }
        Prune::WithinFactor(factor) => {
            let best = candidates.iter().map(score).min().unwrap_or(0);
            let cutoff = (best as f64 * factor.max(1.0)).ceil() as u64;
            candidates.into_iter().filter(|c| score(c) <= cutoff).collect()
        }
    };
    let pruned_out = total - kept.len();
    (kept, pruned_out)
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The candidate (structured key plus analytical estimate).
    pub candidate: Candidate,
    /// Simulator counters for the whole run.
    pub counters: PerfCounters,
    /// Simulated task-clock in milliseconds (the ranking metric).
    pub task_clock_ms: f64,
    /// Whether the run matched the reference kernel.
    pub verified: bool,
    /// Work (MACs) of the measured problem — equals the full problem for
    /// exhaustive sweeps; proxy rounds of a halving search measure less.
    pub work: u64,
    /// Wall-clock compile time per pass (informational: host wall-clock,
    /// not simulated, and excluded from determinism comparisons; empty
    /// for results served from a persisted cache).
    pub pass_ms: Vec<(String, f64)>,
    /// Whether this result came out of the explorer's cache.
    pub from_cache: bool,
}

impl Evaluation {
    /// The deterministic part of the evaluation: everything except the
    /// wall-clock pass timings and the cache provenance. Two sweeps of the
    /// same space must agree on this tuple regardless of worker count.
    pub fn deterministic_key(&self) -> (CandidateKey, PerfCounters, u64, bool) {
        (self.candidate.key, self.counters, self.task_clock_ms.to_bits(), self.verified)
    }
}

/// What one exploration produced.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// The explored space ([`DesignSpace::describe`]).
    pub space: String,
    /// The workload kind (`matmul`, `batched`, `conv`).
    pub workload: String,
    /// The search strategy label (`exhaustive`, `halving`).
    pub search: String,
    /// Legal candidates before pruning.
    pub space_size: usize,
    /// Candidates removed by the analytical prune.
    pub pruned_out: usize,
    /// Candidates the static plan audit rejected before the measure
    /// queue (each failed a `lint::*` check; zero simulations were
    /// spent on them). See [`audit`].
    pub lint_rejected: usize,
    /// Measurements served from the result cache (including the proxy
    /// rounds of a halving search).
    pub cache_hits: usize,
    /// Simulator runs this exploration actually performed.
    pub sims_performed: usize,
    /// The subset of [`Self::sims_performed`] that simulated the *full*
    /// problem (finalist rounds, exhaustive survivors, the heuristic
    /// pick, and proxy rungs that already covered the whole problem).
    pub full_sims_performed: usize,
    /// Wall-clock nanoseconds this sweep spent inside full-fidelity
    /// simulator runs (summed per run, so the figure is a per-worker
    /// throughput basis independent of the worker count; cache hits
    /// contribute nothing).
    pub full_sim_nanos: u64,
    /// Whether a cross-problem transfer model warm-started this sweep.
    pub warm_started: bool,
    /// Candidates the transfer model predicted from configuration-
    /// specific (exact/coarse tier) observations at round 0; zero for
    /// exhaustive searches.
    pub warm_informed: usize,
    /// The measurement pool that executed the sweep's simulations
    /// (`local`, or `remote:N` for a [`RemotePool`] over N workers).
    /// Context only — results are bit-identical across pools.
    pub measure_backend: String,
    /// Simulations performed per measuring worker, sorted by worker
    /// label (`local` for the in-process pool, worker addresses for a
    /// remote pool). Load-balance context; excluded, like timing, from
    /// determinism comparisons.
    pub worker_sims: Vec<(String, usize)>,
    /// Per-worker re-registrations: how many times each remote worker's
    /// connection was lost and the worker later rejoined the pool,
    /// sorted by worker label. Empty for local sweeps and fault-free
    /// remote sweeps. Health context; excluded, like timing, from
    /// determinism comparisons.
    pub worker_reconnects: Vec<(String, usize)>,
    /// The measured candidates: every survivor for an exhaustive search,
    /// the finalists for a halving search.
    pub evaluations: Vec<Evaluation>,
    /// The objectives the sweep was scored under (at least one; the
    /// first is the primary the prune and halving rank by).
    pub objectives: Vec<Objective>,
    /// The space's analytical heuristic pick (if one exists).
    pub heuristic: Option<Candidate>,
    /// The heuristic pick's own measurement.
    pub heuristic_eval: Option<Evaluation>,
}

impl ExploreReport {
    /// Full-fidelity simulator throughput of this sweep, in simulations
    /// per second of in-simulator wall time — the `sims_per_sec` member
    /// of reports and `done` events. `None` when the sweep performed no
    /// full sims (everything was cached).
    pub fn sims_per_sec(&self) -> Option<f64> {
        (self.full_sims_performed > 0 && self.full_sim_nanos > 0)
            .then(|| self.full_sims_performed as f64 / (self.full_sim_nanos as f64 / 1e9))
    }

    /// The measured optimum: smallest task-clock, first in measurement
    /// order among exact ties (deterministic across worker counts).
    pub fn optimum(&self) -> Option<&Evaluation> {
        self.optimum_by(Objective::TaskClock)
    }

    /// The measured optimum under one objective, first in measurement
    /// order among exact ties.
    pub fn optimum_by(&self, objective: Objective) -> Option<&Evaluation> {
        self.evaluations
            .iter()
            .min_by(|a, b| a.objective_value(objective).total_cmp(&b.objective_value(objective)))
    }

    /// Indices (into [`Self::evaluations`]) of the Pareto front under the
    /// report's objectives, in measurement order. With a single objective
    /// this degenerates to the evaluations attaining its minimum.
    pub fn pareto_front(&self) -> Vec<usize> {
        pareto::pareto_front(&self.evaluations, &self.objectives)
    }

    /// How far the analytical heuristic lands from the explored optimum:
    /// `heuristic ms / optimum ms` (1.0 = the heuristic found the
    /// optimum; 1.25 = the heuristic is 25% slower).
    pub fn heuristic_gap(&self) -> Option<f64> {
        let h = self.heuristic_eval.as_ref()?;
        let o = self.optimum()?;
        Some(h.task_clock_ms / o.task_clock_ms)
    }

    /// How many measured evaluations Pareto-dominate the heuristic pick
    /// under the report's objectives — `Some(0)` means the paper's
    /// analytical choice sits on (or would extend) the front.
    pub fn heuristic_dominated_by(&self) -> Option<usize> {
        let h = self.heuristic_eval.as_ref()?;
        Some(pareto::dominated_by_count(h, &self.evaluations, &self.objectives))
    }
}

/// A live progress signal from an in-flight exploration, delivered to
/// the `Observer` of [`Explorer::explore_streaming`] on the exploring
/// thread. The hub daemon forwards these to its clients as `event`
/// frames and checkpoints the shared cache between rungs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProgressEvent {
    /// Enumeration and pruning finished; measurement is about to start.
    SpaceReady {
        /// Legal candidates before pruning.
        space_size: usize,
        /// Candidates surviving the analytical prune.
        survivors: usize,
    },
    /// One measurement rung completed: a halving proxy round, the
    /// full-fidelity finalist round, or the single full round of an
    /// exhaustive sweep.
    RungComplete {
        /// The fidelity the rung measured at.
        fidelity: Fidelity,
        /// Candidates still in the race after this rung's promotion.
        survivors: usize,
        /// Simulator runs the rung actually performed.
        sims_performed: usize,
        /// Rung measurements served from the (shared) result cache.
        cache_hits: usize,
        /// The subset of `sims_performed` at full problem fidelity.
        full_sims_performed: usize,
    },
}

/// A progress callback: receives every [`ProgressEvent`] and returns
/// whether the exploration should continue. Returning `false` cancels
/// the sweep at the next rung boundary with a [`CANCELLED`] diagnostic —
/// measurements already taken stay in the cache.
type Observer<'a> = &'a dyn Fn(&ProgressEvent) -> bool;

/// The diagnostic message an observer-cancelled exploration fails with.
const CANCELLED: &str = "exploration cancelled by the observer";

fn notify(observer: Observer, event: ProgressEvent) -> Result<(), Diagnostic> {
    if observer(&event) {
        Ok(())
    } else {
        Err(Diagnostic::error(CANCELLED))
    }
}

/// Simulation counters for one sweep, owned by the thread running it and
/// folded from what each drained rung returns. A report must charge a
/// sweep only for the simulations *it* ran — deltas of the engine-wide
/// counters double-count when sweeps run concurrently (each sees the
/// other's window).
#[derive(Default)]
pub(crate) struct SweepStats {
    pub(crate) sims: usize,
    pub(crate) full_sims: usize,
    full_sim_nanos: u64,
    /// Simulations per measuring worker (`local` for the in-process
    /// pool, the worker's address for a remote pool) — the report's
    /// load-balance context.
    worker_sims: BTreeMap<String, usize>,
    /// Re-registrations per remote worker — the report's worker-health
    /// context.
    worker_reconnects: BTreeMap<String, usize>,
}

impl SweepStats {
    /// Accounts one performed simulation to `worker`.
    fn record_sim(&mut self, worker: &str, is_full: bool, nanos: u64) {
        self.sims += 1;
        if is_full {
            self.full_sims += 1;
            self.full_sim_nanos += nanos;
        }
        tally(&mut self.worker_sims, worker);
    }
}

fn tally(counts: &mut BTreeMap<String, usize>, worker: &str) {
    match counts.get_mut(worker) {
        Some(count) => *count += 1,
        None => {
            counts.insert(worker.to_owned(), 1);
        }
    }
}

/// Everything concurrent sweeps on one [`Explorer`] share, under its one
/// lock (the "Shared state" table of `docs/ARCHITECTURE.md` has the
/// invariants): a key is in `cache` or in `claimed`, never both.
#[derive(Default)]
struct Engine {
    cache: HashMap<CandidateKey, CachedEval>,
    /// Keys being simulated right now, by any sweep: a concurrent sweep
    /// that wants one waits for it instead of simulating it again.
    claimed: HashSet<CandidateKey>,
    /// Workloads measured since the last [`Explorer::save_cache_dir`]:
    /// their shards are the ones the next save must write.
    dirty: HashSet<Problem>,
    evals_performed: usize,
    dedup_hits: usize,
    /// Moves after every change a parked backend worker can be waiting
    /// for (see [`measure`]).
    epoch: u64,
}

/// A reusable exploration engine with a cross-sweep, persistable result
/// cache.
///
/// One `Explorer` can serve many spaces; configurations already measured
/// (same [`CandidateKey`], which spells out the problem, accelerator
/// instantiation, flow, tile, options point, and seed) are returned from
/// the cache instead of re-simulated — within a process, and across
/// processes via [`Explorer::with_cache_dir`] / [`Explorer::save_cache_dir`].
#[derive(Default)]
pub struct Explorer {
    engine: Mutex<Engine>,
    /// Notified whenever `Engine::epoch` moves.
    progress: Condvar,
    /// The cross-problem transfer model a warm-started search ranks by.
    warm: Option<TransferModel>,
    /// Where sweeps measure: `axi4mlir-worker` daemons when set, the
    /// in-process thread pool otherwise.
    remote: Option<RemotePool>,
}

impl Explorer {
    /// A fresh engine with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn engine(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().expect("explorer engine poisoned")
    }

    /// Moves the epoch and wakes every parked backend worker. Called with
    /// the engine locked, *after* the change being announced is visible.
    fn announce(&self, engine: &mut Engine) {
        engine.epoch += 1;
        self.progress.notify_all();
    }

    /// Parks until the epoch is no longer `seen` — the one an empty-handed
    /// `try_claim` reported.
    fn wait_for_progress(&self, seen: u64) {
        let mut engine = self.engine();
        while engine.epoch == seen {
            engine = self.progress.wait(engine).expect("explorer engine poisoned");
        }
    }

    /// An engine warmed from a sharded cache directory (see [`shard`]):
    /// every `*.json` file in `dir` is loaded and merged. A missing
    /// directory yields an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for unreadable files or directories.
    pub fn with_cache_dir(dir: &Path) -> Result<Self, Diagnostic> {
        let engine = Engine { cache: shard::load_dir(dir)?, ..Engine::default() };
        Ok(Self { engine: Mutex::new(engine), ..Self::default() })
    }

    /// Makes subsequent sweeps measure on `pool`'s `axi4mlir-worker`
    /// daemons instead of the in-process thread pool.
    pub fn set_remote_pool(&mut self, pool: RemotePool) {
        self.remote = Some(pool);
    }

    /// Installs a cross-problem [`TransferModel`]: subsequent
    /// [`Search::Halving`] sweeps rank round 0 by its calibrated clock
    /// predictions and, when it covers the field, pre-cut the candidate
    /// set and promote fewer finalists (see [`search`]).
    pub fn set_warm_start(&mut self, model: TransferModel) {
        self.warm = (!model.is_empty()).then_some(model);
    }

    /// Whether a (non-empty) transfer model is installed.
    pub fn is_warm_started(&self) -> bool {
        self.warm.is_some()
    }

    /// Fits a cross-problem [`TransferModel`] from everything this
    /// engine's cache currently holds (in-memory results plus whatever
    /// [`Explorer::with_cache_dir`] loaded).
    pub fn transfer_model(&self) -> TransferModel {
        TransferModel::fit(&self.engine().cache)
    }

    /// Checkpoints this engine's results into the sharded cache layout
    /// under `dir`, writing **only dirty shards** — shards holding keys
    /// measured since the last save — and copying only their entries out
    /// of the engine. Each written shard is merged over its on-disk
    /// content with the commutative [`shard::merge`], so concurrent
    /// savers combine instead of clobbering. Clean shards are not touched
    /// at all.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors as [`Diagnostic`]s; the dirty set is
    /// preserved on failure so the next checkpoint retries.
    pub fn save_cache_dir(&self, dir: &Path) -> Result<shard::SaveStats, Diagnostic> {
        let mut fresh = HashMap::new();
        let mut clean: HashSet<Problem> = HashSet::new();
        let (dirty, entries) = {
            let mut engine = self.engine();
            let dirty = std::mem::take(&mut engine.dirty);
            for (key, eval) in &engine.cache {
                if dirty.contains(&key.workload) {
                    fresh.insert(*key, eval.clone());
                } else {
                    clean.insert(key.workload);
                }
            }
            (dirty, engine.cache.len())
        };
        let shards: BTreeSet<String> =
            dirty.iter().map(|workload| shard::shard_name(&workload.to_string())).collect();
        match shard::save_dir(dir, &fresh, &shards) {
            Ok(stats) => Ok(shard::SaveStats { skipped: clean.len(), entries, ..stats }),
            Err(err) => {
                self.engine().dirty.extend(dirty);
                Err(err)
            }
        }
    }

    /// Entry counts per shard of the current in-memory cache, sorted by
    /// shard name (the `--cache-dir` verbose listing).
    pub fn shard_counts(&self) -> Vec<(String, usize)> {
        shard::shard_counts(&self.engine().cache).into_iter().collect()
    }

    /// How many simulator runs this engine has actually performed (cache
    /// hits excluded).
    pub fn evals_performed(&self) -> usize {
        self.engine().evals_performed
    }

    /// How many measurements were served from the cache *because of
    /// concurrency*: a pending candidate turned out to be already
    /// measured (or in flight) under a concurrent sweep sharing this
    /// engine, so it was not simulated again. Zero for a lone sweep.
    pub fn dedup_hits(&self) -> usize {
        self.engine().dedup_hits
    }

    /// How many results the cache currently holds.
    pub fn cache_len(&self) -> usize {
        self.engine().cache.len()
    }

    /// Runs one exploration of any space: enumerate, audit, prune,
    /// search (measuring in parallel through the cache), and relate the
    /// space's heuristic pick to the measured optimum — the single
    /// entry point, shared by the CLI, the hub daemon, and the tests.
    ///
    /// The sweep is scored under `objectives` (empty defaults to
    /// task-clock only). The first objective is the *primary*: the
    /// analytical prune ranks by its transfer-model extractor, and a
    /// [`Search::Halving`] promotes by it too. Every objective
    /// contributes a coordinate to the report's
    /// [`ExploreReport::pareto_front`].
    ///
    /// The `Observer` sees a [`ProgressEvent::SpaceReady`] once the
    /// space is enumerated and a [`ProgressEvent::RungComplete`] after
    /// every measurement rung, and can cancel the sweep at any of those
    /// boundaries by returning `false` (measurements already taken stay
    /// cached); callers with nothing to watch pass `&|_| true`. The hub
    /// turns events into streamed client frames and rung boundaries into
    /// incremental cache checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates enumeration diagnostics and the first failing
    /// candidate's [`Diagnostic`] (by measurement order, independent of
    /// the worker count); fails with a `CANCELLED` diagnostic when the
    /// observer stops the sweep.
    pub fn explore_streaming(
        &self,
        space: &dyn DesignSpace,
        prune_strategy: Prune,
        search: &Search,
        workers: usize,
        objectives: &[Objective],
        observer: Observer,
    ) -> Result<ExploreReport, Diagnostic> {
        let objectives: Vec<Objective> =
            if objectives.is_empty() { vec![Objective::TaskClock] } else { objectives.to_vec() };
        let primary = objectives[0];
        let all = space.enumerate()?;
        if all.is_empty() {
            return Err(Diagnostic::error(format!(
                "design space for {} is empty",
                space.describe()
            )));
        }
        let space_size = all.len();
        // The static plan audit: candidates whose realized plan fails a
        // lint check are rejected *before* the measure queue — they
        // would abort the simulator mid-sweep, and cost nothing to
        // reject here. The verdict depends only on the realized
        // accelerator configuration, so it is memoized per
        // (accelerator, flow, tile) across the options axis.
        let mut lint_rejected = 0usize;
        let mut first_rejection: Option<Diagnostic> = None;
        /// Audit-verdict memo key: (accelerator, flow, tile) — the only
        /// fields the verdict depends on (options and seed do not).
        type AuditMemoKey = (Device, Flow, (i64, i64, i64));
        let mut verdicts: HashMap<AuditMemoKey, Option<Diagnostic>> = HashMap::new();
        let mut admitted = Vec::with_capacity(all.len());
        for candidate in all {
            let memo = (candidate.key.accel, candidate.key.flow, candidate.key.tile);
            let verdict = match verdicts.get(&memo) {
                Some(verdict) => verdict.clone(),
                None => {
                    let verdict = audit::audit_candidate(space, &candidate).err();
                    verdicts.insert(memo, verdict.clone());
                    verdict
                }
            };
            match verdict {
                None => admitted.push(candidate),
                Some(finding) => {
                    lint_rejected += 1;
                    first_rejection.get_or_insert(finding);
                }
            }
        }
        if admitted.is_empty() {
            let finding = first_rejection.expect("a non-empty space was fully rejected");
            let mut diag = Diagnostic::error(format!(
                "every candidate failed the plan audit: {}",
                finding.message
            ));
            if let Some(code) = finding.code {
                diag = diag.with_code(code);
            }
            return Err(diag);
        }
        let (candidates, pruned_out) = prune(admitted, prune_strategy, primary);
        // Sweep-local accounting: concurrent sweeps on this engine share
        // its cache and counters, so the report cannot use global deltas.
        let mut stats = SweepStats::default();
        notify(observer, ProgressEvent::SpaceReady { space_size, survivors: candidates.len() })?;

        let (evaluations, proxy_hits, warm_informed) = match search {
            Search::Exhaustive => {
                let evals = self.measure_set(&candidates, Fidelity::Full, workers, &mut stats)?;
                notify(
                    observer,
                    ProgressEvent::RungComplete {
                        fidelity: Fidelity::Full,
                        survivors: evals.len(),
                        sims_performed: stats.sims,
                        cache_hits: evals.iter().filter(|e| e.from_cache).count(),
                        full_sims_performed: stats.full_sims,
                    },
                )?;
                (evals, 0, 0)
            }
            Search::Halving(spec) => {
                self.run_halving(candidates, spec, workers, primary, observer, &mut stats)?
            }
        };
        let cache_hits = proxy_hits + evaluations.iter().filter(|e| e.from_cache).count();

        // The heuristic pick, measured through the same cache path. Its
        // configuration is usually one of the measured candidates, so this
        // is a cache hit unless pruning or halving dropped it.
        let heuristic = space.heuristic();
        let heuristic_eval = match &heuristic {
            // The heuristic pick goes through the same audit gate as the
            // sweep's candidates: a statically-broken pick is reported
            // unmeasured rather than simulated.
            Some(choice) if audit::audit_candidate(space, choice).is_ok() => self
                .measure_set(std::slice::from_ref(choice), Fidelity::Full, 1, &mut stats)?
                .into_iter()
                .next(),
            _ => None,
        };

        Ok(ExploreReport {
            space: space.describe(),
            workload: space.workload_kind().to_owned(),
            search: search.label().to_owned(),
            space_size,
            pruned_out,
            lint_rejected,
            cache_hits,
            sims_performed: stats.sims,
            full_sims_performed: stats.full_sims,
            full_sim_nanos: stats.full_sim_nanos,
            warm_started: self.warm.is_some(),
            warm_informed,
            measure_backend: measure::describe_pool(self.remote.as_ref()),
            worker_sims: stats.worker_sims.into_iter().collect(),
            worker_reconnects: stats.worker_reconnects.into_iter().collect(),
            evaluations,
            objectives,
            heuristic,
            heuristic_eval,
        })
    }

    /// Measures every candidate at one fidelity, fanning cache misses out
    /// over `workers` threads. Results come back in candidate order.
    pub(crate) fn measure_set(
        &self,
        candidates: &[Candidate],
        fidelity: Fidelity,
        workers: usize,
        stats: &mut SweepStats,
    ) -> Result<Vec<Evaluation>, Diagnostic> {
        // Derive each candidate's fidelity-adjusted identity and work,
        // then partition into cache hits and pending measurements. A
        // proxy whose key equals the full key has saturated: simulating
        // it *is* a full-fidelity simulation, and the full-sims
        // accounting must say so.
        let mut meta: Vec<(CandidateKey, u64, bool)> = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            let (key, work) = candidate.key.at(fidelity)?;
            meta.push((key, work, key == candidate.key.at(Fidelity::Full)?.0));
        }
        let mut slots: Vec<Option<Evaluation>> = Vec::with_capacity(candidates.len());
        let mut pending: Vec<usize> = Vec::new();
        {
            let engine = self.engine();
            for (i, (key, work, _)) in meta.iter().enumerate() {
                match engine.cache.get(key) {
                    Some(hit) => {
                        slots.push(Some(hit.to_evaluation(candidates[i].clone(), *work, true)));
                    }
                    None => {
                        slots.push(None);
                        pending.push(i);
                    }
                }
            }
        }

        // Measure the pending candidates on the installed pool. The queue
        // owns everything that keeps reports deterministic — cross-sweep
        // claim deduplication, publish-before-release — so the local and
        // the remote pool produce identical results at any worker count.
        if !pending.is_empty() {
            let workers = workers.clamp(1, pending.len());
            let drained = measure::drain(self, candidates, &meta, fidelity, workers, pending)?;
            for worker in drained.reconnects {
                tally(&mut stats.worker_reconnects, worker);
            }
            // `done` is in candidate order, so the error reported is the
            // earliest failing candidate's, independent of scheduling.
            for done in drained.done {
                let eval = done.result?;
                let (_, work, is_full) = meta[done.index];
                if let Some((worker, nanos)) = done.measured {
                    stats.record_sim(worker, is_full, nanos);
                }
                let served = done.measured.is_none();
                slots[done.index] =
                    Some(eval.to_evaluation(candidates[done.index].clone(), work, served));
            }
        }
        Ok(slots.into_iter().map(|s| s.expect("every slot filled")).collect())
    }
}

impl CachedEval {
    fn to_evaluation(&self, candidate: Candidate, work: u64, from_cache: bool) -> Evaluation {
        Evaluation {
            candidate,
            counters: self.counters,
            task_clock_ms: self.task_clock_ms,
            verified: self.verified,
            work,
            pass_ms: self.pass_ms.clone(),
            from_cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_workloads::matmul::MatMulProblem;

    fn small_space() -> MatMulSpace {
        MatMulSpace::new(MatMulProblem::new(16, 16, 16)).accels(vec![AccelInstance::v4(8)]).seed(7)
    }

    fn small_candidates() -> Vec<Candidate> {
        small_space().enumerate().unwrap()
    }

    #[test]
    fn enumeration_is_deterministic_and_capacity_filtered() {
        let a = small_candidates();
        let b = small_candidates();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        // 2 edges per dim (8, 16), 4 flows.
        assert_eq!(a.len(), 2 * 2 * 2 * 4);
        let tight = small_space().capacity_words(3 * 8 * 8);
        assert_eq!(tight.enumerate().unwrap().len(), 4, "only the 8x8x8 tile fits");
    }

    #[test]
    fn keep_best_prunes_to_n_preserving_order() {
        let all = small_candidates();
        let (kept, dropped) = prune(all.clone(), Prune::KeepBest(5), Objective::DmaWords);
        assert_eq!(kept.len(), 5);
        assert_eq!(dropped, all.len() - 5);
        // Survivors appear in the same relative order as the enumeration.
        let mut cursor = 0;
        for c in &kept {
            let at = all[cursor..].iter().position(|x| x == c).expect("kept ⊆ all");
            cursor += at + 1;
        }
        // The best estimate always survives.
        let best = all.iter().map(|c| c.estimate.words_total()).min().unwrap();
        assert!(kept.iter().any(|c| c.estimate.words_total() == best));
    }

    #[test]
    fn within_factor_keeps_everything_at_infinity_and_best_at_one() {
        let all = small_candidates();
        let (kept, _) = prune(all.clone(), Prune::WithinFactor(f64::INFINITY), Objective::DmaWords);
        assert_eq!(kept.len(), all.len());
        let best = all.iter().map(|c| c.estimate.words_total()).min().unwrap();
        let (kept, _) = prune(all, Prune::WithinFactor(1.0), Objective::DmaWords);
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|c| c.estimate.words_total() == best));
    }

    #[test]
    fn prune_ranks_by_the_requested_objective() {
        let all = small_candidates();
        // Transactions and words rank candidates differently in general;
        // the transactions prune must keep the transactions minimum.
        let best_txns = all.iter().map(|c| c.estimate.transactions).min().unwrap();
        let (kept, _) = prune(all.clone(), Prune::WithinFactor(1.0), Objective::DmaTransactions);
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|c| c.estimate.transactions == best_txns));
        // Objectives without an analytical extractor fall back to words.
        let (by_clock, _) = prune(all.clone(), Prune::KeepBest(5), Objective::TaskClock);
        let (by_words, _) = prune(all, Prune::KeepBest(5), Objective::DmaWords);
        assert_eq!(by_clock, by_words);
    }

    #[test]
    fn empty_space_is_a_diagnostic() {
        // Capacity too small for any tile, including the degenerate one.
        let space = small_space().capacity_words(1);
        let err = Explorer::new()
            .explore_streaming(&space, Prune::None, &Search::Exhaustive, 1, &[], &|_| true)
            .unwrap_err();
        assert!(err.message.contains("empty"), "{}", err.message);
    }
}

//! Measurement execution behind the [`Explorer`] scheduler.
//!
//! `Explorer::measure_set` partitions a rung into cache hits and pending
//! candidates and hands the pending ones to `drain`, which runs them on
//! one of two pools over the same `MeasureQueue`:
//!
//! - the local pool: `N` threads, one recycled-SoC [`Session`] each,
//!   pulling claims until the queue drains;
//! - a [`RemotePool`]: claims fanned out to `axi4mlir-worker` daemons over
//!   the [`axi4mlir_support::proto`] NDJSON framing, with a per-worker
//!   in-flight window. A worker that dies mid-rung has its outstanding
//!   claims requeued and its connection retried; the sweep fails only if
//!   *every* worker is gone with work remaining.
//!
//! Both resolve claims through the same queue, so a report produced
//! through a remote pool is bit-identical (excluding wall-clock timing
//! fields) to the local pool's at any worker count.
//!
//! What the locks guard is the "Shared state" table of
//! `docs/ARCHITECTURE.md`. The ordering rule, stated here once: lock the
//! queue before the engine; park holding neither; and make every change a
//! parked worker can be waiting for — a key released, an index requeued by
//! a dropped `MeasureTask`, a result pushed, an inline dedup hit — visible
//! *before* `Explorer::announce` moves the epoch, under that same engine
//! lock. A worker that found nothing to claim holds the epoch it saw under
//! the lock it looked with, so `Explorer::wait_for_progress` needs no
//! timer: any later change has moved the epoch by the time it is checked.
//!
//! The second half of this module is the `axi4mlir-worker/v2` wire
//! vocabulary — the `measure`/`result`/`failed` frames both the remote
//! pool and the worker daemon speak — plus [`handle_measure`], the
//! worker-side entry point. A `measure` frame carries a candidate key and
//! a fidelity, nothing else: the worker decodes the key with
//! [`cache::key_from`], which answers a key that names no buildable
//! configuration with a `failed` frame before anything is built, and runs
//! it through `run_key`, the primitive the local pool runs too.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, write_frame_at, Connection, Frame};

use crate::driver::Session;

use super::cache::{self, CachedEval};
use super::space::{realize, Candidate, CandidateKey, DesignSpace, Fidelity};
use super::Explorer;

/// One resolved candidate of a rung.
pub(super) struct Done<'a> {
    pub(super) index: usize,
    pub(super) result: Result<CachedEval, Diagnostic>,
    /// The worker that simulated it and the nanoseconds that took; `None`
    /// when a concurrent claim landed it in the cache first.
    pub(super) measured: Option<(&'a str, u64)>,
}

/// What a drained rung hands back to the sweep that owns it.
pub(super) struct Drained<'a> {
    /// Every pending candidate's outcome, in candidate order.
    pub(super) done: Vec<Done<'a>>,
    /// One entry per re-registration of a lost remote worker.
    pub(super) reconnects: Vec<&'a str>,
}

/// The report label of the pool sweeps measure on.
pub(super) fn describe_pool(remote: Option<&RemotePool>) -> String {
    remote.map_or_else(|| LOCAL_WORKER.to_owned(), |pool| format!("remote:{}", pool.addrs.len()))
}

/// Measures the `pending` candidates (indices into `candidates`/`meta`)
/// on `explorer`'s pool and returns once every one is resolved: measured,
/// failed, or deduplicated against a concurrent sweep.
///
/// # Errors
///
/// Returns a [`Diagnostic`] when the pool cannot finish the rung (e.g.
/// every remote worker died with work remaining).
pub(super) fn drain<'a>(
    explorer: &'a Explorer,
    candidates: &'a [Candidate],
    meta: &'a [(CandidateKey, u64, bool)],
    fidelity: Fidelity,
    workers: usize,
    pending: Vec<usize>,
) -> Result<Drained<'a>, Diagnostic> {
    let queue = MeasureQueue::new(explorer, candidates, meta, fidelity, workers, pending);
    match &explorer.remote {
        None => drain_local(&queue),
        Some(pool) => pool.drain(&queue)?,
    }
    let QueueState { mut done, reconnects, .. } =
        queue.state.into_inner().expect("measure queue poisoned");
    if done.len() != queue.total {
        return Err(Diagnostic::error(format!(
            "measurement pool resolved {} of {} candidates",
            done.len(),
            queue.total
        )));
    }
    done.sort_by_key(|done| done.index);
    Ok(Drained { done, reconnects })
}

/// One claimed measurement. Dropping a task without completing it
/// releases the claim and requeues the candidate, so an unwinding or
/// disconnected worker can never strand a measurement.
struct MeasureTask<'q, 'a> {
    queue: &'q MeasureQueue<'a>,
    index: usize,
}

impl Drop for MeasureTask<'_, '_> {
    fn drop(&mut self) {
        self.queue.abandon(self.index);
    }
}

/// What [`MeasureQueue::try_claim`] found. The two empty-handed answers
/// carry the engine epoch they were decided at, for
/// `Explorer::wait_for_progress`.
enum Claimed<'q, 'a> {
    /// A candidate to measure.
    Task(MeasureTask<'q, 'a>),
    /// Work remains, but every pending key is currently claimed by a
    /// concurrent sweep (or another worker of this pool).
    Busy(u64),
    /// Nothing is pending. Other workers may still hold tasks — ask
    /// [`MeasureQueue::is_drained`] whether the rung is truly finished.
    Empty(u64),
}

/// What one rung's workers share under the queue's lock. At every unlock
/// an index is in exactly one place: `pending`, a live [`MeasureTask`],
/// or `done`.
struct QueueState<'a> {
    pending: VecDeque<usize>,
    done: Vec<Done<'a>>,
    reconnects: Vec<&'a str>,
}

/// The work-distribution state for one `measure_set` rung: the pending
/// candidates, the claim/dedup logic shared with concurrent sweeps, and
/// the outcomes the owning sweep folds into its report.
struct MeasureQueue<'a> {
    explorer: &'a Explorer,
    candidates: &'a [Candidate],
    /// Per candidate: its fidelity-adjusted key and work, and whether
    /// measuring that key is a full-fidelity simulation.
    meta: &'a [(CandidateKey, u64, bool)],
    fidelity: Fidelity,
    /// The sweep's worker budget (already clamped to the pending size):
    /// local threads, or each remote worker's in-flight window.
    workers: usize,
    total: usize,
    state: Mutex<QueueState<'a>>,
}

impl<'a> MeasureQueue<'a> {
    fn new(
        explorer: &'a Explorer,
        candidates: &'a [Candidate],
        meta: &'a [(CandidateKey, u64, bool)],
        fidelity: Fidelity,
        workers: usize,
        pending: Vec<usize>,
    ) -> Self {
        let total = pending.len();
        let state = QueueState {
            pending: pending.into(),
            done: Vec::with_capacity(total),
            reconnects: Vec::new(),
        };
        Self { explorer, candidates, meta, fidelity, workers, total, state: Mutex::new(state) }
    }

    fn state(&self) -> MutexGuard<'_, QueueState<'a>> {
        self.state.lock().expect("measure queue poisoned")
    }

    /// Whether every pending candidate has been resolved.
    fn is_drained(&self) -> bool {
        self.state().done.len() == self.total
    }

    /// Claims the next measurable candidate, looking at each pending index
    /// once. A key claimed elsewhere is cycled to the back of the queue; a
    /// key already cached (a concurrent sweep landed it first) is resolved
    /// inline as a dedup hit. Claim and lookup are one step under the
    /// engine lock, and `complete` publishes and releases under it too, so
    /// no key is ever simulated while cached.
    fn try_claim<'q>(&'q self) -> Claimed<'q, 'a> {
        let mut state = self.state();
        let mut engine = self.explorer.engine();
        let mut claimed = None;
        let mut served = false;
        for _ in 0..state.pending.len() {
            let index = state.pending.pop_front().expect("one pop per pending index");
            let key = &self.meta[index].0;
            if let Some(hit) = engine.cache.get(key) {
                state.done.push(Done { index, result: Ok(hit.clone()), measured: None });
                engine.dedup_hits += 1;
                served = true;
            } else if engine.claimed.insert(*key) {
                claimed = Some(index);
                break;
            } else {
                state.pending.push_back(index);
            }
        }
        if served {
            self.explorer.announce(&mut engine);
        }
        match claimed {
            Some(index) => Claimed::Task(MeasureTask { queue: self, index }),
            None if state.pending.is_empty() => Claimed::Empty(engine.epoch),
            None => Claimed::Busy(engine.epoch),
        }
    }

    /// Resolves a claim: publishes a successful measurement to the shared
    /// cache, releases the claim and records the outcome — with the
    /// measuring `worker`, for the report's per-worker sim counts — as one
    /// step, then announces it.
    fn complete(
        &self,
        task: MeasureTask<'_, 'a>,
        result: Result<CachedEval, Diagnostic>,
        nanos: u64,
        worker: &'a str,
    ) {
        let index = task.index;
        std::mem::forget(task); // resolved: skip the requeue-on-drop path
        let key = self.meta[index].0;
        let published = result.as_ref().ok().cloned();
        let mut state = self.state();
        let mut engine = self.explorer.engine();
        if let Some(eval) = published {
            engine.cache.insert(key, eval);
            engine.dirty.insert(key.workload);
            engine.evals_performed += 1;
        }
        engine.claimed.remove(&key);
        state.done.push(Done { index, result, measured: Some((worker, nanos)) });
        self.explorer.announce(&mut engine);
    }

    /// Records that `worker` came back after its connection was lost —
    /// surfaced as `worker_reconnects` in the sweep report.
    fn record_reconnect(&self, worker: &'a str) {
        self.state().reconnects.push(worker);
    }

    fn abandon(&self, index: usize) {
        let mut state = self.state();
        let mut engine = self.explorer.engine();
        engine.claimed.remove(&self.meta[index].0);
        state.pending.push_back(index);
        self.explorer.announce(&mut engine);
    }
}

// ---------------------------------------------------------------------
// Local pool
// ---------------------------------------------------------------------

/// The worker label local measurements are recorded under.
const LOCAL_WORKER: &str = "local";

/// The in-process measurement pool: `queue.workers` threads, each owning
/// one recycled-SoC [`Session`] for the rung.
fn drain_local(queue: &MeasureQueue<'_>) {
    std::thread::scope(|scope| {
        for _ in 0..queue.workers {
            scope.spawn(|| {
                let mut session = Session::for_sweep();
                loop {
                    match queue.try_claim() {
                        Claimed::Task(task) => {
                            let started = Instant::now();
                            let key = &queue.candidates[task.index].key;
                            let result = run_key(&mut session, key, queue.fidelity);
                            let nanos = started.elapsed().as_nanos() as u64;
                            queue.complete(task, result, nanos, LOCAL_WORKER);
                        }
                        Claimed::Busy(epoch) => queue.explorer.wait_for_progress(epoch),
                        Claimed::Empty(_) => break,
                    }
                }
            });
        }
    });
}

/// Realizes `key` at `fidelity` (the one realization a measured candidate
/// gets) and compiles and runs it on `session`'s recycled SoC — the
/// execution primitive both the local pool and the worker daemon share.
///
/// # Errors
///
/// Propagates realization and simulation diagnostics; a run that fails
/// verification is an error naming the candidate.
fn run_key(
    session: &mut Session,
    key: &CandidateKey,
    fidelity: Fidelity,
) -> Result<CachedEval, Diagnostic> {
    let realized = realize(key, fidelity)?;
    let report = session.run(realized.workload.as_ref(), &realized.plan)?;
    if !report.verified {
        return Err(Diagnostic::error(format!(
            "candidate {} failed verification on {}",
            key.label(),
            realized.key.workload
        )));
    }
    Ok(CachedEval {
        counters: report.counters,
        task_clock_ms: report.task_clock_ms,
        verified: report.verified,
        pass_ms: report.pass_timings.iter().map(|t| (t.pass.clone(), t.millis)).collect(),
    })
}

/// Measures `candidate`'s key at `fidelity` on `session`, exactly as the
/// local pool and the worker daemon do. Kept with this signature only for
/// the frozen benchmark's layer replay (`benchmark/src/layers.rs`);
/// `space` is ignored — the key names everything a run needs.
///
/// # Errors
///
/// Propagates realization and simulation diagnostics; a run that fails
/// verification is an error naming the candidate.
pub fn run_candidate(
    session: &mut Session,
    _space: &dyn DesignSpace,
    candidate: &Candidate,
    fidelity: Fidelity,
) -> Result<CachedEval, Diagnostic> {
    run_key(session, &candidate.key, fidelity)
}

// ---------------------------------------------------------------------
// Remote pool
// ---------------------------------------------------------------------

/// Consecutive failed connection attempts before a pump *may* give up —
/// and it only actually gives up while no other pool worker is
/// connected. While at least one peer is serving the queue, the pump
/// keeps retrying with backoff forever, so a worker that comes back
/// hours later still rejoins.
const RECONNECT_ATTEMPTS: usize = 3;

/// Initial pause between reconnection attempts (doubles per consecutive
/// failure, capped at [`RECONNECT_BACKOFF_CAP`]).
const RECONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling for the exponential reconnect backoff.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_millis(800);

/// How long a connection handshake may take before the worker is
/// declared unreachable.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// The measurement pool that fans claims out to `axi4mlir-worker`
/// daemons. One pump thread per worker keeps up to the sweep's worker
/// budget of requests outstanding, so one huge job cannot monopolize the
/// workers' slots; a worker that dies has its claims requeued (served by
/// the surviving workers) and its address retried with exponential
/// backoff until it re-registers — a pump abandons its address only when
/// the whole pool is unreachable. Re-registrations are recorded on the
/// queue and surface as `worker_reconnects` in the report.
#[derive(Debug)]
pub struct RemotePool {
    addrs: Vec<String>,
    state: Mutex<PoolState>,
}

/// Liveness shared by a pool's pumps across connections and rungs.
#[derive(Debug, Default)]
struct PoolState {
    /// Pumps currently holding a healthy worker connection.
    connected: usize,
    /// Addresses whose last connection was lost. The flag outlives the
    /// rung that observed the loss, so a worker that dies late in one
    /// rung and comes back during a later one is still recorded as a
    /// re-registration.
    lost: HashSet<String>,
}

impl RemotePool {
    /// A pool over the worker daemons at `addrs`.
    pub fn new(addrs: Vec<String>) -> Self {
        Self { addrs, state: Mutex::default() }
    }

    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().expect("pool state poisoned")
    }

    fn drain<'a>(&'a self, queue: &MeasureQueue<'a>) -> Result<(), Diagnostic> {
        if self.addrs.is_empty() {
            return Err(Diagnostic::error("remote measurement pool has no workers"));
        }
        let failures: Vec<Diagnostic> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                self.addrs.iter().map(|addr| scope.spawn(move || self.pump(addr, queue))).collect();
            handles
                .into_iter()
                .filter_map(|handle| handle.join().expect("worker pump panicked").err())
                .collect()
        });
        if queue.is_drained() {
            // Lost workers (if any) only degraded throughput.
            return Ok(());
        }
        Err(failures.into_iter().next().unwrap_or_else(|| {
            Diagnostic::error("remote measurement workers lost with work remaining")
        }))
    }

    /// Drives one worker address for the life of the rung. A lost
    /// connection requeues its outstanding claims (by drop) and is retried
    /// with exponential backoff; a successful reconnect after a loss
    /// re-registers the worker via [`MeasureQueue::record_reconnect`]. The
    /// pump abandons the address only once [`RECONNECT_ATTEMPTS`]
    /// consecutive connects failed *and* no other pump in the pool is
    /// connected — while any peer is serving the queue, a dead worker's
    /// address keeps being retried so it can rejoin whenever it comes back.
    fn pump<'a>(&'a self, addr: &'a str, queue: &MeasureQueue<'a>) -> Result<(), Diagnostic> {
        let mut failures = 0usize;
        loop {
            if queue.is_drained() {
                return Ok(());
            }
            let mut conn = match connect(addr) {
                Ok(conn) => conn,
                Err(err) => {
                    failures += 1;
                    if failures >= RECONNECT_ATTEMPTS && self.state().connected == 0 {
                        return Err(err);
                    }
                    let backoff = RECONNECT_BACKOFF
                        .saturating_mul(1 << (failures - 1).min(4) as u32)
                        .min(RECONNECT_BACKOFF_CAP);
                    std::thread::sleep(backoff);
                    continue;
                }
            };
            failures = 0;
            let rejoined = {
                let mut state = self.state();
                state.connected += 1;
                // The loss flag lives on the pool, not this pump: a worker
                // that died in an earlier rung and reconnects here is still
                // a re-registration.
                state.lost.remove(addr)
            };
            if rejoined {
                queue.record_reconnect(addr);
            }
            let served = serve_worker(addr, &mut conn, queue);
            let mut state = self.state();
            state.connected -= 1;
            match served {
                Served::Drained => return Ok(()),
                Served::Lost => {
                    state.lost.insert(addr.to_owned());
                }
            }
        }
    }
}

fn io_err(addr: &str, what: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("worker {addr}: {what}"))
}

fn connect(addr: &str) -> Result<Connection, Diagnostic> {
    let stream =
        TcpStream::connect(addr).map_err(|err| io_err(addr, format!("cannot connect: {err}")))?;
    let mut conn = Connection::open(stream)
        .map_err(|err| io_err(addr, format!("socket setup failed: {err}")))?;
    write_frame(&mut conn.writer, &JsonValue::object([("type".to_owned(), "hello".into())]))
        .map_err(|err| io_err(addr, format!("hello failed: {err}")))?;
    let deadline = Instant::now() + HELLO_DEADLINE;
    loop {
        match conn.reader.next_frame() {
            Ok(Frame::Value(frame)) => {
                let schema = frame.members("hello").and_then(|hello| hello.str("schema"));
                let schema = schema.unwrap_or("no schema");
                if schema != WORKER_SCHEMA {
                    return Err(io_err(
                        addr,
                        format!("speaks {schema} (expected {WORKER_SCHEMA})"),
                    ));
                }
                return Ok(conn);
            }
            Ok(Frame::Idle) if Instant::now() < deadline => continue,
            Ok(Frame::Idle) | Ok(Frame::Eof) => {
                return Err(io_err(addr, "closed during handshake"))
            }
            Err(err) => return Err(io_err(addr, err.message)),
        }
    }
}

/// One worker's reply to a `measure` frame.
enum WorkerReply {
    Result { id: u64, eval: CachedEval, nanos: u64 },
    Failed { id: u64, reason: String },
    Other,
}

/// Decodes a worker frame; an `Err` means the frame is malformed and the
/// connection should be reset.
fn parse_reply(frame: &JsonValue) -> Result<WorkerReply, Diagnostic> {
    let m = frame.members("worker reply")?;
    Ok(match m.str("type")? {
        "result" => WorkerReply::Result {
            id: m.u64("id")?,
            eval: CachedEval::from_members(&m)?,
            nanos: m.u64("nanos")?,
        },
        "failed" => WorkerReply::Failed {
            id: m.u64("id")?,
            reason: m.str("reason").unwrap_or("worker reported failure").to_owned(),
        },
        _ => WorkerReply::Other,
    })
}

/// Why [`serve_worker`] returned.
enum Served {
    /// The queue drained while this connection was healthy.
    Drained,
    /// The connection died (EOF, I/O error, or a malformed frame);
    /// outstanding claims were requeued by drop.
    Lost,
}

/// Runs one healthy connection until the queue drains or the connection
/// dies. Outstanding claims are requeued (by drop) on every exit path
/// that loses the connection, so no candidate is ever lost to a worker
/// death.
fn serve_worker<'a>(addr: &'a str, conn: &mut Connection, queue: &MeasureQueue<'a>) -> Served {
    let mut next_id: u64 = 1;
    let mut outstanding = HashMap::new();
    loop {
        // Keep the in-flight window — the sweep's worker budget — full.
        let mut starved = None;
        while outstanding.len() < queue.workers {
            match queue.try_claim() {
                Claimed::Task(task) => {
                    let key = &queue.candidates[task.index].key;
                    let frame = measure_frame(next_id, queue.fidelity, key);
                    if write_frame_at("pool.send", &mut conn.writer, &frame).is_err() {
                        // `task` and `outstanding` requeue on drop.
                        return Served::Lost;
                    }
                    outstanding.insert(next_id, task);
                    next_id += 1;
                }
                Claimed::Busy(epoch) | Claimed::Empty(epoch) => {
                    starved = Some(epoch);
                    break;
                }
            }
        }
        if outstanding.is_empty() {
            if queue.is_drained() {
                return Served::Drained;
            }
            if let Some(epoch) = starved {
                // Work remains, but none is claimable by us right now
                // (held by concurrent sweeps or other pumps whose death
                // would requeue it). Stay alive until something moves:
                // the epoch predates the `is_drained` answer above.
                queue.explorer.wait_for_progress(epoch);
                continue;
            }
        }
        match conn.reader.next_frame() {
            Ok(Frame::Idle) => continue,
            Ok(Frame::Value(frame)) => match parse_reply(&frame) {
                Ok(WorkerReply::Result { id, eval, nanos }) => {
                    if let Some(task) = outstanding.remove(&id) {
                        queue.complete(task, Ok(eval), nanos, addr);
                    }
                }
                Ok(WorkerReply::Failed { id, reason }) => {
                    if let Some(task) = outstanding.remove(&id) {
                        queue.complete(task, Err(Diagnostic::error(reason)), 0, addr);
                    }
                }
                Ok(WorkerReply::Other) => {}
                Err(_) => return Served::Lost, // malformed: reset the connection
            },
            Ok(Frame::Eof) | Err(_) => return Served::Lost,
        }
    }
}

// ---------------------------------------------------------------------
// The axi4mlir-worker/v2 wire vocabulary
// ---------------------------------------------------------------------

/// The worker protocol schema tag, exchanged in `hello`.
pub const WORKER_SCHEMA: &str = "axi4mlir-worker/v2";

/// Builds a `measure` request: measure `key` at `fidelity`.
fn measure_frame(id: u64, fidelity: Fidelity, key: &CandidateKey) -> JsonValue {
    JsonValue::object([
        ("type".to_owned(), "measure".into()),
        ("id".to_owned(), id.into()),
        ("fidelity".to_owned(), fidelity.label().into()),
        ("key".to_owned(), cache::key_to_json(key)),
    ])
}

/// Builds the `measure` request for `candidate`'s key at `fidelity`.
/// Kept with this signature only for the frozen benchmark's worker replay
/// (`benchmark/src/layers.rs`); `job` is ignored — the frame carries the
/// key, and a key names everything a run needs.
pub fn measure_request(
    id: u64,
    _job: &JsonValue,
    fidelity: Fidelity,
    candidate: &Candidate,
) -> JsonValue {
    measure_frame(id, fidelity, &candidate.key)
}

/// Builds the `result` frame answering measure request `id`.
fn result_frame(id: u64, eval: &CachedEval, nanos: u64) -> JsonValue {
    let mut members = vec![("type".to_owned(), "result".into()), ("id".to_owned(), id.into())];
    members.extend(cache::payload_members(&eval.counters, eval.task_clock_ms, eval.verified));
    members.push(("nanos".to_owned(), nanos.into()));
    JsonValue::object(members)
}

/// Builds the `failed` frame answering measure request `id`.
fn failed_frame(id: u64, reason: &str) -> JsonValue {
    JsonValue::object([
        ("type".to_owned(), "failed".into()),
        ("id".to_owned(), id.into()),
        ("reason".to_owned(), reason.into()),
    ])
}

/// The worker-side execution of one `measure` frame: decode the key,
/// realize it at the requested fidelity, run it on `session`, and answer
/// with a `result` or `failed` frame (the request `id` echoed either
/// way). Transport never sees Rust errors: every failure becomes a
/// `failed` frame.
pub fn handle_measure(session: &mut Session, frame: &JsonValue) -> JsonValue {
    let id = frame.members("measure").and_then(|m| m.u64("id")).unwrap_or(0);
    match run_measure(session, frame) {
        Ok((eval, nanos)) => result_frame(id, &eval, nanos),
        Err(diag) => failed_frame(id, &diag.message),
    }
}

fn run_measure(session: &mut Session, frame: &JsonValue) -> Result<(CachedEval, u64), Diagnostic> {
    let m = frame.members("measure")?;
    let key = cache::key_from(&m.object("key")?)?;
    let fidelity = Fidelity::parse(m.str("fidelity")?)
        .ok_or_else(|| m.invalid("fidelity", "must be a fidelity label"))?;
    let started = Instant::now();
    let eval = run_key(session, &key, fidelity)?;
    Ok((eval, started.elapsed().as_nanos() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_sim::counters::PerfCounters;
    use axi4mlir_workloads::matmul::MatMulProblem;
    use std::net::TcpListener;
    use std::sync::mpsc;

    use super::super::{MatMulSpace, Prune, Search};

    /// Runs `scenario` on a thread of its own under a hard deadline, so a
    /// lost wake-up fails the test instead of hanging the suite.
    fn within_deadline(scenario: impl FnOnce() + Send + 'static) {
        let (finished_tx, finished_rx) = mpsc::channel();
        std::thread::spawn(move || {
            scenario();
            let _ = finished_tx.send(());
        });
        finished_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the scenario finishes (a lost wake-up parks a worker forever)");
    }

    fn space() -> MatMulSpace {
        MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(7)
    }

    /// The 8x8x8 space's candidates and what `measure_set` derives from
    /// them for a full-fidelity rung.
    fn rung() -> (Vec<Candidate>, Vec<(CandidateKey, u64, bool)>) {
        let candidates = space().enumerate().unwrap();
        let meta = candidates
            .iter()
            .map(|candidate| {
                let (key, work) = candidate.key.at(Fidelity::Full).unwrap();
                (key, work, true)
            })
            .collect();
        (candidates, meta)
    }

    fn eval() -> CachedEval {
        CachedEval {
            counters: PerfCounters::new(),
            task_clock_ms: 1.0,
            verified: true,
            pass_ms: Vec::new(),
        }
    }

    /// Two sweeps on one engine want the same key. The worker that finds
    /// it `Busy` reports so *before* the holder drops its task (the channel
    /// forces that order); whether the drop then lands before or after the
    /// worker parks, the epoch it holds predates it, so it must wake, claim
    /// the key and measure it — and the holder's requeued candidate is then
    /// a dedup hit.
    #[test]
    fn a_dropped_foreign_task_wakes_a_worker_parked_on_busy() {
        within_deadline(|| {
            let (candidates, meta) = rung();
            let explorer = Explorer::new();
            let queue = |pending| {
                MeasureQueue::new(&explorer, &candidates, &meta, Fidelity::Full, 1, pending)
            };
            let (foreign, ours) = (queue(vec![0]), queue(vec![0]));
            let Claimed::Task(held) = foreign.try_claim() else { panic!("an unclaimed key") };
            let (saw_busy_tx, saw_busy_rx) = mpsc::channel();
            std::thread::scope(|scope| {
                let worker = scope.spawn(|| {
                    let Claimed::Busy(epoch) = ours.try_claim() else {
                        panic!("the key is held by the foreign sweep")
                    };
                    saw_busy_tx.send(()).unwrap();
                    explorer.wait_for_progress(epoch);
                    let Claimed::Task(task) = ours.try_claim() else {
                        panic!("the dropped key is claimable")
                    };
                    ours.complete(task, Ok(eval()), 1, LOCAL_WORKER);
                });
                saw_busy_rx.recv().unwrap();
                drop(held); // what an unwinding or disconnected worker does
                worker.join().unwrap();
            });
            assert!(ours.is_drained());
            assert!(matches!(foreign.try_claim(), Claimed::Empty(_)), "requeued, then served");
            assert!(foreign.is_drained());
            assert_eq!((explorer.evals_performed(), explorer.dedup_hits()), (1, 1));
        });
    }

    fn next_value(conn: &mut Connection) -> JsonValue {
        loop {
            match conn.reader.next_frame().unwrap() {
                Frame::Value(value) => return value,
                Frame::Idle => continue,
                Frame::Eof => panic!("the pump hung up"),
            }
        }
    }

    /// The result-before-release ordering the 10 ms timer used to paper
    /// over: a pump whose own claim is answered finds the queue `Empty`
    /// while another worker still holds the rung's last task, and has
    /// nothing to read from its socket. The holder's `complete` must make
    /// it return `Drained`. First the hazardous order on one thread —
    /// `Empty` seen, then the complete, then the wait, which must not park
    /// — then a real pump over a loopback socket, where the complete may
    /// land before or after the pump parks; nothing outside the pump can
    /// see which, so that scenario repeats.
    #[test]
    fn a_pump_that_saw_empty_is_drained_by_the_last_foreign_complete() {
        within_deadline(|| {
            let (candidates, meta) = rung();
            {
                let explorer = Explorer::new();
                let queue =
                    MeasureQueue::new(&explorer, &candidates, &meta, Fidelity::Full, 1, vec![0]);
                let Claimed::Task(held) = queue.try_claim() else { panic!("an unclaimed key") };
                let Claimed::Empty(epoch) = queue.try_claim() else { panic!("nothing pending") };
                assert!(!queue.is_drained());
                queue.complete(held, Ok(eval()), 7, "another pump");
                explorer.wait_for_progress(epoch);
                assert!(queue.is_drained());
            }
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            for _ in 0..25 {
                let explorer = Explorer::new();
                let queue =
                    MeasureQueue::new(&explorer, &candidates, &meta, Fidelity::Full, 1, vec![0, 1]);
                let Claimed::Task(held) = queue.try_claim() else { panic!("an unclaimed key") };
                std::thread::scope(|scope| {
                    let pump = scope.spawn(|| {
                        let stream = TcpStream::connect(&addr).unwrap();
                        let mut conn = Connection::open(stream).unwrap();
                        serve_worker(&addr, &mut conn, &queue)
                    });
                    // The worker end: answer the pump's one claim.
                    let mut peer = Connection::open(listener.accept().unwrap().0).unwrap();
                    let request = next_value(&mut peer);
                    let id = request.get("id").and_then(JsonValue::as_u64).unwrap();
                    write_frame(&mut peer.writer, &result_frame(id, &eval(), 5)).unwrap();
                    // Once that result is in, the pump is on its way to
                    // `Empty` with the rung one short of drained.
                    loop {
                        let epoch = explorer.engine().epoch;
                        if queue.state().done.len() == 1 {
                            break;
                        }
                        explorer.wait_for_progress(epoch);
                    }
                    queue.complete(held, Ok(eval()), 7, "another pump");
                    assert!(matches!(pump.join().unwrap(), Served::Drained));
                });
                assert!(queue.is_drained());
            }
        });
    }

    /// A worker that answers `hello` with another schema is refused at the
    /// handshake, and a sweep whose only worker speaks it fails with that
    /// diagnostic instead of sending it a frame it would misread.
    #[test]
    fn a_worker_speaking_another_schema_is_refused_at_hello() {
        within_deadline(|| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            // One direct handshake, then the pump's RECONNECT_ATTEMPTS.
            let fake_worker = std::thread::spawn(move || {
                for stream in listener.incoming().take(1 + RECONNECT_ATTEMPTS) {
                    let mut peer = Connection::open(stream.unwrap()).unwrap();
                    let hello = next_value(&mut peer);
                    assert_eq!(hello.get("type").and_then(JsonValue::as_str), Some("hello"));
                    let reply = r#"{"type":"hello","schema":"axi4mlir-worker/v1","slots":1}"#;
                    write_frame(&mut peer.writer, &JsonValue::parse(reply).unwrap()).unwrap();
                }
            });
            let refusal = "speaks axi4mlir-worker/v1 (expected axi4mlir-worker/v2)";
            let Err(err) = connect(&addr) else { panic!("a v1 worker is refused") };
            assert_eq!(err.message, format!("worker {addr}: {refusal}"));

            let mut explorer = Explorer::new();
            explorer.set_remote_pool(RemotePool::new(vec![addr]));
            let err = explorer
                .explore_streaming(&space(), Prune::None, &Search::Exhaustive, 1, &[], &|_| true)
                .expect_err("no worker speaks the protocol");
            assert!(err.message.contains(refusal), "{}", err.message);
            fake_worker.join().expect("the fake worker saw only hellos");
        });
    }

    #[test]
    fn measure_frames_round_trip_through_the_worker_entry_point() {
        let space = space();
        let candidate = space.enumerate().unwrap().into_iter().next().unwrap();
        // The `job` argument is ignored: the frame is the key and fidelity.
        let request = measure_request(42, &JsonValue::Null, Fidelity::Full, &candidate);
        let members: Vec<&str> =
            request.as_object().unwrap().iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(members, ["type", "id", "fidelity", "key"]);
        let mut session = Session::for_sweep();
        let reply = handle_measure(&mut session, &request);
        assert_eq!(reply.get("type").and_then(JsonValue::as_str), Some("result"));
        assert_eq!(reply.get("id").and_then(JsonValue::as_u64), Some(42));
        let parsed = parse_reply(&reply).unwrap();
        let WorkerReply::Result { id, eval, nanos } = parsed else { panic!("expected result") };
        assert_eq!(id, 42);
        assert!(eval.verified);
        assert!(nanos > 0);

        // The measurement equals a direct local run, bit for bit.
        let direct = run_candidate(&mut session, &space, &candidate, Fidelity::Full).unwrap();
        assert_eq!(eval.counters, direct.counters);
        assert_eq!(eval.task_clock_ms.to_bits(), direct.task_clock_ms.to_bits());
    }

    #[test]
    fn malformed_measure_frames_fail_with_the_id_echoed() {
        let mut session = Session::for_sweep();
        let bad = JsonValue::object([
            ("type".to_owned(), "measure".into()),
            ("id".to_owned(), 9u64.into()),
        ]);
        let reply = handle_measure(&mut session, &bad);
        assert_eq!(reply.get("type").and_then(JsonValue::as_str), Some("failed"));
        assert_eq!(reply.get("id").and_then(JsonValue::as_u64), Some(9));
        let reason = reply.get("reason").and_then(JsonValue::as_str).unwrap();
        assert_eq!(reason, "measure: missing `key`");
    }
}

//! Pluggable measurement execution behind the [`Explorer`] scheduler.
//!
//! `Explorer::measure_set` owns everything that makes reports
//! deterministic and concurrent sweeps cheap — the cache partition, the
//! proxy-saturation accounting, the cross-job in-flight deduplication,
//! and index-ordered error reporting. What it delegates is only the
//! *execution* of a claimed measurement, through [`MeasureBackend`]:
//!
//! - `LocalPool` is the original recycled-session thread pool: `N`
//!   worker threads, one [`Session`] each, pulling claims until the
//!   queue drains;
//! - [`RemotePool`] fans claims out to `axi4mlir-worker` daemons over
//!   the [`axi4mlir_support::proto`] NDJSON framing, with a per-worker
//!   in-flight window. A worker that dies mid-rung has its outstanding
//!   claims requeued and its connection retried; the sweep fails only if
//!   *every* worker is gone with work remaining, so a lost worker
//!   degrades throughput instead of failing the sweep.
//!
//! Both backends publish through the same [`MeasureQueue`], so a report
//! produced through a remote pool is bit-identical (excluding wall-clock
//! timing fields) to the local pool's at any worker count.
//!
//! The second half of this module is the `axi4mlir-worker/v1` wire
//! vocabulary — the `measure`/`result`/`failed` frames both the remote
//! pool and the worker daemon speak — plus [`handle_measure`], the
//! worker-side entry point: it rebuilds the space from the frame's
//! [`JobSpec`] ([`DesignSpace::wire_spec`]) as the protocol documents,
//! but what it runs is named by the candidate's key alone — decoded by
//! [`wire::candidate_from`], which answers a key that names no buildable
//! configuration with a `failed` frame before anything is built.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, write_frame_at, Connection, Frame};

use crate::driver::Session;

use super::cache::{self, CachedEval};
use super::space::{Candidate, CandidateKey, DesignSpace, Fidelity};
use super::{wire, Explorer, JobSpec, SweepStats};

/// One backend worker's result for one candidate index: the outcome plus
/// whether it was served from the cache by a concurrent claim.
pub(crate) type Done = (usize, Result<CachedEval, Diagnostic>, bool);

/// Executes the measurements a [`MeasureQueue`] hands out. The two
/// implementors live in this module (the queue's claim methods are
/// crate-private): they claim tasks with `MeasureQueue::try_claim` and
/// resolve every claim through `MeasureQueue::complete` (or put it back
/// by dropping it).
pub trait MeasureBackend: Send + Sync {
    /// The backend label reports carry (`local`, `remote:2`, …).
    fn describe(&self) -> String;

    /// Drains `queue`: returns once every pending candidate has been
    /// completed (measured, failed, or deduplicated).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the backend cannot finish the queue
    /// (e.g. every remote worker died with work remaining).
    fn drain(&self, queue: &MeasureQueue<'_>) -> Result<(), Diagnostic>;
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

/// What [`MeasureQueue::try_claim`] found.
enum Claimed<'q, 'a> {
    /// A candidate to measure.
    Task(MeasureTask<'q, 'a>),
    /// Work remains, but every pending key is currently claimed by a
    /// concurrent sweep (or another backend worker). Wait and retry.
    Busy,
    /// The pending queue is empty. Other workers may still hold tasks —
    /// poll [`MeasureQueue::is_drained`] to learn whether the rung is
    /// truly finished.
    Empty,
}

/// The work-distribution state for one `measure_set` rung: the pending
/// candidates, the claim/dedup logic shared with concurrent sweeps, and
/// the accounting every completed measurement flows through.
pub struct MeasureQueue<'a> {
    explorer: &'a Explorer,
    space: &'a dyn DesignSpace,
    candidates: &'a [Candidate],
    /// Per candidate: its fidelity-adjusted key and work, and whether
    /// measuring that key is a full-fidelity simulation.
    meta: &'a [(CandidateKey, u64, bool)],
    fidelity: Fidelity,
    stats: &'a SweepStats,
    workers: usize,
    total: usize,
    pending: Mutex<VecDeque<usize>>,
    completed: AtomicUsize,
    done: Mutex<Vec<Done>>,
}

impl<'a> MeasureQueue<'a> {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor mirroring measure_set's locals
    pub(crate) fn new(
        explorer: &'a Explorer,
        space: &'a dyn DesignSpace,
        candidates: &'a [Candidate],
        meta: &'a [(CandidateKey, u64, bool)],
        fidelity: Fidelity,
        stats: &'a SweepStats,
        workers: usize,
        pending: Vec<usize>,
    ) -> Self {
        let total = pending.len();
        Self {
            explorer,
            space,
            candidates,
            meta,
            fidelity,
            stats,
            workers,
            total,
            pending: Mutex::new(pending.into()),
            completed: AtomicUsize::new(0),
            done: Mutex::new(Vec::with_capacity(total)),
        }
    }

    /// The fidelity this rung measures at.
    fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The requested local worker-thread count (already clamped to the
    /// pending size). Remote backends may ignore it.
    fn workers(&self) -> usize {
        self.workers
    }

    /// The candidate a task measures.
    fn candidate(&self, task: &MeasureTask<'_, 'a>) -> &'a Candidate {
        &self.candidates[task.index]
    }

    /// The wire recipe remote workers rebuild the space from, if this
    /// space can travel.
    fn wire_spec(&self) -> Option<JobSpec> {
        self.space.wire_spec()
    }

    /// The space description, for diagnostics.
    fn describe_space(&self) -> String {
        self.space.describe()
    }

    /// Whether every pending candidate has been completed.
    fn is_drained(&self) -> bool {
        self.completed.load(Ordering::Acquire) == self.total
    }

    /// Claims the next measurable candidate. A key claimed elsewhere is
    /// cycled to the back of the queue; a key already cached (a concurrent
    /// sweep landed it first) is resolved inline as a dedup hit — *under* the
    /// claim: `complete` publishes before it releases, so a held claim sees it.
    fn try_claim<'q>(&'q self) -> Claimed<'q, 'a> {
        let mut pending = self.pending.lock().expect("measure queue poisoned");
        let mut cycled = 0;
        while let Some(index) = pending.pop_front() {
            let key = &self.meta[index].0;
            if !self.explorer.in_flight.claim(key) {
                pending.push_back(index);
                cycled += 1;
                if cycled >= pending.len() {
                    return Claimed::Busy;
                }
                continue;
            }
            let hit =
                self.explorer.cache.lock().expect("explorer cache poisoned").get(key).cloned();
            let Some(hit) = hit else {
                return Claimed::Task(MeasureTask { queue: self, index });
            };
            self.explorer.in_flight.release(key);
            self.explorer.dedup_hits.fetch_add(1, Ordering::Relaxed);
            self.push_done(index, Ok(hit), true);
        }
        Claimed::Empty
    }

    /// Resolves a claim: publishes a successful measurement to the
    /// shared cache *before* releasing the claim (so concurrent waiters
    /// find it), performs all sweep and engine accounting, and records
    /// the measuring `worker` for the report's per-worker sim counts.
    fn complete(
        &self,
        task: MeasureTask<'_, 'a>,
        result: Result<CachedEval, Diagnostic>,
        nanos: u64,
        worker: &str,
    ) {
        let index = task.index;
        std::mem::forget(task); // resolved: skip the requeue-on-drop path
        let (key, _, is_full) = &self.meta[index];
        if let Ok(eval) = &result {
            self.explorer.cache.lock().expect("explorer cache poisoned").insert(*key, eval.clone());
            self.explorer.mark_dirty(key);
            self.explorer.evals_performed.fetch_add(1, Ordering::Relaxed);
            self.stats.record_sim(worker, *is_full, nanos);
        }
        self.explorer.in_flight.release(key);
        self.push_done(index, result, false);
    }

    /// Records that `worker` came back after its connection was lost —
    /// surfaced as `worker_reconnects` in the sweep report.
    fn record_reconnect(&self, worker: &str) {
        self.stats.record_reconnect(worker);
    }

    fn abandon(&self, index: usize) {
        self.explorer.in_flight.release(&self.meta[index].0);
        self.pending.lock().expect("measure queue poisoned").push_back(index);
    }

    /// Parks briefly (≤10ms) until some in-flight claim releases — the
    /// polite way to wait out [`Claimed::Busy`].
    fn wait_for_progress(&self) {
        self.explorer.in_flight.wait_release_timeout(Duration::from_millis(10));
    }

    fn push_done(&self, index: usize, result: Result<CachedEval, Diagnostic>, served: bool) {
        self.done.lock().expect("result sink poisoned").push((index, result, served));
        self.completed.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn into_done(self) -> Vec<Done> {
        self.done.into_inner().expect("result sink poisoned")
    }
}

// ---------------------------------------------------------------------
// Local pool
// ---------------------------------------------------------------------

/// The in-process measurement pool: `queue.workers()` threads, each
/// owning one recycled-SoC [`Session`] for the rung.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LocalPool;

/// The worker label local measurements are recorded under.
const LOCAL_WORKER: &str = "local";

impl MeasureBackend for LocalPool {
    fn describe(&self) -> String {
        LOCAL_WORKER.to_owned()
    }

    fn drain(&self, queue: &MeasureQueue<'_>) -> Result<(), Diagnostic> {
        std::thread::scope(|scope| {
            for _ in 0..queue.workers() {
                scope.spawn(|| {
                    let mut session = Session::for_sweep();
                    loop {
                        match queue.try_claim() {
                            Claimed::Task(task) => {
                                let started = Instant::now();
                                let result = run_candidate(
                                    &mut session,
                                    queue.space,
                                    queue.candidate(&task),
                                    queue.fidelity(),
                                );
                                let nanos = started.elapsed().as_nanos() as u64;
                                queue.complete(task, result, nanos, LOCAL_WORKER);
                            }
                            Claimed::Busy => queue.wait_for_progress(),
                            Claimed::Empty => break,
                        }
                    }
                });
            }
        });
        Ok(())
    }
}

/// Realizes `candidate` (the one realization a measured candidate gets)
/// and compiles and runs it on `session`'s recycled SoC — the execution
/// primitive both the local pool and the worker daemon share.
///
/// # Errors
///
/// Propagates realization and simulation diagnostics; a run that fails
/// verification is an error naming the candidate.
pub fn run_candidate(
    session: &mut Session,
    space: &dyn DesignSpace,
    candidate: &Candidate,
    fidelity: Fidelity,
) -> Result<CachedEval, Diagnostic> {
    let realized = space.realize(candidate, fidelity)?;
    let report = session.run(realized.workload.as_ref(), &realized.plan)?;
    if !report.verified {
        return Err(Diagnostic::error(format!(
            "candidate {} failed verification on {}",
            candidate.label(),
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
/// daemons. One pump thread per worker keeps up to
/// [`RemotePool::in_flight`] requests outstanding; a worker that dies
/// has its claims requeued (served by the surviving workers) and its
/// address retried with exponential backoff until it re-registers —
/// a pump abandons its address only when the whole pool is unreachable.
/// Re-registrations are recorded on the queue and surface as
/// `worker_reconnects` in the report.
#[derive(Clone, Debug)]
pub struct RemotePool {
    addrs: Vec<String>,
    window: usize,
    state: Arc<PoolState>,
}

/// Liveness shared by a pool's pumps across connections and drains.
#[derive(Debug, Default)]
struct PoolState {
    /// Pumps currently holding a healthy worker connection.
    connected: AtomicUsize,
    /// Addresses whose last connection was lost. The flag outlives the
    /// rung that observed the loss, so a worker that dies late in one
    /// rung and comes back during a later one is still recorded as a
    /// re-registration.
    lost: Mutex<HashSet<String>>,
}

impl RemotePool {
    /// A pool over `addrs` with the default in-flight window of 4
    /// requests per worker.
    pub fn new(addrs: Vec<String>) -> Self {
        Self { addrs, window: 4, state: Arc::default() }
    }

    /// Overrides the per-worker in-flight window (clamped to ≥ 1).
    #[must_use]
    pub fn in_flight(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }
}

impl MeasureBackend for RemotePool {
    fn describe(&self) -> String {
        format!("remote:{}", self.addrs.len())
    }

    fn drain(&self, queue: &MeasureQueue<'_>) -> Result<(), Diagnostic> {
        if self.addrs.is_empty() {
            return Err(Diagnostic::error("remote measurement pool has no workers"));
        }
        let Some(spec) = queue.wire_spec() else {
            return Err(Diagnostic::error(format!(
                "space {} cannot be measured remotely (no wire form)",
                queue.describe_space()
            )));
        };
        let job = spec.to_json();
        // The per-job worker budget (threaded through `queue.workers()`)
        // caps each pump's in-flight window, so one huge job cannot
        // monopolize the pool's slots across rungs.
        let window = self.window.min(queue.workers().max(1));
        let failures: Vec<Diagnostic> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .addrs
                .iter()
                .map(|addr| {
                    let job = &job;
                    let state = &self.state;
                    scope.spawn(move || pump(addr, job, window, queue, state))
                })
                .collect();
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

/// Drives one worker address for the life of the rung. A lost connection
/// requeues its outstanding claims (by drop) and is retried with
/// exponential backoff; a successful reconnect after a loss re-registers
/// the worker via [`MeasureQueue::record_reconnect`]. The pump abandons
/// the address only once [`RECONNECT_ATTEMPTS`] consecutive connects
/// failed *and* no other pump in the pool is connected — while any peer
/// is serving the queue, a dead worker's address keeps being retried so
/// it can rejoin whenever it comes back.
fn pump(
    addr: &str,
    job: &JsonValue,
    window: usize,
    queue: &MeasureQueue<'_>,
    state: &PoolState,
) -> Result<(), Diagnostic> {
    let mut failures = 0usize;
    loop {
        if queue.is_drained() {
            return Ok(());
        }
        let mut conn = match connect(addr) {
            Ok(conn) => conn,
            Err(err) => {
                failures += 1;
                if failures >= RECONNECT_ATTEMPTS && state.connected.load(Ordering::Acquire) == 0 {
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
        // The loss flag lives on the pool, not this pump: a worker
        // that died in an earlier rung and reconnects here is still a
        // re-registration.
        if state.lost.lock().expect("pool state poisoned").remove(addr) {
            queue.record_reconnect(addr);
        }
        state.connected.fetch_add(1, Ordering::AcqRel);
        let served = serve_worker(addr, &mut conn, job, window, queue);
        state.connected.fetch_sub(1, Ordering::AcqRel);
        match served {
            Served::Drained => return Ok(()),
            Served::Lost => {
                state.lost.lock().expect("pool state poisoned").insert(addr.to_owned());
            }
        }
    }
}

/// Runs one healthy connection until the queue drains or the connection
/// dies. Outstanding claims are requeued (by drop) on every exit path
/// that loses the connection, so no candidate is ever lost to a worker
/// death.
fn serve_worker(
    addr: &str,
    conn: &mut Connection,
    job: &JsonValue,
    window: usize,
    queue: &MeasureQueue<'_>,
) -> Served {
    let mut next_id: u64 = 1;
    let mut outstanding = HashMap::new();
    loop {
        // Keep the in-flight window full.
        let mut starved = false;
        while outstanding.len() < window {
            match queue.try_claim() {
                Claimed::Task(task) => {
                    let frame =
                        measure_request(next_id, job, queue.fidelity(), queue.candidate(&task));
                    if write_frame_at("pool.send", &mut conn.writer, &frame).is_err() {
                        // `task` and `outstanding` requeue on drop.
                        return Served::Lost;
                    }
                    outstanding.insert(next_id, task);
                    next_id += 1;
                }
                Claimed::Busy | Claimed::Empty => {
                    starved = true;
                    break;
                }
            }
        }
        if outstanding.is_empty() {
            if queue.is_drained() {
                return Served::Drained;
            }
            if starved {
                // Work remains, but none is claimable by us right
                // now (held by concurrent sweeps or other pumps
                // whose death would requeue it). Stay alive.
                queue.wait_for_progress();
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
// The axi4mlir-worker/v1 wire vocabulary
// ---------------------------------------------------------------------

/// The worker protocol schema tag, exchanged in `hello`.
pub const WORKER_SCHEMA: &str = "axi4mlir-worker/v1";

/// Builds a `measure` request: measure `candidate` at `fidelity` in the
/// space rebuilt from `job` (a [`JobSpec`] in JSON form).
pub fn measure_request(
    id: u64,
    job: &JsonValue,
    fidelity: Fidelity,
    candidate: &Candidate,
) -> JsonValue {
    JsonValue::object([
        ("type".to_owned(), "measure".into()),
        ("id".to_owned(), id.into()),
        ("job".to_owned(), job.clone()),
        ("fidelity".to_owned(), fidelity.label().into()),
        ("candidate".to_owned(), wire::candidate_to_json(candidate)),
    ])
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

/// The worker-side execution of one `measure` frame: rebuild the space
/// from the embedded job spec, realize the candidate at the requested
/// fidelity, run it on `session`, and answer with a `result` or `failed`
/// frame (the request `id` echoed either way). Transport never sees
/// Rust errors: every failure becomes a `failed` frame.
pub fn handle_measure(session: &mut Session, frame: &JsonValue) -> JsonValue {
    let id = frame.members("measure").and_then(|m| m.u64("id")).unwrap_or(0);
    match run_measure(session, frame) {
        Ok((eval, nanos)) => result_frame(id, &eval, nanos),
        Err(diag) => failed_frame(id, &diag.message),
    }
}

fn run_measure(session: &mut Session, frame: &JsonValue) -> Result<(CachedEval, u64), Diagnostic> {
    let m = frame.members("measure")?;
    // This one message is pinned verbatim by the PROTOCOL.md transcript.
    let job = m.get("job").ok_or_else(|| Diagnostic::error("measure requires a `job`"))?;
    let request = JobSpec::from_json(job)?.build()?;
    let fidelity = Fidelity::parse(m.str("fidelity")?)
        .ok_or_else(|| m.invalid("fidelity", "must be a fidelity label"))?;
    let candidate = wire::candidate_from(&m.object("candidate")?)?;
    let started = Instant::now();
    let eval = run_candidate(session, request.space.as_dyn(), &candidate, fidelity)?;
    Ok((eval, started.elapsed().as_nanos() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_workloads::matmul::MatMulProblem;

    #[test]
    fn measure_frames_round_trip_through_the_worker_entry_point() {
        let space = super::super::MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(7);
        let candidate = space.enumerate().unwrap().into_iter().next().unwrap();
        let job = space.wire_spec().unwrap().to_json();
        let request = measure_request(42, &job, Fidelity::Full, &candidate);
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
        assert!(reply.get("reason").and_then(JsonValue::as_str).unwrap().contains("job"));
    }
}

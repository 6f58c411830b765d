//! The hub daemon: a bounded job queue over one shared
//! [`Explorer`].
//!
//! ## Shape
//!
//! One listener thread accepts connections; each connection gets a
//! serving thread that parses requests and *owns all writes* to its
//! socket (replies and events never interleave mid-frame). Submitted
//! jobs land in a bounded FIFO queue drained by a pool of executor
//! threads, running each job through
//! [`Explorer::explore_streaming`](axi4mlir_core::explore::Explorer::explore_streaming)
//! on the shared engine. Sharing the engine is the whole point: every
//! job reads and feeds the same result cache, and the engine's claim
//! set guarantees a candidate wanted by two concurrent jobs is
//! simulated exactly once.
//!
//! What each lock here guards is the "Shared state" table of
//! `docs/ARCHITECTURE.md`; the order, where both are held, is
//! `Shared::jobs` → `EventHub::inner`.
//!
//! Progress events flow from executor into a per-job `EventHub` log:
//! every event is appended to a bounded replay buffer *and* forwarded
//! to the job's current subscriber connection, which writes it between
//! reads (its socket reads time out every `proto::READ_TIMEOUT`, so
//! events are never stalled behind an idle client). Because the buffer
//! outlives the submitting connection, a client that loses its
//! connection mid-job can reconnect and send `follow JOB_ID`: the hub
//! replays the buffered events and re-attaches the live stream, ending
//! with the terminal `done`/`failed` event exactly as the original
//! connection would have seen it.
//!
//! ## Durability
//!
//! With a `--cache-dir`, the hub loads the sharded cache directory at
//! startup and checkpoints after every completed rung and at shutdown.
//! Each checkpoint rewrites only the shards dirtied since the last
//! flush, each through a load/merge/atomic-rename, so a `kill -TERM` at
//! any instant leaves loadable files.
//! SIGTERM/ctrl-c (via [`HubConfig::stop`]) and the `shutdown` request
//! trigger the same graceful sequence: executors cancel their sweeps
//! at the next rung boundary, queued jobs fail with a `shutting down`
//! reason, clients see a final `shutting_down` frame, and the cache is
//! flushed once more.
//!
//! ## Distributed measurement
//!
//! With one or more `--worker ADDR` flags the hub swaps its local
//! measurement thread pool for an
//! [`axi4mlir_core::explore::RemotePool`] that fans candidate batches
//! out to `axi4mlir-worker` daemons; scheduling,
//! caching, and dedup stay hub-side, so reports are bit-identical to
//! local runs (timing aside) and a lost worker only costs throughput.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use axi4mlir_core::explore::{
    wire, ExploreReport, ExploreRequest, Explorer, JobSpec, ProgressEvent, RemotePool,
};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::fault::{self, FaultAction};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{self, write_frame, write_frame_at, Connection, Frame};

use crate::protocol::{self, Request};

/// How the daemon is set up.
#[derive(Clone, Debug)]
pub struct HubConfig {
    /// The address to listen on; port 0 picks a free port (the bound
    /// address is on [`Hub::local_addr`]).
    pub bind: String,
    /// Executor threads draining the job queue (how many jobs run
    /// concurrently). Zero is legal and means jobs queue forever — the
    /// integration tests use it to exercise backpressure.
    pub workers: usize,
    /// Measurement threads *per job* (the `workers` argument of each
    /// job's `explore_streaming` call), divided fairly among the jobs
    /// running at once; with remote workers, each one's in-flight window.
    pub sim_workers: usize,
    /// Queue slots; a `submit` beyond this is rejected.
    pub queue_capacity: usize,
    /// Sharded cache directory to load at startup and checkpoint into
    /// (only dirty shards are rewritten); `None` keeps the cache purely
    /// in-memory.
    pub cache_dir: Option<PathBuf>,
    /// `axi4mlir-worker` addresses to fan measurements out to; empty
    /// keeps the local in-process measurement pool.
    pub measure_workers: Vec<String>,
    /// An external stop flag (the binary's signal handler sets it);
    /// polled alongside the internal one.
    pub stop: Option<&'static AtomicBool>,
}

impl Default for HubConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_owned(),
            workers: 2,
            sim_workers: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            queue_capacity: 16,
            cache_dir: None,
            measure_workers: Vec::new(),
            stop: None,
        }
    }
}

/// What [`Hub::run`] hands back after a graceful shutdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HubSummary {
    /// Jobs that finished with a report.
    pub completed: usize,
    /// Jobs that failed (including those cancelled by the shutdown).
    pub failed: usize,
    /// Result-cache entries held at shutdown (and flushed to the cache
    /// file, when one is configured).
    pub cache_entries: usize,
}

/// One queued job: its id and spec. Events reach the submitting (or
/// following) connection through the [`EventHub`], not a field here —
/// the event stream must outlive the connection that submitted the job.
struct Job {
    id: u64,
    /// What `submit` validated the spec into — built once per job.
    request: ExploreRequest,
}

/// Jobs already terminal whose event logs are retained for late
/// `follow` requests; older finished jobs are evicted.
const RETAINED_FINISHED: usize = 16;

/// Events retained per job for `follow` replay: the newest N (the terminal
/// event is always last, so always replayable for a retained job).
const EVENT_BUFFER: usize = 64;

/// One job's event log: the bounded replay buffer plus the connection
/// currently subscribed to the live stream.
struct JobLog {
    events: VecDeque<JsonValue>,
    subscriber: Option<Sender<JsonValue>>,
    terminal: bool,
}

/// The per-job event fan-out: every published event lands in the job's
/// bounded replay buffer and is forwarded to its current subscriber.
/// `follow` swaps the subscriber and replays the buffer, which is what
/// lets a reconnecting client resume a live (or recently finished)
/// job's stream.
struct EventHub {
    capacity: usize,
    inner: Mutex<EventLog>,
}

#[derive(Default)]
struct EventLog {
    jobs: HashMap<u64, JobLog>,
    /// Terminal jobs in finishing order, for bounded retention.
    finished: VecDeque<u64>,
}

impl EventHub {
    fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), inner: Mutex::new(EventLog::default()) }
    }

    fn log(&self) -> MutexGuard<'_, EventLog> {
        self.inner.lock().expect("event hub poisoned")
    }

    /// Starts a job's log with `subscriber` attached.
    fn register(&self, id: u64, subscriber: Sender<JsonValue>) {
        let mut inner = self.log();
        inner.jobs.insert(
            id,
            JobLog { events: VecDeque::new(), subscriber: Some(subscriber), terminal: false },
        );
    }

    /// Appends `event` to the job's replay buffer and forwards it to
    /// the current subscriber (a dead subscriber is ignored — the
    /// buffer is what a future `follow` replays). A `done`/`failed`
    /// event marks the log terminal and starts its retention clock.
    fn publish(&self, id: u64, event: JsonValue) {
        let mut inner = self.log();
        let newly_terminal = {
            let Some(log) = inner.jobs.get_mut(&id) else { return };
            if log.events.len() >= self.capacity {
                log.events.pop_front();
            }
            let terminal = matches!(
                event.get("state").and_then(JsonValue::as_str),
                Some("done") | Some("failed")
            );
            log.events.push_back(event.clone());
            if let Some(subscriber) = &log.subscriber {
                let _ = subscriber.send(event);
            }
            let newly = terminal && !log.terminal;
            log.terminal |= terminal;
            newly
        };
        if newly_terminal {
            inner.finished.push_back(id);
            while inner.finished.len() > RETAINED_FINISHED {
                if let Some(evicted) = inner.finished.pop_front() {
                    inner.jobs.remove(&evicted);
                }
            }
        }
    }

    /// Re-attaches a job's stream to `subscriber`: the previous
    /// subscriber (if any) receives a synthetic `detached` event (not
    /// buffered — it describes the old connection, not the job), and
    /// the buffered events are returned for replay. `Err` carries the
    /// `error` frame for an unknown or evicted job.
    fn follow(&self, id: u64, subscriber: Sender<JsonValue>) -> Result<Vec<JsonValue>, JsonValue> {
        let mut inner = self.log();
        let Some(log) = inner.jobs.get_mut(&id) else {
            return Err(protocol::error(&format!(
                "follow `job` {id} is unknown (never submitted, or its events were evicted)"
            )));
        };
        if let Some(previous) = log.subscriber.replace(subscriber) {
            let _ = previous.send(protocol::event(id, "detached", vec![]));
        }
        Ok(log.events.iter().cloned().collect())
    }
}

/// Every job the hub has accepted, under one lock: the ones waiting, and
/// how many are running or finished. At every unlock `queue.len() +
/// running + completed + failed` is the number of jobs accepted so far
/// (`next_id - 1`), which is what makes a `status` reply add up.
#[derive(Default)]
struct Jobs {
    queue: VecDeque<Job>,
    next_id: u64,
    running: usize,
    completed: usize,
    failed: usize,
}

impl Jobs {
    /// Pops the job to run next, the oldest queued one, and counts it
    /// running in the same step.
    fn take_next(&mut self) -> Option<Job> {
        let job = self.queue.pop_front()?;
        self.running += 1;
        Some(job)
    }
}

/// State shared by the listener, connection threads, and executors.
struct Shared {
    explorer: Explorer,
    config: HubConfig,
    jobs: Mutex<Jobs>,
    /// Notified, with `jobs` locked, when a job is queued or a stop is
    /// requested — the two things an idle executor waits for.
    available: Condvar,
    events: EventHub,
    stop: AtomicBool,
}

impl Shared {
    fn jobs(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().expect("hub jobs poisoned")
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
            || self.config.stop.is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Raises the stop flag under the jobs lock, so an executor is either
    /// before its check (and sees the flag) or already waiting (and is
    /// woken) — never in between.
    fn request_stop(&self) {
        let _jobs = self.jobs();
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    /// Checkpoints the shared cache — only the shards dirtied since the
    /// previous checkpoint are written; a hub without a cache directory
    /// reports its in-memory entry count.
    fn checkpoint(&self) -> Result<usize, Diagnostic> {
        if let Some(plan) = fault::active() {
            if plan.tick("hub.checkpoint") == Some(FaultAction::Fail) {
                return Err(Diagnostic::error("injected checkpoint failure at hub.checkpoint"));
            }
        }
        match &self.config.cache_dir {
            Some(dir) => self.explorer.save_cache_dir(dir).map(|stats| stats.entries),
            None => Ok(self.explorer.cache_len()),
        }
    }

    fn hello(&self) -> JsonValue {
        protocol::tagged(
            "hello",
            vec![
                ("schema".to_owned(), protocol::SCHEMA.into()),
                ("cache_entries".to_owned(), self.explorer.cache_len().into()),
                ("queue_capacity".to_owned(), self.config.queue_capacity.into()),
                ("workers".to_owned(), self.config.workers.into()),
            ],
        )
    }

    fn status(&self) -> JsonValue {
        let (queued, running, completed, failed) = {
            let jobs = self.jobs();
            (jobs.queue.len(), jobs.running, jobs.completed, jobs.failed)
        };
        protocol::tagged(
            "status",
            vec![
                ("queued".to_owned(), queued.into()),
                ("running".to_owned(), running.into()),
                ("completed".to_owned(), completed.into()),
                ("failed".to_owned(), failed.into()),
                ("cache_entries".to_owned(), self.explorer.cache_len().into()),
                ("dedup_hits".to_owned(), self.explorer.dedup_hits().into()),
            ],
        )
    }

    /// Validates and enqueues one job. `Err` carries the reply frame to
    /// send instead of `accepted` (an `error` for a bad spec, a
    /// `rejected` for a full queue).
    fn submit(&self, spec: JobSpec, events: Sender<JsonValue>) -> Result<(u64, usize), JsonValue> {
        let request = spec.build().map_err(|err| protocol::error(&err.message))?;
        let mut jobs = self.jobs();
        if jobs.queue.len() >= self.config.queue_capacity {
            return Err(protocol::tagged(
                "rejected",
                vec![
                    ("reason".to_owned(), "queue full".into()),
                    ("queued".to_owned(), jobs.queue.len().into()),
                    ("queue_capacity".to_owned(), self.config.queue_capacity.into()),
                ],
            ));
        }
        let id = jobs.next_id;
        jobs.next_id += 1;
        // Every queued job runs before this one.
        let ahead = jobs.queue.len();
        // Register and publish `queued` *before* the queue push (still
        // under the jobs lock), so no executor can publish `running`
        // first.
        self.events.register(id, events);
        self.events.publish(id, protocol::event(id, "queued", vec![]));
        jobs.queue.push_back(Job { id, request });
        self.available.notify_one();
        Ok((id, ahead))
    }
}

/// The simulation-worker budget one job gets: a fair share of the hub's
/// `--sim-workers` across the jobs running right now, at least one — so
/// one huge job cannot monopolize the pool across rungs.
fn job_budget(total: usize, running: usize) -> usize {
    (total / running.max(1)).max(1)
}

/// A running hub, bound but not yet serving.
pub struct Hub {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Hub {
    /// Binds the listener and loads the persisted cache (if any).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for bind failures and unreadable cache
    /// directories.
    pub fn bind(config: HubConfig) -> Result<Hub, Diagnostic> {
        let mut explorer = match &config.cache_dir {
            Some(dir) => Explorer::with_cache_dir(dir)?,
            None => Explorer::new(),
        };
        if !config.measure_workers.is_empty() {
            explorer.set_remote_pool(RemotePool::new(config.measure_workers.clone()));
        }
        let (listener, addr) = proto::bind(&config.bind)?;
        Ok(Hub {
            listener,
            addr,
            shared: Arc::new(Shared {
                explorer,
                events: EventHub::new(EVENT_BUFFER),
                config,
                jobs: Mutex::new(Jobs { next_id: 1, ..Jobs::default() }),
                available: Condvar::new(),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a stop is requested (SIGTERM via
    /// [`HubConfig::stop`], or a client `shutdown`), then drains
    /// gracefully and flushes the cache.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for listener failures and for a failed
    /// final cache flush. Per-connection and per-job errors are
    /// reported to the affected client, never here.
    pub fn run(self) -> Result<HubSummary, Diagnostic> {
        let mut executors = Vec::new();
        for _ in 0..self.shared.config.workers {
            let shared = Arc::clone(&self.shared);
            executors.push(std::thread::spawn(move || executor_loop(&shared)));
        }
        let shared = Arc::clone(&self.shared);
        let connections = proto::serve(
            &self.listener,
            || self.shared.stopping(),
            move |connection| {
                // A connection error affects one client only; the
                // daemon keeps serving.
                let _ = serve_connection(&shared, connection);
            },
        );

        // Graceful drain (also on a listener failure, so the executors
        // exit): they cancel at the next rung boundary...
        self.shared.request_stop();
        let connections = connections?;
        for executor in executors {
            let _ = executor.join();
        }
        // ...jobs still queued fail explicitly...
        let leftover: Vec<Job> = {
            let mut jobs = self.shared.jobs();
            jobs.failed += jobs.queue.len();
            jobs.queue.drain(..).collect()
        };
        for job in leftover {
            self.shared.events.publish(
                job.id,
                protocol::event(
                    job.id,
                    "failed",
                    vec![("reason".to_owned(), "hub shutting down".into())],
                ),
            );
        }
        // ...connections forward those terminal events, say goodbye,
        // and hang up.
        for connection in connections {
            let _ = connection.join();
        }
        let cache_entries = self.shared.checkpoint()?;
        let jobs = self.shared.jobs();
        Ok(HubSummary { completed: jobs.completed, failed: jobs.failed, cache_entries })
    }
}

/// Serves one client connection. All socket writes happen here; the
/// socket's short read timeout is what lets queued events and the stop
/// flag be polled between frames.
fn serve_connection(shared: &Arc<Shared>, connection: Connection) -> Result<(), Diagnostic> {
    let Connection { mut reader, mut writer } = connection;
    let (events_tx, events_rx): (Sender<JsonValue>, Receiver<JsonValue>) = mpsc::channel();
    // Jobs this connection submitted that have not reached a terminal
    // state; the goodbye frame waits for them.
    let mut active = 0usize;
    let io = |err: std::io::Error| Diagnostic::error(format!("connection write failed: {err}"));
    loop {
        while let Ok(event) = events_rx.try_recv() {
            let state = event.get("state").and_then(JsonValue::as_str);
            if matches!(state, Some("done") | Some("failed") | Some("detached")) {
                // `detached`: another connection took over this job's
                // stream via `follow`; it no longer holds our goodbye.
                active = active.saturating_sub(1);
            }
            write_frame_at("hub.event", &mut writer, &event).map_err(io)?;
        }
        if shared.stopping() && active == 0 {
            let _ = write_frame(&mut writer, &protocol::tagged("shutting_down", vec![]));
            return Ok(());
        }
        let frame = reader.next_frame().inspect_err(|err| {
            // Framing/JSON errors are fatal to the connection; say why
            // before hanging up (best effort — the peer may be gone).
            let _ = write_frame(&mut writer, &protocol::error(&err.message));
        })?;
        match frame {
            Frame::Idle => continue,
            Frame::Eof => return Ok(()),
            Frame::Value(value) => {
                let reply = match Request::from_json(&value) {
                    Err(err) => protocol::error(&err.message),
                    Ok(Request::Hello) => shared.hello(),
                    Ok(Request::Status) => shared.status(),
                    Ok(Request::Shutdown) => {
                        shared.request_stop();
                        // The goodbye frame is sent (above) once this
                        // connection's jobs drain.
                        continue;
                    }
                    Ok(Request::Submit { spec }) => {
                        match shared.submit(*spec, events_tx.clone()) {
                            Err(reply) => reply,
                            Ok((id, ahead)) => {
                                active += 1;
                                let accepted = protocol::tagged(
                                    "accepted",
                                    vec![
                                        ("job".to_owned(), id.into()),
                                        ("queued_ahead".to_owned(), ahead.into()),
                                    ],
                                );
                                write_frame(&mut writer, &accepted).map_err(io)?;
                                // The `queued` event (already published)
                                // arrives through the events channel.
                                continue;
                            }
                        }
                    }
                    Ok(Request::Follow { job }) => {
                        match shared.events.follow(job, events_tx.clone()) {
                            Err(reply) => reply,
                            Ok(replay) => {
                                let replayed_terminal = replay.iter().any(|event| {
                                    matches!(
                                        event.get("state").and_then(JsonValue::as_str),
                                        Some("done") | Some("failed")
                                    )
                                });
                                if !replayed_terminal {
                                    // A live job: its terminal event will
                                    // arrive on our channel; hold the
                                    // goodbye for it.
                                    active += 1;
                                }
                                let following = protocol::tagged(
                                    "following",
                                    vec![
                                        ("job".to_owned(), job.into()),
                                        ("replayed".to_owned(), replay.len().into()),
                                    ],
                                );
                                write_frame(&mut writer, &following).map_err(io)?;
                                for event in &replay {
                                    write_frame_at("hub.event", &mut writer, event).map_err(io)?;
                                }
                                continue;
                            }
                        }
                    }
                };
                write_frame(&mut writer, &reply).map_err(io)?;
            }
        }
    }
}

/// One executor: drains the queue until the hub stops.
fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let (job, running) = {
            let mut jobs = shared.jobs();
            loop {
                if shared.stopping() {
                    return;
                }
                if let Some(job) = jobs.take_next() {
                    break (job, jobs.running);
                }
                jobs = shared.available.wait(jobs).expect("hub jobs poisoned");
            }
        };
        let budget = job_budget(shared.config.sim_workers, running);
        shared.events.publish(
            job.id,
            protocol::event(job.id, "running", vec![("sim_workers".to_owned(), budget.into())]),
        );
        let started = Instant::now();
        let outcome = run_job(shared, &job, budget);
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        {
            let mut jobs = shared.jobs();
            jobs.running -= 1;
            if outcome.is_ok() {
                jobs.completed += 1;
            } else {
                jobs.failed += 1;
            }
        }
        let event = match outcome {
            Ok(report) => protocol::event(
                job.id,
                "done",
                vec![
                    ("full_sims_performed".to_owned(), report.full_sims_performed.into()),
                    (
                        "sims_per_sec".to_owned(),
                        report.sims_per_sec().map_or(JsonValue::Null, JsonValue::from),
                    ),
                    ("elapsed_ms".to_owned(), elapsed_ms.into()),
                    ("report".to_owned(), wire::report_to_json(&report)),
                ],
            ),
            Err(err) => {
                protocol::event(job.id, "failed", vec![("reason".to_owned(), err.message.into())])
            }
        };
        shared.events.publish(job.id, event);
    }
}

/// Runs one job on the shared explorer, streaming progress and
/// checkpointing the cache at every rung boundary.
fn run_job(shared: &Arc<Shared>, job: &Job, budget: usize) -> Result<ExploreReport, Diagnostic> {
    let request = &job.request;
    let observer = |event: &ProgressEvent| {
        shared.events.publish(job.id, protocol::progress_event(job.id, event));
        if matches!(event, ProgressEvent::RungComplete { .. }) {
            // A failed checkpoint must not kill the sweep; the final
            // flush at shutdown will surface persistent trouble.
            if let Err(err) = shared.checkpoint() {
                eprintln!("axi4mlir-hub: cache checkpoint failed: {}", err.message);
            }
        }
        !shared.stopping()
    };
    shared.explorer.explore_streaming(
        request.space.as_dyn(),
        request.prune,
        &request.search,
        budget,
        &request.objectives,
        &observer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_queue_pops_in_submission_order() {
        let spec = JobSpec { dims: Some((16, 16, 16)), ..JobSpec::default() };
        let request = spec.build().expect("a 16^3 matmul job is valid");
        let mut jobs = Jobs::default();
        for id in 1..=5 {
            jobs.queue.push_back(Job { id, request: request.clone() });
        }
        let order: Vec<u64> = std::iter::from_fn(|| jobs.take_next().map(|job| job.id)).collect();
        assert_eq!(order, [1, 2, 3, 4, 5]);
        assert!(jobs.take_next().is_none());
        assert_eq!(jobs.running, 5, "a taken job is running in the same step");
    }

    #[test]
    fn budgets_are_a_fair_share_of_the_pool() {
        // A lone job gets the whole pool; concurrent jobs split it, and
        // the floor is always one worker.
        assert_eq!(job_budget(8, 1), 8);
        assert_eq!(job_budget(8, 2), 4);
        assert_eq!(job_budget(8, 3), 2);
        assert_eq!(job_budget(2, 5), 1);
        assert_eq!(job_budget(0, 1), 1);
    }

    #[test]
    fn event_logs_replay_bounded_and_fail_unknown_follows() {
        let hub = EventHub::new(3);
        let (tx, rx) = mpsc::channel();
        hub.register(7, tx);
        for n in 0..5u64 {
            hub.publish(7, protocol::event(7, "progress", vec![("n".to_owned(), n.into())]));
        }
        // The live subscriber saw everything…
        assert_eq!(rx.try_iter().count(), 5);
        // …but the replay buffer keeps only the newest 3.
        let (tx2, rx2) = mpsc::channel();
        let replay = hub.follow(7, tx2).unwrap();
        assert_eq!(replay.len(), 3);
        assert_eq!(replay[0].get("n").and_then(JsonValue::as_u64), Some(2));
        // The old subscriber was told it lost the stream (not buffered).
        assert_eq!(rx.try_iter().count(), 1);
        // New events reach the new subscriber only.
        hub.publish(7, protocol::event(7, "done", vec![]));
        assert_eq!(rx2.try_iter().count(), 1);
        assert_eq!(rx.try_iter().count(), 0);
        // A terminal job stays followable; an unknown one blames `job`.
        let (tx3, _rx3) = mpsc::channel();
        assert!(hub.follow(7, tx3).is_ok());
        let (tx4, _rx4) = mpsc::channel();
        let err = hub.follow(99, tx4).unwrap_err();
        assert_eq!(err.get("type").and_then(JsonValue::as_str), Some("error"));
        assert!(err.get("reason").and_then(JsonValue::as_str).unwrap().contains("job"));
    }

    #[test]
    fn finished_job_logs_are_evicted_beyond_the_retention_window() {
        let hub = EventHub::new(4);
        for id in 0..(RETAINED_FINISHED as u64 + 5) {
            let (tx, _rx) = mpsc::channel();
            hub.register(id, tx);
            hub.publish(id, protocol::event(id, "done", vec![]));
        }
        let (tx, _rx) = mpsc::channel();
        assert!(hub.follow(0, tx).is_err(), "oldest finished job evicted");
        let (tx, _rx) = mpsc::channel();
        assert!(hub.follow(RETAINED_FINISHED as u64 + 4, tx).is_ok(), "newest retained");
    }
}

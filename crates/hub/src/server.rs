//! The hub daemon: a bounded job queue over one shared
//! [`Explorer`].
//!
//! ## Shape
//!
//! One listener thread accepts connections. Each connection gets a
//! reader (its serving thread, blocked on the socket with no timeout)
//! and a writer thread that owns all writes to the socket, draining the
//! connection's one ordered outbox: replies and events go out in the
//! order they were decided and never interleave mid-frame. Submitted
//! jobs land in a bounded FIFO queue drained by a pool of executor
//! threads, running each job through
//! [`Explorer::explore_streaming`](axi4mlir_core::explore::Explorer::explore_streaming)
//! on the shared engine. Sharing the engine is the whole point: every
//! job reads and feeds the same result cache, and the engine's claim
//! set guarantees a candidate wanted by two concurrent jobs is
//! simulated exactly once.
//!
//! What each lock here guards is the "Shared state" table of
//! `docs/ARCHITECTURE.md`; the order, where several are held, is
//! `Shared::jobs` → `EventHub::inner` → `Outbox::state`.
//!
//! Progress events flow from executor into a per-job `EventHub` log:
//! every event is appended to a bounded replay buffer *and* queued on
//! the outbox of the job's current subscriber connection, whose writer
//! wakes and sends it at once. Because the buffer outlives the
//! submitting connection, a client that loses its connection mid-job can
//! reconnect and send `follow JOB_ID`: the hub replays the buffered
//! events and re-attaches the live stream, ending with the terminal
//! `done`/`failed` event exactly as the original connection would have
//! seen it. A stop wakes every writer; each says goodbye once its jobs
//! drain and shuts its socket down, which ends its reader.
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
use std::io::BufRead;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::Instant;

use axi4mlir_core::explore::{
    wire, ExploreReport, ExploreRequest, Explorer, JobSpec, ProgressEvent, RemotePool,
};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::fault::{self, FaultAction};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{self, write_frame, write_frame_at, Connection, Frame, FrameReader};

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

/// What a connection's writer sends: a reply to one of its requests, or
/// an event of a job it follows. Only event writes pass the `hub.event`
/// fault site.
enum Outgoing {
    Reply(JsonValue),
    Event(JsonValue),
}

/// Whether `event` ends a connection's interest in its job: the job's
/// terminal `done`/`failed`, or the synthetic `detached` a `follow` from
/// another connection sends the previous subscriber.
fn releases_goodbye(event: &JsonValue) -> bool {
    matches!(
        event.get("state").and_then(JsonValue::as_str),
        Some("done") | Some("failed") | Some("detached")
    )
}

/// One connection's ordered outbox, drained by the connection's writer
/// thread.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    /// Notified, with `state` locked, when a frame is queued, the outbox
    /// closes, or the hub stops — the three things an idle writer waits
    /// for.
    ready: Condvar,
}

/// At every unlock: `frames` holds what the writer has yet to send, in
/// the order it was decided; `active` is the number of jobs this
/// connection submitted or follows whose terminal (or `detached`) event
/// is not yet queued, and the goodbye waits for it to reach zero. A
/// closed outbox queues nothing more.
#[derive(Default)]
struct OutboxState {
    frames: VecDeque<Outgoing>,
    active: usize,
    closed: bool,
}

impl OutboxState {
    fn push(&mut self, frame: Outgoing) {
        if let Outgoing::Event(event) = &frame {
            if releases_goodbye(event) {
                self.active = self.active.saturating_sub(1);
            }
        }
        if !self.closed {
            self.frames.push_back(frame);
        }
    }
}

impl Outbox {
    fn state(&self) -> MutexGuard<'_, OutboxState> {
        self.state.lock().expect("hub outbox poisoned")
    }

    /// Queues frames through `fill`, in order, and wakes the writer.
    fn queue(&self, fill: impl FnOnce(&mut OutboxState)) {
        fill(&mut self.state());
        self.ready.notify_one();
    }

    /// Nothing more will be written: the reader or the writer has ended.
    fn close(&self) {
        self.queue(|state| state.closed = true);
    }
}

/// One job's event log: the bounded replay buffer plus the connection
/// currently subscribed to the live stream.
struct JobLog {
    events: VecDeque<JsonValue>,
    subscriber: Option<Arc<Outbox>>,
    terminal: bool,
}

/// The per-job event fan-out: every published event lands in the job's
/// bounded replay buffer and on its current subscriber's outbox.
/// `follow` swaps the subscriber and replays the buffer, which is what
/// lets a reconnecting client resume a live (or recently finished)
/// job's stream. It also knows every connection's outbox, so that a stop
/// can wake all their writers.
struct EventHub {
    capacity: usize,
    inner: Mutex<EventLog>,
}

#[derive(Default)]
struct EventLog {
    jobs: HashMap<u64, JobLog>,
    /// Terminal jobs in finishing order, for bounded retention.
    finished: VecDeque<u64>,
    /// The outbox of every connection, for [`EventHub::wake_all`]; a
    /// dropped one is pruned on the next `connect`.
    connections: Vec<Weak<Outbox>>,
}

impl EventHub {
    fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), inner: Mutex::new(EventLog::default()) }
    }

    fn log(&self) -> MutexGuard<'_, EventLog> {
        self.inner.lock().expect("event hub poisoned")
    }

    /// Registers a new connection's outbox for [`EventHub::wake_all`].
    fn connect(&self, outbox: &Arc<Outbox>) {
        let mut inner = self.log();
        inner.connections.retain(|known| known.strong_count() > 0);
        inner.connections.push(Arc::downgrade(outbox));
    }

    /// Wakes every connection's writer (the hub is stopping). Each takes
    /// its outbox lock to notify, so no writer is between its look at the
    /// stop flag and its wait.
    fn wake_all(&self) {
        for outbox in self.log().connections.iter().filter_map(Weak::upgrade) {
            outbox.queue(|_| ());
        }
    }

    /// Starts a job's log with `subscriber` attached.
    fn register(&self, id: u64, subscriber: &Arc<Outbox>) {
        let mut inner = self.log();
        inner.jobs.insert(
            id,
            JobLog {
                events: VecDeque::new(),
                subscriber: Some(Arc::clone(subscriber)),
                terminal: false,
            },
        );
    }

    /// Appends `event` to the job's replay buffer and queues it on the
    /// current subscriber's outbox (a closed outbox drops it — the
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
                subscriber.queue(|state| state.push(Outgoing::Event(event)));
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

    /// Re-attaches a job's stream to `subscriber`: its outbox gets the
    /// `following` reply and the buffered events, and holds its goodbye
    /// until the job's terminal event (a replayed one releases it at
    /// once); only then does the previous subscriber (if any) get a
    /// synthetic `detached` event (not buffered — it describes the old
    /// connection, not the job). `Err` carries the `error` frame for an
    /// unknown or evicted job.
    fn follow(&self, id: u64, subscriber: &Arc<Outbox>) -> Result<(), JsonValue> {
        let mut inner = self.log();
        let Some(log) = inner.jobs.get_mut(&id) else {
            return Err(protocol::error(&format!(
                "follow `job` {id} is unknown (never submitted, or its events were evicted)"
            )));
        };
        subscriber.queue(|state| {
            state.active += 1;
            state.push(Outgoing::Reply(protocol::tagged(
                "following",
                vec![
                    ("job".to_owned(), id.into()),
                    ("replayed".to_owned(), log.events.len().into()),
                ],
            )));
            for event in &log.events {
                state.push(Outgoing::Event(event.clone()));
            }
        });
        if let Some(previous) = log.subscriber.replace(Arc::clone(subscriber)) {
            let detached = protocol::event(id, "detached", vec![]);
            previous.queue(|state| state.push(Outgoing::Event(detached)));
        }
        Ok(())
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
    /// woken) — never in between — and wakes every connection's writer
    /// the same way, under its outbox lock.
    fn request_stop(&self) {
        let _jobs = self.jobs();
        self.stop.store(true, Ordering::SeqCst);
        self.available.notify_all();
        self.events.wake_all();
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

    /// Validates and enqueues one job, queuing its `accepted` reply on
    /// `outbox` — under the jobs lock and before `queued` is published, so
    /// no event of the job can overtake the reply. `Err` carries the reply
    /// frame to send instead (an `error` for a bad spec, a `rejected` for
    /// a full queue or a stopping hub).
    fn submit(&self, spec: JobSpec, outbox: &Arc<Outbox>) -> Result<(), JsonValue> {
        let request = spec.build().map_err(|err| protocol::error(&err.message))?;
        let mut jobs = self.jobs();
        // `request_stop` raises the flag under this lock, so a job is
        // either queued before `Hub::run` fails the leftover queue or
        // refused here: none is accepted and never run.
        if self.stopping() {
            return Err(protocol::tagged(
                "rejected",
                vec![("reason".to_owned(), "hub shutting down".into())],
            ));
        }
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
        outbox.queue(|state| {
            // The goodbye waits for this job's terminal event.
            state.active += 1;
            state.push(Outgoing::Reply(protocol::tagged(
                "accepted",
                vec![("job".to_owned(), id.into()), ("queued_ahead".to_owned(), ahead.into())],
            )));
        });
        // Register and publish `queued` *before* the queue push (still
        // under the jobs lock), so no executor can publish `running`
        // first.
        self.events.register(id, outbox);
        self.events.publish(id, protocol::event(id, "queued", vec![]));
        jobs.queue.push_back(Job { id, request });
        self.available.notify_one();
        Ok(())
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
            // A connection error affects one client only; the daemon
            // keeps serving.
            move |connection| serve_connection(&shared, connection),
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
        for (connection, _) in connections {
            let _ = connection.join();
        }
        let cache_entries = self.shared.checkpoint()?;
        let jobs = self.shared.jobs();
        Ok(HubSummary { completed: jobs.completed, failed: jobs.failed, cache_entries })
    }
}

/// Serves one client connection: this thread reads requests, blocked on
/// the socket with no timeout, and a writer thread sends what they and
/// the connection's jobs queue on its outbox. A stop reaches the reader
/// as the writer's shutdown of the socket.
fn serve_connection(shared: &Arc<Shared>, connection: Connection) {
    let Connection { mut reader, writer } = connection;
    let outbox = Arc::new(Outbox::default());
    shared.events.connect(&outbox);
    std::thread::scope(|scope| {
        scope.spawn(|| write_outbox(shared, &outbox, writer));
        read_requests(shared, &outbox, &mut reader);
        outbox.close();
    });
}

/// Answers requests until the peer hangs up (or the writer shut the
/// socket down). A framing or JSON error is fatal to the connection; its
/// `error` reply is the last frame queued.
fn read_requests(shared: &Shared, outbox: &Arc<Outbox>, reader: &mut FrameReader<impl BufRead>) {
    let reply = |frame: JsonValue| outbox.queue(|state| state.push(Outgoing::Reply(frame)));
    loop {
        let value = match reader.next_frame() {
            Ok(Frame::Value(value)) => value,
            // End of stream: with no read timeout, nothing else returns.
            Ok(_) => return,
            Err(err) => return reply(protocol::error(&err.message)),
        };
        match Request::from_json(&value) {
            Err(err) => reply(protocol::error(&err.message)),
            Ok(Request::Hello) => reply(shared.hello()),
            Ok(Request::Status) => reply(shared.status()),
            // The writer says goodbye once this connection's jobs drain.
            Ok(Request::Shutdown) => shared.request_stop(),
            Ok(Request::Submit { spec }) => {
                if let Err(refusal) = shared.submit(*spec, outbox) {
                    reply(refusal);
                }
            }
            Ok(Request::Follow { job }) => {
                if let Err(refusal) = shared.events.follow(job, outbox) {
                    reply(refusal);
                }
            }
        }
    }
}

/// What a connection's writer does next.
enum Next {
    Send(Outgoing),
    /// The hub is stopping and this connection's jobs have drained.
    Goodbye,
    /// The outbox closed and is empty.
    Hangup,
}

/// The connection's writer: sends the outbox's frames as they are queued.
/// It ends after the goodbye, once the outbox closes, or on a failed
/// write — and always shuts the socket down, so the reader and the peer
/// both see the hang-up.
fn write_outbox(shared: &Shared, outbox: &Outbox, mut socket: TcpStream) {
    loop {
        let next = {
            let mut state = outbox.state();
            loop {
                if let Some(frame) = state.frames.pop_front() {
                    break Next::Send(frame);
                }
                if state.closed {
                    break Next::Hangup;
                }
                if state.active == 0 && shared.stopping() {
                    break Next::Goodbye;
                }
                state = outbox.ready.wait(state).expect("hub outbox poisoned");
            }
        };
        let written = match next {
            Next::Send(Outgoing::Reply(frame)) => write_frame(&mut socket, &frame),
            Next::Send(Outgoing::Event(frame)) => write_frame_at("hub.event", &mut socket, &frame),
            Next::Goodbye => {
                let _ = write_frame(&mut socket, &protocol::tagged("shutting_down", vec![]));
                break;
            }
            Next::Hangup => break,
        };
        if written.is_err() {
            break;
        }
    }
    outbox.close();
    let _ = socket.shutdown(Shutdown::Both);
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

    /// Takes every frame queued on `outbox`, as (is an event, frame).
    fn sent(outbox: &Outbox) -> Vec<(bool, JsonValue)> {
        let frames = std::mem::take(&mut outbox.state().frames);
        frames
            .into_iter()
            .map(|frame| match frame {
                Outgoing::Reply(frame) => (false, frame),
                Outgoing::Event(frame) => (true, frame),
            })
            .collect()
    }

    fn state_of(frame: &JsonValue) -> Option<&str> {
        frame.get("state").and_then(JsonValue::as_str)
    }

    #[test]
    fn event_logs_replay_bounded_and_fail_unknown_follows() {
        let hub = EventHub::new(3);
        let first = Arc::new(Outbox::default());
        hub.register(7, &first);
        for n in 0..5u64 {
            hub.publish(7, protocol::event(7, "progress", vec![("n".to_owned(), n.into())]));
        }
        // The live subscriber saw everything…
        assert_eq!(sent(&first).len(), 5);
        // …but the replay buffer keeps only the newest 3, behind the
        // `following` reply.
        let second = Arc::new(Outbox::default());
        hub.follow(7, &second).unwrap();
        let replay = sent(&second);
        assert_eq!(replay.len(), 4);
        assert_eq!(replay[0].1.get("type").and_then(JsonValue::as_str), Some("following"));
        assert_eq!(replay[0].1.get("replayed").and_then(JsonValue::as_u64), Some(3));
        assert!(replay[1..].iter().all(|(event, _)| *event), "a replay is events");
        assert_eq!(replay[1].1.get("n").and_then(JsonValue::as_u64), Some(2));
        // The old subscriber was told it lost the stream (not buffered).
        let told = sent(&first);
        assert_eq!(told.len(), 1);
        assert_eq!(state_of(&told[0].1), Some("detached"));
        // New events reach the new subscriber only; the terminal one
        // releases the goodbye the follow held.
        assert_eq!(second.state().active, 1);
        hub.publish(7, protocol::event(7, "done", vec![]));
        assert_eq!(sent(&second).len(), 1);
        assert_eq!(second.state().active, 0);
        assert!(sent(&first).is_empty());
        // A terminal job stays followable, and its replayed terminal
        // event holds no goodbye; an unknown one blames `job`.
        let third = Arc::new(Outbox::default());
        assert!(hub.follow(7, &third).is_ok());
        assert_eq!(third.state().active, 0);
        let err = hub.follow(99, &Arc::new(Outbox::default())).unwrap_err();
        assert_eq!(err.get("type").and_then(JsonValue::as_str), Some("error"));
        assert!(err.get("reason").and_then(JsonValue::as_str).unwrap().contains("job"));
    }

    /// A connection that follows its own job gets the `following` reply
    /// and the replay before the `detached` event that ends its first
    /// subscription.
    #[test]
    fn a_follow_replays_before_it_detaches() {
        let hub = EventHub::new(8);
        let outbox = Arc::new(Outbox::default());
        outbox.state().active = 1; // what `submit` holds
        hub.register(3, &outbox);
        hub.publish(3, protocol::event(3, "queued", vec![]));
        sent(&outbox);
        hub.follow(3, &outbox).unwrap();
        let frames = sent(&outbox);
        let order: Vec<&str> = frames
            .iter()
            .map(|(_, frame)| {
                state_of(frame).or(frame.get("type").and_then(JsonValue::as_str)).unwrap()
            })
            .collect();
        assert_eq!(order, ["following", "queued", "detached"]);
        assert_eq!(outbox.state().active, 1, "still waiting for the job's terminal event");
    }

    #[test]
    fn a_closed_outbox_queues_nothing() {
        let hub = EventHub::new(4);
        let outbox = Arc::new(Outbox::default());
        hub.register(1, &outbox);
        outbox.close();
        hub.publish(1, protocol::event(1, "queued", vec![]));
        assert!(sent(&outbox).is_empty());
        // The replay buffer still has it, for a `follow`.
        let late = Arc::new(Outbox::default());
        hub.follow(1, &late).unwrap();
        assert_eq!(sent(&late).len(), 2);
    }

    #[test]
    fn finished_job_logs_are_evicted_beyond_the_retention_window() {
        let hub = EventHub::new(4);
        for id in 0..(RETAINED_FINISHED as u64 + 5) {
            hub.register(id, &Arc::new(Outbox::default()));
            hub.publish(id, protocol::event(id, "done", vec![]));
        }
        let outbox = Arc::new(Outbox::default());
        assert!(hub.follow(0, &outbox).is_err(), "oldest finished job evicted");
        assert!(hub.follow(RETAINED_FINISHED as u64 + 4, &outbox).is_ok(), "newest retained");
    }
}

//! The `axi4mlir-worker` measurement daemon: remote simulation slots
//! for distributed design-space exploration.
//!
//! A worker is deliberately dumb. It holds no cache, no queue of its
//! own, and no knowledge of the sweep: it accepts connections from a
//! scheduler (an [`Explorer`] with a `RemotePool` installed — usually
//! inside an `axi4mlir-hub` started with `--worker ADDR`), answers
//! `hello` with its protocol schema and slot count, and turns each
//! `measure` frame into one simulator run on a recycled-SoC
//! [`Session`], replying `result` (bit-identical counters plus its own
//! measured wall-clock nanos) or `failed`. All deduplication, caching,
//! ordering, and retry policy stay scheduler-side — which is what
//! keeps reports bit-identical to local runs at any worker count, and
//! makes killing a worker mid-sweep safe (the scheduler requeues its
//! outstanding claims elsewhere).
//!
//! The framing is the NDJSON [`axi4mlir_support::proto`] transport and
//! the frame vocabulary lives in
//! [`axi4mlir_core::explore::measure`] (`axi4mlir-worker/v1`); see
//! `docs/PROTOCOL.md` for field tables and a worked transcript. The
//! per-connection `Inbox` is the one lock; its row is in the "Shared
//! state" table of `docs/ARCHITECTURE.md`.
//!
//! [`Explorer`]: axi4mlir_core::explore::Explorer
//! [`Session`]: axi4mlir_core::driver::Session

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use axi4mlir_core::driver::Session;
use axi4mlir_core::explore::measure::{handle_measure, WORKER_SCHEMA};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::fault::{self, FaultAction};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{self, write_frame, write_frame_at, Connection, Frame};

/// How the daemon is set up.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// The address to listen on; port 0 picks a free port (the bound
    /// address is on [`Worker::local_addr`]).
    pub bind: String,
    /// Concurrent measurement slots per connection (each owns one
    /// recycled-SoC session), advertised in the `hello` reply.
    pub slots: usize,
    /// An external stop flag (the binary's signal handler sets it);
    /// polled alongside the internal accept loop.
    pub stop: Option<&'static AtomicBool>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_owned(),
            slots: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            stop: None,
        }
    }
}

/// What [`Worker::run`] hands back after a graceful stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Connections served over the daemon's lifetime.
    pub connections: usize,
    /// `measure` frames executed (successes and failures alike).
    pub measured: usize,
}

/// Totals shared by every connection thread.
#[derive(Default)]
struct Totals {
    connections: AtomicUsize,
    measured: AtomicUsize,
}

/// A bound worker daemon, not yet serving.
pub struct Worker {
    listener: TcpListener,
    addr: SocketAddr,
    config: WorkerConfig,
}

impl Worker {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for bind failures.
    pub fn bind(config: WorkerConfig) -> Result<Worker, Diagnostic> {
        let (listener, addr) = proto::bind(&config.bind)?;
        Ok(Worker { listener, addr, config })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until the external stop flag is raised, then joins the
    /// open connections (each answers its in-flight measurements, then
    /// hangs up at its next idle tick).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for listener failures. Per-connection
    /// errors close that connection only; the scheduler requeues and
    /// reconnects.
    pub fn run(self) -> Result<WorkerSummary, Diagnostic> {
        let totals = Arc::new(Totals::default());
        let slots = self.config.slots.max(1);
        let stop = self.config.stop;
        let stopping = move || stop.is_some_and(|flag| flag.load(Ordering::SeqCst));
        let served = Arc::clone(&totals);
        let connections = proto::serve(&self.listener, stopping, move |connection| {
            // A connection error affects one scheduler only; the daemon
            // keeps serving.
            let _ = serve_connection(connection, slots, &served, &stopping);
        })?;
        for connection in connections {
            let _ = connection.join();
        }
        Ok(WorkerSummary {
            connections: totals.connections.load(Ordering::Relaxed),
            measured: totals.measured.load(Ordering::Relaxed),
        })
    }
}

/// The per-connection measurement queue: `measure` frames the reader
/// accepted, waiting for a slot thread. At every unlock `unanswered` is
/// the number of accepted frames no slot has replied to yet.
#[derive(Default)]
struct Inbox {
    state: Mutex<InboxState>,
    ready: Condvar,
}

#[derive(Default)]
struct InboxState {
    frames: VecDeque<JsonValue>,
    closed: bool,
    unanswered: usize,
}

impl Inbox {
    fn state(&self) -> MutexGuard<'_, InboxState> {
        self.state.lock().expect("worker inbox poisoned")
    }

    fn push(&self, frame: JsonValue) {
        let mut state = self.state();
        state.frames.push_back(frame);
        state.unanswered += 1;
        self.ready.notify_one();
    }

    fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }

    /// Blocks for the next frame; `None` once closed and empty.
    fn pop(&self) -> Option<JsonValue> {
        let mut state = self.state();
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("worker inbox poisoned");
        }
    }
}

/// Serves one scheduler connection: one reader (this thread) feeding
/// `slots` measurement threads, all sharing the write half (frames are
/// written whole under the lock, so replies never interleave).
fn serve_connection(
    connection: Connection,
    slots: usize,
    totals: &Totals,
    stopping: &dyn Fn() -> bool,
) -> Result<(), Diagnostic> {
    let Connection { mut reader, writer } = connection;
    let writer = Mutex::new(writer);
    totals.connections.fetch_add(1, Ordering::Relaxed);

    let inbox = Inbox::default();
    let write_failed =
        |err: std::io::Error| Diagnostic::error(format!("connection write failed: {err}"));
    let socket = || writer.lock().expect("worker writer poisoned");
    let send = |frame: &JsonValue| write_frame(&mut *socket(), frame).map_err(write_failed);
    // Measurement replies carry the `worker.reply` fault site, so a
    // chaos plan can tear or drop a result frame without touching the
    // hello control traffic.
    let send_reply = |frame: &JsonValue| {
        write_frame_at("worker.reply", &mut *socket(), frame).map_err(write_failed)
    };

    std::thread::scope(|scope| {
        for _ in 0..slots {
            scope.spawn(|| {
                let mut session = Session::for_sweep();
                while let Some(frame) = inbox.pop() {
                    let reply = handle_measure(&mut session, &frame);
                    totals.measured.fetch_add(1, Ordering::Relaxed);
                    if send_reply(&reply).is_err() {
                        // An undeliverable reply (real breakage or an
                        // injected drop/tear) would leave the scheduler
                        // waiting on a frame that never comes: reset
                        // the connection so it requeues and reconnects
                        // instead.
                        let _ = socket().shutdown(std::net::Shutdown::Both);
                    }
                    // Answered even if the scheduler hung up mid-measure:
                    // a stopping daemon must never wait on this frame.
                    inbox.state().unanswered -= 1;
                }
            });
        }
        let outcome = (|| -> Result<(), Diagnostic> {
            loop {
                match reader.next_frame() {
                    // The socket's read timeout is what keeps this
                    // reader polling for shutdown against a silent
                    // scheduler: once the daemon is stopping and every
                    // accepted measure has been answered, hang up (the
                    // scheduler requeues nothing — nothing is open).
                    Ok(Frame::Idle) => {
                        if stopping() && inbox.state().unanswered == 0 {
                            return Ok(());
                        }
                    }
                    Ok(Frame::Eof) => return Ok(()),
                    Ok(Frame::Value(frame)) => {
                        match frame.get("type").and_then(JsonValue::as_str) {
                            Some("hello") => send(&hello_frame(slots))?,
                            Some("measure") => {
                                // The `worker.measure` site counts accepted
                                // measures; a scripted crash here models a
                                // worker dying mid-sweep with claims open.
                                if let Some(plan) = fault::active() {
                                    match plan.tick("worker.measure") {
                                        Some(FaultAction::Crash(code)) => std::process::exit(code),
                                        Some(FaultAction::Delay(pause)) => {
                                            std::thread::sleep(pause);
                                        }
                                        _ => {}
                                    }
                                }
                                inbox.push(frame);
                            }
                            other => {
                                let what = other.unwrap_or("untyped frame");
                                send(&error_frame(&format!("unknown request `{what}`")))?;
                            }
                        }
                    }
                    Err(err) => {
                        // A framing error (bad JSON, an oversized or
                        // too-deep frame) is fatal to this connection;
                        // say why before hanging up, best effort.
                        let _ = send(&error_frame(&err.message));
                        return Err(err);
                    }
                }
            }
        })();
        inbox.close();
        outcome
    })
}

fn error_frame(reason: &str) -> JsonValue {
    JsonValue::object([("type".to_owned(), "error".into()), ("reason".to_owned(), reason.into())])
}

fn hello_frame(slots: usize) -> JsonValue {
    JsonValue::object([
        ("type".to_owned(), "hello".into()),
        ("schema".to_owned(), WORKER_SCHEMA.into()),
        ("slots".to_owned(), slots.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    use axi4mlir_core::explore::measure::measure_request;
    use axi4mlir_core::explore::{DesignSpace, Fidelity, MatMulSpace};
    use axi4mlir_workloads::matmul::MatMulProblem;

    fn start() -> (SocketAddr, std::thread::JoinHandle<WorkerSummary>) {
        static STOP: AtomicBool = AtomicBool::new(false);
        let worker =
            Worker::bind(WorkerConfig { slots: 2, stop: Some(&STOP), ..WorkerConfig::default() })
                .unwrap();
        let addr = worker.local_addr();
        (addr, std::thread::spawn(move || worker.run().unwrap()))
    }

    fn connect(addr: SocketAddr) -> Connection {
        Connection::open(TcpStream::connect(addr).unwrap()).unwrap()
    }

    fn read_value(connection: &mut Connection) -> JsonValue {
        loop {
            match connection.reader.next_frame().unwrap() {
                Frame::Idle => continue,
                Frame::Value(value) => return value,
                Frame::Eof => panic!("worker hung up"),
            }
        }
    }

    #[test]
    fn a_worker_answers_hello_measure_and_drain() {
        let (addr, _serving) = start();
        let mut peer = connect(addr);

        write_frame(&mut peer.writer, &JsonValue::object([("type".to_owned(), "hello".into())]))
            .unwrap();
        let hello = read_value(&mut peer);
        assert_eq!(hello.get("schema").and_then(JsonValue::as_str), Some(WORKER_SCHEMA));
        assert_eq!(hello.get("slots").and_then(JsonValue::as_u64), Some(2));

        let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(3);
        let job = space.wire_spec().unwrap().to_json();
        for (id, candidate) in space.enumerate().unwrap().iter().take(3).enumerate() {
            let request = measure_request(id as u64 + 1, &job, Fidelity::Full, candidate);
            write_frame(&mut peer.writer, &request).unwrap();
        }

        let mut answered = Vec::new();
        for _ in 0..3 {
            let frame = read_value(&mut peer);
            assert_eq!(frame.get("type").and_then(JsonValue::as_str), Some("result"));
            assert!(frame.get("verified").and_then(JsonValue::as_bool).unwrap());
            assert!(frame.get("nanos").and_then(JsonValue::as_u64).unwrap() > 0);
            answered.push(frame.get("id").and_then(JsonValue::as_u64).unwrap());
        }
        answered.sort_unstable();
        assert_eq!(answered, [1, 2, 3], "one result per measure, correlated by id");

        // No scheduler ever sent `drain` (claims resolve by reply id); it
        // is an unknown request like any other.
        write_frame(&mut peer.writer, &JsonValue::object([("type".to_owned(), "drain".into())]))
            .unwrap();
        let error = read_value(&mut peer);
        assert_eq!(error.get("type").and_then(JsonValue::as_str), Some("error"));
        assert!(error.get("reason").and_then(JsonValue::as_str).unwrap().contains("`drain`"));
    }

    #[test]
    fn unknown_frames_get_an_error_reply_and_bad_jobs_fail_cleanly() {
        let (addr, _serving) = start();
        let mut peer = connect(addr);

        write_frame(&mut peer.writer, &JsonValue::object([("type".to_owned(), "launch".into())]))
            .unwrap();
        let error = read_value(&mut peer);
        assert_eq!(error.get("type").and_then(JsonValue::as_str), Some("error"));
        assert!(error.get("reason").and_then(JsonValue::as_str).unwrap().contains("launch"));

        // A measure with a broken job spec answers `failed`, not a hangup.
        let bad = JsonValue::object([
            ("type".to_owned(), "measure".into()),
            ("id".to_owned(), 7u64.into()),
        ]);
        write_frame(&mut peer.writer, &bad).unwrap();
        let failed = read_value(&mut peer);
        assert_eq!(failed.get("type").and_then(JsonValue::as_str), Some("failed"));
        assert_eq!(failed.get("id").and_then(JsonValue::as_u64), Some(7));
    }
}

//! The `axi4mlir-worker` measurement daemon: remote simulation slots
//! for distributed design-space exploration.
//!
//! A worker is deliberately dumb. It keeps no results, no queue of its
//! own, and no knowledge of the sweep: it accepts connections from a
//! scheduler (an [`Explorer`] with a `RemotePool` installed — usually
//! inside an `axi4mlir-hub` started with `--worker ADDR`), answers
//! `hello` with its protocol schema and slot count, and turns each
//! `measure` frame — a candidate key and a fidelity — into one simulator
//! run on a recycled-SoC [`Session`], replying `result` (bit-identical
//! counters plus its own
//! measured wall-clock nanos) or `failed`. All deduplication, result
//! caching, ordering, and retry policy stay scheduler-side — which is
//! what keeps reports bit-identical to local runs at any worker count,
//! and makes killing a worker mid-sweep safe (the scheduler requeues its
//! outstanding claims elsewhere).
//!
//! What a worker does keep is compiled programs: one [`ProgramMemo`] of
//! [`KEPT_PROGRAMS`] modules for its whole lifetime, which every slot of
//! every connection compiles through. A module depends on the key but
//! not on its data seed, so a new seed or a new job over the same space
//! runs programs compiled for an earlier one; a program is immutable, so
//! that is bit-identical to compiling again.
//!
//! The framing is the NDJSON [`axi4mlir_support::proto`] transport and
//! the frame vocabulary lives in
//! [`axi4mlir_core::explore::measure`] (`axi4mlir-worker/v2`); see
//! `docs/PROTOCOL.md` for field tables and a worked transcript.
//!
//! A connection is its `slots` threads and nothing else: they take turns
//! reading it (the read turn's row is in the "Shared state" table of
//! `docs/ARCHITECTURE.md`) and each measures what it read. A read blocks
//! until a frame arrives or the peer hangs up; a stopping worker shuts
//! the read halves down, so a slot never waits on a timer.
//!
//! [`Explorer`]: axi4mlir_core::explore::Explorer
//! [`Session`]: axi4mlir_core::driver::Session
//! [`ProgramMemo`]: axi4mlir_core::driver::ProgramMemo
//! [`KEPT_PROGRAMS`]: axi4mlir_core::driver::KEPT_PROGRAMS

#![deny(missing_docs)]

use std::net::{Shutdown, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use axi4mlir_core::driver::{ProgramMemo, Session, KEPT_PROGRAMS};
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
    /// recycled-SoC session over the worker's compiled programs),
    /// advertised in the `hello` reply.
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
    /// Modules compiled: each distinct module once while the worker's
    /// memo keeps it, however many measures ran it.
    pub compiled: usize,
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

    /// Serves until the external stop flag is raised, then shuts the
    /// read half of every open connection and joins them: each answers
    /// the frames its slots have read, then hangs up.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for listener failures. Per-connection
    /// errors close that connection only; the scheduler requeues and
    /// reconnects.
    pub fn run(self) -> Result<WorkerSummary, Diagnostic> {
        let totals = Arc::new(Totals::default());
        let programs = Arc::new(ProgramMemo::new(KEPT_PROGRAMS));
        let slots = self.config.slots.max(1);
        let stop = self.config.stop;
        let stopping = move || stop.is_some_and(|flag| flag.load(Ordering::SeqCst));
        let (served, compiling) = (Arc::clone(&totals), Arc::clone(&programs));
        let connections = proto::serve(&self.listener, stopping, move |connection| {
            serve_connection(connection, slots, &served, &compiling, &stopping);
        })?;
        // Wake the slots blocked in a read: each sees the end of its
        // stream. (Linux still hands out bytes that arrived before the
        // shutdown, so a slot also takes no new turn once stopping.)
        for (_, socket) in &connections {
            let _ = socket.shutdown(Shutdown::Read);
        }
        for (connection, _) in connections {
            let _ = connection.join();
        }
        Ok(WorkerSummary {
            connections: totals.connections.load(Ordering::Relaxed),
            measured: totals.measured.load(Ordering::Relaxed),
            compiled: programs.compiled(),
        })
    }
}

/// Serves one scheduler connection on `slots` threads: this one and
/// `slots - 1` more. The slots take turns on the read half; the holder
/// reads one frame and answers a control frame before it gives the turn
/// up, so those replies keep request order, and a `measure` frame is
/// measured after, on the slot's session over `programs`. All slots share
/// the write half (frames are written
/// whole under its lock, so replies never interleave). Once the worker
/// is stopping a slot takes no new turn: what the slots have read is
/// answered, and then the connection closes.
fn serve_connection(
    connection: Connection,
    slots: usize,
    totals: &Totals,
    programs: &Arc<ProgramMemo>,
    stopping: &(dyn Fn() -> bool + Sync),
) {
    let Connection { reader, writer } = connection;
    // The read turn; `None` once the stream has ended, so no slot reads
    // past a framing error.
    let turn = Mutex::new(Some(reader));
    let writer = Mutex::new(writer);
    let socket = || writer.lock().expect("worker writer poisoned");
    totals.connections.fetch_add(1, Ordering::Relaxed);

    // One turn: the next `measure` frame, or `None` once this slot is
    // done (the worker is stopping, or the stream ended).
    let next_measure = || -> Option<JsonValue> {
        let mut turn = turn.lock().expect("worker read turn poisoned");
        while !stopping() {
            let frame = match turn.as_mut()?.next_frame() {
                Ok(Frame::Value(frame)) => frame,
                // End of stream: with no read timeout, nothing else returns.
                Ok(_) => break,
                Err(err) => {
                    // A framing error (bad JSON, an oversized or too-deep
                    // frame) is fatal to this connection; say why before
                    // hanging up, best effort.
                    let _ = write_frame(&mut *socket(), &error_frame(&err.message));
                    break;
                }
            };
            let reply = match frame.get("type").and_then(JsonValue::as_str) {
                Some("measure") => {
                    // The `worker.measure` site counts accepted measures;
                    // a scripted crash here models a worker dying
                    // mid-sweep with claims open.
                    if let Some(plan) = fault::active() {
                        match plan.tick("worker.measure") {
                            Some(FaultAction::Crash(code)) => std::process::exit(code),
                            Some(FaultAction::Delay(pause)) => std::thread::sleep(pause),
                            _ => {}
                        }
                    }
                    return Some(frame);
                }
                Some("hello") => hello_frame(slots),
                other => {
                    let what = other.unwrap_or("untyped frame");
                    error_frame(&format!("unknown request `{what}`"))
                }
            };
            if write_frame(&mut *socket(), &reply).is_err() {
                break;
            }
        }
        *turn = None;
        None
    };
    let slot = || {
        let mut session = Session::with_programs(Arc::clone(programs));
        while let Some(frame) = next_measure() {
            let reply = handle_measure(&mut session, &frame);
            totals.measured.fetch_add(1, Ordering::Relaxed);
            // Measurement replies carry the `worker.reply` fault site, so
            // a chaos plan can tear or drop a result frame without
            // touching the hello control traffic.
            if write_frame_at("worker.reply", &mut *socket(), &reply).is_err() {
                // An undeliverable reply (real breakage or an injected
                // drop/tear) would leave the scheduler waiting on a frame
                // that never comes: reset the connection so it requeues
                // and reconnects instead.
                let _ = socket().shutdown(Shutdown::Both);
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..slots {
            scope.spawn(slot);
        }
        slot();
    });
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

    use axi4mlir_core::explore::cache::key_to_json;
    use axi4mlir_core::explore::{DesignSpace, MatMulSpace};
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
        match connection.reader.next_frame().unwrap() {
            Frame::Value(value) => value,
            other => panic!("worker hung up: {other:?}"),
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
        for (id, candidate) in (1u64..).zip(space.enumerate().unwrap().iter().take(3)) {
            let request = JsonValue::object([
                ("type".to_owned(), "measure".into()),
                ("id".to_owned(), id.into()),
                ("fidelity".to_owned(), "full".into()),
                ("key".to_owned(), key_to_json(&candidate.key)),
            ]);
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

        // A measure without a key answers `failed`, not a hangup.
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

//! A blocking `axi4mlir-hub` client.
//!
//! Used by `axi4mlir-explore --hub` and the integration tests. The
//! client is deliberately synchronous: connect, submit, then read the
//! event stream until the job reaches a terminal state. The `done`
//! event carries the full wire-form report, which
//! [`HubClient::run`] rebuilds into the same [`ExploreReport`] a local
//! sweep would have produced — callers render output with the exact
//! code they use without a hub.
//!
//! A connection lost mid-job does not lose the job: the hub keeps
//! running it and buffers its events, so a fresh connection can send
//! `follow JOB_ID` ([`HubClient::follow`]) to replay the buffer and
//! resume the live stream. [`run_resilient`] packages that loop —
//! submit, and on connection loss reconnect-and-follow until the
//! terminal event — for callers like `axi4mlir-explore --hub` that
//! should survive a hub-side connection drop.

use std::time::Duration;

use axi4mlir_core::explore::{wire, ExploreReport, JobSpec};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{self, write_frame, Connection, Frame};

use crate::protocol::{Request, SCHEMA};

/// What the hub said in its `hello` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HubInfo {
    /// The hub's protocol schema (always [`SCHEMA`] after a successful
    /// connect).
    pub schema: String,
    /// Result-cache entries the hub held at connect time.
    pub cache_entries: usize,
    /// The hub's job-queue capacity.
    pub queue_capacity: usize,
    /// The hub's executor-thread count.
    pub workers: usize,
}

/// One connection to a hub.
pub struct HubClient {
    connection: Connection,
    info: HubInfo,
}

fn connect_err(what: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("cannot reach the hub: {what}"))
}

/// A frame's `type` tag, if it is an object carrying one.
fn frame_type(frame: &JsonValue) -> Option<&str> {
    frame.get("type")?.as_str()
}

/// A frame's `reason`, or `fallback` when it carries none.
fn reason_of<'f>(frame: &'f JsonValue, fallback: &'f str) -> &'f str {
    frame.get("reason").and_then(JsonValue::as_str).unwrap_or(fallback)
}

impl HubClient {
    /// Connects and performs the `hello` handshake, verifying the
    /// schema.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for connection failures and for a hub
    /// speaking a different schema.
    pub fn connect(addr: &str) -> Result<HubClient, Diagnostic> {
        let (connection, hello) = proto::dial(addr).map_err(|err| connect_err(err.message))?;
        let hello = hello.members("hub hello")?;
        let schema = hello.str("schema").unwrap_or("");
        if schema != SCHEMA {
            return Err(connect_err(format!(
                "schema mismatch: hub speaks `{schema}`, this client `{SCHEMA}`"
            )));
        }
        let info = HubInfo {
            schema: schema.to_owned(),
            cache_entries: hello.uint("cache_entries").unwrap_or(0),
            queue_capacity: hello.uint("queue_capacity").unwrap_or(0),
            workers: hello.uint("workers").unwrap_or(0),
        };
        Ok(HubClient { connection, info })
    }

    /// The `hello` handshake's answers.
    pub fn info(&self) -> &HubInfo {
        &self.info
    }

    fn send(&mut self, request: &Request) -> Result<(), Diagnostic> {
        write_frame(&mut self.connection.writer, &request.to_json())
            .map_err(|err| connect_err(format!("send failed: {err}")))
    }

    /// Blocks until the next frame from the hub.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] if the hub hangs up or sends a
    /// malformed frame.
    pub fn next_frame(&mut self) -> Result<JsonValue, Diagnostic> {
        match self.connection.reader.next_frame()? {
            Frame::Value(value) => Ok(value),
            // End of stream: with no read timeout, nothing else returns.
            _ => Err(connect_err("the hub closed the connection")),
        }
    }

    fn request(&mut self, request: &Request) -> Result<JsonValue, Diagnostic> {
        self.send(request)?;
        loop {
            let reply = self.next_frame()?;
            match frame_type(&reply) {
                // Progress of already-submitted jobs may interleave
                // ahead of the reply; replies stay in request order.
                Some("event") => continue,
                Some("error") => {
                    let reason = reason_of(&reply, "unknown");
                    return Err(Diagnostic::error(format!("hub rejected the request: {reason}")));
                }
                _ => return Ok(reply),
            }
        }
    }

    /// Submits one job; returns its id once the hub accepts it.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for `error` (bad spec) and `rejected`
    /// (queue full) replies.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, Diagnostic> {
        let reply = self.request(&Request::Submit { spec: Box::new(spec.clone()) })?;
        match frame_type(&reply) {
            Some("accepted") => reply.members("accepted reply")?.u64("job"),
            Some("rejected") => {
                let reason = reason_of(&reply, "rejected");
                Err(Diagnostic::error(format!("hub rejected the job: {reason}")))
            }
            other => Err(connect_err(format!("unexpected submit reply type {other:?}"))),
        }
    }

    /// Submits `spec` and follows its event stream to completion,
    /// handing every event frame (including the terminal one) to
    /// `on_event`.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the job fails, the hub shuts down
    /// mid-job, or the connection breaks.
    pub fn run(
        &mut self,
        spec: &JobSpec,
        on_event: &mut dyn FnMut(&JsonValue),
    ) -> Result<ExploreReport, Diagnostic> {
        let id = self.submit(spec)?;
        match self.await_job(id, on_event) {
            JobOutcome::Done(report) => Ok(*report),
            JobOutcome::Failed(err) | JobOutcome::Lost(err) => Err(err),
        }
    }

    /// Resumes job `id`'s event stream on this connection (replaying
    /// the hub's buffered events first) and follows it to its terminal
    /// state, exactly like [`HubClient::run`] from the `accepted` point
    /// on. Replayed events are handed to `on_event` again — a caller
    /// that saw some of them on a previous connection sees duplicates.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for an unknown/evicted job id, a failed
    /// job, or a broken connection.
    pub fn follow(
        &mut self,
        id: u64,
        on_event: &mut dyn FnMut(&JsonValue),
    ) -> Result<ExploreReport, Diagnostic> {
        match self.follow_outcome(id, on_event) {
            JobOutcome::Done(report) => Ok(*report),
            JobOutcome::Failed(err) | JobOutcome::Lost(err) => Err(err),
        }
    }

    fn follow_outcome(&mut self, id: u64, on_event: &mut dyn FnMut(&JsonValue)) -> JobOutcome {
        if let Err(err) = self.send(&Request::Follow { job: id }) {
            return JobOutcome::Lost(err);
        }
        // The `following` reply precedes the replayed events.
        loop {
            let frame = match self.next_frame() {
                Ok(frame) => frame,
                Err(err) => return JobOutcome::Lost(err),
            };
            match frame_type(&frame) {
                Some("following") => break,
                Some("error") => {
                    let reason = reason_of(&frame, "unknown");
                    return JobOutcome::Failed(Diagnostic::error(format!(
                        "hub rejected the follow: {reason}"
                    )));
                }
                _ => continue, // unrelated frames
            }
        }
        self.await_job(id, on_event)
    }

    /// Reads job `id`'s events to the terminal one, classifying how the
    /// wait ended (so a resilient caller can tell a lost connection —
    /// worth a reconnect-and-follow — from a genuinely failed job).
    fn await_job(&mut self, id: u64, on_event: &mut dyn FnMut(&JsonValue)) -> JobOutcome {
        loop {
            let frame = match self.next_frame() {
                Ok(frame) => frame,
                Err(err) => return JobOutcome::Lost(err),
            };
            let Ok(event) = frame.members("done event") else { continue };
            match event.str("type").ok() {
                Some("event") if event.u64("job") == Ok(id) => {
                    on_event(&frame);
                    match event.str("state").ok() {
                        Some("done") => {
                            let report = event.require("report").and_then(wire::report_from_json);
                            return match report {
                                Ok(report) => JobOutcome::Done(Box::new(report)),
                                Err(err) => JobOutcome::Failed(err),
                            };
                        }
                        Some("failed") => {
                            let reason = reason_of(&frame, "unknown");
                            return JobOutcome::Failed(Diagnostic::error(format!(
                                "job {id} failed: {reason}"
                            )));
                        }
                        _ => {}
                    }
                }
                Some("shutting_down") => {
                    return JobOutcome::Failed(connect_err(
                        "the hub shut down before the job finished",
                    ))
                }
                _ => {} // another job's event, or an unrelated reply
            }
        }
    }

    /// Asks for the hub's queue/cache counters.
    ///
    /// # Errors
    ///
    /// See [`HubClient::next_frame`].
    pub fn status(&mut self) -> Result<JsonValue, Diagnostic> {
        self.request(&Request::Status)
    }

    /// Requests a graceful shutdown and waits for the goodbye frame.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] if the connection breaks before the
    /// hub acknowledges.
    pub fn shutdown(mut self) -> Result<(), Diagnostic> {
        self.send(&Request::Shutdown)?;
        loop {
            match self.connection.reader.next_frame()? {
                Frame::Value(frame) if frame_type(&frame) == Some("shutting_down") => {
                    return Ok(());
                }
                Frame::Value(_) => continue,
                _ => return Ok(()),
            }
        }
    }
}

/// How waiting on a job's event stream ended.
enum JobOutcome {
    /// The terminal `done` event arrived with its report.
    Done(Box<ExploreReport>),
    /// The job failed, the hub shut down, or the hub refused the
    /// request — reconnecting will not help.
    Failed(Diagnostic),
    /// The *connection* died mid-stream; the job may well still be
    /// running, so a reconnect-and-follow can recover it.
    Lost(Diagnostic),
}

/// Runs `spec` on the hub at `addr`, surviving connection loss: when
/// the event stream dies mid-job, reconnects (up to `reconnects` times,
/// with growing pauses) and resumes via `follow`. Replayed events reach
/// `on_event` a second time — callers render streams idempotently or
/// tolerate the duplicates.
///
/// # Errors
///
/// Returns a [`Diagnostic`] when the job itself fails, the hub shuts
/// down, or the connection cannot be re-established within the retry
/// budget.
pub fn run_resilient(
    addr: &str,
    spec: &JobSpec,
    reconnects: usize,
    on_event: &mut dyn FnMut(&JsonValue),
) -> Result<ExploreReport, Diagnostic> {
    let mut client = HubClient::connect(addr)?;
    let id = client.submit(spec)?;
    let mut lost = match client.await_job(id, on_event) {
        JobOutcome::Done(report) => return Ok(*report),
        JobOutcome::Failed(err) => return Err(err),
        JobOutcome::Lost(err) => err,
    };
    for attempt in 1..=reconnects {
        std::thread::sleep(Duration::from_millis(100 * attempt as u64));
        let mut client = match HubClient::connect(addr) {
            Ok(client) => client,
            Err(err) => {
                lost = err;
                continue;
            }
        };
        match client.follow_outcome(id, on_event) {
            JobOutcome::Done(report) => return Ok(*report),
            JobOutcome::Failed(err) => return Err(err),
            JobOutcome::Lost(err) => lost = err,
        }
    }
    Err(Diagnostic::error(format!(
        "job {id}: connection lost and not recovered after {reconnects} reconnects: {}",
        lost.message
    )))
}

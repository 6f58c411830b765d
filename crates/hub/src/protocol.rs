//! The `axi4mlir-hub/v1` wire vocabulary.
//!
//! Every message is one JSON object per line (see
//! [`axi4mlir_support::proto`] for the framing), discriminated by its
//! `type` member. Clients send `Request`s; the server answers with
//! reply frames (`hello`, `accepted`, `rejected`, `error`, `status`,
//! `shutting_down`) and streams `event` frames for submitted jobs. The
//! full protocol, field by field, is documented in `docs/PROTOCOL.md` —
//! and a transcript from that document is replayed against a live hub
//! by the integration tests, so the prose cannot drift from this code.

use axi4mlir_core::explore::{JobSpec, ProgressEvent};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};

/// The protocol schema tag, exchanged in `hello`.
pub const SCHEMA: &str = "axi4mlir-hub/v1";

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Request {
    /// Identify the hub: schema, cache size, queue capacity, workers.
    Hello,
    /// Queue one exploration job at a priority (default 0; higher runs
    /// first, ties run in submission order).
    Submit {
        /// The job to queue.
        spec: Box<JobSpec>,
        /// Scheduling priority; the executor pool always takes the
        /// highest-priority queued job, FIFO within a priority.
        priority: i64,
        /// Requested per-job simulation-worker budget. `None` accepts
        /// the hub's fair share; `Some(n)` caps this job at `n` workers
        /// (further clamped to the hub's `--sim-workers`).
        sim_workers: Option<usize>,
    },
    /// Resume a job's event stream on this connection: replay the
    /// buffered events, then stream live ones (the reconnect path for a
    /// client whose connection died mid-job).
    Follow {
        /// The job id an earlier `accepted` reply named.
        job: u64,
    },
    /// Report queue/cache counters.
    Status,
    /// Ask the hub to shut down gracefully.
    Shutdown,
}

impl Request {
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for non-objects, unknown `type` tags,
    /// and malformed `submit` jobs. These are *application* errors: the
    /// server replies with an `error` frame and keeps the connection.
    pub(crate) fn from_json(value: &JsonValue) -> Result<Request, Diagnostic> {
        let m = value.members("request")?;
        match m.str("type")? {
            "hello" => Ok(Request::Hello),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let m = value.members("submit")?;
                let sim_workers = match m.opt("sim_workers", Members::u64)? {
                    Some(0) => return Err(m.invalid("sim_workers", "must be a positive integer")),
                    budget => budget.map(|n| n as usize),
                };
                Ok(Request::Submit {
                    spec: Box::new(JobSpec::from_json(m.require("job")?)?),
                    priority: m.opt("priority", Members::i64)?.unwrap_or(0),
                    sim_workers,
                })
            }
            "follow" => Ok(Request::Follow { job: value.members("follow")?.u64("job")? }),
            other => Err(Diagnostic::error(format!("unknown request type `{other}`"))),
        }
    }

    /// Serializes the request (the client side of [`Request::from_json`]).
    pub(crate) fn to_json(&self) -> JsonValue {
        match self {
            Request::Hello => tagged("hello", vec![]),
            Request::Status => tagged("status", vec![]),
            Request::Shutdown => tagged("shutdown", vec![]),
            Request::Submit { spec, priority, sim_workers } => {
                let mut members = vec![("job".to_owned(), spec.to_json())];
                // Priority 0 is the default; omitting it keeps the
                // frame identical to a pre-priority client's. Likewise
                // an unset worker budget stays off the wire.
                if *priority != 0 {
                    members.push(("priority".to_owned(), (*priority).into()));
                }
                if let Some(budget) = sim_workers {
                    members.push(("sim_workers".to_owned(), (*budget).into()));
                }
                tagged("submit", members)
            }
            Request::Follow { job } => tagged("follow", vec![("job".to_owned(), (*job).into())]),
        }
    }
}

/// Builds a `{"type": tag, ...members}` frame.
pub(crate) fn tagged(tag: &str, members: Vec<(String, JsonValue)>) -> JsonValue {
    let mut all = vec![("type".to_owned(), tag.into())];
    all.extend(members);
    JsonValue::object(all)
}

/// Builds an `error` reply.
pub(crate) fn error(reason: &str) -> JsonValue {
    tagged("error", vec![("reason".to_owned(), reason.into())])
}

/// Builds a job `event` frame in state `state` with extra members.
pub(crate) fn event(job: u64, state: &str, members: Vec<(String, JsonValue)>) -> JsonValue {
    let mut all = vec![("job".to_owned(), job.into()), ("state".to_owned(), state.into())];
    all.extend(members);
    tagged("event", all)
}

/// The `event` frame for one in-flight [`ProgressEvent`].
pub fn progress_event(job: u64, progress: &ProgressEvent) -> JsonValue {
    match progress {
        ProgressEvent::SpaceReady { space_size, survivors } => event(
            job,
            "space-ready",
            vec![
                ("space_size".to_owned(), (*space_size).into()),
                ("survivors".to_owned(), (*survivors).into()),
            ],
        ),
        ProgressEvent::RungComplete {
            fidelity,
            survivors,
            sims_performed,
            cache_hits,
            full_sims_performed,
        } => event(
            job,
            "rung-complete",
            vec![
                ("fidelity".to_owned(), fidelity.label().into()),
                ("survivors".to_owned(), (*survivors).into()),
                ("sims_performed".to_owned(), (*sims_performed).into()),
                ("cache_hits".to_owned(), (*cache_hits).into()),
                ("full_sims_performed".to_owned(), (*full_sims_performed).into()),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let spec = JobSpec { dims: Some((8, 8, 8)), ..JobSpec::default() };
        for request in [
            Request::Hello,
            Request::Status,
            Request::Shutdown,
            Request::Follow { job: 12 },
            Request::Submit { spec: Box::new(spec.clone()), priority: 0, sim_workers: None },
            Request::Submit { spec: Box::new(spec.clone()), priority: -3, sim_workers: None },
            Request::Submit { spec: Box::new(spec), priority: 0, sim_workers: Some(2) },
        ] {
            assert_eq!(Request::from_json(&request.to_json()).unwrap(), request);
        }
    }

    #[test]
    fn default_priority_stays_off_the_wire() {
        let spec = JobSpec { dims: Some((8, 8, 8)), ..JobSpec::default() };
        let plain =
            Request::Submit { spec: Box::new(spec.clone()), priority: 0, sim_workers: None }
                .to_json();
        assert!(plain.get("priority").is_none(), "priority 0 is implicit");
        assert!(plain.get("sim_workers").is_none(), "unset budget is implicit");
        let urgent =
            Request::Submit { spec: Box::new(spec), priority: 7, sim_workers: Some(3) }.to_json();
        assert_eq!(urgent.get("priority").unwrap().as_i64(), Some(7));
        assert_eq!(urgent.get("sim_workers").unwrap().as_u64(), Some(3));
        let fractional = JsonValue::parse(r#"{"type": "submit", "job": {}, "priority": 1.5}"#);
        let err = Request::from_json(&fractional.unwrap()).unwrap_err();
        assert!(err.message.contains("integer"));
        let zero = JsonValue::parse(r#"{"type": "submit", "job": {}, "sim_workers": 0}"#);
        let err = Request::from_json(&zero.unwrap()).unwrap_err();
        assert!(err.message.contains("sim_workers"));
    }

    #[test]
    fn follow_requires_a_job_id() {
        let bare = JsonValue::parse(r#"{"type": "follow"}"#).unwrap();
        assert!(Request::from_json(&bare).unwrap_err().message.contains("job"));
        let named = JsonValue::parse(r#"{"type": "follow", "job": 4}"#).unwrap();
        assert_eq!(Request::from_json(&named).unwrap(), Request::Follow { job: 4 });
    }

    #[test]
    fn bad_requests_are_application_errors() {
        let unknown = JsonValue::parse(r#"{"type": "teleport"}"#).unwrap();
        assert!(Request::from_json(&unknown).unwrap_err().message.contains("teleport"));
        let untyped = JsonValue::parse(r#"{"job": {}}"#).unwrap();
        assert!(Request::from_json(&untyped).is_err());
        let jobless = JsonValue::parse(r#"{"type": "submit"}"#).unwrap();
        assert!(Request::from_json(&jobless).unwrap_err().message.contains("job"));
    }

    #[test]
    fn progress_events_carry_the_rung_counters() {
        use axi4mlir_core::explore::Fidelity;
        let frame = progress_event(
            3,
            &ProgressEvent::RungComplete {
                fidelity: Fidelity::Proxy { level: 2 },
                survivors: 8,
                sims_performed: 10,
                cache_hits: 6,
                full_sims_performed: 0,
            },
        );
        assert_eq!(frame.get("type").unwrap().as_str(), Some("event"));
        assert_eq!(frame.get("state").unwrap().as_str(), Some("rung-complete"));
        assert_eq!(frame.get("fidelity").unwrap().as_str(), Some("proxy:2"));
        assert_eq!(frame.get("cache_hits").unwrap().as_u64(), Some(6));
    }
}

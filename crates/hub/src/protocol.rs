//! The `axi4mlir-hub/v2` wire vocabulary.
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
use axi4mlir_support::json::JsonValue;

/// The protocol schema tag, exchanged in `hello`.
pub const SCHEMA: &str = "axi4mlir-hub/v2";

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Request {
    /// Identify the hub: schema, cache size, queue capacity, workers.
    Hello,
    /// Queue one exploration job; jobs run in submission order.
    Submit {
        /// The job to queue.
        spec: Box<JobSpec>,
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
                let job = value.members("submit")?.require("job")?;
                Ok(Request::Submit { spec: Box::new(JobSpec::from_json(job)?) })
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
            Request::Submit { spec } => tagged("submit", vec![("job".to_owned(), spec.to_json())]),
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
        let submit = Request::Submit { spec: Box::new(spec) };
        let members: Vec<String> =
            submit.to_json().as_object().unwrap().iter().map(|(name, _)| name.clone()).collect();
        assert_eq!(members, ["type", "job"], "a submit carries its job and nothing else");
        for request in [
            Request::Hello,
            Request::Status,
            Request::Shutdown,
            Request::Follow { job: 12 },
            submit,
        ] {
            assert_eq!(Request::from_json(&request.to_json()).unwrap(), request);
        }
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

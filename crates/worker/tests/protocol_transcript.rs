//! Replays the worked `axi4mlir-worker/v2` transcript from
//! `docs/PROTOCOL.md` against a live in-process worker, so the
//! documented measurement protocol cannot drift from the
//! implementation. `>` lines are sent verbatim; each `<` line must
//! match the next worker frame member-for-member, with the string
//! `"<any>"` standing for timing-dependent values (counters,
//! task-clock, nanos).

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::AtomicBool;

use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, Frame, FrameReader};
use axi4mlir_worker::{Worker, WorkerConfig};

/// The `>`/`<` lines of the ```worker-transcript fenced block.
fn transcript_lines() -> Vec<(char, JsonValue)> {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    let doc = std::fs::read_to_string(doc_path).expect("docs/PROTOCOL.md exists");
    let block = doc
        .split("```worker-transcript\n")
        .nth(1)
        .and_then(|rest| rest.split("\n```").next())
        .expect("PROTOCOL.md contains a ```worker-transcript block");
    block
        .lines()
        .map(|line| {
            let (direction, json) = line.split_at(1);
            assert!(
                direction == ">" || direction == "<",
                "transcript lines start with > or <, got {line:?}"
            );
            let value = JsonValue::parse(json.trim())
                .unwrap_or_else(|err| panic!("unparsable transcript line {line:?}: {err:?}"));
            (direction.chars().next().unwrap(), value)
        })
        .collect()
}

/// Structural match: every expected member must be present and equal in
/// the actual frame — and vice versa (the doc lists *all* members a
/// frame carries). The expected string `"<any>"` matches any value.
fn matches(expected: &JsonValue, actual: &JsonValue) -> bool {
    if expected.as_str() == Some("<any>") {
        return true;
    }
    match (expected, actual) {
        (JsonValue::Object(want), JsonValue::Object(have)) => {
            want.len() == have.len()
                && want
                    .iter()
                    .all(|(name, value)| have.iter().any(|(n, v)| n == name && matches(value, v)))
        }
        (JsonValue::Array(want), JsonValue::Array(have)) => {
            want.len() == have.len() && want.iter().zip(have).all(|(w, h)| matches(w, h))
        }
        _ => expected == actual,
    }
}

#[test]
fn the_documented_transcript_replays_against_a_live_worker() {
    let lines = transcript_lines();
    assert!(lines.len() > 8, "the transcript covers a full session");

    // The transcript documents a worker started with --slots 2.
    static NEVER_STOP: AtomicBool = AtomicBool::new(false);
    let worker =
        Worker::bind(WorkerConfig { slots: 2, stop: Some(&NEVER_STOP), ..WorkerConfig::default() })
            .expect("bind");
    let addr = worker.local_addr().to_string();
    std::thread::spawn(move || worker.run().expect("worker run"));

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = FrameReader::new(BufReader::new(stream));
    for (at, (direction, value)) in lines.iter().enumerate() {
        match direction {
            '>' => write_frame(&mut writer, value).expect("send"),
            _ => {
                let frame = loop {
                    match reader.next_frame().expect("read") {
                        Frame::Value(frame) => break frame,
                        Frame::Idle => continue,
                        Frame::Eof => panic!("worker hung up before transcript line {at}"),
                    }
                };
                assert!(
                    matches(value, &frame),
                    "transcript line {at} mismatch:\n  documented: {}\n  actual:     {}",
                    value.to_json_string(),
                    frame.to_json_string()
                );
            }
        }
    }
}

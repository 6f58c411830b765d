//! Property tests for [`axi4mlir_support::proto::FrameReader`]: however
//! a byte stream is cut up — arbitrary split points, timeouts landing
//! between (or inside) UTF-8 codepoints, keep-alive blank lines,
//! missing trailing newlines — reassembling frames from the pieces must
//! produce exactly the values a whole-buffer parse produces. The framing
//! layer sits under every hub/worker socket, so "chunking is invisible"
//! is the invariant the whole wire protocol leans on.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read};

use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, Frame, FrameReader};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// Strings biased toward multi-byte UTF-8 and JSON-hostile characters,
/// so random split points regularly land inside a codepoint and escaped
/// newlines/quotes regularly cross chunk boundaries.
fn arb_string() -> BoxedStrategy<String> {
    let fragments: Vec<String> = [
        "plain ascii",
        "é",
        "日本語",
        "🚀",
        "Ω≈ç√∫",
        "line\nbreak",
        "tab\tand \"quotes\"",
        "back\\slash",
        "",
        " padded ",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    vec(select(fragments), 0..5).prop_map(|parts| parts.concat()).boxed()
}

/// Scalar JSON values. Floats are deliberately absent: this suite
/// asserts *value* equality after a print → chunk → parse trip, and the
/// framing layer makes no claims about float formatting round-trips.
fn arb_leaf() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        Just(JsonValue::Null),
        (0u64..2).prop_map(|b| JsonValue::Bool(b == 1)),
        (-1_000_000_007i64..1_000_000_007).prop_map(|n| JsonValue::Int(i128::from(n))),
        arb_string().prop_map(JsonValue::Str),
    ]
    .boxed()
}

/// One level of nesting over the leaves: arrays and objects, matching
/// the shapes the hub/worker protocols actually send.
fn arb_value() -> BoxedStrategy<JsonValue> {
    prop_oneof![
        arb_leaf(),
        vec(arb_leaf(), 0..4).prop_map(JsonValue::Array),
        vec((arb_string(), arb_leaf()), 0..3).prop_map(JsonValue::object),
    ]
    .boxed()
}

/// A wire frame: a top-level object, like every real protocol message.
fn arb_frame() -> BoxedStrategy<JsonValue> {
    vec((arb_string(), arb_value()), 0..4).prop_map(JsonValue::object).boxed()
}

/// A stream that serves scripted chunks; `None` entries surface as
/// `WouldBlock` (a socket read timeout), and exhaustion is EOF.
struct ScriptedStream {
    chunks: VecDeque<Option<Vec<u8>>>,
}

impl Read for ScriptedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.chunks.pop_front() {
            None => Ok(0),
            Some(None) => Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted timeout")),
            Some(Some(mut bytes)) => {
                if bytes.len() > buf.len() {
                    let rest = bytes.split_off(buf.len());
                    self.chunks.push_front(Some(rest));
                }
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
        }
    }
}

/// Serializes `frames` as the writer would, inserting keep-alive blank
/// lines before frames where `gaps` says to (0 = none, 1 = empty line,
/// 2 = whitespace line).
fn encode(frames: &[JsonValue], gaps: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        match gaps.get(i).copied().unwrap_or(0) {
            1 => wire.extend_from_slice(b"\n"),
            2 => wire.extend_from_slice(b"  \n"),
            _ => {}
        }
        write_frame(&mut wire, frame).expect("Vec writes cannot fail");
    }
    wire
}

/// Cuts `wire` into the scripted chunks `cuts` describes: each entry is
/// a chunk length (clamped to what remains) with an optional preceding
/// timeout; leftover bytes become one final chunk.
fn scripted(wire: &[u8], cuts: &[(usize, u8)]) -> ScriptedStream {
    let mut chunks = VecDeque::new();
    let mut at = 0;
    for &(len, timeout) in cuts {
        if timeout == 1 {
            chunks.push_back(None);
        }
        let take = len.min(wire.len() - at);
        if take > 0 {
            chunks.push_back(Some(wire[at..at + take].to_vec()));
            at += take;
        }
    }
    if at < wire.len() {
        chunks.push_back(Some(wire[at..].to_vec()));
    }
    ScriptedStream { chunks }
}

/// Drains a reader to EOF, collecting values and counting timeouts.
fn read_all(stream: ScriptedStream) -> Result<(Vec<JsonValue>, usize), String> {
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut values = Vec::new();
    let mut idles = 0usize;
    loop {
        match reader.next_frame() {
            Ok(Frame::Value(value)) => values.push(value),
            Ok(Frame::Idle) => idles += 1,
            Ok(Frame::Eof) => return Ok((values, idles)),
            Err(err) => return Err(err.message),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The founding invariant: for any frames, any chunking of their
    /// serialized bytes, any interleaved timeouts, any keep-alive blank
    /// lines, and with or without the final newline, reassembly yields
    /// exactly the frames a whole-buffer parse yields.
    #[test]
    fn reassembly_equals_whole_buffer_parsing(
        frames in vec(arb_frame(), 0..5),
        cuts in vec((1usize..48, 0u8..2), 0..64),
        gaps in vec(0u8..3, 0..5),
        trim_final_newline in 0u8..2,
    ) {
        let mut wire = encode(&frames, &gaps);
        if trim_final_newline == 1 && wire.last() == Some(&b'\n') {
            // EOF lands mid-line: the trailing frame must still parse.
            wire.pop();
        }

        let (whole, _) = read_all(scripted(&wire, &[(wire.len().max(1), 0)]))
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&whole, &frames, "whole-buffer parse is the reference");

        let (chunked, _) = read_all(scripted(&wire, &cuts)).map_err(TestCaseError::fail)?;
        prop_assert_eq!(chunked, frames, "chunking must be invisible");
    }

    /// The pathological schedule — one byte per read, a timeout between
    /// every pair of bytes — loses nothing, even though nearly every
    /// timeout lands mid-frame and many land mid-codepoint.
    #[test]
    fn a_timeout_between_every_byte_loses_nothing(frames in vec(arb_frame(), 1..4)) {
        let wire = encode(&frames, &[]);
        let mut chunks = VecDeque::new();
        for &byte in &wire {
            chunks.push_back(None);
            chunks.push_back(Some(vec![byte]));
        }
        let (values, idles) = read_all(ScriptedStream { chunks })
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(values, frames);
        prop_assert!(idles >= wire.len(), "every scripted timeout surfaced as Idle");
    }

    /// A stream torn inside its final frame (what an injected
    /// `worker.reply:torn` fault produces) still yields every complete
    /// frame before it, and the torn tail is either rejected with a
    /// diagnostic or — when the tear removed only the newline — parsed
    /// to the original value. It is never a *different* value.
    #[test]
    fn a_torn_trailing_frame_never_corrupts_earlier_frames(
        frames in vec(arb_frame(), 1..5),
        tear in 1usize..4096,
        cuts in vec((1usize..48, 0u8..2), 0..32),
    ) {
        let wire = encode(&frames, &[]);
        let intact = encode(&frames[..frames.len() - 1], &[]);
        let last_len = wire.len() - intact.len();
        // Keep 1..last_len bytes of the final frame: always torn short
        // of its newline, never torn down to nothing.
        let torn = &wire[..intact.len() + 1 + (tear % (last_len - 1).max(1))];

        let mut reader = FrameReader::new(BufReader::new(scripted(torn, &cuts)));
        for expected in &frames[..frames.len() - 1] {
            loop {
                match reader.next_frame().map_err(|err| TestCaseError::fail(err.message))? {
                    Frame::Idle => continue,
                    Frame::Value(value) => {
                        prop_assert_eq!(&value, expected, "complete frames survive the tear");
                        break;
                    }
                    Frame::Eof => return Err(TestCaseError::fail("EOF before complete frames")),
                }
            }
        }
        loop {
            match reader.next_frame() {
                Ok(Frame::Idle) => continue,
                // The tear happened to leave a full serialization (only
                // the newline missing): liberal acceptance parses it.
                Ok(Frame::Value(value)) => {
                    prop_assert_eq!(&value, frames.last().unwrap());
                    break;
                }
                // Otherwise the partial line is malformed JSON or
                // invalid UTF-8 — a diagnostic, never a wrong value.
                Err(_) => break,
                Ok(Frame::Eof) => {
                    return Err(TestCaseError::fail("a non-empty torn tail cannot be EOF"))
                }
            }
        }
    }
}

/// A too-deep frame aborted the reading process (stack overflow in the
/// JSON parser) before the nesting guard; now it is one bad frame, and
/// the reader is still usable for the next.
#[test]
fn too_deep_frames_are_diagnostics_and_later_frames_still_parse() {
    let wire = format!("{}\n{{\"n\": 1}}\n", "[".repeat(1_000_000));
    let mut reader = FrameReader::new(BufReader::new(wire.as_bytes()));
    let err = reader.next_frame().unwrap_err();
    assert!(err.message.contains("nesting deeper than"), "{}", err.message);
    assert_eq!(
        reader.next_frame().unwrap(),
        Frame::Value(JsonValue::object([("n".to_owned(), JsonValue::Int(1))]))
    );
}

/// The partial-line buffer is bounded: an endless newline-less stream is
/// refused at the cap, while a line of exactly the cap is still a frame.
#[test]
fn a_newline_less_stream_is_refused_at_the_cap() {
    use axi4mlir_support::proto::MAX_FRAME_BYTES;
    let mut reader = FrameReader::new(BufReader::new(io::repeat(b'x')));
    let err = reader.next_frame().unwrap_err();
    assert!(err.message.contains("exceeds 67108864 bytes"), "{}", err.message);
    let mut line = vec![b' '; MAX_FRAME_BYTES - 1];
    line.extend_from_slice(b"1\n");
    let mut reader = FrameReader::new(BufReader::new(line.as_slice()));
    assert_eq!(reader.next_frame().unwrap(), Frame::Value(JsonValue::Int(1)));
}

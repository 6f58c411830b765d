//! Newline-delimited JSON framing for wire protocols, the one TCP serve
//! loop both daemons run, and the one handshake their clients dial.
//!
//! The hub daemon and the remote measurement workers speak a line
//! protocol: every message is one [`JsonValue`]
//! serialized *compactly* (no embedded newlines — the JSON writer escapes
//! them inside strings) followed by `\n`. This module owns the framing so
//! both sides agree on it:
//!
//! - [`write_frame`] serializes and flushes one message;
//! - [`FrameReader`] accumulates bytes from any [`BufRead`] into frames.
//!   A partially received line stays buffered until the rest arrives,
//!   also across a read timeout (which surfaces as [`Frame::Idle`]), so
//!   no byte is lost wherever a read is cut short.
//!
//! Blank lines are ignored (a `nc` user pressing return twice should not
//! kill the connection), and EOF with a non-empty trailing line still
//! parses it — be liberal in what you accept. Liberal, not unbounded: a
//! line may not exceed [`MAX_FRAME_BYTES`] and a frame may not nest
//! deeper than [`crate::text::MAX_DEPTH`]; either is a [`Diagnostic`]
//! from [`FrameReader::next_frame`], which both daemons answer with an
//! `error` frame before hanging up on that one connection.
//!
//! Daemons write their frames through [`write_frame_at`], which names the
//! write's *fault site* so an installed [`crate::fault::FaultPlan`] can
//! script a drop, a torn frame, or a delay at that exact write. With no
//! plan installed it is [`write_frame`] plus one atomic load.
//!
//! The socket side lives here too, once: [`bind`] opens a daemon's
//! listener, [`serve`] is the accept loop (one thread per connection),
//! [`Connection::open`] is the socket setup every protocol endpoint —
//! accepted or dialed — goes through, and [`dial`] is the one client
//! handshake. Every protocol read blocks until a frame arrives or the
//! peer hangs up; a daemon that stops wakes its own reads by shutting
//! their sockets down. The one timed read is `dial`'s wait for the
//! `hello` reply, bounded by [`HELLO_DEADLINE`]; the one other deadline,
//! `STOP_DEADLINE`, bounds how late an idle listener notices its stop
//! condition.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::diag::Diagnostic;
use crate::fault::{self, FaultAction};
use crate::json::JsonValue;

/// Serializes `value` compactly onto `writer`, appends `\n`, and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error (a closed peer surfaces here as
/// `BrokenPipe`).
pub fn write_frame<W: Write>(writer: &mut W, value: &JsonValue) -> io::Result<()> {
    let mut line = value.to_json_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// [`write_frame`] through the named fault site: an installed
/// [`fault::FaultPlan`] event scripted at `site` can drop the frame
/// (error before any byte is written), tear it (a seeded prefix goes out,
/// then an error — the peer sees a partial NDJSON line), delay it, crash
/// the process, or fail it. Unscripted ticks write normally.
///
/// # Errors
///
/// Propagates underlying I/O errors; injected drops/tears surface as
/// `BrokenPipe`/`ConnectionReset` just as real peer loss would.
pub fn write_frame_at<W: Write>(site: &str, writer: &mut W, value: &JsonValue) -> io::Result<()> {
    let Some(plan) = fault::active() else {
        return write_frame(writer, value);
    };
    match plan.tick(site) {
        None => write_frame(writer, value),
        Some(FaultAction::Drop) => {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, format!("injected drop at {site}")))
        }
        Some(FaultAction::Torn) => {
            let mut line = value.to_json_string();
            line.push('\n');
            let split = plan.split_point(site, line.len());
            writer.write_all(&line.as_bytes()[..split])?;
            writer.flush()?;
            Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("injected torn frame at {site} ({split}/{} bytes)", line.len()),
            ))
        }
        Some(FaultAction::Delay(pause)) => {
            std::thread::sleep(pause);
            write_frame(writer, value)
        }
        Some(FaultAction::Crash(code)) => {
            let _ = writer.flush();
            std::process::exit(code);
        }
        Some(FaultAction::Fail) => Err(io::Error::other(format!("injected failure at {site}"))),
    }
}

/// One read attempt's outcome.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// A complete message arrived.
    Value(JsonValue),
    /// The peer closed the connection (any buffered partial line was
    /// empty or already returned).
    Eof,
    /// The read timed out before a full line arrived; received bytes stay
    /// buffered. Only surfaces on a stream with a read timeout, which
    /// among protocol sockets is [`dial`]'s handshake alone.
    Idle,
}

/// Accumulates newline-delimited JSON frames from a [`BufRead`] stream.
///
/// The partial-line buffer is *bytes*, not a `String`: `read_line`'s
/// UTF-8 guard discards everything it appended when an error (such as a
/// read timeout) arrives while the accumulated bytes end mid-codepoint,
/// silently losing data. Frames here accumulate via `read_until` and are
/// validated as UTF-8 only at the frame boundary, so a timeout can land
/// on any byte — including inside a multi-byte codepoint — without loss.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    partial: Vec<u8>,
}

fn parse_line(bytes: &[u8]) -> Result<Option<JsonValue>, Diagnostic> {
    let line = std::str::from_utf8(bytes)
        .map_err(|err| Diagnostic::error(format!("frame is not valid UTF-8: {err}")))?
        .trim();
    if line.is_empty() {
        return Ok(None); // blank keep-alive line
    }
    JsonValue::parse(line).map(Some)
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps a buffered stream.
    pub fn new(inner: R) -> Self {
        Self { inner, partial: Vec::new() }
    }

    /// Reads until one frame, EOF, or a timeout.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for malformed JSON lines (including ones
    /// nested deeper than [`crate::text::MAX_DEPTH`]), invalid UTF-8, a
    /// line longer than [`MAX_FRAME_BYTES`] (the buffered bytes are
    /// dropped), and I/O errors other than timeouts.
    pub fn next_frame(&mut self) -> Result<Frame, Diagnostic> {
        loop {
            // One byte of headroom tells an oversized line from one that
            // exactly fits.
            let room = (MAX_FRAME_BYTES + 1 - self.partial.len()) as u64;
            match (&mut self.inner).take(room).read_until(b'\n', &mut self.partial) {
                Ok(0) => {
                    // EOF: parse a non-empty trailing line, else done.
                    let line = std::mem::take(&mut self.partial);
                    return match parse_line(&line)? {
                        Some(value) => Ok(Frame::Value(value)),
                        None => Ok(Frame::Eof),
                    };
                }
                Ok(_) => {
                    if self.partial.last() != Some(&b'\n') {
                        if self.partial.len() > MAX_FRAME_BYTES {
                            self.partial = Vec::new();
                            return Err(Diagnostic::error(format!(
                                "frame exceeds {MAX_FRAME_BYTES} bytes without a newline"
                            )));
                        }
                        // A timeout can interrupt `read_until` after a
                        // partial read; keep accumulating.
                        continue;
                    }
                    let line = std::mem::take(&mut self.partial);
                    match parse_line(&line)? {
                        Some(value) => return Ok(Frame::Value(value)),
                        None => continue,
                    }
                }
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(Frame::Idle);
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(err) => {
                    return Err(Diagnostic::error(format!("connection read failed: {err}")))
                }
            }
        }
    }
}

/// The longest line a [`FrameReader`] buffers: a peer that streams
/// bytes without ever sending `\n` is refused here instead of growing
/// the daemon without limit. Three thousand times the largest frame the
/// stack produces (a ~22 KiB `done` event carrying a full report).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How late a bare store to a stop flag may be noticed: the longest an
/// idle [`serve`] waits for a connection before it looks at its stop
/// condition again. A connection that arrives is accepted at once; this
/// deadline never delays one.
const STOP_DEADLINE: Duration = Duration::from_millis(50);

/// How long [`dial`] waits for the peer's `hello` reply before it
/// declares the peer unreachable.
pub const HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// One protocol connection: the framed read half and the write half of
/// a TCP stream.
#[derive(Debug)]
pub struct Connection {
    /// Frames arriving from the peer.
    pub reader: FrameReader<BufReader<TcpStream>>,
    /// The write half, for [`write_frame`] / [`write_frame_at`].
    pub writer: TcpStream,
}

impl Connection {
    /// Sets up a connected socket — accepted or dialed — for the frame
    /// protocol: blocking reads with no timeout, `TCP_NODELAY` (frames
    /// are small and latency-bound), and a cloned write half.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option and clone errors.
    pub fn open(stream: TcpStream) -> io::Result<Connection> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Connection { reader: FrameReader::new(BufReader::new(stream)), writer })
    }
}

/// Dials a protocol peer and performs the `hello` handshake: connects,
/// [`Connection::open`]s the socket, sends `{"type":"hello"}`, and
/// returns the connection with the peer's first frame, its reply. That
/// read is the one protocol read with a timer: a peer that sends nothing
/// for [`HELLO_DEADLINE`] is refused, and the timeout is cleared before
/// the connection is handed over. Checking the reply is the caller's,
/// since each protocol has its own schema.
///
/// # Errors
///
/// Returns a [`Diagnostic`] saying what failed: the connect, the socket
/// setup, the `hello` write, a peer that hangs up or stays silent, or a
/// malformed reply.
pub fn dial(addr: &str) -> Result<(Connection, JsonValue), Diagnostic> {
    let failed = |what: &str, err: io::Error| Diagnostic::error(format!("{what}: {err}"));
    let stream = TcpStream::connect(addr).map_err(|err| failed("cannot connect", err))?;
    let setup = |err| failed("socket setup failed", err);
    stream.set_read_timeout(Some(HELLO_DEADLINE)).map_err(setup)?;
    let mut connection = Connection::open(stream).map_err(setup)?;
    let hello = JsonValue::object([("type".to_owned(), "hello".into())]);
    write_frame(&mut connection.writer, &hello).map_err(|err| failed("hello failed", err))?;
    let reply = match connection.reader.next_frame()? {
        Frame::Value(reply) => reply,
        Frame::Eof => return Err(Diagnostic::error("closed during handshake")),
        Frame::Idle => {
            return Err(Diagnostic::error(format!("no hello reply within {HELLO_DEADLINE:?}")))
        }
    };
    // A socket option: clearing it through the write half's clone
    // clears it for the read half too.
    connection.writer.set_read_timeout(None).map_err(setup)?;
    Ok((connection, reply))
}

/// Binds a daemon's listener and resolves the bound address (port 0
/// picks a free port).
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming `addr` for bind failures.
pub fn bind(addr: &str) -> Result<(TcpListener, SocketAddr), Diagnostic> {
    let listener = TcpListener::bind(addr)
        .map_err(|err| Diagnostic::error(format!("cannot bind {addr}: {err}")))?;
    let local = listener
        .local_addr()
        .map_err(|err| Diagnostic::error(format!("cannot resolve bound address: {err}")))?;
    Ok((listener, local))
}

/// `poll(2)`'s descriptor record.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

// `poll` comes from libc, which every Rust binary already links; an
// inline declaration avoids a dependency the build image lacks.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// Blocks until `listener` has a connection to accept (`true`) or
/// `timeout` passes (`false`).
fn wait_readable(listener: &TcpListener, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    // SAFETY: `poll` is the C library's, declared with its ABI; it reads
    // and writes exactly the one `PollFd` it is given, which lives
    // across the call, and `fd` stays open because `listener` is
    // borrowed for it.
    let ready = unsafe { poll(&mut fd, 1, timeout.as_millis() as i32) };
    match ready {
        -1 => {
            let err = io::Error::last_os_error();
            // A signal (SIGTERM) landed: the caller looks at its stop
            // condition sooner, which is what the signal asked for.
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// A connection [`serve`] handed to a thread of its own: the thread, not
/// joined, and a handle on the connection's socket.
pub type Live = (JoinHandle<()>, Arc<TcpStream>);

/// The accept loop: until `stopping()` holds, every accepted socket is
/// [`Connection::open`]ed and handed to `on_connection` on a thread of
/// its own (a socket whose setup fails is dropped — that affects one
/// peer only), which shuts the socket down once `on_connection` returns.
/// A connection is accepted the moment it arrives; an idle loop looks at
/// `stopping()` every `STOP_DEADLINE`. Returns the connections still
/// live, *not joined*, each with a handle on its socket: the caller
/// decides what must happen before it waits for them (the hub drains its
/// executors and fails leftover jobs first, so connections have terminal
/// events to forward; the worker shuts their read halves, which wakes
/// its slots blocked in a read).
///
/// # Errors
///
/// Returns a [`Diagnostic`] when the listener itself fails.
pub fn serve<F>(
    listener: &TcpListener,
    stopping: impl Fn() -> bool,
    on_connection: F,
) -> Result<Vec<Live>, Diagnostic>
where
    F: Fn(Connection) + Send + Sync + 'static,
{
    let failed = |err: io::Error| Diagnostic::error(format!("listener failed: {err}"));
    let on_connection = Arc::new(on_connection);
    let mut connections: Vec<Live> = Vec::new();
    while !stopping() {
        if !wait_readable(listener, STOP_DEADLINE).map_err(failed)? {
            continue;
        }
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(failed(err)),
        };
        let Ok(socket) = stream.try_clone().map(Arc::new) else { continue };
        let on_connection = Arc::clone(&on_connection);
        let own = Arc::clone(&socket);
        let thread = std::thread::spawn(move || {
            if let Ok(connection) = Connection::open(stream) {
                on_connection(connection);
            }
            // The peer sees the hang-up now, not when `serve` lets go of
            // its handle.
            let _ = own.shutdown(Shutdown::Both);
        });
        connections.push((thread, socket));
        connections.retain(|(thread, _)| !thread.is_finished());
    }
    Ok(connections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let a = JsonValue::object([("type".to_owned(), "hello".into())]);
        let b = JsonValue::object([
            ("type".to_owned(), "submit".into()),
            ("note".to_owned(), "line\nbreak".into()),
        ]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &a).unwrap();
        write_frame(&mut wire, &b).unwrap();
        // Embedded newlines are escaped, so the stream is exactly 2 lines.
        assert_eq!(wire.iter().filter(|&&c| c == b'\n').count(), 2);
        let mut reader = FrameReader::new(BufReader::new(wire.as_slice()));
        assert_eq!(reader.next_frame().unwrap(), Frame::Value(a));
        assert_eq!(reader.next_frame().unwrap(), Frame::Value(b));
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn blank_lines_are_skipped_and_trailing_lines_parse() {
        let wire = b"\n  \n{\"n\": 1}\n{\"n\": 2}";
        let mut reader = FrameReader::new(BufReader::new(wire.as_slice()));
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Value(JsonValue::object([("n".to_owned(), 1u64.into())]))
        );
        // The last frame has no trailing newline (EOF mid-line).
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Value(JsonValue::object([("n".to_owned(), 2u64.into())]))
        );
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn malformed_lines_are_diagnostics() {
        let mut reader = FrameReader::new(BufReader::new(b"not json\n".as_slice()));
        assert!(reader.next_frame().is_err());
    }

    /// A reader that yields a timeout between two halves of one line.
    struct ChunkedTimeout {
        chunks: Vec<Option<&'static [u8]>>, // None = timeout
        at: usize,
    }

    impl io::Read for ChunkedTimeout {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.chunks.get(self.at) {
                None => Ok(0),
                Some(None) => {
                    self.at += 1;
                    Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"))
                }
                Some(Some(bytes)) => {
                    self.at += 1;
                    buf[..bytes.len()].copy_from_slice(bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn partial_lines_survive_timeouts() {
        let inner =
            ChunkedTimeout { chunks: vec![Some(b"{\"ha"), None, Some(b"lf\": true}\n")], at: 0 };
        let mut reader = FrameReader::new(BufReader::new(inner));
        assert_eq!(reader.next_frame().unwrap(), Frame::Idle);
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Value(JsonValue::object([("half".to_owned(), true.into())]))
        );
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    /// Regression: a timeout landing *inside* a multi-byte UTF-8
    /// codepoint must not lose the buffered half. (`read_line`'s UTF-8
    /// guard truncated the appended bytes in exactly this case, so the
    /// reassembled frame was silently missing its prefix.)
    #[test]
    fn timeouts_inside_a_codepoint_lose_nothing() {
        // "é" is C3 A9; the timeout splits it.
        let inner = ChunkedTimeout {
            chunks: vec![Some(b"{\"k\": \"\xc3"), None, Some(b"\xa9\"}\n")],
            at: 0,
        };
        let mut reader = FrameReader::new(BufReader::new(inner));
        assert_eq!(reader.next_frame().unwrap(), Frame::Idle);
        assert_eq!(
            reader.next_frame().unwrap(),
            Frame::Value(JsonValue::object([("k".to_owned(), "é".into())]))
        );
        assert_eq!(reader.next_frame().unwrap(), Frame::Eof);
    }

    #[test]
    fn injected_faults_shape_the_wire() {
        let plan = crate::fault::FaultPlan::parse("seed=3,t.send:drop@1,t.send:torn@2").unwrap();
        let value = JsonValue::object([("payload".to_owned(), "0123456789".into())]);
        // Without a global install, exercise the action mapping directly
        // through a plan-scoped helper: tick 1 drops…
        let mut wire = Vec::new();
        assert_eq!(plan.tick("t.send"), Some(crate::fault::FaultAction::Drop));
        // …tick 2 tears: an interior prefix goes out.
        assert_eq!(plan.tick("t.send"), Some(crate::fault::FaultAction::Torn));
        let mut line = value.to_json_string();
        line.push('\n');
        let split = plan.split_point("t.send", line.len());
        wire.extend_from_slice(&line.as_bytes()[..split]);
        assert!(!wire.is_empty() && wire.len() < line.len());
        // A reader sees the torn prefix as an unterminated partial line.
        let mut reader = FrameReader::new(BufReader::new(wire.as_slice()));
        assert!(matches!(reader.next_frame(), Ok(Frame::Eof) | Err(_)));
    }
}

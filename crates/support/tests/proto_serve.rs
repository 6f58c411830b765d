//! The one TCP serve loop both daemons run ([`proto::serve`]) against a
//! real socket: accepted connections reach the handler set up for the
//! frame protocol, and stopping hands the live connection handles back
//! unjoined.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{self, write_frame, Connection, Frame, MAX_FRAME_BYTES};

#[test]
fn serve_hands_connections_out_and_live_handles_back() {
    let (listener, addr) = proto::bind("127.0.0.1:0").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let polled = Arc::clone(&stop);
    // The handler echoes frames until its peer hangs up.
    let serving = std::thread::spawn(move || {
        proto::serve(
            &listener,
            || polled.load(Ordering::SeqCst),
            |mut connection| loop {
                match connection.reader.next_frame() {
                    Ok(Frame::Value(value)) => {
                        write_frame(&mut connection.writer, &value).unwrap();
                    }
                    Ok(Frame::Idle) => continue,
                    Ok(Frame::Eof) | Err(_) => return,
                }
            },
        )
    });
    let mut peer = Connection::open(TcpStream::connect(addr).unwrap()).unwrap();
    assert!(peer.writer.nodelay().unwrap(), "every protocol socket sets TCP_NODELAY");
    let ping = JsonValue::object([("n".to_owned(), 1u64.into())]);
    write_frame(&mut peer.writer, &ping).unwrap();
    let echoed = loop {
        match peer.reader.next_frame().unwrap() {
            Frame::Idle => continue, // READ_TIMEOUT ticks, never an error
            frame => break frame,
        }
    };
    assert_eq!(echoed, Frame::Value(ping));

    // Stopping returns the still-open connection unjoined; it ends when
    // its peer does.
    stop.store(true, Ordering::SeqCst);
    let live = serving.join().unwrap().unwrap();
    assert_eq!(live.len(), 1);
    drop(peer);
    for handle in live {
        handle.join().unwrap();
    }
}

/// A peer that streams bytes without ever sending `\n` is refused at
/// [`MAX_FRAME_BYTES`] (it used to grow the daemon's buffer without
/// limit): that connection gets the daemons' error-then-hang-up, and
/// the serve loop keeps accepting.
#[test]
fn a_newline_less_stream_is_refused_and_the_loop_keeps_serving() {
    let (listener, addr) = proto::bind("127.0.0.1:0").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let polled = Arc::clone(&stop);
    // The daemons' connection loop in miniature: echo frames; on a
    // framing error say why, then hang up.
    let serving = std::thread::spawn(move || {
        proto::serve(
            &listener,
            || polled.load(Ordering::SeqCst),
            |mut connection| loop {
                match connection.reader.next_frame() {
                    Ok(Frame::Value(value)) => write_frame(&mut connection.writer, &value).unwrap(),
                    Ok(Frame::Idle) => continue,
                    Ok(Frame::Eof) => return,
                    Err(err) => {
                        let reason = JsonValue::object([("error".to_owned(), err.message.into())]);
                        let _ = write_frame(&mut connection.writer, &reason);
                        return;
                    }
                }
            },
        )
    });
    let next_value = |peer: &mut Connection| loop {
        match peer.reader.next_frame().unwrap() {
            Frame::Idle => continue,
            frame => break frame,
        }
    };

    let mut flood = Connection::open(TcpStream::connect(addr).unwrap()).unwrap();
    flood.writer.write_all(&vec![b'['; MAX_FRAME_BYTES + 1]).unwrap();
    let Frame::Value(refusal) = next_value(&mut flood) else { panic!("expected the refusal") };
    let reason = refusal.get("error").and_then(JsonValue::as_str).unwrap();
    assert!(reason.contains("exceeds 67108864 bytes without a newline"), "{reason}");
    assert_eq!(next_value(&mut flood), Frame::Eof, "then the connection is closed");

    let mut peer = Connection::open(TcpStream::connect(addr).unwrap()).unwrap();
    let ping = JsonValue::object([("n".to_owned(), 2u64.into())]);
    write_frame(&mut peer.writer, &ping).unwrap();
    assert_eq!(next_value(&mut peer), Frame::Value(ping), "a fresh connection is served");

    stop.store(true, Ordering::SeqCst);
    drop(peer);
    for handle in serving.join().unwrap().unwrap() {
        handle.join().unwrap();
    }
}

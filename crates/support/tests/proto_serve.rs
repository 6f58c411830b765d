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
    // The read blocks until the echo arrives: no socket carries a timer.
    assert_eq!(peer.reader.next_frame().unwrap(), Frame::Value(ping));

    // Stopping returns the still-open connection unjoined; it ends when
    // its peer does.
    stop.store(true, Ordering::SeqCst);
    let live = serving.join().unwrap().unwrap();
    assert_eq!(live.len(), 1);
    drop(peer);
    for (handle, _) in live {
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
    for (handle, _) in serving.join().unwrap().unwrap() {
        handle.join().unwrap();
    }
}

/// Starts [`proto::serve`] with a frame-echoing handler; returns the
/// bound address, the stop flag, and the serving thread.
fn echo_server(
) -> (std::net::SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<Vec<proto::Live>>) {
    let (listener, addr) = proto::bind("127.0.0.1:0").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let polled = Arc::clone(&stop);
    let serving = std::thread::spawn(move || {
        proto::serve(
            &listener,
            || polled.load(Ordering::SeqCst),
            |mut connection| loop {
                match connection.reader.next_frame() {
                    Ok(Frame::Value(value)) => {
                        if write_frame(&mut connection.writer, &value).is_err() {
                            return;
                        }
                    }
                    Ok(Frame::Idle) => continue,
                    Ok(Frame::Eof) | Err(_) => return,
                }
            },
        )
        .unwrap()
    });
    (addr, stop, serving)
}

/// A connection is accepted the moment it arrives: no accept loop sleeps
/// between looks at the listener. (With a 25 ms sleep between polls, the
/// median connect-to-first-echo was about half of it.)
#[test]
fn a_fresh_connection_is_served_without_waiting_on_a_timer() {
    let (addr, stop, serving) = echo_server();
    let ping = JsonValue::object([("n".to_owned(), 3u64.into())]);
    let mut samples: Vec<std::time::Duration> = (0..10)
        .map(|_| {
            let started = std::time::Instant::now();
            let mut peer = Connection::open(TcpStream::connect(addr).unwrap()).unwrap();
            write_frame(&mut peer.writer, &ping).unwrap();
            loop {
                match peer.reader.next_frame().unwrap() {
                    Frame::Idle => continue,
                    frame => break assert_eq!(frame, Frame::Value(ping.clone())),
                }
            }
            started.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(5),
        "connect to first echo took {median:?} in the median: {samples:?}"
    );
    stop.store(true, Ordering::SeqCst);
    for (handle, _) in serving.join().unwrap() {
        handle.join().unwrap();
    }
}

/// The stop flag is a bare store nothing notifies (a signal handler sets
/// it): an idle `serve` still notices it within its bounded wait, with no
/// connection arriving to wake it.
#[test]
fn serve_returns_after_a_bare_flag_store_with_no_connection() {
    let (_addr, stop, serving) = echo_server();
    std::thread::sleep(std::time::Duration::from_millis(20));
    stop.store(true, Ordering::SeqCst);
    let (returned_tx, returned_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || returned_tx.send(serving.join().unwrap()).unwrap());
    let live = returned_rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("serve returns within its stop deadline after the flag is raised");
    assert!(live.is_empty(), "no connection was ever accepted");
}

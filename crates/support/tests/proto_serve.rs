//! The one TCP serve loop both daemons run ([`proto::serve`]) against a
//! real socket: accepted connections reach the handler set up for the
//! frame protocol, and stopping hands the live connection handles back
//! unjoined.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{self, write_frame, Connection, Frame};

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

//! A worker compiles each module once: its slots compile through one
//! memo of programs that outlives every connection, and a module does not
//! depend on the data seed. So measuring the same candidates under a new
//! seed, on a new connection, compiles nothing, and every reply equals a
//! fresh session's bit for bit (wall-clock `nanos` aside).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use axi4mlir_core::driver::{ProgramMemo, Session};
use axi4mlir_core::explore::cache::key_to_json;
use axi4mlir_core::explore::measure::handle_measure;
use axi4mlir_core::explore::{CandidateKey, DesignSpace, MatMulSpace};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, Connection, Frame};
use axi4mlir_worker::{Worker, WorkerConfig, WorkerSummary};
use axi4mlir_workloads::matmul::MatMulProblem;

/// Three candidates of the 8³ space: three distinct modules.
fn candidates() -> Vec<CandidateKey> {
    let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8));
    space.enumerate().unwrap().iter().take(3).map(|candidate| candidate.key).collect()
}

/// The `measure` frame for `key` under `seed`.
fn measure(id: u64, key: &CandidateKey, seed: u64) -> JsonValue {
    JsonValue::object([
        ("type".to_owned(), "measure".into()),
        ("id".to_owned(), id.into()),
        ("fidelity".to_owned(), "full".into()),
        ("key".to_owned(), key_to_json(&CandidateKey { seed, ..*key })),
    ])
}

/// A reply as text, without its wall-clock `nanos`.
fn untimed(reply: &JsonValue) -> String {
    let members = reply.as_object().expect("a reply is an object");
    let kept = members.iter().filter(|(name, _)| name != "nanos").cloned();
    JsonValue::object(kept).to_json_string()
}

/// What a fresh session answers to `frame`.
fn fresh(frame: &JsonValue) -> String {
    untimed(&handle_measure(&mut Session::for_sweep(), frame))
}

#[test]
fn a_worker_compiles_a_module_once_across_seeds_and_connections() {
    static STOP: AtomicBool = AtomicBool::new(false);
    let worker =
        Worker::bind(WorkerConfig { slots: 1, stop: Some(&STOP), ..WorkerConfig::default() })
            .unwrap();
    let addr = worker.local_addr();
    let serving = std::thread::spawn(move || worker.run().unwrap());

    let keys = candidates();
    for seed in [3, 11] {
        let mut peer = Connection::open(TcpStream::connect(addr).unwrap()).unwrap();
        for (id, key) in (1u64..).zip(&keys) {
            let frame = measure(id, key, seed);
            write_frame(&mut peer.writer, &frame).unwrap();
            let Frame::Value(reply) = peer.reader.next_frame().unwrap() else {
                panic!("the worker hung up");
            };
            assert_eq!(reply.get("type").and_then(JsonValue::as_str), Some("result"));
            assert_eq!(untimed(&reply), fresh(&frame), "seed {seed}, candidate {id}");
        }
    }

    STOP.store(true, Ordering::SeqCst);
    let summary = serving.join().unwrap();
    assert_eq!(
        summary,
        WorkerSummary { connections: 2, measured: 6, compiled: 3 },
        "one compile per distinct module, not per measure"
    );
}

#[test]
fn a_memo_past_its_bound_evicts_the_least_recent_and_recompiles() {
    // Two kept modules over three: a worker slot's session, past the bound.
    let programs = Arc::new(ProgramMemo::new(2));
    let mut session = Session::with_programs(Arc::clone(&programs));
    let keys = candidates();
    let [a, b, c] = [&keys[0], &keys[1], &keys[2]];
    // (candidate, seed, modules compiled after it): `a`, used again before
    // `c` arrives, outlives `b`, which `c` evicts and which then evicts `c`
    // (the least recent by then).
    let steps = [(a, 3, 1), (b, 3, 2), (a, 11, 2), (c, 3, 3), (a, 5, 3), (b, 11, 4), (a, 7, 4)];
    for (id, (key, seed, compiled)) in (1u64..).zip(steps) {
        let frame = measure(id, key, seed);
        let reply = handle_measure(&mut session, &frame);
        assert_eq!(reply.get("type").and_then(JsonValue::as_str), Some("result"));
        assert_eq!(untimed(&reply), fresh(&frame), "step {id}");
        assert_eq!(programs.compiled(), compiled, "step {id}");
    }
}

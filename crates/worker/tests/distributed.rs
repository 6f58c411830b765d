//! Integration tests for distributed measurement: a sweep fanned out
//! to `axi4mlir-worker` daemons must produce a report bit-identical
//! (timing aside) to the local thread pool, survive losing a worker
//! mid-sweep with correct counters, and — run through a hub — still
//! dedup racing identical jobs down to one isolated sweep's cost.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use axi4mlir_core::explore::cache::key_to_json;
use axi4mlir_core::explore::{
    AccelInstance, CandidateKey, ConvSpace, DesignSpace, Device, Explorer, HalvingSpec, JobSpec,
    MatMulSpace, Objective, Problem, ProgressEvent, Prune, RemotePool, Search,
};
use axi4mlir_hub::{Hub, HubClient, HubConfig};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, Connection, Frame};
use axi4mlir_worker::{Worker, WorkerConfig};
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

/// Starts an in-process worker daemon on a free port; it serves until
/// the test process exits (the stop flag is never raised).
fn start_worker(slots: usize) -> String {
    static NEVER_STOP: AtomicBool = AtomicBool::new(false);
    let worker =
        Worker::bind(WorkerConfig { slots, stop: Some(&NEVER_STOP), ..WorkerConfig::default() })
            .expect("bind worker");
    let addr = worker.local_addr().to_string();
    std::thread::spawn(move || worker.run().expect("worker run"));
    addr
}

/// Spawns the real `axi4mlir-worker` binary and parses its banner for
/// the resolved address.
fn spawn_worker_binary() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_axi4mlir-worker"))
        .args(["--bind", "127.0.0.1:0", "--slots", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the worker daemon");
    let stdout = child.stdout.take().unwrap();
    let banner = BufReader::new(stdout).lines().next().unwrap().unwrap();
    let addr = banner.strip_prefix("axi4mlir-worker listening on ").expect("banner").to_owned();
    (child, addr)
}

/// The cubic MatMul space on a base-8 v4, seed 7.
fn base8_space(dims: i64) -> MatMulSpace {
    MatMulSpace::new(MatMulProblem::square(dims)).accels(vec![AccelInstance::v4(8)]).seed(7)
}

#[test]
fn remote_sweeps_are_bit_identical_to_the_local_pool() {
    // 32 candidates, exhaustively measured: every result crosses the
    // wire, so any nondeterminism in the fan-out would show.
    let space = base8_space(16);
    let sweep = |explorer: &Explorer| {
        explorer.explore_streaming(&space, Prune::None, &Search::Exhaustive, 4, &[], &|_| true)
    };
    let local = sweep(&Explorer::new()).expect("local sweep");
    assert_eq!(local.measure_backend, "local");

    let addrs = vec![start_worker(2), start_worker(2)];
    let mut explorer = Explorer::new();
    explorer.set_remote_pool(RemotePool::new(addrs));
    let remote = sweep(&explorer).expect("remote sweep");

    assert_eq!(remote.measure_backend, "remote:2");
    assert_eq!(local.evaluations.len(), remote.evaluations.len());
    for (l, r) in local.evaluations.iter().zip(&remote.evaluations) {
        assert_eq!(l.deterministic_key(), r.deterministic_key());
    }
    assert_eq!(
        local.optimum().unwrap().deterministic_key(),
        remote.optimum().unwrap().deterministic_key()
    );
    assert_eq!(remote.sims_performed, local.sims_performed);
    assert_eq!(remote.full_sims_performed, local.full_sims_performed);

    // Every simulation is attributed to the worker that ran it, and
    // the per-worker counts account for the whole sweep.
    assert!(!remote.worker_sims.is_empty());
    let attributed: usize = remote.worker_sims.iter().map(|(_, sims)| sims).sum();
    assert_eq!(attributed, remote.sims_performed);
    assert!(remote.worker_sims.iter().all(|(worker, _)| worker != "local"));
}

#[test]
fn killing_a_worker_mid_sweep_only_degrades_throughput() {
    // A halving sweep with several rungs on a bigger space, so the
    // kill lands with plenty of measurements still to schedule.
    let space = base8_space(32);
    let search = Search::Halving(HalvingSpec::default());
    let baseline = Explorer::new()
        .explore_streaming(&space, Prune::None, &search, 2, &[], &|_| true)
        .expect("local baseline sweep");
    assert!(baseline.sims_performed > 0);

    let (victim, victim_addr) = spawn_worker_binary();
    let (mut survivor, survivor_addr) = spawn_worker_binary();
    let mut explorer = Explorer::new();
    explorer.set_remote_pool(RemotePool::new(vec![victim_addr, survivor_addr.clone()]));

    let victim = Mutex::new(Some(victim));
    let rungs = AtomicUsize::new(0);
    let observer = |event: &ProgressEvent| {
        if matches!(event, ProgressEvent::RungComplete { .. })
            && rungs.fetch_add(1, Ordering::Relaxed) == 0
        {
            // First rung done: hard-kill one of the two workers. The
            // scheduler must requeue its claims on the survivor.
            if let Some(mut child) = victim.lock().unwrap().take() {
                child.kill().expect("kill the worker");
                child.wait().expect("reap the worker");
            }
        }
        true
    };
    let report = explorer
        .explore_streaming(&space, Prune::None, &search, 2, &[Objective::TaskClock], &observer)
        .expect("the sweep survives losing a worker");
    assert!(rungs.load(Ordering::Relaxed) >= 2, "the kill landed before the last rung");

    // Same measurements, same optimum, same counters — only slower.
    assert_eq!(report.sims_performed, baseline.sims_performed);
    assert_eq!(report.full_sims_performed, baseline.full_sims_performed);
    assert_eq!(report.evaluations.len(), baseline.evaluations.len());
    for (r, b) in report.evaluations.iter().zip(&baseline.evaluations) {
        assert_eq!(r.deterministic_key(), b.deterministic_key());
    }
    let attributed: usize = report.worker_sims.iter().map(|(_, sims)| sims).sum();
    assert_eq!(attributed, report.sims_performed);
    let survivor_sims = report
        .worker_sims
        .iter()
        .find(|(worker, _)| *worker == survivor_addr)
        .map_or(0, |(_, sims)| *sims);
    assert!(survivor_sims > 0, "the surviving worker carried the sweep: {:?}", report.worker_sims);

    survivor.kill().ok();
    survivor.wait().ok();
}

#[test]
fn racing_hub_jobs_over_remote_workers_cost_one_isolated_sweep() {
    let spec = JobSpec {
        dims: Some((16, 16, 16)),
        accels: vec!["v4_8".to_owned()],
        search: "halving".to_owned(),
        seed: Some(7),
        ..JobSpec::default()
    };
    let start_hub = |config: HubConfig| {
        let hub = Hub::bind(config).expect("bind hub");
        let addr = hub.local_addr().to_string();
        (addr, std::thread::spawn(move || hub.run().expect("hub run")))
    };

    // Baseline: what one isolated sweep costs on a local-pool hub.
    let (addr, hub) = start_hub(HubConfig { workers: 1, sim_workers: 1, ..HubConfig::default() });
    let mut client = HubClient::connect(&addr).expect("connect");
    let isolated = client.run(&spec, &mut |_| ()).expect("baseline job");
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
    assert!(isolated.full_sims_performed > 0);
    assert_eq!(isolated.measure_backend, "local");

    // Two clients race the identical sweep on a fresh hub whose
    // measurements fan out to two workers: the in-flight registry must
    // keep the total spend at exactly one isolated run.
    let workers = vec![start_worker(2), start_worker(2)];
    let (addr, hub) = start_hub(HubConfig {
        workers: 2,
        sim_workers: 2,
        measure_workers: workers,
        ..HubConfig::default()
    });
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                let spec = &spec;
                scope.spawn(move || {
                    let mut client = HubClient::connect(&addr).expect("connect");
                    client.run(spec, &mut |_| ()).expect("racing job")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let combined: usize = reports.iter().map(|r| r.full_sims_performed).sum();
    assert_eq!(
        combined, isolated.full_sims_performed,
        "racing remote sweeps must share, not duplicate, the isolated cost"
    );
    for report in &reports {
        assert_eq!(report.measure_backend, "remote:2");
        assert_eq!(
            report.optimum().unwrap().candidate.key,
            isolated.optimum().unwrap().candidate.key
        );
    }

    let client = HubClient::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
}

/// Regression: three well-formed `measure` frames whose key names a
/// problem its device cannot hold — a conv window past the unit's buffer,
/// an output slice and a MAC count past 64 bits — each panicked the slot
/// thread that built them (an out-of-bounds simulated access, two
/// multiply overflows), and with one slot the connection never answered
/// again. They are `failed` replies blaming `workload` — as a tile the
/// key's device does not run is one blaming `tile` — and the next frame
/// is served.
#[test]
fn keys_no_device_can_hold_are_failed_replies_and_the_slot_survives() {
    let addr = start_worker(1);
    let mut peer = Connection::open(TcpStream::connect(&addr).expect("connect")).unwrap();
    let mut reply_to = |frame: &JsonValue| {
        write_frame(&mut peer.writer, frame).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            match peer.reader.next_frame().unwrap() {
                Frame::Value(reply) => return reply,
                Frame::Idle if std::time::Instant::now() < deadline => {}
                other => panic!("no reply to {}: {other:?}", frame.to_json_string()),
            }
        }
    };
    let text = |reply: &JsonValue, member: &str| {
        reply.get(member).and_then(JsonValue::as_str).unwrap_or_default().to_owned()
    };

    let measure = |id: u64, key: &CandidateKey| {
        JsonValue::object([
            ("type".to_owned(), "measure".into()),
            ("id".to_owned(), id.into()),
            ("fidelity".to_owned(), "full".into()),
            ("key".to_owned(), key_to_json(key)),
        ])
    };

    let good = base8_space(8).enumerate().unwrap().remove(0).key;
    let layer = ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 3, out_channels: 16, stride: 1 };
    let conv = ConvSpace::new(layer).enumerate().unwrap().remove(0).key;
    let with_workload = |base: &CandidateKey, label: &str| CandidateKey {
        workload: Problem::parse(label).expect(label),
        ..*base
    };
    // Nor can a device run every tile: `v3_4 Ns 8 8 8` used to be
    // answered `verified:true` by a 4x4x4 run, and 3 x 64^2 words are past
    // the v4's tile memory.
    let with_tile = |accel: &str, edge: i64| CandidateKey {
        accel: Device::parse(accel).expect(accel),
        tile: (edge, edge, edge),
        ..good
    };
    let unholdable = [
        (with_workload(&conv, "conv 10_4096_3_4_1"), "workload"),
        (with_workload(&conv, "conv 4294967296_1_1_1_1"), "workload"),
        (with_workload(&good, "matmul 4294967296x4294967296x4294967296"), "workload"),
        (with_tile("v3_4", 8), "tile"),
        (with_tile("v4_16", 64), "tile"),
    ];
    for (id, (key, blamed)) in (10u64..).zip(&unholdable) {
        let reply = reply_to(&measure(id, key));
        assert_eq!(text(&reply, "type"), "failed", "{}", reply.to_json_string());
        assert_eq!(reply.get("id").and_then(JsonValue::as_u64), Some(id));
        let reason = text(&reply, "reason");
        assert!(reason.contains(&format!("`key.{blamed}`")), "{reason}");
    }
    let reply = reply_to(&measure(15, &good));
    assert_eq!(text(&reply, "type"), "result", "{}", reply.to_json_string());
    assert_eq!(reply.get("id").and_then(JsonValue::as_u64), Some(15));
}

/// Regression: a connection's reader never looked at the stop flag, so
/// one connected-but-silent scheduler kept `run()` from returning after
/// SIGTERM.
#[test]
fn a_stopped_worker_hangs_up_on_a_silent_peer_and_returns() {
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let worker =
        Worker::bind(WorkerConfig { slots: 1, stop: Some(stop), ..WorkerConfig::default() })
            .expect("bind worker");
    let mut peer =
        Connection::open(TcpStream::connect(worker.local_addr()).expect("connect")).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(worker.run()).unwrap());
    // One answered `hello` proves the connection is being served (not
    // still sitting in the accept backlog); then say nothing.
    write_frame(&mut peer.writer, &JsonValue::object([("type".to_owned(), "hello".into())]))
        .unwrap();
    while peer.reader.next_frame().unwrap() == Frame::Idle {}
    stop.store(true, Ordering::SeqCst);
    let summary = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("run() must return although a peer is still connected")
        .expect("worker run");
    assert_eq!((summary.connections, summary.measured), (1, 0));
    assert_eq!(peer.reader.next_frame().unwrap(), Frame::Eof, "the worker hung up");
}

/// Regression: a stop raised while a scheduler keeps every slot busy. The
/// worker's reader looked at the stop flag only in a 50 ms gap in the
/// traffic, which a full in-flight window never leaves, so `run()`
/// waited for the scheduler to hang up. A stopping worker answers what
/// its slots have read and hangs up.
#[test]
fn a_stopped_worker_hangs_up_on_a_busy_peer_and_returns() {
    const WINDOW: u64 = 8;
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let worker =
        Worker::bind(WorkerConfig { slots: 2, stop: Some(stop), ..WorkerConfig::default() })
            .expect("bind worker");
    let mut peer =
        Connection::open(TcpStream::connect(worker.local_addr()).expect("connect")).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(worker.run()).unwrap());

    let key = key_to_json(&base8_space(8).enumerate().unwrap().remove(0).key);
    let measure = move |id: u64| {
        JsonValue::object([
            ("type".to_owned(), "measure".into()),
            ("id".to_owned(), id.into()),
            ("fidelity".to_owned(), "full".into()),
            ("key".to_owned(), key.clone()),
        ])
    };
    // The peer keeps WINDOW measures in flight, sending the next one on
    // every reply, until the worker hangs up.
    let (answered_tx, answered_rx) = std::sync::mpsc::channel();
    let busy = std::thread::spawn(move || {
        for id in 0..WINDOW {
            write_frame(&mut peer.writer, &measure(id)).unwrap();
        }
        let mut sent = WINDOW;
        let mut replies = Vec::new();
        loop {
            match peer.reader.next_frame() {
                Ok(Frame::Value(reply)) => {
                    replies.push(reply);
                    let _ = answered_tx.send(());
                    // A refused send is the worker's hang-up arriving.
                    let _ = write_frame(&mut peer.writer, &measure(sent));
                    sent += 1;
                }
                // EOF or a reset: the worker hung up.
                _ => return (replies, sent),
            }
        }
    });
    for _ in 0..3 * WINDOW {
        answered_rx.recv_timeout(std::time::Duration::from_secs(60)).expect("the worker answers");
    }
    stop.store(true, Ordering::SeqCst);
    let summary = done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("run() must return although its peer keeps every slot busy")
        .expect("worker run");
    assert_eq!(summary.connections, 1);

    let (replies, sent) = busy.join().expect("the peer sees the hang-up");
    assert!(replies.len() as u64 >= 3 * WINDOW);
    let mut ids = Vec::new();
    for reply in &replies {
        assert_eq!(reply.get("type").and_then(JsonValue::as_str), Some("result"), "{reply:?}");
        assert_eq!(reply.get("verified").and_then(JsonValue::as_bool), Some(true), "{reply:?}");
        ids.push(reply.get("id").and_then(JsonValue::as_u64).expect("an id"));
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), replies.len(), "one reply per measure");
    assert!(ids.iter().all(|&id| id < sent), "every reply answers a measure the peer sent");
}

//! Chaos tests: seeded fault plans drive the real daemon binaries
//! through worker crashes, torn frames, dropped connections, and client
//! reconnects. The invariant under test is the distributed layer's
//! founding one: faults degrade throughput, never results — every
//! faulted sweep must produce evaluations bit-identical to the
//! fault-free run with the same seed.
//!
//! Fault plans are per *process* (`--faults` / `AXI4MLIR_FAULTS`), so
//! every faulted component here is a spawned binary; the test process
//! itself never arms a plan, which keeps the in-process baseline hubs
//! clean.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use axi4mlir_core::explore::{ExploreReport, JobSpec};
use axi4mlir_hub::{run_resilient, Hub, HubClient, HubConfig};
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::HELLO_DEADLINE;

/// How long one scenario may take: far beyond the seconds a healthy run
/// needs.
const SCENARIO_DEADLINE: Duration = Duration::from_secs(120);

/// Runs `scenario` on a thread of its own, so that a wedged client, hub
/// or worker fails the test at a deadline instead of hanging the suite.
/// (A connection writer that failed without shutting its socket down
/// once left `a_dropped_event_stream_is_recovered_by_follow`'s client
/// waiting forever.)
fn within_deadline(scenario: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let running = std::thread::spawn(move || {
        scenario();
        // The receiver is gone only once the deadline has failed the test.
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(SCENARIO_DEADLINE) {
        Ok(()) => running.join().expect("the scenario thread returns right after sending"),
        // The scenario panicked: report its panic.
        Err(RecvTimeoutError::Disconnected) => match running.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the scenario thread sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => panic!(
            "the scenario did not finish within {SCENARIO_DEADLINE:?}: a client, the hub or a \
             worker is wedged"
        ),
    }
}

/// A halving sweep with proxy rungs and finalists; `dim` scales how
/// long it runs (16 finishes fast, 32 leaves plenty of mid-sweep time
/// for faults and rejoins to land).
fn spec(dim: i64) -> JobSpec {
    JobSpec {
        dims: Some((dim, dim, dim)),
        accels: vec!["v4_8".to_owned()],
        search: "halving".to_owned(),
        seed: Some(7),
        ..JobSpec::default()
    }
}

/// A fault-free in-process sweep of `spec`: the ground truth every
/// faulted run must reproduce bit-for-bit.
fn baseline(spec: &JobSpec) -> ExploreReport {
    let hub = Hub::bind(HubConfig { workers: 1, sim_workers: 2, ..HubConfig::default() })
        .expect("bind the baseline hub");
    let addr = hub.local_addr().to_string();
    let serving = std::thread::spawn(move || hub.run().expect("baseline hub run"));
    let mut client = HubClient::connect(&addr).expect("connect");
    let report = client.run(spec, &mut |_| ()).expect("baseline job");
    client.shutdown().expect("shutdown");
    serving.join().unwrap();
    report
}

/// The faulted run carried exactly the baseline's measurements: same
/// evaluations (bit-identical deterministic keys), same optimum, same
/// simulation counters. Only wall-clock (and reconnect) fields may
/// differ.
fn assert_same_results(faulted: &ExploreReport, clean: &ExploreReport) {
    assert_eq!(faulted.evaluations.len(), clean.evaluations.len());
    for (f, c) in faulted.evaluations.iter().zip(&clean.evaluations) {
        assert_eq!(f.deterministic_key(), c.deterministic_key());
    }
    assert_eq!(
        faulted.optimum().unwrap().deterministic_key(),
        clean.optimum().unwrap().deterministic_key()
    );
    assert_eq!(faulted.sims_performed, clean.sims_performed);
    assert_eq!(faulted.full_sims_performed, clean.full_sims_performed);
}

/// A spawned daemon binary. Killed (never gracefully stopped) on drop;
/// the stdout pipe is kept open so a late print cannot panic the child.
struct Daemon {
    child: Child,
    addr: String,
    _stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn spawn_daemon(binary: &Path, name: &str, args: &[&str]) -> Daemon {
    let mut child = Command::new(binary)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|err| panic!("spawn {name}: {err}"));
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("daemon banner");
    let prefix = format!("{name} listening on ");
    let addr = banner
        .trim_end()
        .strip_prefix(&prefix)
        .unwrap_or_else(|| panic!("unexpected {name} banner {banner:?}"))
        .to_owned();
    Daemon { child, addr, _stdout: stdout }
}

fn hub_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_axi4mlir-hub"))
}

/// The worker binary, a sibling of the hub binary. A workspace-level
/// `cargo test` builds both; a bare `cargo test -p axi4mlir-hub` does
/// not, so build it on demand with the matching profile.
fn worker_binary() -> PathBuf {
    let worker = hub_binary().with_file_name("axi4mlir-worker");
    if !worker.exists() {
        let mut build = Command::new(env!("CARGO"));
        build.args(["build", "-q", "-p", "axi4mlir-worker", "--bin", "axi4mlir-worker"]);
        if hub_binary().components().any(|c| c.as_os_str() == "release") {
            build.arg("--release");
        }
        let status = build.status().expect("run cargo build");
        assert!(status.success(), "building axi4mlir-worker failed");
    }
    worker
}

fn spawn_worker(faults: Option<&str>) -> Daemon {
    let mut args = vec!["--bind", "127.0.0.1:0", "--slots", "2"];
    if let Some(spec) = faults {
        args.extend(["--faults", spec]);
    }
    spawn_daemon(&worker_binary(), "axi4mlir-worker", &args)
}

/// Respawns a clean worker on a fixed address, retrying while the
/// kernel releases the dead process's port.
fn respawn_worker(bind: &str) -> Daemon {
    let binary = worker_binary();
    for _ in 0..40 {
        let mut child = Command::new(&binary)
            .args(["--bind", bind, "--slots", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("respawn the worker");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        if stdout.read_line(&mut banner).is_ok()
            && banner.starts_with("axi4mlir-worker listening on ")
        {
            return Daemon { child, addr: bind.to_owned(), _stdout: stdout };
        }
        // The port was still held; reap this attempt and retry.
        child.kill().ok();
        child.wait().ok();
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("could not rebind a worker on {bind}");
}

#[test]
fn torn_and_dropped_frames_never_change_results() {
    within_deadline(|| {
        let spec = spec(16);
        let clean = baseline(&spec);
        assert!(clean.full_sims_performed > 0, "a cold sweep must simulate");
        assert!(clean.worker_reconnects.is_empty(), "a fault-free run reports no reconnects");

        // One worker tears its 3rd reply mid-frame, the other silently
        // drops its 2nd; the hub itself drops its 5th outbound measure
        // request and fails its first cache checkpoint.
        let torn = spawn_worker(Some("seed=3,worker.reply:torn@3"));
        let droppy = spawn_worker(Some("seed=5,worker.reply:drop@2"));
        let dir = std::env::temp_dir().join(format!("axi4mlir-chaos-torn-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let hub = spawn_daemon(
            &hub_binary(),
            "axi4mlir-hub",
            &[
                "--bind",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--sim-workers",
                "2",
                "--worker",
                &torn.addr,
                "--worker",
                &droppy.addr,
                "--cache-dir",
                dir.to_str().unwrap(),
                "--faults",
                "seed=11,pool.send:drop@5,hub.checkpoint:fail@1",
            ],
        );

        let mut client = HubClient::connect(&hub.addr).expect("connect");
        let report = client.run(&spec, &mut |_| ()).expect("the faulted sweep still completes");
        assert_same_results(&report, &clean);
        let reconnects: usize = report.worker_reconnects.iter().map(|(_, n)| n).sum();
        assert!(
            reconnects >= 1,
            "torn/dropped frames force at least one re-registration: {:?}",
            report.worker_reconnects
        );
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn a_crashed_worker_rejoins_and_results_are_unchanged() {
    within_deadline(|| {
        let spec = spec(32);
        let clean = baseline(&spec);

        // The victim exits (code 86) on its 4th accepted measure; a monitor
        // thread restarts a clean worker on the same address, which the
        // scheduler's retry loop must re-register mid-sweep.
        let victim = spawn_worker(Some("seed=9,worker.measure:crash@4"));
        let survivor = spawn_worker(None);
        let victim_addr = victim.addr.clone();

        let hub = Hub::bind(HubConfig {
            workers: 1,
            sim_workers: 2,
            measure_workers: vec![victim_addr.clone(), survivor.addr.clone()],
            ..HubConfig::default()
        })
        .expect("bind the hub");
        let addr = hub.local_addr().to_string();
        let serving = std::thread::spawn(move || hub.run().expect("hub run"));

        let respawn = std::thread::spawn(move || {
            let mut victim = victim;
            let status = victim.child.wait().expect("reap the victim");
            assert_eq!(status.code(), Some(86), "the victim dies of its scripted crash");
            respawn_worker(&victim.addr)
        });

        let mut client = HubClient::connect(&addr).expect("connect");
        let report = client.run(&spec, &mut |_| ()).expect("the sweep survives the crash");
        let replacement = respawn.join().unwrap();

        assert_same_results(&report, &clean);
        let rejoined = report
            .worker_reconnects
            .iter()
            .find(|(worker, _)| *worker == victim_addr)
            .map_or(0, |(_, n)| *n);
        assert!(
            rejoined >= 1,
            "the respawned worker re-registered under its old address: {:?}",
            report.worker_reconnects
        );
        drop(replacement);

        client.shutdown().expect("shutdown");
        serving.join().unwrap();
    });
}

#[test]
fn a_dropped_event_stream_is_recovered_by_follow() {
    within_deadline(|| {
        let spec = spec(16);
        let clean = baseline(&spec);

        // The hub drops its 2nd event write, killing the submitting
        // connection mid-stream; `run_resilient` must reconnect and
        // `follow` the job to its terminal event.
        let hub = spawn_daemon(
            &hub_binary(),
            "axi4mlir-hub",
            &[
                "--bind",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--sim-workers",
                "1",
                "--faults",
                "seed=3,hub.event:drop@2",
            ],
        );

        let mut states: Vec<String> = Vec::new();
        let report = run_resilient(&hub.addr, &spec, 3, &mut |event| {
            if let Some(state) = event.get("state").and_then(JsonValue::as_str) {
                states.push(state.to_owned());
            }
        })
        .expect("the client recovers the stream and the report");
        assert_same_results(&report, &clean);
        assert_eq!(
            states.last().map(String::as_str),
            Some("done"),
            "the follow delivered the terminal event: {states:?}"
        );
        assert!(
            states.iter().filter(|s| *s == "queued").count() >= 2,
            "the replay re-delivered events the first connection already saw: {states:?}"
        );

        // The finished job stays followable from a fresh connection: the
        // replay alone reaches the terminal `done` and rebuilds the report.
        let mut late = HubClient::connect(&hub.addr).expect("connect");
        let mut late_states: Vec<String> = Vec::new();
        let followed = late
            .follow(1, &mut |event| {
                if let Some(state) = event.get("state").and_then(JsonValue::as_str) {
                    late_states.push(state.to_owned());
                }
            })
            .expect("a finished job replays to its terminal event");
        assert_same_results(&followed, &clean);
        assert_eq!(late_states.last().map(String::as_str), Some("done"));

        // An unknown job id gets a field-blaming error, not a hangup.
        let err = late.follow(999, &mut |_| ()).expect_err("unknown jobs are refused");
        assert!(err.message.contains("follow") && err.message.contains("job"), "{}", err.message);
    });
}

/// A peer that accepts the connection and never answers `hello` is
/// refused once `HELLO_DEADLINE` has passed: the handshake is the one
/// timed protocol read, so a client never hangs on a silent peer.
#[test]
fn a_hub_that_never_answers_hello_is_refused_at_the_deadline() {
    within_deadline(|| {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let silent = std::thread::spawn(move || listener.accept().unwrap());
        let started = std::time::Instant::now();
        let Err(err) = HubClient::connect(&addr) else { panic!("a silent hub is refused") };
        let waited = started.elapsed();
        assert!(err.message.starts_with("cannot reach the hub: no hello reply"), "{}", err.message);
        assert!(
            waited >= HELLO_DEADLINE && waited < HELLO_DEADLINE + Duration::from_secs(2),
            "refused after {waited:?}"
        );
        drop(silent.join().unwrap());
    });
}

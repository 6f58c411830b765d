//! Integration tests for the hub daemon: the service property (shared
//! measurements across clients), queue backpressure, graceful SIGTERM
//! checkpointing, and the `docs/PROTOCOL.md` transcript.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;

use axi4mlir_core::explore::{shard, JobSpec};
use axi4mlir_hub::{Hub, HubClient, HubConfig};
use axi4mlir_support::json::JsonValue;

/// A halving sweep with a few dozen candidates: big enough to have
/// proxy rungs and finalists, small enough to finish in well under a
/// second per unique simulation set.
fn halving_spec() -> JobSpec {
    JobSpec {
        dims: Some((16, 16, 16)),
        accels: vec!["v4_8".to_owned()],
        search: "halving".to_owned(),
        seed: Some(7),
        ..JobSpec::default()
    }
}

fn start_hub(config: HubConfig) -> (String, std::thread::JoinHandle<axi4mlir_hub::HubSummary>) {
    let hub = Hub::bind(config).expect("bind");
    let addr = hub.local_addr().to_string();
    let handle = std::thread::spawn(move || hub.run().expect("hub run"));
    (addr, handle)
}

fn states_of(events: &[JsonValue]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| e.get("state").and_then(JsonValue::as_str))
        .map(str::to_owned)
        .collect()
}

#[test]
fn a_second_identical_job_reuses_every_measurement() {
    let (addr, hub) = start_hub(HubConfig { workers: 1, sim_workers: 2, ..HubConfig::default() });
    let mut client = HubClient::connect(&addr).expect("connect");
    assert_eq!(client.info().cache_entries, 0);

    let mut events = Vec::new();
    let first = client.run(&halving_spec(), &mut |e| events.push(e.clone())).expect("first job");
    assert!(first.full_sims_performed > 0, "a cold sweep must simulate");
    let states = states_of(&events);
    assert_eq!(states.first().map(String::as_str), Some("queued"));
    assert_eq!(states.get(1).map(String::as_str), Some("running"));
    assert_eq!(states.get(2).map(String::as_str), Some("space-ready"));
    assert!(states.iter().filter(|s| *s == "rung-complete").count() >= 2);
    assert_eq!(states.last().map(String::as_str), Some("done"));
    let done = events.last().unwrap();
    assert!(done.get("full_sims_performed").and_then(JsonValue::as_u64).is_some());
    assert!(done.get("sims_per_sec").is_some(), "done events carry the throughput metric");

    // The identical job again, over a fresh connection: the shared
    // cache serves everything, so zero new full-fidelity simulations.
    let mut second_client = HubClient::connect(&addr).expect("reconnect");
    assert!(second_client.info().cache_entries > 0, "the hub remembered the first sweep");
    let second = second_client.run(&halving_spec(), &mut |_| ()).expect("second job");
    assert_eq!(second.full_sims_performed, 0, "everything came from the shared cache");
    assert_eq!(second.sims_performed, 0);
    // Both sweeps measured the same space and agree on the optimum.
    assert_eq!(second.optimum().unwrap().candidate.key, first.optimum().unwrap().candidate.key);

    client.shutdown().expect("shutdown");
    let summary = hub.join().unwrap();
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.failed, 0);
}

#[test]
fn concurrent_identical_jobs_simulate_each_candidate_once() {
    // Baseline: what one isolated sweep costs.
    let (addr, hub) = start_hub(HubConfig { workers: 1, sim_workers: 1, ..HubConfig::default() });
    let mut client = HubClient::connect(&addr).expect("connect");
    let isolated = client.run(&halving_spec(), &mut |_| ()).expect("baseline job");
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
    assert!(isolated.full_sims_performed > 0);

    // Two clients race the same sweep on a fresh hub with two
    // executors: the in-flight registry must keep the *total* spend at
    // exactly one isolated run — strictly fewer than two CLI processes
    // (2 × isolated) would pay.
    let (addr, hub) = start_hub(HubConfig { workers: 2, sim_workers: 2, ..HubConfig::default() });
    let totals: Vec<usize> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = HubClient::connect(&addr).expect("connect");
                    let report = client.run(&halving_spec(), &mut |_| ()).expect("racing job");
                    report.full_sims_performed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let combined: usize = totals.iter().sum();
    assert_eq!(
        combined, isolated.full_sims_performed,
        "concurrent sweeps {totals:?} must share, not duplicate, the isolated cost"
    );

    let mut client = HubClient::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(status.get("completed").and_then(JsonValue::as_u64), Some(2));
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
}

/// [`status_counts_always_add_up`]'s racing clients, the jobs each runs,
/// and the hub's queue capacity.
const CLIENTS: usize = 4;
const JOBS_EACH: usize = 25;
const CAPACITY: usize = 2;
/// How long those clients may take: far beyond the few seconds a healthy
/// run needs.
const RACE_DEADLINE: std::time::Duration = std::time::Duration::from_secs(120);

/// A status count of a `status` reply.
fn count(status: &JsonValue, member: &str) -> usize {
    status.get(member).and_then(JsonValue::as_u64).expect("a status count") as usize
}

/// `CLIENTS` clients each run `JOBS_EACH` jobs of `spec` against the hub at
/// `addr` while one more polls `status`, asserting every reply adds up;
/// returns the number of replies.
fn race_status_against_submits(addr: &str, spec: &JobSpec) -> usize {
    let sent = AtomicUsize::new(1);
    let accepted_through = AtomicU64::new(1);
    let submitting = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HubClient::connect(addr).expect("connect");
                    let mut finished = 0;
                    while finished < JOBS_EACH {
                        sent.fetch_add(1, Ordering::SeqCst);
                        let job = match client.submit(spec) {
                            Ok(job) => job,
                            Err(err) => {
                                assert!(err.message.contains("queue full"), "{}", err.message);
                                sent.fetch_sub(1, Ordering::SeqCst);
                                continue;
                            }
                        };
                        accepted_through.fetch_max(job, Ordering::SeqCst);
                        loop {
                            let frame = client.next_frame().expect("job events");
                            match frame.get("state").and_then(JsonValue::as_str) {
                                Some("done") => break,
                                Some("failed") => panic!("job {job} failed: {frame:?}"),
                                _ => {}
                            }
                        }
                        finished += 1;
                    }
                })
            })
            .collect();
        let poller = scope.spawn(|| {
            let mut client = HubClient::connect(addr).expect("connect");
            let mut polls = 0usize;
            while submitting.load(Ordering::SeqCst) {
                let at_least = accepted_through.load(Ordering::SeqCst) as usize;
                let status = client.status().expect("status");
                let at_most = sent.load(Ordering::SeqCst);
                let total: usize = ["queued", "running", "completed", "failed"]
                    .iter()
                    .map(|member| count(&status, member))
                    .sum();
                assert!(
                    (at_least..=at_most).contains(&total),
                    "{total} jobs counted, {at_least}..={at_most} accepted: {status:?}"
                );
                assert!(count(&status, "queued") <= CAPACITY, "{status:?}");
                polls += 1;
            }
            polls
        });
        // Stop the poller before looking at any outcome, so a failed
        // client fails the test instead of leaving it polling forever.
        let clients: Vec<_> = clients.into_iter().map(|client| client.join()).collect();
        submitting.store(false, Ordering::SeqCst);
        let polls = poller.join();
        clients.into_iter().for_each(|client| client.expect("a client thread failed"));
        polls.expect("a status reply did not add up")
    })
}

/// Every job the hub has accepted is counted in exactly one of `queued`,
/// `running`, `completed`, `failed` in every `status` reply, however the
/// reply interleaves with submits and executors. Job ids are dense from 1,
/// so the highest id any client has been told bounds "accepted so far"
/// from below and the submits sent bound it from above. (With the counts
/// kept beside the queue under a second lock, a reply could miss a job
/// already pushed but not yet counted — and an executor could take that
/// job and decrement `queued` before its submitter incremented it: at
/// `aea3024` this test dies of that underflow in about one run in six.)
#[test]
fn status_counts_always_add_up() {
    let (addr, hub) = start_hub(HubConfig {
        workers: 4,
        sim_workers: 1,
        queue_capacity: CAPACITY,
        ..HubConfig::default()
    });
    let spec = JobSpec {
        dims: Some((8, 8, 8)),
        accels: vec!["v4_8".to_owned()],
        seed: Some(7),
        ..JobSpec::default()
    };
    // Job 1 fills the cache, so the jobs under test are all dispatch.
    HubClient::connect(&addr).expect("connect").run(&spec, &mut |_| ()).expect("warm-up job");

    // The race runs on its own thread so that a wedged client or hub
    // fails the test at a deadline instead of hanging it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let race = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            // The receiver is gone only once the deadline has failed the test.
            let _ = done_tx.send(race_status_against_submits(&addr, &spec));
        })
    };
    let polls = match done_rx.recv_timeout(RACE_DEADLINE) {
        Ok(polls) => {
            race.join().expect("the race thread returns right after sending");
            polls
        }
        // The race thread panicked: report its panic.
        Err(RecvTimeoutError::Disconnected) => match race.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the race thread sends before it returns"),
        },
        Err(RecvTimeoutError::Timeout) => {
            panic!("the clients did not finish within {RACE_DEADLINE:?}: a client or the hub is wedged")
        }
    };
    assert!(polls > CLIENTS * JOBS_EACH, "only {polls} status replies raced the jobs");

    let mut client = HubClient::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(count(&status, "completed"), 1 + CLIENTS * JOBS_EACH, "{status:?}");
    assert_eq!(
        (count(&status, "queued"), count(&status, "running"), count(&status, "failed")),
        (0, 0, 0)
    );
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
}

#[test]
fn a_full_queue_rejects_with_backpressure() {
    // No executors: submitted jobs stay queued forever, so the queue
    // state is deterministic.
    let (addr, hub) =
        start_hub(HubConfig { workers: 0, queue_capacity: 1, ..HubConfig::default() });
    let mut client = HubClient::connect(&addr).expect("connect");
    client.submit(&halving_spec()).expect("the first job fits the queue");
    let err = client.submit(&halving_spec()).expect_err("the second must be rejected");
    assert!(err.message.contains("queue full"), "{}", err.message);

    // A malformed job is an error, not a rejection — and not queued.
    let bad = JobSpec { workload: "gemv".to_owned(), ..JobSpec::default() };
    let err = client.submit(&bad).expect_err("bad specs fail at submit");
    assert!(err.message.contains("workload"), "{}", err.message);

    // Shutdown fails the still-queued job explicitly.
    client.shutdown().expect("shutdown");
    let summary = hub.join().unwrap();
    assert_eq!(summary.completed, 0);
    assert_eq!(summary.failed, 1);
}

/// A conv `layer` label is outside input. One whose output slice
/// overflows `i64` used to panic the connection thread in
/// `heuristics::conv_point` (debug arithmetic); it is an `error` frame
/// naming the field, and the same connection keeps being served.
#[test]
fn an_oversized_conv_layer_is_refused_and_the_connection_keeps_serving() {
    let (addr, hub) = start_hub(HubConfig { workers: 0, ..HubConfig::default() });
    let mut client = HubClient::connect(&addr).expect("connect");
    let oversized = JobSpec {
        workload: "conv".to_owned(),
        layer: Some("4294967296_1_1_1_1".to_owned()),
        ..JobSpec::default()
    };
    let err = client.submit(&oversized).expect_err("refused at submit");
    assert!(err.message.contains("layer"), "{}", err.message);
    assert!(err.message.contains("slice capacity"), "{}", err.message);
    let status = client.status().expect("the connection still answers");
    assert_eq!(status.get("queued").and_then(JsonValue::as_u64), Some(0));
    client.shutdown().expect("shutdown");
    assert_eq!(hub.join().unwrap().failed, 0);
}

#[test]
fn sigterm_mid_sweep_leaves_a_loadable_checkpoint() {
    let dir = std::env::temp_dir().join(format!("axi4mlir-hub-term-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut child = Command::new(env!("CARGO_BIN_EXE_axi4mlir-hub"))
        .args(["--bind", "127.0.0.1:0", "--workers", "1", "--sim-workers", "1"])
        .arg("--cache-dir")
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the daemon");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().unwrap().unwrap();
    let addr = banner.strip_prefix("axi4mlir-hub listening on ").expect("banner").to_owned();

    // A sweep with several proxy rungs, so SIGTERM lands mid-run.
    let spec = JobSpec {
        dims: Some((32, 32, 32)),
        accels: vec!["v4_8".to_owned()],
        search: "halving".to_owned(),
        seed: Some(7),
        ..JobSpec::default()
    };
    let mut client = HubClient::connect(&addr).expect("connect");
    let rungs = AtomicUsize::new(0);
    let outcome = client.run(&spec, &mut |event| {
        if event.get("state").and_then(JsonValue::as_str) == Some("rung-complete")
            && rungs.fetch_add(1, Ordering::Relaxed) == 0
        {
            // First rung is checkpointed; now interrupt the daemon.
            let status = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .expect("send SIGTERM");
            assert!(status.success());
        }
    });
    // The job is either cancelled at the next rung boundary (the
    // expected path) or — if it was already on its last rung — done.
    if let Err(err) = &outcome {
        assert!(
            err.message.contains("cancel") || err.message.contains("shut"),
            "unexpected failure: {}",
            err.message
        );
    }
    assert!(rungs.load(Ordering::Relaxed) >= 1, "SIGTERM must have landed after a rung");

    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "graceful SIGTERM shutdown exits 0, got {status:?}");
    let entries = shard::load_dir(&dir).expect("the checkpoint must parse");
    assert!(!entries.is_empty(), "the checkpoint holds the rungs measured before SIGTERM");
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends `payload` raw on a fresh connection and returns every frame the
/// hub answers until it hangs up.
fn abuse(addr: &str, payload: &[u8]) -> Vec<JsonValue> {
    use axi4mlir_support::proto::{Connection, Frame};
    use std::io::Write as _;
    let mut peer = Connection::open(std::net::TcpStream::connect(addr).unwrap()).unwrap();
    peer.writer.write_all(payload).expect("the hub reads the whole payload");
    let mut frames = Vec::new();
    loop {
        match peer.reader.next_frame().expect("the hub's own frames are well-formed") {
            Frame::Value(frame) => frames.push(frame),
            Frame::Idle => continue,
            Frame::Eof => return frames,
        }
    }
}

/// Input that used to bloat the daemon (a line that never ends) or
/// abort it outright (a frame nested deep enough to overflow the JSON
/// parser's stack) now fails that one connection: an `error` frame,
/// then a hang-up — and the hub keeps serving everybody else.
#[test]
fn oversized_and_too_deep_frames_fail_the_connection_not_the_hub() {
    use axi4mlir_support::proto::MAX_FRAME_BYTES;
    let (addr, hub) = start_hub(HubConfig { workers: 1, ..HubConfig::default() });

    let replies = abuse(&addr, &vec![b'x'; MAX_FRAME_BYTES + 1]);
    assert_eq!(replies.len(), 1, "one error frame, then EOF: {replies:?}");
    let reason = replies[0].get("reason").and_then(JsonValue::as_str).unwrap();
    assert_eq!(replies[0].get("type").and_then(JsonValue::as_str), Some("error"));
    assert!(reason.contains("exceeds 67108864 bytes"), "{reason}");

    let mut deep = "[".repeat(1_000_000).into_bytes();
    deep.push(b'\n');
    let replies = abuse(&addr, &deep);
    assert_eq!(replies.len(), 1, "one error frame, then EOF: {replies:?}");
    let reason = replies[0].get("reason").and_then(JsonValue::as_str).unwrap();
    assert!(reason.contains("nesting deeper than 128"), "{reason}");

    let mut client = HubClient::connect(&addr).expect("a fresh connection is served");
    let status = client.status().expect("status");
    assert_eq!(status.get("failed").and_then(JsonValue::as_u64), Some(0));
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
}

/// A hub job costs its work, not a timer: a job served wholly from the
/// cache reaches `done` as soon as its events are published. (Events
/// used to go out only between 50 ms socket reads, so every job took at
/// least that long.)
#[test]
fn a_cached_job_is_done_without_waiting_on_a_timer() {
    let (addr, hub) = start_hub(HubConfig { workers: 1, sim_workers: 1, ..HubConfig::default() });
    let spec = JobSpec {
        dims: Some((8, 8, 8)),
        accels: vec!["v4_8".to_owned()],
        seed: Some(7),
        ..JobSpec::default()
    };
    let mut client = HubClient::connect(&addr).expect("connect");
    client.run(&spec, &mut |_| ()).expect("the job that fills the cache");
    let mut samples: Vec<std::time::Duration> = (0..10)
        .map(|_| {
            let started = std::time::Instant::now();
            let report = client.run(&spec, &mut |_| ()).expect("repeat job");
            assert_eq!(report.sims_performed, 0, "a repeat is all cache hits");
            started.elapsed()
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(25),
        "submit to done took {median:?} in the median: {samples:?}"
    );
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
}

/// The engine's private seed bound (`KEPT_SEEDS` in `core::explore`).
const KEPT_SEEDS: usize = 8;

/// A long-lived hub holds the seeds its clients sweep, not every job it
/// has run: fresh-seed jobs past the bound evict the oldest seed's
/// entries, and the newest seeds stay cached.
#[test]
fn fresh_seed_jobs_leave_the_cache_bounded() {
    let (addr, hub) = start_hub(HubConfig { workers: 1, sim_workers: 1, ..HubConfig::default() });
    let spec = |seed| JobSpec {
        dims: Some((8, 8, 8)),
        accels: vec!["v4_8".to_owned()],
        seed: Some(seed),
        ..JobSpec::default()
    };
    let mut client = HubClient::connect(&addr).expect("connect");
    let entries =
        |client: &mut HubClient| count(&client.status().expect("status"), "cache_entries");
    client.run(&spec(1), &mut |_| ()).expect("first job");
    let per_seed = entries(&mut client);
    assert!(per_seed > 0);
    let jobs = 3 * KEPT_SEEDS as u64;
    for seed in 2..=jobs {
        client.run(&spec(seed), &mut |_| ()).expect("fresh-seed job");
        assert!(entries(&mut client) <= KEPT_SEEDS * per_seed, "after seed {seed}");
    }
    assert_eq!(entries(&mut client), KEPT_SEEDS * per_seed);
    let newest = client.run(&spec(jobs), &mut |_| ()).expect("the newest seed again");
    assert_eq!(newest.sims_performed, 0, "the newest seeds stay cached");
    client.shutdown().expect("shutdown");
    hub.join().unwrap();
}

/// A `submit` read once a stop is requested is refused. It used to be
/// accepted: a job queued after `Hub::run` had failed the leftover queue
/// never ran, and its `active` count kept the connection's goodbye, and
/// so `Hub::run`, waiting.
#[test]
fn a_submit_after_shutdown_is_refused_and_the_hub_returns() {
    // No executors: the first job stays queued, so it holds this
    // connection's goodbye until the stop fails it, and the late
    // submit's reply goes out before the goodbye.
    let (addr, hub) = start_hub(HubConfig { workers: 0, ..HubConfig::default() });
    let submit = JsonValue::object([
        ("type".to_owned(), "submit".into()),
        ("job".to_owned(), halving_spec().to_json()),
    ])
    .to_json_string();
    let payload = format!("{submit}\n{{\"type\":\"shutdown\"}}\n{submit}\n");
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let frames = abuse(&addr, payload.as_bytes());
        let _ = done_tx.send((frames, hub.join().unwrap()));
    });
    let (frames, summary) = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the hub says goodbye and `Hub::run` returns");
    fn type_of(frame: &JsonValue) -> Option<&str> {
        frame.get("type").and_then(JsonValue::as_str)
    }
    let accepted = frames.iter().filter(|frame| type_of(frame) == Some("accepted")).count();
    assert_eq!(accepted, 1, "only the submit before the shutdown is accepted: {frames:?}");
    let refusal = frames
        .iter()
        .find(|frame| type_of(frame) == Some("rejected"))
        .unwrap_or_else(|| panic!("the late submit is refused: {frames:?}"));
    assert_eq!(refusal.get("reason").and_then(JsonValue::as_str), Some("hub shutting down"));
    assert_eq!(frames.last().and_then(type_of), Some("shutting_down"), "{frames:?}");
    assert_eq!((summary.completed, summary.failed), (0, 1), "the queued job fails at the stop");
}

//! Deterministic fault injection for the hub/worker stack.
//!
//! A [`FaultPlan`] is a seeded script of failures — connection drops,
//! torn NDJSON frames, response delays, process crashes, checkpoint
//! write failures — that fire at exact, repeatable points. Every
//! injection point in the workspace names a *site* (a short string like
//! `worker.reply` or `hub.checkpoint`); each time execution passes the
//! site it ticks a per-site counter, and an event scripted as
//! `site:kind@N` fires on the N-th tick. Because the counters and the
//! torn-frame split points derive only from the plan (and its seed),
//! the same plan against the same workload produces the same failures
//! every run — which is what lets the chaos suite assert the PR-8
//! invariant that faults degrade throughput, never results.
//!
//! Plans are installed process-globally, either programmatically
//! (`install`) or from the `AXI4MLIR_FAULTS` environment variable
//! ([`install_from`], called by the daemon binaries at startup with
//! their `--faults SPEC` flag, which wins), so release binaries can be driven
//! through failures by integration tests and CI without a special
//! build. A process with no plan installed pays one atomic load per
//! site tick.
//!
//! # Spec grammar
//!
//! A spec is comma-separated entries. `seed=N` seeds the torn-frame
//! split points; every other entry is `site:kind@N` with an optional
//! `:arg`:
//!
//! | kind      | fires on the N-th tick of `site` as…                    |
//! |-----------|---------------------------------------------------------|
//! | `drop`    | an I/O error before any byte is written (peer sees a    |
//! |           | clean connection loss at a frame boundary)              |
//! | `torn`    | a partial frame: a seeded prefix of the bytes goes out, |
//! |           | then the write errors (peer sees a torn NDJSON line)    |
//! | `delay`   | a stall of `arg` milliseconds (default 100), then the   |
//! |           | frame goes out intact                                   |
//! | `crash`   | `std::process::exit(arg)` (default 86) — the scripted   |
//! |           | equivalent of `kill -9` at a deterministic instant      |
//! | `fail`    | a non-I/O failure the site maps to its own error path   |
//! |           | (e.g. a cache checkpoint that reports a write error)    |
//!
//! Example: `seed=7,worker.reply:torn@3,worker.measure:crash@5`.
//!
//! # Sites
//!
//! The workspace's injection points (the fault × layer matrix in
//! `docs/PROTOCOL.md` maps each to its expected recovery):
//!
//! - `worker.reply` — the worker daemon's result/reply frame writes;
//! - `worker.measure` — ticked per `measure` frame the worker accepts;
//! - `pool.send` — the scheduler-side `RemotePool` measure-request
//!   writes;
//! - `hub.event` — the hub's per-connection event frame writes;
//! - `hub.checkpoint` — the hub's rung-boundary cache checkpoints.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::diag::Diagnostic;

/// What a fired fault does at its site (see the module-level grammar
/// table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the write before any byte goes out.
    Drop,
    /// Write a seeded prefix of the frame, then fail.
    Torn,
    /// Stall for the given duration, then proceed normally.
    Delay(Duration),
    /// Exit the process with the given code.
    Crash(i32),
    /// Fail through the site's own (non-I/O) error path.
    Fail,
}

/// One scripted event: `site:kind@N` — fire `action` on the `at`-th
/// tick of `site` (1-based).
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultEvent {
    /// The injection point this event arms.
    pub site: String,
    /// What happens when it fires.
    pub action: FaultAction,
    /// The 1-based site tick it fires on.
    pub at: u64,
}

/// A seeded script of fault events with per-site tick counters.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    counters: Mutex<HashMap<String, u64>>,
    fired: Mutex<Vec<String>>,
}

fn parse_err(what: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("malformed fault spec: {what}"))
}

impl FaultPlan {
    /// Parses a spec (see the module-level grammar).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the first malformed entry.
    pub(crate) fn parse(spec: &str) -> Result<FaultPlan, Diagnostic> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| parse_err(format!("`{entry}`: seed must be an integer")))?;
                continue;
            }
            let (site, rest) = entry
                .split_once(':')
                .ok_or_else(|| parse_err(format!("`{entry}`: expected site:kind@N")))?;
            let (kind, rest) = rest
                .split_once('@')
                .ok_or_else(|| parse_err(format!("`{entry}`: expected site:kind@N")))?;
            let (at, arg) = match rest.split_once(':') {
                Some((at, arg)) => (at, Some(arg)),
                None => (rest, None),
            };
            let at: u64 = at
                .parse()
                .map_err(|_| parse_err(format!("`{entry}`: the @N tick must be an integer")))?;
            if at == 0 {
                return Err(parse_err(format!("`{entry}`: ticks are 1-based")));
            }
            let arg_num = |default: i64| -> Result<i64, Diagnostic> {
                match arg {
                    None => Ok(default),
                    Some(raw) => raw
                        .parse()
                        .map_err(|_| parse_err(format!("`{entry}`: the arg must be an integer"))),
                }
            };
            let action = match kind {
                "drop" => FaultAction::Drop,
                "torn" => FaultAction::Torn,
                "delay" => FaultAction::Delay(Duration::from_millis(arg_num(100)?.max(0) as u64)),
                "crash" => FaultAction::Crash(arg_num(86)? as i32),
                "fail" => FaultAction::Fail,
                other => return Err(parse_err(format!("`{entry}`: unknown fault kind `{other}`"))),
            };
            plan.events.push(FaultEvent { site: site.to_owned(), action, at });
        }
        Ok(plan)
    }

    /// Ticks `site` and returns the scripted action for this tick, if
    /// any. Fired events are recorded for [`FaultPlan::fired`].
    pub fn tick(&self, site: &str) -> Option<FaultAction> {
        let count = {
            let mut counters = self.counters.lock().expect("fault counters poisoned");
            let count = counters.entry(site.to_owned()).or_insert(0);
            *count += 1;
            *count
        };
        let event = self.events.iter().find(|e| e.site == site && e.at == count)?;
        self.fired
            .lock()
            .expect("fault log poisoned")
            .push(format!("{site}@{count}: {:?}", event.action));
        Some(event.action)
    }

    /// The split point for a torn frame of `len` bytes at the `site`'s
    /// current tick: a deterministic function of the plan seed, in
    /// `1..len` (so at least one byte goes out and at least one is
    /// withheld; full frames of length ≤ 1 split at 0).
    pub(crate) fn split_point(&self, site: &str, len: usize) -> usize {
        if len < 2 {
            return 0;
        }
        // splitmix64 of (seed ⊕ site hash ⊕ tick) — stable across runs.
        let site_hash = site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        let tick =
            self.counters.lock().expect("fault counters poisoned").get(site).copied().unwrap_or(0);
        let mut z = self.seed ^ site_hash ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        1 + ((z ^ (z >> 31)) % (len as u64 - 1)) as usize
    }

    /// The events that have fired so far, in firing order — the
    /// observability hook chaos tests and the daemons' shutdown logs
    /// use.
    pub fn fired(&self) -> Vec<String> {
        self.fired.lock().expect("fault log poisoned").clone()
    }
}

/// The environment variable [`install_from`] falls back to.
const FAULTS_ENV: &str = "AXI4MLIR_FAULTS";

static PLAN: OnceLock<FaultPlan> = OnceLock::new();
static ARMED: AtomicBool = AtomicBool::new(false);

/// Installs `plan` process-globally. The first install wins (the plan
/// drives the whole process's lifetime); later calls return the
/// already-installed plan.
fn install(plan: FaultPlan) -> &'static FaultPlan {
    let installed = PLAN.get_or_init(|| plan);
    ARMED.store(true, Ordering::Release);
    installed
}

/// Installs the plan a daemon was started with: its `--faults SPEC`
/// flag when given, else `FAULTS_ENV` if that is set and non-empty.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for a malformed spec (the daemons refuse to
/// start rather than run with half a plan).
pub fn install_from(flag: Option<&str>) -> Result<Option<&'static FaultPlan>, Diagnostic> {
    let spec = flag.map(str::to_owned).or_else(|| std::env::var(FAULTS_ENV).ok());
    match spec {
        Some(spec) if !spec.trim().is_empty() => Ok(Some(install(FaultPlan::parse(&spec)?))),
        _ => Ok(None),
    }
}

/// The installed plan, if any. The fast path for uninstrumented
/// processes is one relaxed atomic load.
pub fn active() -> Option<&'static FaultPlan> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse_into_scripted_events() {
        let plan =
            FaultPlan::parse("seed=7, worker.reply:torn@3, hub.event:drop@2, sim:delay@4:250")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.events.len(), 3);
        assert_eq!(
            plan.events[0],
            FaultEvent { site: "worker.reply".into(), action: FaultAction::Torn, at: 3 }
        );
        assert_eq!(plan.events[1].action, FaultAction::Drop);
        assert_eq!(plan.events[2].action, FaultAction::Delay(Duration::from_millis(250)));
        assert!(FaultPlan::parse("").unwrap().events.is_empty());
        assert!(FaultPlan::parse("seed=1").unwrap().events.is_empty());
    }

    #[test]
    fn malformed_specs_are_diagnostics() {
        for bad in ["nocolon", "site:drop", "site:drop@x", "site:drop@0", "site:warp@1", "seed=x"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.message.contains("fault spec"), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn ticks_fire_events_exactly_once_at_their_count() {
        let plan = FaultPlan::parse("w:drop@2,w:fail@4,other:drop@1").unwrap();
        assert_eq!(plan.tick("w"), None);
        assert_eq!(plan.tick("w"), Some(FaultAction::Drop));
        assert_eq!(plan.tick("w"), None);
        assert_eq!(plan.tick("w"), Some(FaultAction::Fail));
        assert_eq!(plan.tick("w"), None);
        assert_eq!(plan.tick("other"), Some(FaultAction::Drop));
        assert_eq!(plan.fired().len(), 3);
        assert!(plan.fired()[0].contains("w@2"));
    }

    #[test]
    fn split_points_are_deterministic_and_interior() {
        let plan = FaultPlan::parse("seed=42").unwrap();
        let again = FaultPlan::parse("seed=42").unwrap();
        for len in [2usize, 3, 17, 1024] {
            let split = plan.split_point("s", len);
            assert_eq!(split, again.split_point("s", len), "same seed, same split");
            assert!((1..len).contains(&split), "split {split} interior to {len}");
        }
        assert_eq!(plan.split_point("s", 1), 0);
        // Advancing the site counter moves the split point stream.
        plan.tick("s");
        plan.tick("s");
        let moved = (2..64).any(|len| plan.split_point("s", len) != again.split_point("s", len));
        assert!(moved, "splits depend on the tick");
    }
}

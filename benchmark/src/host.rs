//! What the benchmark asks the host: process CPU time, peak memory, core
//! count, stray daemons, and a scratch directory inside the checkout.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces and parentheses).
fn stat_fields(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')').map_or_else(Vec::new, |(_, rest)| rest.split_whitespace().collect())
}

/// User + system CPU seconds this process (every thread, so the in-process
/// daemons too) has consumed. `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields = stat_fields(&stat);
    // Fields 14 and 15 of the full line; the command name took 1 and 2.
    let ticks = |index: usize| fields.get(index - 3)?.parse::<f64>().ok();
    Some((ticks(14)? + ticks(15)?) / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`). `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Command names of the repository's daemons; one left running by an
/// earlier session would share the cores the measurement needs.
const DAEMONS: [&str; 2] = ["axi4mlir-hub", "axi4mlir-worker"];

/// `(pid, name)` of every live stray daemon process. The in-process hub
/// and workers the benchmark starts are threads of this process and never
/// match.
pub fn stray_daemons() -> Vec<(u32, String)> {
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    let mut found = Vec::new();
    for entry in entries.filter_map(Result::ok) {
        let Some(pid) = entry.file_name().to_str().and_then(|name| name.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else { continue };
        // `comm` is truncated to 15 bytes: `axi4mlir-worker` fits exactly.
        if DAEMONS.contains(&comm.trim()) {
            found.push((pid, comm.trim().to_owned()));
        }
    }
    found
}

/// The benchmark's output directory: `out/` beside its manifest, so every
/// file it writes stays inside the checkout (and under `paths`).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under `out/tmp`, removed when dropped.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `out/tmp/<label>-<pid>`, emptying any leftover.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error text.
    pub fn create(label: &str) -> Result<TempDir, String> {
        let path = out_dir().join("tmp").join(format!("{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Leave no empty `out/tmp` behind when this was the last user.
        if let Some(parent) = self.path.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_awkward_command_names() {
        let stat = "42 (a (b) c) S 1 42 42 0 -1 4194560 100 0 0 0 7 5 0 0 20 0 3 0 1 2 3";
        let fields = stat_fields(stat);
        assert_eq!(fields[0], "S");
        assert_eq!(fields[14 - 3], "7");
        assert_eq!(fields[15 - 3], "5");
    }

    #[test]
    fn the_host_answers_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().is_some());
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
        assert!(nproc() >= 1);
    }

    #[test]
    fn temp_dirs_live_under_out_and_clean_up() {
        let dir = TempDir::create("host-test").unwrap();
        let path = dir.path().to_owned();
        assert!(path.starts_with(out_dir()));
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }
}

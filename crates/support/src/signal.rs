//! SIGINT / SIGTERM as one process-wide stop flag, for the daemons.

use std::sync::atomic::{AtomicBool, Ordering};

/// Raised by the signal handler, polled by every daemon loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    STOP.store(true, Ordering::SeqCst);
}

// `signal` comes from libc, which every Rust binary already links; an
// inline declaration avoids a dependency the build image lacks.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Routes SIGINT (ctrl-c) and SIGTERM to a stop flag and returns it; a
/// daemon hands the flag to its config and drains gracefully once it is
/// raised.
pub fn stop_on_termination() -> &'static AtomicBool {
    // SAFETY: `signal` is the C library's, declared with its ABI
    // (`int`, handler pointer → previous handler pointer); `on_signal`
    // is an `extern "C" fn(i32)` that performs one atomic store, which
    // is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    &STOP
}

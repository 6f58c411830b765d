//! A warm `Session::run` allocates a fixed number of times whatever the
//! problem size: the interpreter, the copies, the DMA engine and the
//! device models allocate nothing per executed tile. A global allocator
//! counts the allocations the measured thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_config::AcceleratorConfig;
use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, Session};
use axi4mlir_workloads::matmul::MatMulProblem;

struct Counting;

thread_local! {
    /// Allocations made by this thread while counting, or `None`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = COUNT.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of the second of two identical runs of `plan` on an
/// `n x n x n` problem, in one session.
fn warm_run_allocations(plan: &CompilePlan, n: i64) -> u64 {
    let workload = MatMulWorkload::new(MatMulProblem::square(n));
    let mut session = Session::for_sweep();
    assert!(session.run(&workload, plan).expect("cold run").verified);
    COUNT.with(|count| count.set(Some(0)));
    let report = session.run(&workload, plan).expect("warm run");
    let allocations = COUNT.with(|count| count.replace(None)).expect("counting");
    assert!(report.verified);
    allocations
}

#[test]
fn warm_runs_allocate_the_same_at_any_size() {
    let configs = [
        AcceleratorConfig::matmul(MatMulVersion::V1, 4),
        AcceleratorConfig::matmul(MatMulVersion::V2, 8),
        AcceleratorConfig::matmul(MatMulVersion::V3, 4),
        AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, 16, (32, 16, 16)),
    ];
    for config in configs {
        let flows: Vec<String> = config.flows.iter().map(|(name, _)| name.clone()).collect();
        for flow in flows {
            let plan = CompilePlan::for_accelerator(config.clone().with_selected_flow(&flow));
            let (small, large) = (warm_run_allocations(&plan, 32), warm_run_allocations(&plan, 64));
            assert_eq!(
                small, large,
                "{} {flow}: warm-run allocations at 32^3 vs 64^3",
                config.device
            );
        }
    }
}

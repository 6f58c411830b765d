//! The simulated SoC: one host CPU, its caches, one DMA engine, one
//! accelerator.
//!
//! [`Soc`] is what "running host code" means in this workspace: every load,
//! store, branch, arithmetic operation, and DMA call that the generated (or
//! hand-written) driver performs is charged here, so two drivers can be
//! compared exactly as the paper compares `perf` profiles.

use axi4mlir_sim::axi::StreamAccelerator;
use axi4mlir_sim::cache::{AccessKind, AccessOutcome, CacheHierarchy};
use axi4mlir_sim::cost::CostModel;
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_sim::dma::DmaEngine;
use axi4mlir_sim::mem::{SimAddr, SimMemory};

/// A complete simulated system.
pub struct Soc {
    /// Simulated main memory (host buffers + DMA staging regions).
    pub mem: SimMemory,
    /// Host data-cache hierarchy.
    pub cache: CacheHierarchy,
    /// Event counters for the current run.
    pub counters: PerfCounters,
    /// The cycle cost model.
    pub cost: CostModel,
    /// The DMA engine fronting the accelerator.
    pub dma: DmaEngine,
    /// The accelerator on the other side of the AXI stream.
    pub accel: Box<dyn StreamAccelerator>,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("accel", &self.accel.name())
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Soc {
    /// Builds a PYNQ-Z2-like system around the given accelerator.
    pub fn new(accel: Box<dyn StreamAccelerator>) -> Self {
        Self::with_cost(accel, CostModel::pynq_z2())
    }

    /// Builds a system with a custom cost model (used by ablation benches).
    fn with_cost(accel: Box<dyn StreamAccelerator>, cost: CostModel) -> Self {
        Self {
            mem: SimMemory::new(),
            cache: CacheHierarchy::cortex_a9(),
            counters: PerfCounters::new(),
            cost,
            dma: DmaEngine::new(),
            accel,
        }
    }

    /// Charges `n` host arithmetic operations.
    pub fn charge_arith(&mut self, n: u64) {
        self.counters.host_cycles += n * self.cost.arith_cycles;
        self.counters.instructions += n;
    }

    /// Charges `n` host branch instructions.
    pub fn charge_branch(&mut self, n: u64) {
        self.counters.host_cycles += n * self.cost.branch_cycles;
        self.counters.instructions += n;
        self.counters.branch_instructions += n;
    }

    /// Charges raw host cycles with no counter side effects (used for fixed
    /// overheads such as call prologues).
    pub fn charge_host_cycles(&mut self, cycles: u64) {
        self.counters.host_cycles += cycles;
    }

    /// Performs a *cached* access of `bytes` at `addr`: updates the cache
    /// model, counts one cache reference per line lookup, and charges hit or
    /// miss cycles.
    pub fn cached_access(&mut self, addr: SimAddr, bytes: u64, kind: AccessKind) {
        let outcome = self.cache.access(addr.0, bytes, kind);
        self.charge_cached(outcome, 1);
    }

    /// [`Soc::cached_access`] `repeats` times for each `chunk`-byte step
    /// of the `bytes` at `addr` (a load, a store, or a load then a store
    /// per step): the same cache state and counters as those calls one by
    /// one, charged once. The cache model takes the run whole
    /// ([`CacheHierarchy::access_run`]), so aligned chunks and elements
    /// cost one real lookup per line, not one per step.
    pub(crate) fn cached_chunks(&mut self, addr: SimAddr, bytes: u64, chunk: u64, repeats: u64) {
        let outcome = self.cache.access_run(addr.0, bytes, chunk, repeats);
        self.charge_cached(outcome, bytes.div_ceil(chunk) * repeats);
    }

    /// Charges `accesses` cached accesses whose lookups sum to `outcome`.
    fn charge_cached(&mut self, outcome: AccessOutcome, accesses: u64) {
        self.counters.cache_references += outcome.l1_lookups;
        self.counters.l1_misses += outcome.l1_misses;
        self.counters.l2_misses += outcome.l2_misses;
        self.counters.instructions += accesses;
        self.counters.host_cycles += outcome.l1_lookups * self.cost.mem_cycles
            + outcome.l1_misses * self.cost.l1_miss_penalty
            + outcome.l2_misses * self.cost.l2_miss_penalty;
    }

    /// Uncached 32-bit store into a DMA staging region (write-combined on
    /// the real board; bypasses the cache hierarchy).
    pub(crate) fn uncached_write_u32(&mut self, addr: SimAddr, value: u32) {
        self.counters.uncached_accesses += 1;
        self.counters.instructions += 1;
        self.counters.host_cycles += self.cost.uncached_write_cycles;
        self.mem.write_u32(addr, value);
    }

    /// Charges `n` write-combined beats at once — the bulk equivalent of
    /// `n` [`Soc::uncached_write_u32`] calls (without moving data).
    pub(crate) fn charge_uncached_writes(&mut self, n: u64) {
        self.counters.uncached_accesses += n;
        self.counters.instructions += n;
        self.counters.host_cycles += n * self.cost.uncached_write_cycles;
    }

    /// Charges `n` uncached loads from a DMA staging region at once
    /// (without moving data).
    pub(crate) fn charge_uncached_reads(&mut self, n: u64) {
        self.counters.uncached_accesses += n;
        self.counters.instructions += n;
        self.counters.host_cycles += n * self.cost.uncached_read_cycles;
    }

    /// Task-clock of everything charged so far, in milliseconds.
    pub fn task_clock_ms(&self) -> f64 {
        self.counters.task_clock_ms(self.cost.host_freq_hz, self.cost.device_freq_hz)
    }

    /// Resets counters and cache state (not memory contents) — the
    /// per-benchmark-run boundary.
    pub fn reset_run_state(&mut self) {
        self.counters = PerfCounters::new();
        self.cache.flush();
    }

    /// Returns the whole system to its just-built state while keeping the
    /// backing memory's capacity: frees all allocations, flushes caches,
    /// clears counters, re-creates the DMA engine, and hardware-resets the
    /// accelerator. One `Soc` can thereby be reused across many
    /// compile-and-run iterations (benchmark sweeps) with bit-identical
    /// behavior to building a fresh system each time.
    pub fn recycle(&mut self) {
        self.mem.reset();
        self.cache.flush();
        self.counters = PerfCounters::new();
        self.dma = DmaEngine::new();
        self.accel.reset();
    }

    /// Swaps in a different accelerator (returning the old one), so a
    /// reused system can retarget between sweep points without discarding
    /// its memory allocation.
    pub fn replace_accelerator(
        &mut self,
        accel: Box<dyn StreamAccelerator>,
    ) -> Box<dyn StreamAccelerator> {
        std::mem::replace(&mut self.accel, accel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_sim::axi::LoopbackAccelerator;

    fn soc() -> Soc {
        Soc::new(Box::new(LoopbackAccelerator::new()))
    }

    #[test]
    fn cached_access_counts_references_and_misses() {
        let mut s = soc();
        let a = s.mem.alloc(64, 64);
        s.cached_access(a, 4, AccessKind::Read);
        assert_eq!(s.counters.cache_references, 1);
        assert_eq!(s.counters.l1_misses, 1);
        s.cached_access(a, 4, AccessKind::Read);
        assert_eq!(s.counters.cache_references, 2);
        assert_eq!(s.counters.l1_misses, 1, "second access hits");
    }

    #[test]
    fn miss_costs_more_than_hit() {
        let mut s = soc();
        let a = s.mem.alloc(64, 64);
        let c0 = s.counters.host_cycles;
        s.cached_access(a, 4, AccessKind::Read);
        let miss_cost = s.counters.host_cycles - c0;
        let c1 = s.counters.host_cycles;
        s.cached_access(a, 4, AccessKind::Read);
        let hit_cost = s.counters.host_cycles - c1;
        assert!(miss_cost > hit_cost);
    }

    #[test]
    fn uncached_accesses_do_not_touch_cache_counters() {
        let mut s = soc();
        let a = s.mem.alloc(8, 8);
        s.uncached_write_u32(a, 77);
        s.charge_uncached_reads(1);
        assert_eq!(s.mem.read_u32(a), 77);
        assert_eq!(s.counters.cache_references, 0);
        assert_eq!(s.counters.uncached_accesses, 2);
    }

    #[test]
    fn charges_accumulate() {
        let mut s = soc();
        s.charge_arith(10);
        s.charge_branch(3);
        assert_eq!(s.counters.branch_instructions, 3);
        assert_eq!(s.counters.instructions, 13);
        assert!(s.counters.host_cycles >= 13);
        assert!(s.task_clock_ms() > 0.0);
    }

    #[test]
    fn recycle_restores_the_just_built_state() {
        let mut s = soc();
        let a = s.mem.alloc(64, 64);
        s.cached_access(a, 4, AccessKind::Write);
        s.mem.write_i32(a, 9);
        s.charge_arith(5);
        s.recycle();
        assert_eq!(s.counters, PerfCounters::new());
        assert_eq!(s.mem.allocated_bytes(), 0);
        // The allocator replays addresses, so a rerun is bit-identical.
        let a2 = s.mem.alloc(64, 64);
        assert_eq!(a, a2);
        assert_eq!(s.mem.read_i32(a2), 0);
        assert!(!s.dma.is_initialized(), "DMA engine is re-created");
    }

    #[test]
    fn replace_accelerator_swaps_the_device() {
        let mut s = soc();
        let old = s.replace_accelerator(Box::new(LoopbackAccelerator::new()));
        assert_eq!(old.name(), "loopback");
        assert_eq!(s.accel.name(), "loopback");
    }

    #[test]
    fn reset_run_state_clears_counters_and_cache() {
        let mut s = soc();
        let a = s.mem.alloc(64, 64);
        s.cached_access(a, 4, AccessKind::Write);
        s.mem.write_i32(a, 9);
        s.reset_run_state();
        assert_eq!(s.counters, PerfCounters::new());
        // Memory survives, cache does not.
        assert_eq!(s.mem.read_i32(a), 9);
        s.cached_access(a, 4, AccessKind::Read);
        assert_eq!(s.counters.l1_misses, 1, "cache was flushed");
    }
}

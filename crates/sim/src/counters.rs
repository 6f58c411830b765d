//! Deterministic `perf`-analogue counters.
//!
//! The paper profiles with Linux `perf` (task-clock, cache-references,
//! branch-instructions). Our counters have documented, deterministic
//! semantics (DESIGN.md §5):
//!
//! - `cache_references` — L1D lookups: one per scalar load/store, one per
//!   vector chunk for specialized copies. DMA traffic bypasses caches and is
//!   *not* counted.
//! - `branch_instructions` — loop back-edges, conditional guards, calls and
//!   returns.
//! - `task-clock` — `host_cycles / host_freq + device_cycles / device_freq`;
//!   device work (DMA streaming + accelerator compute) is serialized with
//!   host work because the runtime's transfers block, exactly as in the
//!   paper's DMA library.

use std::fmt;
use std::ops::{Add, AddAssign};

/// The full counter set captured during one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Cycles spent on the host CPU (650 MHz domain).
    pub host_cycles: u64,
    /// Cycles spent in the device domain (200 MHz): DMA streaming beats and
    /// accelerator compute, serialized with the host per the blocking model.
    pub device_cycles: u64,
    /// L1D lookups (the `perf` `cache-references` analogue).
    pub cache_references: u64,
    /// L1D misses.
    pub l1_misses: u64,
    /// L2 misses (DRAM fills).
    pub l2_misses: u64,
    /// Branches executed (back-edges, guards, calls, returns).
    pub branch_instructions: u64,
    /// Retired "instructions" (coarse: one per modelled operation).
    pub instructions: u64,
    /// Uncached accesses to the DMA staging regions (not cache references).
    pub uncached_accesses: u64,
    /// Bytes moved host→accelerator by the DMA engine.
    pub dma_bytes_to_accel: u64,
    /// Bytes moved accelerator→host by the DMA engine.
    pub dma_bytes_from_accel: u64,
    /// Number of DMA transactions started (send + recv).
    pub dma_transactions: u64,
    /// Accelerator compute cycles (subset of `device_cycles`).
    pub accel_compute_cycles: u64,
    /// Multiply-accumulate operations retired by the accelerator.
    pub accel_macs: u64,
}

impl PerfCounters {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Task-clock in milliseconds given the two clock domains.
    pub fn task_clock_ms(&self, host_freq_hz: f64, device_freq_hz: f64) -> f64 {
        (self.host_cycles as f64 / host_freq_hz + self.device_cycles as f64 / device_freq_hz) * 1e3
    }

    /// Total DMA traffic in bytes.
    pub fn dma_bytes_total(&self) -> u64 {
        self.dma_bytes_to_accel + self.dma_bytes_from_accel
    }
}

impl Add for PerfCounters {
    type Output = PerfCounters;
    fn add(mut self, rhs: PerfCounters) -> PerfCounters {
        self += rhs;
        self
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: PerfCounters) {
        self.host_cycles += rhs.host_cycles;
        self.device_cycles += rhs.device_cycles;
        self.cache_references += rhs.cache_references;
        self.l1_misses += rhs.l1_misses;
        self.l2_misses += rhs.l2_misses;
        self.branch_instructions += rhs.branch_instructions;
        self.instructions += rhs.instructions;
        self.uncached_accesses += rhs.uncached_accesses;
        self.dma_bytes_to_accel += rhs.dma_bytes_to_accel;
        self.dma_bytes_from_accel += rhs.dma_bytes_from_accel;
        self.dma_transactions += rhs.dma_transactions;
        self.accel_compute_cycles += rhs.accel_compute_cycles;
        self.accel_macs += rhs.accel_macs;
    }
}

impl fmt::Display for PerfCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "host-cycles:          {}", self.host_cycles)?;
        writeln!(f, "device-cycles:        {}", self.device_cycles)?;
        writeln!(f, "cache-references:     {}", self.cache_references)?;
        writeln!(f, "l1-misses:            {}", self.l1_misses)?;
        writeln!(f, "l2-misses:            {}", self.l2_misses)?;
        writeln!(f, "branch-instructions:  {}", self.branch_instructions)?;
        writeln!(f, "instructions:         {}", self.instructions)?;
        writeln!(f, "uncached-accesses:    {}", self.uncached_accesses)?;
        writeln!(
            f,
            "dma-bytes (to/from):  {}/{}",
            self.dma_bytes_to_accel, self.dma_bytes_from_accel
        )?;
        writeln!(f, "dma-transactions:     {}", self.dma_transactions)?;
        writeln!(f, "accel-compute-cycles: {}", self.accel_compute_cycles)?;
        write!(f, "accel-macs:           {}", self.accel_macs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_clock_combines_domains() {
        let c = PerfCounters { host_cycles: 650_000, device_cycles: 200_000, ..Default::default() };
        // 1 ms on the host + 1 ms on the device.
        let ms = c.task_clock_ms(650e6, 200e6);
        assert!((ms - 2.0).abs() < 1e-9);
    }

    #[test]
    fn add_accumulates_all_fields() {
        let a = PerfCounters {
            host_cycles: 1,
            cache_references: 2,
            accel_macs: 3,
            ..Default::default()
        };
        let b = PerfCounters {
            host_cycles: 10,
            cache_references: 20,
            accel_macs: 30,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.host_cycles, 11);
        assert_eq!(c.cache_references, 22);
        assert_eq!(c.accel_macs, 33);
    }

    #[test]
    fn display_mentions_every_headline_counter() {
        let c = PerfCounters::new();
        let s = c.to_string();
        for key in ["cache-references", "branch-instructions", "dma-transactions", "accel-macs"] {
            assert!(s.contains(key), "missing {key}");
        }
    }

    #[test]
    fn dma_totals() {
        let c =
            PerfCounters { dma_bytes_to_accel: 10, dma_bytes_from_accel: 5, ..Default::default() };
        assert_eq!(c.dma_bytes_total(), 15);
    }
}

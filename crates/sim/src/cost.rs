//! The cycle cost model — the workspace's single calibration point.
//!
//! Every constant that converts a modelled event (a load, a DMA descriptor
//! write, an accelerator MAC) into cycles lives here. The defaults are
//! calibrated so that the *shapes* of the paper's figures reproduce:
//!
//! - Fig. 10: accelerator offload only beats the CPU for `dims >= 64` and
//!   `accel_size >= 8` — driven by `dma_setup_host_cycles` dominating small
//!   tiles and cache misses slowing the CPU at large dims.
//! - Fig. 12: the specialized `memcpy` copy (16-byte NEON chunks) reduces
//!   cache references and branches about 3x vs the element-wise recursive
//!   copy; the manual baseline's compiler-autovectorized copy sits between
//!   (8-byte chunks).
//! - Fig. 13: cache-aware tiling converts L2 misses into hits, giving the
//!   generated code its 1.1-1.7x advantage at large problem sizes.
//!
//! The shape assertions live in `crates/bench/tests/golden_reports.rs`;
//! when touching a constant, run those.

/// Cycle cost constants for the simulated Zynq-7000 SoC.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Host CPU frequency (PYNQ-Z2 Cortex-A9: 650 MHz).
    pub host_freq_hz: f64,
    /// Device (FPGA fabric) frequency (Vitis syntheses in the paper: 200 MHz).
    pub device_freq_hz: f64,

    /// Base cost of one arithmetic op on the host.
    pub arith_cycles: u64,
    /// Base cost of one load/store that hits L1.
    pub mem_cycles: u64,
    /// Extra cycles when an access misses L1 and hits L2.
    pub l1_miss_penalty: u64,
    /// Extra cycles when an access misses L2 (DRAM fill).
    pub l2_miss_penalty: u64,
    /// Cost of one branch instruction.
    pub branch_cycles: u64,
    /// Cost of address/index computation per element in the *element-wise*
    /// (rank-generic, stride-aware) memref copy.
    pub elementwise_index_cycles: u64,

    /// Cost of one uncached write to the DMA staging region (write-combined).
    pub uncached_write_cycles: u64,
    /// Cost of one uncached read from the DMA staging region.
    pub uncached_read_cycles: u64,

    /// Host cycles for one `dma_start_*` MMIO descriptor write.
    pub dma_start_host_cycles: u64,
    /// Host cycles for one `dma_wait_*` completion poll.
    pub dma_wait_host_cycles: u64,
    /// One-time host cycles for `dma_init` (mmap + engine reset).
    pub dma_init_host_cycles: u64,
    /// Device cycles consumed per 32-bit beat streamed over AXI-S.
    pub stream_beat_device_cycles: u64,
    /// Fixed device cycles of pipeline latency per DMA transaction.
    pub stream_setup_device_cycles: u64,

    /// Chunk size (bytes) of the specialized NEON `memcpy` copy path.
    pub memcpy_chunk_bytes: u64,
    /// Chunk size (bytes) the manual baseline's autovectorized copies reach.
    pub manual_chunk_bytes: u64,
}

impl CostModel {
    /// The calibrated PYNQ-Z2 model used by all experiments.
    pub fn pynq_z2() -> Self {
        Self {
            host_freq_hz: 650e6,
            device_freq_hz: 200e6,
            arith_cycles: 1,
            // Cortex-A9 load-use latency: 2 cycles on an L1 hit.
            mem_cycles: 2,
            l1_miss_penalty: 8,
            l2_miss_penalty: 45,
            branch_cycles: 1,
            elementwise_index_cycles: 3,
            uncached_write_cycles: 3,
            uncached_read_cycles: 8,
            dma_start_host_cycles: 200,
            dma_wait_host_cycles: 100,
            // One-time mmap + udmabuf + engine reset: ~380 us at 650 MHz,
            // in line with Linux driver setup costs on the Zynq.
            dma_init_host_cycles: 250_000,
            stream_beat_device_cycles: 1,
            stream_setup_device_cycles: 30,
            memcpy_chunk_bytes: 16,
            manual_chunk_bytes: 8,
        }
    }

    /// Device cycles to stream `bytes` over the AXI-S link (one transaction).
    pub fn stream_device_cycles(&self, bytes: u64) -> u64 {
        self.stream_setup_device_cycles + bytes.div_ceil(4) * self.stream_beat_device_cycles
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::pynq_z2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pynq() {
        assert_eq!(CostModel::default(), CostModel::pynq_z2());
    }

    #[test]
    fn cached_access_cost_scales_with_misses() {
        let m = CostModel::pynq_z2();
        assert!(m.mem_cycles > 0 && m.l1_miss_penalty > 0);
        assert!(m.l2_miss_penalty > m.l1_miss_penalty);
    }

    #[test]
    fn stream_cycles_include_setup() {
        let m = CostModel::pynq_z2();
        assert_eq!(m.stream_device_cycles(0), m.stream_setup_device_cycles);
        assert_eq!(m.stream_device_cycles(4), m.stream_setup_device_cycles + 1);
        assert_eq!(m.stream_device_cycles(6), m.stream_setup_device_cycles + 2);
    }

    #[test]
    fn to_ms_matches_frequencies() {
        use crate::counters::PerfCounters;
        let m = CostModel::pynq_z2();
        let host = PerfCounters { host_cycles: 650_000, ..PerfCounters::new() };
        assert!((host.task_clock_ms(m.host_freq_hz, m.device_freq_hz) - 1.0).abs() < 1e-9);
        let device = PerfCounters { device_cycles: 200_000, ..PerfCounters::new() };
        assert!((device.task_clock_ms(m.host_freq_hz, m.device_freq_hz) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memcpy_chunks_wider_than_manual() {
        let m = CostModel::pynq_z2();
        assert!(
            m.memcpy_chunk_bytes > m.manual_chunk_bytes,
            "NEON memcpy must beat autovectorized copies"
        );
    }
}

//! The DMA engine between host memory and the AXI-Stream accelerator.
//!
//! Models the Xilinx AXI DMA configuration the paper's runtime drives:
//! `dma_init` maps an input and an output staging buffer (uncached, as with
//! `mmap`ed udmabuf regions on the real board), `dma_start_send` streams a
//! byte range of the input region into the accelerator, and
//! `dma_start_recv` drains accelerator output beats into the output region.
//! All four `start`/`wait` entry points charge the MMIO/poll costs of
//! [`crate::cost::CostModel`]; streaming charges device cycles at one beat
//! per device cycle.
//!
//! Transfers are functionally instantaneous (the accelerator FSM runs as
//! beats arrive) but the *cost accounting* matches the blocking semantics of
//! the paper's library: `start` + `wait` pairs serialize host and device
//! time.

use std::fmt;

use crate::axi::StreamAccelerator;
use crate::cost::CostModel;
use crate::counters::PerfCounters;
use crate::mem::{SimAddr, SimMemory};

/// Parameters of `accel.dma_init` (Fig. 6a `dma_init_config`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DmaConfig {
    /// Engine identifier (multiple accelerators get distinct engines).
    pub id: u32,
    /// Base address of the input (host→accel) staging region.
    pub input_base: SimAddr,
    /// Size of the input staging region in bytes.
    pub input_size: u64,
    /// Base address of the output (accel→host) staging region.
    pub output_base: SimAddr,
    /// Size of the output staging region in bytes.
    pub output_size: u64,
}

/// Errors surfaced by DMA transactions.
///
/// On real hardware most of these hang the board; the simulator turns them
/// into actionable errors so driver-generation bugs fail tests loudly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DmaError {
    /// A transfer was attempted before `dma_init`.
    NotInitialized,
    /// `offset + len` exceeds the staging region.
    OutOfRange {
        /// Which direction was requested.
        direction: Direction,
        /// Requested offset in bytes.
        offset: u64,
        /// Requested length in bytes.
        len: u64,
        /// Region capacity in bytes.
        capacity: u64,
    },
    /// A recv requested more beats than the accelerator produced — the
    /// simulated equivalent of a bus hang.
    StreamUnderflow {
        /// Beats requested.
        requested_words: u64,
        /// Beats available in the accelerator output FIFO.
        available_words: u64,
    },
    /// Transfer length not a multiple of the 4-byte beat size.
    UnalignedLength {
        /// Requested length in bytes.
        len: u64,
    },
}

/// Transfer direction, for error reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Host to accelerator (send).
    Send,
    /// Accelerator to host (recv).
    Recv,
}

impl fmt::Display for DmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmaError::NotInitialized => write!(f, "dma engine used before dma_init"),
            DmaError::OutOfRange { direction, offset, len, capacity } => write!(
                f,
                "{} transfer of {len} bytes at offset {offset} exceeds staging region of {capacity} bytes",
                match direction {
                    Direction::Send => "send",
                    Direction::Recv => "recv",
                }
            ),
            DmaError::StreamUnderflow { requested_words, available_words } => write!(
                f,
                "recv requested {requested_words} beats but accelerator produced {available_words} (bus would hang)"
            ),
            DmaError::UnalignedLength { len } => {
                write!(f, "transfer length {len} is not a multiple of the 4-byte beat size")
            }
        }
    }
}

impl std::error::Error for DmaError {}

/// The DMA engine state machine.
///
/// # Examples
///
/// ```
/// use axi4mlir_sim::axi::LoopbackAccelerator;
/// use axi4mlir_sim::cost::CostModel;
/// use axi4mlir_sim::counters::PerfCounters;
/// use axi4mlir_sim::dma::{DmaConfig, DmaEngine};
/// use axi4mlir_sim::mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// let input = mem.alloc(256, 64);
/// let output = mem.alloc(256, 64);
/// let mut dma = DmaEngine::new();
/// let mut counters = PerfCounters::new();
/// let cost = CostModel::pynq_z2();
/// dma.init(
///     DmaConfig { id: 0, input_base: input, input_size: 256, output_base: output, output_size: 256 },
///     &mut counters,
///     &cost,
/// );
/// let mut accel = LoopbackAccelerator::new();
/// mem.write_u32(input, 0x1234);
/// dma.start_send(&mut mem, &mut accel, 0, 4, &mut counters, &cost).unwrap();
/// dma.wait_send_completion(&mut counters, &cost);
/// dma.start_recv(&mut mem, &mut accel, 0, 4, &mut counters, &cost).unwrap();
/// dma.wait_recv_completion(&mut counters, &cost);
/// assert_eq!(mem.read_u32(output), 0x1234);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DmaEngine {
    config: Option<DmaConfig>,
}

impl DmaEngine {
    /// Creates an uninitialized engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Initializes the engine (the one-time `dma_init` of the runtime
    /// library); charges `dma_init_host_cycles`.
    pub fn init(&mut self, config: DmaConfig, counters: &mut PerfCounters, cost: &CostModel) {
        self.config = Some(config);
        counters.host_cycles += cost.dma_init_host_cycles;
        counters.instructions += 1;
    }

    /// Returns the active configuration.
    pub fn config(&self) -> Option<&DmaConfig> {
        self.config.as_ref()
    }

    /// `true` once `init` has been called.
    pub fn is_initialized(&self) -> bool {
        self.config.is_some()
    }

    /// Checks that `len` bytes at `offset` lie inside the staging region
    /// a transfer in `direction` uses, in whole beats. A staging copy
    /// into or out of a region is checked the same way.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError`] if uninitialized, unaligned, or out of range.
    pub fn check(
        &self,
        direction: Direction,
        offset: u64,
        len: u64,
    ) -> Result<DmaConfig, DmaError> {
        let config = self.config.ok_or(DmaError::NotInitialized)?;
        if !len.is_multiple_of(4) {
            return Err(DmaError::UnalignedLength { len });
        }
        let capacity = match direction {
            Direction::Send => config.input_size,
            Direction::Recv => config.output_size,
        };
        if offset.checked_add(len).is_none_or(|end| end > capacity) {
            return Err(DmaError::OutOfRange { direction, offset, len, capacity });
        }
        Ok(config)
    }

    /// Streams `len` bytes starting at `offset` within the input staging
    /// region into the accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError`] if uninitialized, unaligned, or out of range.
    pub fn start_send(
        &mut self,
        mem: &mut SimMemory,
        accel: &mut dyn StreamAccelerator,
        offset: u64,
        len: u64,
        counters: &mut PerfCounters,
        cost: &CostModel,
    ) -> Result<(), DmaError> {
        let config = self.check(Direction::Send, offset, len)?;
        counters.host_cycles += cost.dma_start_host_cycles;
        counters.instructions += 1;
        counters.branch_instructions += 1; // the MMIO call
        counters.dma_transactions += 1;
        counters.dma_bytes_to_accel += len;
        counters.device_cycles += cost.stream_device_cycles(len);
        let base = config.input_base.offset(offset);
        // One bounds-checked burst instead of per-beat reads; the device
        // takes it whole, identically to beat-by-beat decoding (see
        // `StreamAccelerator::consume_burst`).
        accel.consume_burst(mem.read_bytes(base, len), counters);
        Ok(())
    }

    /// Blocks (in cost terms) until the send completes.
    pub fn wait_send_completion(&mut self, counters: &mut PerfCounters, cost: &CostModel) {
        counters.host_cycles += cost.dma_wait_host_cycles;
        counters.instructions += 1;
        counters.branch_instructions += 2; // poll loop
    }

    /// Drains `len` bytes of accelerator output into the output staging
    /// region at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::StreamUnderflow`] if the accelerator has produced
    /// fewer beats than requested (a driver-generation bug), plus the usual
    /// initialization/range errors.
    pub fn start_recv(
        &mut self,
        mem: &mut SimMemory,
        accel: &mut dyn StreamAccelerator,
        offset: u64,
        len: u64,
        counters: &mut PerfCounters,
        cost: &CostModel,
    ) -> Result<(), DmaError> {
        let config = self.check(Direction::Recv, offset, len)?;
        let words = len / 4;
        let available = accel.output_len() as u64;
        if available < words {
            return Err(DmaError::StreamUnderflow {
                requested_words: words,
                available_words: available,
            });
        }
        counters.host_cycles += cost.dma_start_host_cycles;
        counters.instructions += 1;
        counters.branch_instructions += 1;
        counters.dma_transactions += 1;
        counters.dma_bytes_from_accel += len;
        counters.device_cycles += cost.stream_device_cycles(len);
        let base = config.output_base.offset(offset);
        // One bounds-checked burst write instead of per-beat writes.
        accel.produce_burst(mem.bytes_mut(base, len));
        Ok(())
    }

    /// Blocks (in cost terms) until the recv completes.
    pub fn wait_recv_completion(&mut self, counters: &mut PerfCounters, cost: &CostModel) {
        counters.host_cycles += cost.dma_wait_host_cycles;
        counters.instructions += 1;
        counters.branch_instructions += 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::LoopbackAccelerator;

    fn setup() -> (SimMemory, DmaEngine, PerfCounters, CostModel, LoopbackAccelerator) {
        let mut mem = SimMemory::new();
        let input = mem.alloc(256, 64);
        let output = mem.alloc(256, 64);
        let mut dma = DmaEngine::new();
        let mut counters = PerfCounters::new();
        let cost = CostModel::pynq_z2();
        dma.init(
            DmaConfig {
                id: 0,
                input_base: input,
                input_size: 256,
                output_base: output,
                output_size: 256,
            },
            &mut counters,
            &cost,
        );
        (mem, dma, counters, cost, LoopbackAccelerator::new())
    }

    #[test]
    fn init_charges_one_time_cost() {
        let (_, dma, counters, cost, _) = setup();
        assert!(dma.is_initialized());
        assert_eq!(counters.host_cycles, cost.dma_init_host_cycles);
    }

    #[test]
    fn uninitialized_engine_rejects_transfers() {
        let mut mem = SimMemory::new();
        let mut dma = DmaEngine::new();
        let mut counters = PerfCounters::new();
        let cost = CostModel::pynq_z2();
        let mut accel = LoopbackAccelerator::new();
        let err = dma.start_send(&mut mem, &mut accel, 0, 4, &mut counters, &cost).unwrap_err();
        assert_eq!(err, DmaError::NotInitialized);
    }

    #[test]
    fn roundtrip_through_loopback() {
        let (mut mem, mut dma, mut counters, cost, mut accel) = setup();
        let input_base = dma.config().unwrap().input_base;
        let output_base = dma.config().unwrap().output_base;
        for i in 0..8u64 {
            mem.write_u32(input_base.offset(i * 4), (i * 11) as u32);
        }
        dma.start_send(&mut mem, &mut accel, 0, 32, &mut counters, &cost).unwrap();
        dma.wait_send_completion(&mut counters, &cost);
        dma.start_recv(&mut mem, &mut accel, 0, 32, &mut counters, &cost).unwrap();
        dma.wait_recv_completion(&mut counters, &cost);
        for i in 0..8u64 {
            assert_eq!(mem.read_u32(output_base.offset(i * 4)), (i * 11) as u32);
        }
        assert_eq!(counters.dma_bytes_to_accel, 32);
        assert_eq!(counters.dma_bytes_from_accel, 32);
        assert_eq!(counters.dma_transactions, 2);
    }

    #[test]
    fn out_of_range_send_is_rejected() {
        let (mut mem, mut dma, mut counters, cost, mut accel) = setup();
        let err = dma.start_send(&mut mem, &mut accel, 250, 16, &mut counters, &cost).unwrap_err();
        assert!(matches!(err, DmaError::OutOfRange { direction: Direction::Send, .. }));
        let msg = err.to_string();
        assert!(msg.contains("exceeds staging region"));
    }

    #[test]
    fn unaligned_length_is_rejected() {
        let (mut mem, mut dma, mut counters, cost, mut accel) = setup();
        let err = dma.start_send(&mut mem, &mut accel, 0, 6, &mut counters, &cost).unwrap_err();
        assert_eq!(err, DmaError::UnalignedLength { len: 6 });
    }

    #[test]
    fn recv_underflow_is_detected() {
        let (mut mem, mut dma, mut counters, cost, mut accel) = setup();
        let err = dma.start_recv(&mut mem, &mut accel, 0, 8, &mut counters, &cost).unwrap_err();
        assert_eq!(err, DmaError::StreamUnderflow { requested_words: 2, available_words: 0 });
    }

    #[test]
    fn device_cycles_scale_with_bytes() {
        let (mut mem, mut dma, mut counters, cost, mut accel) = setup();
        let before = counters.device_cycles;
        dma.start_send(&mut mem, &mut accel, 0, 64, &mut counters, &cost).unwrap();
        let d1 = counters.device_cycles - before;
        let before = counters.device_cycles;
        dma.start_send(&mut mem, &mut accel, 0, 128, &mut counters, &cost).unwrap();
        let d2 = counters.device_cycles - before;
        assert_eq!(d2 - d1, 16, "64 extra bytes = 16 extra beats");
    }
}

//! The Conv2D accelerator of §IV-D / Fig. 15.
//!
//! Supports varying input-channel (`iC`) and square filter (`fHW`) sizes and
//! computes **one output slice** (all spatial elements of one output
//! channel) per iteration:
//!
//! 1. `rst` opcodes configure `fHW` and `iC` (sent once per kernel via
//!    `init_opcodes`);
//! 2. `sF` loads one 3-D filter slice (`iC x fH x fW`, the weights of one
//!    output channel) — filter-stationary;
//! 3. each `sIcO` streams one 3-D input window (`iC x fH x fW`) and computes
//!    its inner product with the filter, appending one element to the
//!    internal output-slice buffer — output-stationary;
//! 4. `rO` streams the accumulated output slice back and clears it.

use axi4mlir_sim::axi::{AxiStreamFifo, StreamAccelerator};
use axi4mlir_sim::counters::PerfCounters;

use crate::isa;

/// Maximum words of the filter/window buffers (covers ResNet18's largest
/// slice, `512 x 3 x 3 = 4608`).
pub const CONV_WINDOW_CAPACITY: usize = 16_384;
/// Maximum elements of the output-slice buffer (covers the `112 x 112`
/// first-layer output of ResNet18).
pub const CONV_SLICE_CAPACITY: usize = 16_384;
/// MACs the vector engine retires per device cycle.
const CONV_MACS_PER_CYCLE: u64 = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    Opcode,
    SetFilterSize,
    SetInChannels,
    FillFilter { index: usize },
    FillWindow { index: usize },
}

/// Functional + timing model of the Conv2D accelerator.
///
/// # Examples
///
/// ```
/// use axi4mlir_accelerators::conv::ConvAccel;
/// use axi4mlir_accelerators::isa;
/// use axi4mlir_sim::axi::StreamAccelerator;
/// use axi4mlir_sim::counters::PerfCounters;
///
/// let mut acc = ConvAccel::new();
/// let mut c = PerfCounters::new();
/// // 1 input channel, 1x1 filter with weight 3; one window with value 5.
/// for w in [
///     isa::CONV_OP_SET_FILTER_SIZE, 1,
///     isa::CONV_OP_SET_IN_CHANNELS, 1,
///     isa::CONV_OP_SEND_FILTER, 3,
///     isa::CONV_OP_SEND_INPUT_COMPUTE, 5,
///     isa::CONV_OP_READ_OUTPUT,
/// ] {
///     acc.consume_word(w, &mut c);
/// }
/// assert_eq!(acc.pop_output_word(), Some(15));
/// ```
#[derive(Clone, Debug)]
pub struct ConvAccel {
    fhw: u32,
    ic: u32,
    filter: Vec<i32>,
    window: Vec<i32>,
    slice: Vec<i32>,
    state: Pending,
    out: AxiStreamFifo,
    protocol_errors: u64,
}

impl ConvAccel {
    /// Creates an unconfigured accelerator (filter size and channel count
    /// must be set via the `rst` opcodes before use).
    pub fn new() -> Self {
        Self {
            fhw: 0,
            ic: 0,
            filter: Vec::new(),
            window: Vec::new(),
            slice: Vec::new(),
            state: Pending::Opcode,
            out: AxiStreamFifo::new(),
            protocol_errors: 0,
        }
    }

    /// Words in one filter slice / input window: `iC * fH * fW`
    /// (saturating, so an absurd configuration is refused, not a panic).
    fn window_words(&self) -> usize {
        (self.ic as usize).saturating_mul(self.fhw as usize).saturating_mul(self.fhw as usize)
    }

    fn begin_opcode(&mut self, opcode: u32) {
        match opcode {
            isa::CONV_OP_SET_FILTER_SIZE => self.state = Pending::SetFilterSize,
            isa::CONV_OP_SET_IN_CHANNELS => self.state = Pending::SetInChannels,
            isa::CONV_OP_SEND_FILTER => {
                if self.window_words() == 0 || self.window_words() > CONV_WINDOW_CAPACITY {
                    self.protocol_errors += 1;
                } else {
                    // Every word is overwritten before the filter is read.
                    self.filter.resize(self.window_words(), 0);
                    self.state = Pending::FillFilter { index: 0 };
                }
            }
            isa::CONV_OP_SEND_INPUT_COMPUTE => {
                if self.filter.len() != self.window_words() || self.window_words() == 0 {
                    self.protocol_errors += 1;
                } else {
                    self.window.resize(self.window_words(), 0);
                    self.state = Pending::FillWindow { index: 0 };
                }
            }
            isa::CONV_OP_READ_OUTPUT => {
                self.out.extend(self.slice.iter().map(|&v| v as u32));
                self.slice.clear();
            }
            _ => self.protocol_errors += 1,
        }
    }

    fn compute_window(&mut self, counters: &mut PerfCounters) {
        let mut acc = 0i32;
        for (w, f) in self.window.iter().zip(&self.filter) {
            acc = acc.wrapping_add(w.wrapping_mul(*f));
        }
        if self.slice.len() == CONV_SLICE_CAPACITY {
            self.protocol_errors += 1;
        } else {
            self.slice.push(acc);
        }
        let macs = self.window.len() as u64;
        let cycles = macs.div_ceil(CONV_MACS_PER_CYCLE);
        counters.accel_macs += macs;
        counters.accel_compute_cycles += cycles;
        counters.device_cycles += cycles;
    }

    /// In a `FillFilter`/`FillWindow` state: copies as many leading beats
    /// of `bytes` as the buffer still takes, then acts on a completed
    /// fill. Returns the bytes taken — at least one beat when `bytes`
    /// holds one.
    fn fill(&mut self, bytes: &[u8], counters: &mut PerfCounters) -> usize {
        let (buffer, index, window) = match self.state {
            Pending::FillFilter { index } => (&mut self.filter, index, false),
            Pending::FillWindow { index } => (&mut self.window, index, true),
            Pending::Opcode | Pending::SetFilterSize | Pending::SetInChannels => {
                unreachable!("not filling")
            }
        };
        let taken = (buffer.len() - index).min(bytes.len() / 4);
        crate::copy_beats(&mut buffer[index..index + taken], bytes);
        let index = index + taken;
        if index < buffer.len() {
            self.state =
                if window { Pending::FillWindow { index } } else { Pending::FillFilter { index } };
            return taken * 4;
        }
        self.state = Pending::Opcode;
        if window {
            self.compute_window(counters);
        }
        taken * 4
    }
}

impl Default for ConvAccel {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamAccelerator for ConvAccel {
    fn name(&self) -> &str {
        "conv2d"
    }

    fn reset(&mut self) {
        *self = ConvAccel::new();
    }

    fn consume_word(&mut self, word: u32, counters: &mut PerfCounters) {
        match self.state {
            Pending::Opcode => self.begin_opcode(word),
            Pending::SetFilterSize => {
                self.fhw = word;
                self.state = Pending::Opcode;
            }
            Pending::SetInChannels => {
                self.ic = word;
                self.state = Pending::Opcode;
            }
            Pending::FillFilter { .. } | Pending::FillWindow { .. } => {
                self.fill(&word.to_le_bytes(), counters);
            }
        }
    }

    /// A fill takes its whole run of beats in one slice copy; every other
    /// beat goes through [`consume_word`](Self::consume_word).
    fn consume_burst(&mut self, mut bytes: &[u8], counters: &mut PerfCounters) {
        while let Some(beat) = bytes.first_chunk::<4>() {
            let taken = match self.state {
                Pending::FillFilter { .. } | Pending::FillWindow { .. } => {
                    self.fill(bytes, counters)
                }
                Pending::Opcode | Pending::SetFilterSize | Pending::SetInChannels => {
                    self.consume_word(u32::from_le_bytes(*beat), counters);
                    4
                }
            };
            bytes = &bytes[taken..];
        }
    }

    fn pop_output_word(&mut self) -> Option<u32> {
        self.out.pop()
    }

    fn produce_burst(&mut self, out: &mut [u8]) {
        self.out.pop_le_bytes(out);
    }

    fn output_len(&self) -> usize {
        self.out.len()
    }

    fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(acc: &mut ConvAccel, words: &[u32]) -> PerfCounters {
        let mut counters = PerfCounters::new();
        for w in words {
            acc.consume_word(*w, &mut counters);
        }
        counters
    }

    fn configure(acc: &mut ConvAccel, ic: u32, fhw: u32) {
        drive(acc, &[isa::CONV_OP_SET_FILTER_SIZE, fhw, isa::CONV_OP_SET_IN_CHANNELS, ic]);
    }

    #[test]
    fn configuration_roundtrip() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 256, 3);
        assert_eq!((acc.ic, acc.fhw), (256, 3));
        assert_eq!(acc.window_words(), 256 * 9);
    }

    #[test]
    fn inner_product_of_window_and_filter() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 2, 1); // 2 words per window
        let mut words = vec![isa::CONV_OP_SEND_FILTER, 2, 3];
        words.extend([isa::CONV_OP_SEND_INPUT_COMPUTE, 10, 100]);
        words.push(isa::CONV_OP_READ_OUTPUT);
        let counters = drive(&mut acc, &words);
        assert_eq!(acc.pop_output_word(), Some((2 * 10 + 3 * 100) as u32));
        assert_eq!(counters.accel_macs, 2);
        assert_eq!(acc.protocol_errors(), 0);
    }

    #[test]
    fn slice_accumulates_multiple_windows() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 1, 1);
        let mut words = vec![isa::CONV_OP_SEND_FILTER, 2];
        for v in [1u32, 2, 3] {
            words.extend([isa::CONV_OP_SEND_INPUT_COMPUTE, v]);
        }
        words.push(isa::CONV_OP_READ_OUTPUT);
        drive(&mut acc, &words);
        let out: Vec<u32> = std::iter::from_fn(|| acc.pop_output_word()).collect();
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn read_clears_slice() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 1, 1);
        drive(&mut acc, &[isa::CONV_OP_SEND_FILTER, 1, isa::CONV_OP_SEND_INPUT_COMPUTE, 7]);
        drive(&mut acc, &[isa::CONV_OP_READ_OUTPUT]);
        assert_eq!(acc.output_len(), 1);
        acc.pop_output_word();
        drive(&mut acc, &[isa::CONV_OP_READ_OUTPUT]);
        assert_eq!(acc.output_len(), 0, "slice buffer must be empty after read");
    }

    #[test]
    fn compute_before_filter_is_protocol_error() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 1, 1);
        drive(&mut acc, &[isa::CONV_OP_SEND_INPUT_COMPUTE]);
        assert_eq!(acc.protocol_errors(), 1);
    }

    #[test]
    fn unconfigured_filter_is_protocol_error() {
        let mut acc = ConvAccel::new();
        drive(&mut acc, &[isa::CONV_OP_SEND_FILTER]);
        assert_eq!(acc.protocol_errors(), 1);
    }

    #[test]
    fn unknown_opcode_is_protocol_error() {
        let mut acc = ConvAccel::new();
        drive(&mut acc, &[9999]);
        assert_eq!(acc.protocol_errors(), 1);
    }

    #[test]
    fn compute_cycles_scale_with_window() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 64, 1); // 64 MACs per window = 2 cycles at 32/cycle
        let mut words = vec![isa::CONV_OP_SEND_FILTER];
        words.extend(std::iter::repeat_n(1, 64));
        words.push(isa::CONV_OP_SEND_INPUT_COMPUTE);
        words.extend(std::iter::repeat_n(1, 64));
        let counters = drive(&mut acc, &words);
        assert_eq!(counters.accel_compute_cycles, 2);
    }

    #[test]
    fn reset_returns_to_unconfigured() {
        let mut acc = ConvAccel::new();
        configure(&mut acc, 4, 3);
        acc.reset();
        assert_eq!((acc.ic, acc.fhw), (0, 0));
        assert_eq!(acc.name(), "conv2d");
    }
}

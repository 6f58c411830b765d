//! AXI-Stream modelling: word FIFOs and the accelerator-side interface.
//!
//! The paper targets AXI-Stream (AXI-S) accelerators: the host never shares
//! memory with the device; instead the DMA engine streams 32-bit beats into
//! the accelerator's input FIFO and drains its output FIFO. Accelerators are
//! finite-state machines decoding a micro-ISA from the input stream
//! ([`StreamAccelerator::consume_word`]) and producing result words
//! ([`StreamAccelerator::pop_output_word`]).

use std::collections::VecDeque;

use crate::counters::PerfCounters;

/// A FIFO of 32-bit AXI-Stream beats.
///
/// # Examples
///
/// ```
/// use axi4mlir_sim::axi::AxiStreamFifo;
///
/// let mut fifo = AxiStreamFifo::new();
/// fifo.push(7);
/// fifo.push(9);
/// assert_eq!(fifo.len(), 2);
/// assert_eq!(fifo.pop(), Some(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct AxiStreamFifo {
    words: VecDeque<u32>,
}

impl AxiStreamFifo {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues one beat.
    pub fn push(&mut self, word: u32) {
        self.words.push_back(word);
    }

    /// Enqueues beats in order.
    pub fn extend(&mut self, words: impl IntoIterator<Item = u32>) {
        self.words.extend(words);
    }

    /// Dequeues the oldest beat.
    pub fn pop(&mut self) -> Option<u32> {
        self.words.pop_front()
    }

    /// Dequeues one beat per 4-byte chunk of `out`, little-endian, oldest
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if fewer beats are queued than `out` has chunks.
    pub fn pop_le_bytes(&mut self, out: &mut [u8]) {
        let words = out.len() / 4;
        assert!(words <= self.words.len(), "output FIFO underflow");
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.words.drain(..words)) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Number of queued beats.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when no beats are queued.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Drops all queued beats.
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

/// Device-side interface of an AXI-Stream accelerator.
///
/// Implementations are functional *and* timed: they perform the real
/// arithmetic (so results can be verified) and charge compute cycles to the
/// [`PerfCounters`] passed with each beat, using Table I throughput figures.
///
/// The trait is object-safe; the SoC owns a `Box<dyn StreamAccelerator>`.
pub trait StreamAccelerator {
    /// Short identifier, e.g. `"v3_16"` or `"conv2d"`.
    fn name(&self) -> &str;

    /// Hardware reset: clears FIFOs and internal state.
    fn reset(&mut self);

    /// Feeds one 32-bit beat from the host. The accelerator decodes its
    /// micro-ISA from the beat stream and may run a computation (charging
    /// `accel_compute_cycles`/`device_cycles` and pushing result beats to
    /// the output FIFO).
    fn consume_word(&mut self, word: u32, counters: &mut PerfCounters);

    /// Feeds a whole DMA burst of little-endian beats.
    ///
    /// The default forwards each word to [`Self::consume_word`]. A device
    /// may override it — an FSM device too, e.g. to copy a tile fill in one
    /// slice copy — as long as every split of a stream into bursts leaves
    /// the same outputs, counters and protocol errors as feeding it word by
    /// word.
    fn consume_burst(&mut self, bytes: &[u8], counters: &mut PerfCounters) {
        for chunk in bytes.chunks_exact(4) {
            let word = u32::from_le_bytes(chunk.try_into().expect("4-byte beat"));
            self.consume_word(word, counters);
        }
    }

    /// Pops one result beat, if available.
    fn pop_output_word(&mut self) -> Option<u32>;

    /// Drains one result beat per 4-byte chunk of `out`, little-endian.
    ///
    /// The caller guarantees [`Self::output_len`] covers the burst (the
    /// DMA engine's underflow check). The default pops word by word;
    /// devices may override it with a bulk FIFO drain
    /// ([`AxiStreamFifo::pop_le_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if the output FIFO underflows mid-burst.
    fn produce_burst(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_exact_mut(4) {
            let word = self.pop_output_word().expect("checked available");
            chunk.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Number of result beats currently queued.
    fn output_len(&self) -> usize;

    /// Number of protocol violations observed (unknown opcodes, oversized
    /// configurations). Drivers are buggy if this is non-zero after a run;
    /// the default is for devices that cannot detect violations.
    fn protocol_errors(&self) -> u64 {
        0
    }
}

/// A trivial accelerator that echoes every input beat — used by DMA tests.
#[derive(Clone, Debug, Default)]
pub struct LoopbackAccelerator {
    out: AxiStreamFifo,
}

impl LoopbackAccelerator {
    /// Creates a loopback device.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StreamAccelerator for LoopbackAccelerator {
    fn name(&self) -> &str {
        "loopback"
    }

    fn reset(&mut self) {
        self.out.clear();
    }

    fn consume_word(&mut self, word: u32, _counters: &mut PerfCounters) {
        self.out.push(word);
    }

    fn consume_burst(&mut self, bytes: &[u8], _counters: &mut PerfCounters) {
        // Word-oblivious echo device: bulk-append the burst.
        for chunk in bytes.chunks_exact(4) {
            self.out.push(u32::from_le_bytes(chunk.try_into().expect("4-byte beat")));
        }
    }

    fn pop_output_word(&mut self) -> Option<u32> {
        self.out.pop()
    }

    fn output_len(&self) -> usize {
        self.out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_is_first_in_first_out() {
        let mut f = AxiStreamFifo::new();
        assert!(f.is_empty());
        for w in [1u32, 2, 3] {
            f.push(w);
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn fifo_bulk_moves_keep_order() {
        let mut f = AxiStreamFifo::new();
        f.extend([1u32, 0x0102_0304, 3]);
        let mut out = [0u8; 8];
        f.pop_le_bytes(&mut out);
        assert_eq!(out, [1, 0, 0, 0, 4, 3, 2, 1]);
        assert_eq!(f.pop(), Some(3));
        assert!(f.is_empty());
    }

    #[test]
    fn fifo_clear_empties() {
        let mut f = AxiStreamFifo::new();
        f.push(1);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn loopback_echoes() {
        let mut acc = LoopbackAccelerator::new();
        let mut counters = PerfCounters::new();
        acc.consume_word(0xAB, &mut counters);
        acc.consume_word(0xCD, &mut counters);
        assert_eq!(acc.output_len(), 2);
        assert_eq!(acc.pop_output_word(), Some(0xAB));
        assert_eq!(acc.pop_output_word(), Some(0xCD));
        assert_eq!(acc.name(), "loopback");
    }

    #[test]
    fn loopback_reset_drops_output() {
        let mut acc = LoopbackAccelerator::new();
        let mut counters = PerfCounters::new();
        acc.consume_word(1, &mut counters);
        acc.reset();
        assert_eq!(acc.output_len(), 0);
    }
}

//! Simulated byte-addressable main memory.
//!
//! Buffers used by workloads, the DMA staging regions, and MLIR `memref`
//! allocations all live in one [`SimMemory`] so that the cache model sees a
//! single, realistic address space. Addresses start at a non-zero base (as on
//! real hardware, where low memory is reserved) and a bump allocator hands
//! out aligned regions.

use std::fmt;

/// Base address of the first allocation.
///
/// Chosen non-zero so address `0` can serve as a poison value and so that
/// cache-set indices are exercised realistically.
pub const BASE_ADDR: u64 = 0x1_0000;

/// Bytes the simulated memory may hold: 256 MiB, half the modelled
/// board's 512 MiB of DRAM.
///
/// Every simulated byte is a host byte, so what a module asks for must
/// fit before it is allocated: the dialect verifier refuses a static
/// `memref.alloc` past this, and the interpreter a `dma_init` region
/// past [`SimMemory::room`]. The largest full-scale figure run
/// (`all_figures` without `--quick`) holds at most 9,833,984 bytes
/// (9.4 MiB) in one memory: the bound sits 27× above any modelled
/// workload and refuses only input no board could run.
pub const CAPACITY: u64 = 256 << 20;

/// A physical address in the simulated memory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimAddr(pub u64);

impl SimAddr {
    /// Returns the address offset by `bytes`.
    #[must_use]
    pub fn offset(self, bytes: u64) -> SimAddr {
        SimAddr(self.0 + bytes)
    }
}

impl fmt::Debug for SimAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl fmt::Display for SimAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// Element types supported by the simulated buffers.
///
/// The paper's accelerators compute on `int32`; the host-side `linalg`
/// kernels also exist in `f32` form (Fig. 2 uses f32). Data travels over the
/// 32-bit AXI stream as raw words either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// 32-bit signed integer (the accelerator-native type).
    I32,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit signed integer (host-side index computations).
    I64,
    /// 64-bit IEEE float.
    F64,
}

impl ElemType {
    /// Size of one element in bytes.
    pub fn byte_width(self) -> u64 {
        match self {
            ElemType::I32 | ElemType::F32 => 4,
            ElemType::I64 | ElemType::F64 => 8,
        }
    }
}

impl fmt::Display for ElemType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElemType::I32 => write!(f, "i32"),
            ElemType::F32 => write!(f, "f32"),
            ElemType::I64 => write!(f, "i64"),
            ElemType::F64 => write!(f, "f64"),
        }
    }
}

/// Simulated main memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use axi4mlir_sim::mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// let buf = mem.alloc(64, 16);
/// mem.write_i32(buf, 42);
/// assert_eq!(mem.read_i32(buf), 42);
/// ```
#[derive(Clone)]
pub struct SimMemory {
    data: Vec<u8>,
    next: u64,
}

impl fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMemory")
            .field("allocated_bytes", &(self.next - BASE_ADDR))
            .field("backing_len", &self.data.len())
            .finish()
    }
}

impl SimMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self { data: Vec::new(), next: BASE_ADDR }
    }

    /// Allocates `bytes` with the given power-of-two `align`ment and returns
    /// the base address. Memory is zero-initialized.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> SimAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + bytes;
        let needed = (self.next - BASE_ADDR) as usize;
        if self.data.len() < needed {
            self.data.resize(needed, 0);
        }
        SimAddr(base)
    }

    /// Total bytes allocated so far.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - BASE_ADDR
    }

    /// Bytes still free under [`CAPACITY`], before alignment padding.
    pub fn room(&self) -> u64 {
        CAPACITY.saturating_sub(self.allocated_bytes())
    }

    /// Frees every allocation and zeroes contents, keeping the backing
    /// storage's capacity. After a reset the allocator hands out the same
    /// address sequence as a fresh memory, so reusing one `SimMemory`
    /// across runs is bit-identical to rebuilding it — minus the
    /// re-allocation cost this amortizes in benchmark sweeps.
    pub fn reset(&mut self) {
        self.data.clear();
        self.next = BASE_ADDR;
    }

    fn index(&self, addr: SimAddr, len: u64) -> usize {
        let off = addr.0.checked_sub(BASE_ADDR).expect("address below base");
        let end = (off + len) as usize;
        assert!(end <= self.data.len(), "out-of-bounds access at {addr} len {len}");
        off as usize
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: SimAddr, len: u64) -> &[u8] {
        let i = self.index(addr, len);
        &self.data[i..i + len as usize]
    }

    /// Writes `bytes` starting at `addr`.
    fn write_bytes(&mut self, addr: SimAddr, bytes: &[u8]) {
        let i = self.index(addr, bytes.len() as u64);
        self.data[i..i + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: SimAddr) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr, 4).try_into().expect("4 bytes"))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: SimAddr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an `i32`.
    pub fn read_i32(&self, addr: SimAddr) -> i32 {
        self.read_u32(addr) as i32
    }

    /// Writes an `i32`.
    pub fn write_i32(&mut self, addr: SimAddr, value: i32) {
        self.write_u32(addr, value as u32);
    }

    /// Reads an `f32` (bit-cast from the stored word).
    pub fn read_f32(&self, addr: SimAddr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Copies `len` bytes from `src` to `dst` within the simulated memory.
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap or are out of bounds.
    pub fn copy(&mut self, dst: SimAddr, src: SimAddr, len: u64) {
        let (to, from) = self.split_pair(dst, len, src, len);
        to.copy_from_slice(from);
    }

    /// Borrows two disjoint ranges at once — `a_len` bytes at `a` to write,
    /// `b_len` bytes at `b` to read — so a bulk transfer between them pays
    /// one bounds check per range rather than one per word.
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap or are out of bounds.
    pub fn split_pair(
        &mut self,
        a: SimAddr,
        a_len: u64,
        b: SimAddr,
        b_len: u64,
    ) -> (&mut [u8], &[u8]) {
        let (ai, bi) = (self.index(a, a_len), self.index(b, b_len));
        let (a_len, b_len) = (a_len as usize, b_len as usize);
        assert!(ai + a_len <= bi || bi + b_len <= ai, "overlapping copy is not supported");
        if ai + a_len <= bi {
            let (low, high) = self.data.split_at_mut(bi);
            (&mut low[ai..ai + a_len], &high[..b_len])
        } else {
            let (low, high) = self.data.split_at_mut(ai);
            (&mut high[..a_len], &low[bi..bi + b_len])
        }
    }

    /// Mutable view of `len` bytes starting at `addr` — the zero-copy
    /// write path for bulk transfers.
    pub(crate) fn bytes_mut(&mut self, addr: SimAddr, len: u64) -> &mut [u8] {
        let i = self.index(addr, len);
        &mut self.data[i..i + len as usize]
    }

    /// Fills an i32 buffer from a slice (single bounds check, bulk write).
    pub fn store_i32_slice(&mut self, base: SimAddr, values: &[i32]) {
        let dst = self.bytes_mut(base, 4 * values.len() as u64);
        for (chunk, v) in dst.chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads an i32 buffer into a vector (single bounds check, bulk read).
    pub fn load_i32_slice(&self, base: SimAddr, n: usize) -> Vec<i32> {
        self.read_bytes(base, 4 * n as u64)
            .chunks_exact(4)
            .map(|chunk| i32::from_le_bytes(chunk.try_into().expect("4 bytes")))
            .collect()
    }

    /// Fills an f32 buffer from a slice (single bounds check, bulk write).
    pub fn store_f32_slice(&mut self, base: SimAddr, values: &[f32]) {
        let dst = self.bytes_mut(base, 4 * values.len() as u64);
        for (chunk, v) in dst.chunks_exact_mut(4).zip(values) {
            chunk.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Reads an f32 buffer into a vector (single bounds check, bulk read).
    pub fn load_f32_slice(&self, base: SimAddr, n: usize) -> Vec<f32> {
        self.read_bytes(base, 4 * n as u64)
            .chunks_exact(4)
            .map(|chunk| f32::from_bits(u32::from_le_bytes(chunk.try_into().expect("4 bytes"))))
            .collect()
    }
}

impl Default for SimMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_replays_the_same_address_sequence() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(64, 16);
        let b = mem.alloc(8, 64);
        mem.write_i32(a, 7);
        mem.reset();
        assert_eq!(mem.allocated_bytes(), 0);
        let a2 = mem.alloc(64, 16);
        let b2 = mem.alloc(8, 64);
        assert_eq!(a, a2, "allocator replays addresses after reset");
        assert_eq!(b, b2);
        assert_eq!(mem.read_i32(a2), 0, "contents are zeroed");
    }

    #[test]
    fn alloc_respects_alignment() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(3, 1);
        let b = mem.alloc(8, 64);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 3);
    }

    #[test]
    fn alloc_zero_initializes() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(16, 4);
        assert_eq!(mem.read_u32(a), 0);
        assert_eq!(mem.read_u32(a.offset(12)), 0);
    }

    #[test]
    fn roundtrip_scalars() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(32, 8);
        mem.write_i32(a, -7);
        mem.store_f32_slice(a.offset(4), &[2.5]);
        assert_eq!(mem.read_i32(a), -7);
        assert_eq!(mem.read_f32(a.offset(4)), 2.5);
    }

    #[test]
    fn slice_roundtrip() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(5 * ElemType::I32.byte_width(), 64);
        mem.store_i32_slice(a, &[1, 2, 3, 4, 5]);
        assert_eq!(mem.load_i32_slice(a, 5), vec![1, 2, 3, 4, 5]);
        let b = mem.alloc(3 * ElemType::F32.byte_width(), 64);
        mem.store_f32_slice(b, &[0.5, -1.0, 3.25]);
        assert_eq!(mem.load_f32_slice(b, 3), vec![0.5, -1.0, 3.25]);
    }

    #[test]
    fn copy_moves_bytes() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(16, 4);
        let b = mem.alloc(16, 4);
        mem.store_i32_slice(a, &[10, 20, 30, 40]);
        mem.copy(b, a, 16);
        assert_eq!(mem.load_i32_slice(b, 4), vec![10, 20, 30, 40]);
    }

    #[test]
    fn split_pair_borrows_either_order() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(8, 4);
        let b = mem.alloc(8, 4);
        mem.store_i32_slice(a, &[1, 2]);
        mem.store_i32_slice(b, &[3, 4]);
        for (to, from) in [(a, b), (b, a)] {
            let (write, read) = mem.split_pair(to, 4, from.offset(4), 4);
            write.copy_from_slice(read);
        }
        assert_eq!(mem.load_i32_slice(a, 2), vec![4, 2]);
        assert_eq!(mem.load_i32_slice(b, 2), vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn split_pair_refuses_overlap() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(16, 4);
        let _ = mem.split_pair(a, 8, a.offset(4), 8);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn out_of_bounds_read_panics() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(4, 4);
        let _ = mem.read_bytes(a, 8);
    }

    #[test]
    fn elem_widths() {
        assert_eq!(ElemType::I32.byte_width(), 4);
        assert_eq!(ElemType::F32.byte_width(), 4);
        assert_eq!(ElemType::I64.byte_width(), 8);
        assert_eq!(ElemType::F64.byte_width(), 8);
        assert_eq!(ElemType::I32.to_string(), "i32");
    }

    #[test]
    fn addresses_start_at_base() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(4, 4);
        assert!(a.0 >= BASE_ADDR);
        assert_eq!(format!("{a}"), format!("0x{:x}", a.0));
    }
}

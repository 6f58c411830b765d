//! `memref` ↔ DMA-region copies: the paper's §IV-B optimization target.
//!
//! MLIR's generality forces the runtime to copy between an arbitrary-rank,
//! arbitrary-stride `memref` and the raw staging array. The paper ships two
//! implementations and Fig. 12 measures the difference:
//!
//! - [`CopyStrategy::ElementWise`] — the rank-generic recursive copy that
//!   loads and stores one element at a time, paying index arithmetic and a
//!   branch per element. This is what AXI4MLIR generated *before* the
//!   optimization (Fig. 12a).
//! - [`CopyStrategy::Chunked`] — the specialized copy used when
//!   `strides[N-1] == 1`: contiguous runs are moved in vector-register
//!   chunks (`std::memcpy` inlined to NEON on the board), one cache lookup
//!   and one write-combined beat per chunk (Fig. 12b). The manual C++
//!   baseline's compiler-autovectorized copies are the same shape with a
//!   narrower chunk.
//!
//! When a view's innermost stride is not 1 (e.g. the `fHW == 1` ResNet layer
//! of Fig. 16), the chunked strategy *degrades to element-wise*, exactly as
//! the paper describes.

use axi4mlir_sim::cache::AccessKind;
use axi4mlir_sim::cost::CostModel;
use axi4mlir_sim::mem::{ElemType, SimAddr};

use crate::memref::MemRefDesc;
use crate::soc::Soc;

/// How `memref` data is staged into / out of the DMA region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyStrategy {
    /// Rank-generic recursive copy, one element at a time.
    ElementWise,
    /// Specialized contiguous-run copy moving `chunk_bytes` per step.
    Chunked {
        /// Bytes moved per vectorized step (16 for the NEON `memcpy` path,
        /// 8 for the manual baseline's autovectorized loops).
        chunk_bytes: u64,
    },
}

impl CopyStrategy {
    /// The AXI4MLIR specialized `memcpy` strategy (Fig. 12b).
    pub fn specialized(cost: &CostModel) -> Self {
        CopyStrategy::Chunked { chunk_bytes: cost.memcpy_chunk_bytes }
    }

    /// The manual C++ baseline's copy strategy.
    pub fn manual(cost: &CostModel) -> Self {
        CopyStrategy::Chunked { chunk_bytes: cost.manual_chunk_bytes }
    }
}

/// Copies a `memref` view into the simulated memory at `dst` (a DMA staging
/// location), charging costs per the strategy. Returns bytes copied.
///
/// # Panics
///
/// Panics if the element type is not 32-bit (the AXI stream is 32-bit).
pub fn copy_view_to_region(
    soc: &mut Soc,
    view: &MemRefDesc,
    dst: SimAddr,
    strategy: CopyStrategy,
) -> u64 {
    assert_eq!(view.elem.byte_width(), 4, "AXI-S staging requires 32-bit elements");
    match effective(strategy, view) {
        CopyStrategy::ElementWise => copy_to_elementwise(soc, view, dst),
        CopyStrategy::Chunked { chunk_bytes } => copy_to_chunked(soc, view, dst, chunk_bytes),
    }
}

/// Copies from a staging region at `src` into a `memref` view, optionally
/// accumulating (the `accel.recv {mode="accumulate"}` semantics).
///
/// # Panics
///
/// Panics if the element type is not 32-bit.
pub fn copy_region_to_view(
    soc: &mut Soc,
    view: &MemRefDesc,
    src: SimAddr,
    accumulate: bool,
    strategy: CopyStrategy,
) -> u64 {
    assert_eq!(view.elem.byte_width(), 4, "AXI-S staging requires 32-bit elements");
    match effective(strategy, view) {
        CopyStrategy::ElementWise => copy_from_elementwise(soc, view, src, accumulate),
        CopyStrategy::Chunked { chunk_bytes } => {
            copy_from_chunked(soc, view, src, accumulate, chunk_bytes)
        }
    }
}

/// The chunked strategy only applies to unit-stride innermost dimensions;
/// otherwise it degrades to the element-wise path (paper §IV-B / Fig. 16).
fn effective(strategy: CopyStrategy, view: &MemRefDesc) -> CopyStrategy {
    match strategy {
        CopyStrategy::Chunked { .. } if !view.unit_innermost_stride() => CopyStrategy::ElementWise,
        other => other,
    }
}

/// `dst += src` word by word over little-endian 32-bit words: the
/// `accumulate` store of a received run.
fn accumulate_into(dst: &mut [u8], src: &[u8], elem: ElemType) {
    let words = dst.chunks_exact_mut(4).zip(src.chunks_exact(4));
    let word = |bytes: &[u8]| u32::from_le_bytes(bytes.try_into().expect("4-byte word"));
    match elem {
        ElemType::I32 => {
            for (d, s) in words {
                let sum = (word(d) as i32).wrapping_add(word(s) as i32);
                d.copy_from_slice(&sum.to_le_bytes());
            }
        }
        ElemType::F32 => {
            for (d, s) in words {
                let sum = f32::from_bits(word(d)) + f32::from_bits(word(s));
                d.copy_from_slice(&sum.to_le_bytes());
            }
        }
        ElemType::I64 | ElemType::F64 => unreachable!("copy paths are 32-bit only"),
    }
}

/// Odometer digits live on the stack up to this rank; a deeper view
/// spills them to the heap.
const STACK_RANK: usize = 8;

/// Row-major walk over the element addresses an index space selects: the
/// odometer pattern, advancing a linear offset by stride deltas instead of
/// materializing an index vector per element. Walking a view's full index
/// space visits exactly the addresses `view.elem_addr` would produce for
/// `view.indices()`, in the same order.
struct AddrWalk<'a> {
    base: SimAddr,
    byte_width: u64,
    sizes: &'a [i64],
    strides: &'a [i64],
    idx: [i64; STACK_RANK],
    /// The digits of a view deeper than [`STACK_RANK`]; empty (and so
    /// unallocated) otherwise.
    spill: Vec<i64>,
    linear: i64,
    remaining: i64,
}

impl<'a> AddrWalk<'a> {
    fn new(
        base: SimAddr,
        offset: i64,
        byte_width: u64,
        sizes: &'a [i64],
        strides: &'a [i64],
    ) -> Self {
        Self {
            base,
            byte_width,
            sizes,
            strides,
            idx: [0; STACK_RANK],
            spill: if sizes.len() > STACK_RANK { vec![0; sizes.len()] } else { Vec::new() },
            linear: offset,
            // An empty (rank-0) space selects exactly one element.
            remaining: sizes.iter().product::<i64>().max(0),
        }
    }

    fn over(view: &'a MemRefDesc) -> Self {
        Self::new(view.base, view.offset, view.elem.byte_width(), &view.sizes, &view.strides)
    }
}

impl Iterator for AddrWalk<'_> {
    type Item = SimAddr;

    fn next(&mut self) -> Option<SimAddr> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.base.offset(self.linear as u64 * self.byte_width);
        let idx = if self.spill.is_empty() {
            &mut self.idx[..self.sizes.len()]
        } else {
            &mut self.spill[..]
        };
        for d in (0..idx.len()).rev() {
            idx[d] += 1;
            self.linear += self.strides[d];
            if idx[d] < self.sizes[d] {
                break;
            }
            self.linear -= self.sizes[d] * self.strides[d];
            idx[d] = 0;
        }
        Some(addr)
    }
}

/// The bytes from a non-empty view's first element to the end of its
/// last: the one range its element-wise copies borrow. (Strides are never
/// negative: views are row-major allocations and their subviews.)
fn byte_span(view: &MemRefDesc) -> (SimAddr, u64) {
    let width = view.elem.byte_width();
    let last: i64 =
        view.sizes.iter().zip(&view.strides).map(|(size, stride)| (size - 1) * stride).sum();
    (view.base.offset(view.offset as u64 * width), (last + 1) as u64 * width)
}

fn copy_to_elementwise(soc: &mut Soc, view: &MemRefDesc, dst: SimAddr) -> u64 {
    // Per-element index arithmetic, loop branch, and write-combined beat,
    // charged in bulk: the sums equal charging each element separately.
    let n = view.num_elements() as u64;
    soc.charge_arith(n * soc.cost.elementwise_index_cycles);
    soc.charge_branch(n);
    soc.charge_uncached_writes(n);
    // The cache sees one load per element, in walk order; the data then
    // moves between two borrowed ranges.
    for src_addr in AddrWalk::over(view) {
        soc.cached_access(src_addr, 4, AccessKind::Read);
    }
    if n > 0 {
        let (span_at, span_len) = byte_span(view);
        let (staged, span) = soc.mem.split_pair(dst, 4 * n, span_at, span_len);
        for (beat, addr) in staged.chunks_exact_mut(4).zip(AddrWalk::over(view)) {
            let at = (addr.0 - span_at.0) as usize;
            beat.copy_from_slice(&span[at..at + 4]);
        }
    }
    4 * n
}

fn copy_from_elementwise(soc: &mut Soc, view: &MemRefDesc, src: SimAddr, accumulate: bool) -> u64 {
    let n = view.num_elements() as u64;
    // The accumulate path pays one extra add per element.
    soc.charge_arith(n * soc.cost.elementwise_index_cycles + if accumulate { n } else { 0 });
    soc.charge_branch(n);
    soc.charge_uncached_reads(n);
    for dst_addr in AddrWalk::over(view) {
        if accumulate {
            soc.cached_access(dst_addr, 4, AccessKind::Read);
        }
        soc.cached_access(dst_addr, 4, AccessKind::Write);
    }
    if n > 0 {
        let (span_at, span_len) = byte_span(view);
        let (span, staged) = soc.mem.split_pair(span_at, span_len, src, 4 * n);
        for (beat, addr) in staged.chunks_exact(4).zip(AddrWalk::over(view)) {
            let at = (addr.0 - span_at.0) as usize;
            let slot = &mut span[at..at + 4];
            if accumulate {
                accumulate_into(slot, beat, view.elem);
            } else {
                slot.copy_from_slice(beat);
            }
        }
    }
    4 * n
}

/// Splits off the leading (non-run) dimensions of a view whose trailing
/// dimensions form contiguous runs of `run_elems` elements.
fn lead_dims(view: &MemRefDesc, run_elems: i64) -> (&[i64], &[i64]) {
    let mut covered = 1i64;
    let mut first_run_dim = view.rank();
    while first_run_dim > 0 && covered < run_elems {
        first_run_dim -= 1;
        covered *= view.sizes[first_run_dim];
    }
    (&view.sizes[..first_run_dim], &view.strides[..first_run_dim])
}

fn copy_to_chunked(soc: &mut Soc, view: &MemRefDesc, dst: SimAddr, chunk_bytes: u64) -> u64 {
    let run_elems = view.contiguous_run_elems();
    let run_bytes = run_elems as u64 * 4;
    let (lead_sizes, lead_strides) = lead_dims(view, run_elems);
    let origins = lead_sizes.iter().product::<i64>().max(0) as u64;
    let chunks_per_run = if run_bytes == 0 { 0 } else { run_bytes.div_ceil(chunk_bytes) };
    // Per-run loop control / address computation and per-chunk
    // write-combined beats, charged in bulk.
    soc.charge_branch(origins);
    soc.charge_arith(2 * origins);
    soc.charge_uncached_writes(origins * chunks_per_run);
    let mut out = dst;
    for src_base in AddrWalk::new(view.base, view.offset, 4, lead_sizes, lead_strides) {
        // Cache lookups stay per chunk (the cache model is stateful);
        // the data moves as one memmove per run.
        soc.cached_chunks(src_base, run_bytes, chunk_bytes, &[AccessKind::Read]);
        soc.mem.copy(out, src_base, run_bytes);
        out = out.offset(run_bytes);
    }
    out.0 - dst.0
}

fn copy_from_chunked(
    soc: &mut Soc,
    view: &MemRefDesc,
    src: SimAddr,
    accumulate: bool,
    chunk_bytes: u64,
) -> u64 {
    let run_elems = view.contiguous_run_elems();
    let run_bytes = run_elems as u64 * 4;
    let (lead_sizes, lead_strides) = lead_dims(view, run_elems);
    let origins = lead_sizes.iter().product::<i64>().max(0) as u64;
    let chunks_per_run = if run_bytes == 0 { 0 } else { run_bytes.div_ceil(chunk_bytes) };
    let chunks = origins * chunks_per_run;
    soc.charge_branch(origins);
    // The accumulate path pays one vector add per chunk.
    soc.charge_arith(2 * origins + if accumulate { chunks } else { 0 });
    soc.charge_uncached_reads(chunks);
    let mut input = src;
    for dst_base in AddrWalk::new(view.base, view.offset, 4, lead_sizes, lead_strides) {
        // Accumulating is a vector load + add + store per chunk.
        let kinds: &[AccessKind] =
            if accumulate { &[AccessKind::Read, AccessKind::Write] } else { &[AccessKind::Write] };
        soc.cached_chunks(dst_base, run_bytes, chunk_bytes, kinds);
        if accumulate {
            let (run, staged) = soc.mem.split_pair(dst_base, run_bytes, input, run_bytes);
            accumulate_into(run, staged, view.elem);
        } else {
            soc.mem.copy(dst_base, input, run_bytes);
        }
        input = input.offset(run_bytes);
    }
    input.0 - src.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_sim::axi::LoopbackAccelerator;
    use axi4mlir_sim::mem::ElemType;

    fn soc() -> Soc {
        Soc::new(Box::new(LoopbackAccelerator::new()))
    }

    fn filled_matrix(soc: &mut Soc, rows: i64, cols: i64) -> MemRefDesc {
        let d = MemRefDesc::alloc(&mut soc.mem, &[rows, cols], ElemType::I32);
        for r in 0..rows {
            for c in 0..cols {
                let addr = d.elem_addr(&[r, c]);
                soc.mem.write_i32(addr, (r * 100 + c) as i32);
            }
        }
        d
    }

    fn staged_words(soc: &Soc, base: SimAddr, n: usize) -> Vec<i32> {
        soc.mem.load_i32_slice(base, n)
    }

    #[test]
    fn elementwise_copy_moves_tile_row_major() {
        let mut s = soc();
        let m = filled_matrix(&mut s, 8, 8);
        let tile = m.subview(&[2, 4], &[2, 2]);
        let dst = s.mem.alloc(64, 64);
        let bytes = copy_view_to_region(&mut s, &tile, dst, CopyStrategy::ElementWise);
        assert_eq!(bytes, 16);
        assert_eq!(staged_words(&s, dst, 4), vec![204, 205, 304, 305]);
    }

    #[test]
    fn chunked_copy_matches_elementwise_data() {
        let mut s1 = soc();
        let m1 = filled_matrix(&mut s1, 8, 8);
        let t1 = m1.subview(&[1, 0], &[4, 8]);
        let d1 = s1.mem.alloc(256, 64);
        copy_view_to_region(&mut s1, &t1, d1, CopyStrategy::ElementWise);

        let mut s2 = soc();
        let m2 = filled_matrix(&mut s2, 8, 8);
        let t2 = m2.subview(&[1, 0], &[4, 8]);
        let d2 = s2.mem.alloc(256, 64);
        let strategy = CopyStrategy::specialized(&s2.cost);
        copy_view_to_region(&mut s2, &t2, d2, strategy);

        assert_eq!(staged_words(&s1, d1, 32), staged_words(&s2, d2, 32));
    }

    #[test]
    fn chunked_copy_is_cheaper_than_elementwise() {
        let cost = CostModel::pynq_z2();
        let mut s1 = soc();
        let m1 = filled_matrix(&mut s1, 16, 16);
        let d1 = s1.mem.alloc(1024, 64);
        s1.reset_run_state();
        copy_view_to_region(&mut s1, &m1, d1, CopyStrategy::ElementWise);
        let ew = s1.counters;

        let mut s2 = soc();
        let m2 = filled_matrix(&mut s2, 16, 16);
        let d2 = s2.mem.alloc(1024, 64);
        s2.reset_run_state();
        copy_view_to_region(&mut s2, &m2, d2, CopyStrategy::specialized(&cost));
        let ch = s2.counters;

        assert!(
            ch.cache_references < ew.cache_references,
            "{} < {}",
            ch.cache_references,
            ew.cache_references
        );
        assert!(ch.branch_instructions < ew.branch_instructions);
        assert!(ch.host_cycles < ew.host_cycles);
    }

    #[test]
    fn manual_chunks_sit_between_elementwise_and_specialized() {
        let cost = CostModel::pynq_z2();
        let mut refs = Vec::new();
        for strategy in [
            CopyStrategy::ElementWise,
            CopyStrategy::manual(&cost),
            CopyStrategy::specialized(&cost),
        ] {
            let mut s = soc();
            let m = filled_matrix(&mut s, 16, 16);
            let d = s.mem.alloc(1024, 64);
            s.reset_run_state();
            copy_view_to_region(&mut s, &m, d, strategy);
            refs.push(s.counters.cache_references);
        }
        assert!(refs[0] > refs[1], "element-wise > manual: {refs:?}");
        assert!(refs[1] > refs[2], "manual > specialized: {refs:?}");
    }

    #[test]
    fn non_unit_stride_degrades_to_elementwise() {
        let mut s = soc();
        let m = filled_matrix(&mut s, 8, 8);
        // A column: sizes [8,1] has unit innermost? strides [8,1] -> last
        // stride 1 but runs of 1 elem; take a transposed-style view instead.
        let col = MemRefDesc { sizes: vec![8], strides: vec![8], ..m.clone() };
        assert!(!col.unit_innermost_stride());
        let d = s.mem.alloc(64, 64);
        s.reset_run_state();
        let cost = s.cost;
        copy_view_to_region(&mut s, &col, d, CopyStrategy::specialized(&cost));
        let chunked = s.counters;

        let mut s2 = soc();
        let m2 = filled_matrix(&mut s2, 8, 8);
        let col2 = MemRefDesc { sizes: vec![8], strides: vec![8], ..m2.clone() };
        let d2 = s2.mem.alloc(64, 64);
        s2.reset_run_state();
        copy_view_to_region(&mut s2, &col2, d2, CopyStrategy::ElementWise);
        assert_eq!(chunked, s2.counters, "strided views must fall back to the element-wise path");
        assert_eq!(staged_words(&s, d, 8), staged_words(&s2, d2, 8));
    }

    #[test]
    fn copy_back_overwrite_and_accumulate() {
        let mut s = soc();
        let view = MemRefDesc::alloc(&mut s.mem, &[2, 2], ElemType::I32);
        s.mem.store_i32_slice(view.base, &[10, 20, 30, 40]);
        let staging = s.mem.alloc(64, 64);
        s.mem.store_i32_slice(staging, &[1, 2, 3, 4]);
        copy_region_to_view(&mut s, &view, staging, false, CopyStrategy::ElementWise);
        assert_eq!(s.mem.load_i32_slice(view.base, 4), vec![1, 2, 3, 4]);
        copy_region_to_view(&mut s, &view, staging, true, CopyStrategy::ElementWise);
        assert_eq!(s.mem.load_i32_slice(view.base, 4), vec![2, 4, 6, 8]);
    }

    #[test]
    fn chunked_accumulate_matches_elementwise() {
        let cost = CostModel::pynq_z2();
        for strategy in [CopyStrategy::ElementWise, CopyStrategy::specialized(&cost)] {
            let mut s = soc();
            let view = MemRefDesc::alloc(&mut s.mem, &[4, 4], ElemType::I32);
            let init: Vec<i32> = (0..16).collect();
            s.mem.store_i32_slice(view.base, &init);
            let staging = s.mem.alloc(64, 64);
            let add: Vec<i32> = (0..16).map(|i| i * 10).collect();
            s.mem.store_i32_slice(staging, &add);
            copy_region_to_view(&mut s, &view, staging, true, strategy);
            let expect: Vec<i32> = (0..16).map(|i| i + i * 10).collect();
            assert_eq!(s.mem.load_i32_slice(view.base, 16), expect, "strategy {strategy:?}");
        }
    }

    #[test]
    fn f32_accumulate_uses_float_add() {
        let mut s = soc();
        let view = MemRefDesc::alloc(&mut s.mem, &[2], ElemType::F32);
        s.mem.store_f32_slice(view.base, &[1.5, 2.5]);
        let staging = s.mem.alloc(64, 64);
        s.mem.store_f32_slice(staging, &[0.25, 0.75]);
        copy_region_to_view(&mut s, &view, staging, true, CopyStrategy::ElementWise);
        assert_eq!(s.mem.load_f32_slice(view.base, 2), vec![1.75, 3.25]);
    }

    #[test]
    fn accumulate_costs_more_references_than_overwrite() {
        let mut s1 = soc();
        let v1 = MemRefDesc::alloc(&mut s1.mem, &[8, 8], ElemType::I32);
        let st1 = s1.mem.alloc(256, 64);
        s1.reset_run_state();
        copy_region_to_view(&mut s1, &v1, st1, false, CopyStrategy::ElementWise);

        let mut s2 = soc();
        let v2 = MemRefDesc::alloc(&mut s2.mem, &[8, 8], ElemType::I32);
        let st2 = s2.mem.alloc(256, 64);
        s2.reset_run_state();
        copy_region_to_view(&mut s2, &v2, st2, true, CopyStrategy::ElementWise);

        assert!(s2.counters.cache_references > s1.counters.cache_references);
    }

    #[test]
    fn returned_byte_counts() {
        let mut s = soc();
        let m = filled_matrix(&mut s, 4, 4);
        let d = s.mem.alloc(256, 64);
        let cost = s.cost;
        assert_eq!(copy_view_to_region(&mut s, &m, d, CopyStrategy::specialized(&cost)), 64);
        assert_eq!(copy_region_to_view(&mut s, &m, d, false, CopyStrategy::ElementWise), 64);
    }
}

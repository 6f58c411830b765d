//! Instrumented native CPU kernels and pure reference oracles.
//!
//! Two distinct roles:
//!
//! - **Pure oracles** ([`ref_matmul_i32`], [`ref_conv2d_i32`]) compute the
//!   mathematically correct result with no SoC involvement; every test that
//!   verifies an accelerator flow compares against these.
//! - **Instrumented CPU kernels** ([`cpu_matmul_i32`], [`cpu_conv2d_i32`])
//!   model the paper's `mlir CPU` executions: the tiled `scf` loop nest of
//!   Fig. 2b compiled to a binary. Each inner iteration charges the loads,
//!   stores, arithmetic, and branches the compiled code would execute, with
//!   all memory traffic flowing through the cache model. This is the
//!   CPU-side baseline of Figs. 10, 12, and 17.

use axi4mlir_sim::cache::AccessKind;

use crate::memref::MemRefDesc;
use crate::soc::Soc;

/// Pure reference MatMul: `C = A(MxK) x B(KxN)` with wrapping `i32`
/// arithmetic (matching the accelerator models), walking every operand by
/// rows. Zero extents give an all-zero (possibly empty) `C`.
///
/// One loop, `ref_body`, compiled twice: portable, and — on an x86-64
/// host that has AVX2, checked once per call — with 256-bit vectors. It
/// shares no code with the device models it checks.
pub fn ref_matmul_i32(a: &[i32], b: &[i32], m: usize, n: usize, k: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(b.len(), k * n, "B shape mismatch");
    let mut c = vec![0i32; m * n];
    if n == 0 || k == 0 {
        return c; // `chunks_exact` takes no zero-width rows
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `ref_avx2` needs only AVX2, which this CPU was just found to have.
        unsafe { ref_avx2(&mut c, a, b, n, k) };
        return c;
    }
    ref_body(&mut c, a, b, n, k);
    c
}

/// [`ref_body`] compiled for AVX2; calling it is sound only on a CPU that
/// has AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ref_avx2(c: &mut [i32], a: &[i32], b: &[i32], n: usize, k: usize) {
    ref_body(c, a, b, n, k);
}

/// `c += a x b` row by row: each `A` element scales one row of `B` into
/// the matching row of `C`.
#[inline(always)]
fn ref_body(c: &mut [i32], a: &[i32], b: &[i32], n: usize, k: usize) {
    for (c_row, a_row) in c.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            for (slot, &bv) in c_row.iter_mut().zip(b_row) {
                *slot = slot.wrapping_add(av.wrapping_mul(bv));
            }
        }
    }
}

/// Shape of a padding-free, NCHW/FCHW strided 2-D convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Input height/width (square).
    pub in_hw: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Filter height/width (square).
    pub filter_hw: usize,
    /// Stride.
    pub stride: usize,
}

impl ConvShape {
    /// Output height/width: `(iHW - fHW) / stride + 1`.
    pub fn out_hw(&self) -> usize {
        (self.in_hw - self.filter_hw) / self.stride + 1
    }

    /// Elements in the input tensor.
    fn input_len(&self) -> usize {
        self.batch * self.in_channels * self.in_hw * self.in_hw
    }

    /// Elements in the filter tensor.
    fn filter_len(&self) -> usize {
        self.out_channels * self.in_channels * self.filter_hw * self.filter_hw
    }

    /// Elements in the output tensor.
    fn output_len(&self) -> usize {
        self.batch * self.out_channels * self.out_hw() * self.out_hw()
    }
}

/// Pure reference Conv2D (`linalg.conv_2d_nchw_fchw` semantics, no padding).
pub fn ref_conv2d_i32(input: &[i32], filter: &[i32], shape: ConvShape) -> Vec<i32> {
    assert_eq!(input.len(), shape.input_len(), "input shape mismatch");
    assert_eq!(filter.len(), shape.filter_len(), "filter shape mismatch");
    let (ic, ihw, fhw, s) = (shape.in_channels, shape.in_hw, shape.filter_hw, shape.stride);
    let ohw = shape.out_hw();
    let mut out = vec![0i32; shape.output_len()];
    for b in 0..shape.batch {
        for oc in 0..shape.out_channels {
            for oh in 0..ohw {
                for ow in 0..ohw {
                    let mut acc = 0i32;
                    for c in 0..ic {
                        for fh in 0..fhw {
                            for fw in 0..fhw {
                                let iv =
                                    input[((b * ic + c) * ihw + oh * s + fh) * ihw + ow * s + fw];
                                let fv = filter[((oc * ic + c) * fhw + fh) * fhw + fw];
                                acc = acc.wrapping_add(iv.wrapping_mul(fv));
                            }
                        }
                    }
                    out[((b * shape.out_channels + oc) * ohw + oh) * ohw + ow] = acc;
                }
            }
        }
    }
    out
}

/// Instrumented CPU MatMul over `memref` views: models the compiled, tiled
/// `scf` loop nest of Fig. 2b running on the host.
///
/// `cache_tile` is the compiler-chosen square cache-tiling factor (`None`
/// for the untiled nest). Every `A`/`B`/`C` element access goes through the
/// cache hierarchy; per inner iteration the kernel charges the 2 index
/// computations, multiply, add, and loop branch of the compiled code.
///
/// # Panics
///
/// Panics if the views are not rank-2 or shapes disagree.
pub fn cpu_matmul_i32(
    soc: &mut Soc,
    a: &MemRefDesc,
    b: &MemRefDesc,
    c: &MemRefDesc,
    cache_tile: Option<i64>,
) {
    assert_eq!(a.rank(), 2, "A must be rank-2");
    assert_eq!(b.rank(), 2, "B must be rank-2");
    assert_eq!(c.rank(), 2, "C must be rank-2");
    let (m, k) = (a.sizes[0], a.sizes[1]);
    let (k2, n) = (b.sizes[0], b.sizes[1]);
    assert_eq!(k, k2, "A/B contraction dims disagree");
    assert_eq!(c.sizes, vec![m, n], "C shape mismatch");

    let tile = cache_tile.unwrap_or(i64::MAX);
    let mut mo = 0;
    while mo < m {
        let mt = tile.min(m - mo);
        let mut no = 0;
        while no < n {
            let nt = tile.min(n - no);
            let mut ko = 0;
            while ko < k {
                let kt = tile.min(k - ko);
                soc.charge_branch(3); // the three tile-loop back-edges
                for mi in mo..mo + mt {
                    for ni in no..no + nt {
                        // C element kept in a register across the k loop
                        // (compiled code hoists it): one load, one store.
                        let c_addr = c.elem_addr(&[mi, ni]);
                        soc.cached_access(c_addr, 4, AccessKind::Read);
                        let mut acc = soc.mem.read_i32(c_addr);
                        for ki in ko..ko + kt {
                            let a_addr = a.elem_addr(&[mi, ki]);
                            let b_addr = b.elem_addr(&[ki, ni]);
                            soc.cached_access(a_addr, 4, AccessKind::Read);
                            soc.cached_access(b_addr, 4, AccessKind::Read);
                            let av = soc.mem.read_i32(a_addr);
                            let bv = soc.mem.read_i32(b_addr);
                            acc = acc.wrapping_add(av.wrapping_mul(bv));
                            soc.charge_arith(4); // 2 index ops, mul, add
                            soc.charge_branch(1); // k-loop back-edge
                        }
                        soc.cached_access(c_addr, 4, AccessKind::Write);
                        soc.mem.write_i32(c_addr, acc);
                        soc.charge_branch(1); // n-loop back-edge
                    }
                }
                ko += kt;
            }
            no += nt;
        }
        mo += mt;
    }
}

/// Instrumented CPU Conv2D (NCHW/FCHW, no padding): the `mlir CPU`
/// execution model for convolution layers.
///
/// # Panics
///
/// Panics if view shapes disagree with `shape`.
pub fn cpu_conv2d_i32(
    soc: &mut Soc,
    input: &MemRefDesc,
    filter: &MemRefDesc,
    output: &MemRefDesc,
    shape: ConvShape,
) {
    assert_eq!(input.num_elements() as usize, shape.input_len(), "input elems mismatch");
    assert_eq!(filter.num_elements() as usize, shape.filter_len(), "filter elems mismatch");
    assert_eq!(output.num_elements() as usize, shape.output_len(), "output elems mismatch");
    let ohw = shape.out_hw() as i64;
    let (ic, fhw, s) = (shape.in_channels as i64, shape.filter_hw as i64, shape.stride as i64);
    for b in 0..shape.batch as i64 {
        for oc in 0..shape.out_channels as i64 {
            for oh in 0..ohw {
                for ow in 0..ohw {
                    let mut acc = 0i32;
                    for c in 0..ic {
                        for fh in 0..fhw {
                            for fw in 0..fhw {
                                let i_addr = input.elem_addr(&[b, c, oh * s + fh, ow * s + fw]);
                                let f_addr = filter.elem_addr(&[oc, c, fh, fw]);
                                soc.cached_access(i_addr, 4, AccessKind::Read);
                                soc.cached_access(f_addr, 4, AccessKind::Read);
                                let iv = soc.mem.read_i32(i_addr);
                                let fv = soc.mem.read_i32(f_addr);
                                acc = acc.wrapping_add(iv.wrapping_mul(fv));
                                soc.charge_arith(5); // 3 index ops, mul, add
                                soc.charge_branch(1);
                            }
                        }
                    }
                    let o_addr = output.elem_addr(&[b, oc, oh, ow]);
                    soc.cached_access(o_addr, 4, AccessKind::Write);
                    soc.mem.write_i32(o_addr, acc);
                    soc.charge_branch(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_sim::axi::LoopbackAccelerator;
    use axi4mlir_sim::mem::ElemType;

    fn soc() -> Soc {
        Soc::new(Box::new(LoopbackAccelerator::new()))
    }

    #[test]
    fn ref_matmul_identity() {
        let a = vec![1, 2, 3, 4];
        let i2 = vec![1, 0, 0, 1];
        assert_eq!(ref_matmul_i32(&a, &i2, 2, 2, 2), a);
    }

    #[test]
    fn ref_matmul_known_product() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let c = ref_matmul_i32(&[1, 2, 3, 4], &[5, 6, 7, 8], 2, 2, 2);
        assert_eq!(c, vec![19, 22, 43, 50]);
    }

    #[test]
    fn ref_matmul_rectangular() {
        // 1x3 times 3x2.
        let c = ref_matmul_i32(&[1, 2, 3], &[1, 2, 3, 4, 5, 6], 1, 2, 3);
        assert_eq!(c, vec![22, 28]);
    }

    #[test]
    fn ref_matmul_zero_extents_are_zeros() {
        assert_eq!(ref_matmul_i32(&[1, 2], &[], 2, 0, 1), Vec::<i32>::new());
        assert_eq!(ref_matmul_i32(&[], &[], 2, 3, 0), vec![0; 6]);
        assert_eq!(ref_matmul_i32(&[], &[4, 5], 0, 1, 2), Vec::<i32>::new());
        assert_eq!(ref_matmul_i32(&[], &[], 0, 0, 0), Vec::<i32>::new());
    }

    #[test]
    fn ref_matmul_wraps_like_the_devices() {
        let c = ref_matmul_i32(&[i32::MAX, i32::MAX], &[2, i32::MAX], 1, 1, 2);
        assert_eq!(c, vec![i32::MAX.wrapping_mul(2).wrapping_add(i32::MAX.wrapping_mul(i32::MAX))]);
    }

    /// The dispatching entry (AVX2 on a host that has it) and the
    /// portable body agree with a naive triple loop, wrapping included,
    /// at widths that leave vector remainders.
    #[test]
    fn ref_matmul_dispatch_and_portable_body_match_a_naive_product() {
        for (m, n, k) in [(1, 1, 1), (3, 17, 5), (9, 33, 7), (16, 16, 16)] {
            let a: Vec<i32> = (0..m * k).map(|i| (i as i32).wrapping_mul(0x2F1D_7A53)).collect();
            let b: Vec<i32> = (0..k * n).map(|i| (i as i32).wrapping_mul(-0x51C3_E9B7)).collect();
            let mut naive = vec![0i32; m * n];
            for i in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        let term = a[i * k + p].wrapping_mul(b[p * n + j]);
                        naive[i * n + j] = naive[i * n + j].wrapping_add(term);
                    }
                }
            }
            assert_eq!(ref_matmul_i32(&a, &b, m, n, k), naive, "dispatch at {m}x{n}x{k}");
            let mut portable = vec![0i32; m * n];
            ref_body(&mut portable, &a, &b, n, k);
            assert_eq!(portable, naive, "ref_body at {m}x{n}x{k}");
        }
    }

    #[test]
    fn cpu_matmul_matches_reference() {
        let mut s = soc();
        let a = MemRefDesc::alloc(&mut s.mem, &[6, 5], ElemType::I32);
        let b = MemRefDesc::alloc(&mut s.mem, &[5, 7], ElemType::I32);
        let c = MemRefDesc::alloc(&mut s.mem, &[6, 7], ElemType::I32);
        let av: Vec<i32> = (0..30).map(|i| i - 15).collect();
        let bv: Vec<i32> = (0..35).map(|i| 2 * i + 1).collect();
        s.mem.store_i32_slice(a.base, &av);
        s.mem.store_i32_slice(b.base, &bv);
        cpu_matmul_i32(&mut s, &a, &b, &c, None);
        assert_eq!(s.mem.load_i32_slice(c.base, 42), ref_matmul_i32(&av, &bv, 6, 7, 5));
    }

    #[test]
    fn cpu_matmul_tiled_matches_untiled_result() {
        for tile in [2i64, 3, 4] {
            let mut s = soc();
            let a = MemRefDesc::alloc(&mut s.mem, &[8, 8], ElemType::I32);
            let b = MemRefDesc::alloc(&mut s.mem, &[8, 8], ElemType::I32);
            let c = MemRefDesc::alloc(&mut s.mem, &[8, 8], ElemType::I32);
            let av: Vec<i32> = (0..64).collect();
            let bv: Vec<i32> = (0..64).map(|i| 64 - i).collect();
            s.mem.store_i32_slice(a.base, &av);
            s.mem.store_i32_slice(b.base, &bv);
            cpu_matmul_i32(&mut s, &a, &b, &c, Some(tile));
            assert_eq!(
                s.mem.load_i32_slice(c.base, 64),
                ref_matmul_i32(&av, &bv, 8, 8, 8),
                "tile {tile}"
            );
        }
    }

    #[test]
    fn cpu_matmul_charges_expected_event_counts() {
        let mut s = soc();
        let a = MemRefDesc::alloc(&mut s.mem, &[4, 4], ElemType::I32);
        let b = MemRefDesc::alloc(&mut s.mem, &[4, 4], ElemType::I32);
        let c = MemRefDesc::alloc(&mut s.mem, &[4, 4], ElemType::I32);
        s.reset_run_state();
        cpu_matmul_i32(&mut s, &a, &b, &c, None);
        // 64 inner iterations x 2 refs + 16 C loads + 16 C stores.
        assert_eq!(s.counters.cache_references, 64 * 2 + 32);
        assert_eq!(s.counters.accel_macs, 0, "CPU path never touches the accelerator");
        assert!(s.counters.branch_instructions >= 64);
    }

    #[test]
    fn cache_tiling_reduces_misses_at_large_sizes() {
        // 128x128 i32 matrices: 64 KiB each, beyond L1. The tiled walk must
        // produce fewer L1 misses than the untiled one.
        let dims = 128i64;
        let mut untiled = soc();
        let a = MemRefDesc::alloc(&mut untiled.mem, &[dims, dims], ElemType::I32);
        let b = MemRefDesc::alloc(&mut untiled.mem, &[dims, dims], ElemType::I32);
        let c = MemRefDesc::alloc(&mut untiled.mem, &[dims, dims], ElemType::I32);
        untiled.reset_run_state();
        cpu_matmul_i32(&mut untiled, &a, &b, &c, None);

        let mut tiled = soc();
        let a2 = MemRefDesc::alloc(&mut tiled.mem, &[dims, dims], ElemType::I32);
        let b2 = MemRefDesc::alloc(&mut tiled.mem, &[dims, dims], ElemType::I32);
        let c2 = MemRefDesc::alloc(&mut tiled.mem, &[dims, dims], ElemType::I32);
        tiled.reset_run_state();
        cpu_matmul_i32(&mut tiled, &a2, &b2, &c2, Some(32));

        assert!(
            tiled.counters.l1_misses < untiled.counters.l1_misses,
            "tiled {} < untiled {}",
            tiled.counters.l1_misses,
            untiled.counters.l1_misses
        );
    }

    #[test]
    fn conv_shape_arithmetic() {
        let s = ConvShape {
            batch: 1,
            in_channels: 3,
            in_hw: 230,
            out_channels: 64,
            filter_hw: 7,
            stride: 2,
        };
        assert_eq!(s.out_hw(), 112);
        assert_eq!(s.output_len(), 64 * 112 * 112);
    }

    #[test]
    fn ref_conv_identity_filter() {
        // 1 channel, 1x1 filter of weight 1 => output == input.
        let shape = ConvShape {
            batch: 1,
            in_channels: 1,
            in_hw: 4,
            out_channels: 1,
            filter_hw: 1,
            stride: 1,
        };
        let input: Vec<i32> = (0..16).collect();
        let out = ref_conv2d_i32(&input, &[1], shape);
        assert_eq!(out, input);
    }

    #[test]
    fn ref_conv_known_sum() {
        // 3x3 all-ones filter over a 3x3 all-ones image = 9.
        let shape = ConvShape {
            batch: 1,
            in_channels: 1,
            in_hw: 3,
            out_channels: 1,
            filter_hw: 3,
            stride: 1,
        };
        let out = ref_conv2d_i32(&[1; 9], &[1; 9], shape);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn ref_conv_stride_two() {
        let shape = ConvShape {
            batch: 1,
            in_channels: 1,
            in_hw: 5,
            out_channels: 1,
            filter_hw: 1,
            stride: 2,
        };
        let input: Vec<i32> = (0..25).collect();
        let out = ref_conv2d_i32(&input, &[1], shape);
        assert_eq!(out, vec![0, 2, 4, 10, 12, 14, 20, 22, 24]);
    }

    #[test]
    fn cpu_conv_matches_reference() {
        let shape = ConvShape {
            batch: 1,
            in_channels: 2,
            in_hw: 6,
            out_channels: 3,
            filter_hw: 3,
            stride: 1,
        };
        let mut s = soc();
        let input = MemRefDesc::alloc(&mut s.mem, &[1, 2, 6, 6], ElemType::I32);
        let filter = MemRefDesc::alloc(&mut s.mem, &[3, 2, 3, 3], ElemType::I32);
        let output = MemRefDesc::alloc(&mut s.mem, &[1, 3, 4, 4], ElemType::I32);
        let iv: Vec<i32> = (0..shape.input_len() as i32).collect();
        let fv: Vec<i32> = (0..shape.filter_len() as i32).map(|i| i % 5 - 2).collect();
        s.mem.store_i32_slice(input.base, &iv);
        s.mem.store_i32_slice(filter.base, &fv);
        cpu_conv2d_i32(&mut s, &input, &filter, &output, shape);
        assert_eq!(
            s.mem.load_i32_slice(output.base, shape.output_len()),
            ref_conv2d_i32(&iv, &fv, shape)
        );
    }

    #[test]
    fn cpu_conv_charges_macs_worth_of_events() {
        let shape = ConvShape {
            batch: 1,
            in_channels: 1,
            in_hw: 4,
            out_channels: 1,
            filter_hw: 2,
            stride: 1,
        };
        let mut s = soc();
        let input = MemRefDesc::alloc(&mut s.mem, &[1, 1, 4, 4], ElemType::I32);
        let filter = MemRefDesc::alloc(&mut s.mem, &[1, 1, 2, 2], ElemType::I32);
        let output = MemRefDesc::alloc(&mut s.mem, &[1, 1, 3, 3], ElemType::I32);
        s.reset_run_state();
        cpu_conv2d_i32(&mut s, &input, &filter, &output, shape);
        // 9 outputs x 4 MACs x 2 loads + 9 stores.
        assert_eq!(s.counters.cache_references, 9 * 4 * 2 + 9);
    }
}

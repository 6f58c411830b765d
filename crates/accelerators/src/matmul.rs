//! MatMul accelerators v1–v4 (Table I).
//!
//! All four are vector-MAC engines that multiply a `tM x tK` tile `A` by a
//! `tK x tN` tile `B`. They differ in which opcodes they implement, which
//! determines the host-visible reuse (stationarity) options:
//!
//! | type | reuse        | opcodes                 |
//! |------|--------------|-------------------------|
//! | v1   | nothing      | fused `sAsBcCrC`        |
//! | v2   | inputs       | `sA`, `sB`, `cCrC` (+ fused `sBcCrC`/`sAcCrC`) |
//! | v3   | inputs + out | `sA`, `sB`, `cC`, `rC`  |
//! | v4   | ins/out, flexible tile shape | v3 + `cfg(tM,tN,tK)` |
//!
//! The models perform real wrapping `i32` arithmetic and charge compute
//! cycles at the Table I throughput (OPs/cycle), where one MAC counts as two
//! OPs (multiply + add), matching how the paper reports `OPs/Cycle`.

use axi4mlir_sim::axi::{AxiStreamFifo, StreamAccelerator};
use axi4mlir_sim::counters::PerfCounters;

use crate::device::Device;
use crate::isa;
use crate::registry::ops_per_cycle_for_size;

/// Which Table I accelerator type this instance models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatMulVersion {
    /// No reuse: one fused instruction per tile.
    V1,
    /// Input reuse: A or B can stay resident.
    V2,
    /// Input and output reuse: C accumulates internally.
    V3,
    /// v3 plus runtime-configurable (non-square) tile shapes.
    V4,
}

impl MatMulVersion {
    /// `true` if this accelerator type decodes `opcode` — the instruction
    /// words each Table I version implements. This is the authoritative
    /// legality check behind [`Device::decodes`](crate::Device::decodes).
    pub(crate) fn supports_opcode(self, opcode: u32) -> bool {
        use MatMulVersion::*;
        match opcode {
            isa::OP_RESET => true,
            isa::OP_FUSED_SABC => self == V1,
            isa::OP_SEND_A | isa::OP_SEND_B => matches!(self, V2 | V3 | V4),
            isa::OP_COMPUTE_READ | isa::OP_SEND_B_COMPUTE_READ | isa::OP_SEND_A_COMPUTE_READ => {
                self == V2
            }
            isa::OP_COMPUTE | isa::OP_READ_C => matches!(self, V3 | V4),
            isa::OP_CFG_DIMS => self == V4,
            _ => false,
        }
    }
}

impl std::fmt::Display for MatMulVersion {
    /// The short name used in the paper's figures (`v1`..`v4`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatMulVersion::V1 => "v1",
            MatMulVersion::V2 => "v2",
            MatMulVersion::V3 => "v3",
            MatMulVersion::V4 => "v4",
        })
    }
}

/// Words of internal tile memory in a v4 accelerator.
///
/// Sized so that the Fig. 14 `Best` configurations (e.g. `128x32x32`:
/// 4096 + 1024 + 4096 = 9216 words) fit, while a square 64-tile
/// (3 x 4096 = 12288 words) does **not** — which is why the paper's square
/// heuristics top out at `T = 32`.
pub const V4_CAPACITY_WORDS: u64 = 10_240;

/// What to do once a tile buffer finishes filling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AfterFill {
    /// Return to opcode decoding.
    Idle,
    /// Compute `A x B` and stream the product (v2 fused forms).
    ComputeStream,
    /// Receive B, then compute and stream (v1 fused `sAsBcCrC`).
    ThenB,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pending {
    /// Waiting for an opcode literal.
    Opcode,
    /// Receiving words into the A buffer.
    FillA { index: usize, after: AfterFill },
    /// Receiving words into the B buffer.
    FillB { index: usize, after: AfterFill },
    /// v4: receiving the three tile-shape words.
    CfgDims { index: usize, dims: [u32; 3] },
}

/// A Table I MatMul accelerator instance.
///
/// # Examples
///
/// Driving a 2x2x2-capable model by hand (the runtime normally does this):
///
/// ```
/// use axi4mlir_accelerators::isa;
/// use axi4mlir_accelerators::matmul::{MatMulAccel, MatMulVersion};
/// use axi4mlir_sim::axi::StreamAccelerator;
/// use axi4mlir_sim::counters::PerfCounters;
///
/// let mut acc = MatMulAccel::new(MatMulVersion::V3, 2);
/// let mut c = PerfCounters::new();
/// // A = [[1,2],[3,4]], B = I2
/// for w in [isa::OP_SEND_A, 1, 2, 3, 4, isa::OP_SEND_B, 1, 0, 0, 1, isa::OP_COMPUTE, isa::OP_READ_C] {
///     acc.consume_word(w, &mut c);
/// }
/// let out: Vec<u32> = std::iter::from_fn(|| acc.pop_output_word()).collect();
/// assert_eq!(out, vec![1, 2, 3, 4]);
/// ```
#[derive(Clone, Debug)]
pub struct MatMulAccel {
    device: Device,
    base_size: u32,
    name: String,
    tm: u32,
    tn: u32,
    tk: u32,
    a: Vec<i32>,
    b: Vec<i32>,
    c: Vec<i32>,
    /// `A x B` of the last streaming compute; kept so computes allocate
    /// nothing.
    product: Vec<i32>,
    state: Pending,
    out: AxiStreamFifo,
    protocol_errors: u64,
}

/// `acc += A x B` for a row-major `tM x tK` tile `a` and `tK x tN` tile
/// `b` into a row-major `tM x tN` tile `acc`, walking every operand by
/// rows. Wrapping `i32` arithmetic is exact mod 2^32, so the summation
/// order does not change the result.
fn mac_into(acc: &mut [i32], a: &[i32], b: &[i32], tn: usize, tk: usize) {
    for (acc_row, a_row) in acc.chunks_exact_mut(tn).zip(a.chunks_exact(tk)) {
        for (&av, b_row) in a_row.iter().zip(b.chunks_exact(tn)) {
            for (slot, &bv) in acc_row.iter_mut().zip(b_row) {
                *slot = slot.wrapping_add(av.wrapping_mul(bv));
            }
        }
    }
}

impl MatMulAccel {
    /// Creates an accelerator of the given `version` and base tile `size`
    /// (4, 8, or 16 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(version: MatMulVersion, size: u32) -> Self {
        let device = Device::matmul(version, i64::from(size)).expect("tile size must be positive");
        let mut accel = Self {
            device,
            base_size: size,
            name: device.to_string(),
            tm: size,
            tn: size,
            tk: size,
            a: Vec::new(),
            b: Vec::new(),
            c: Vec::new(),
            product: Vec::new(),
            state: Pending::Opcode,
            out: AxiStreamFifo::new(),
            protocol_errors: 0,
        };
        accel.resize_buffers();
        accel
    }

    fn resize_buffers(&mut self) {
        self.a = vec![0; (self.tm * self.tk) as usize];
        self.b = vec![0; (self.tk * self.tn) as usize];
        self.c = vec![0; (self.tm * self.tn) as usize];
    }

    /// The configured tile shape `(tM, tN, tK)`.
    pub fn tile_shape(&self) -> (u32, u32, u32) {
        (self.tm, self.tn, self.tk)
    }

    /// Charges one `tM x tN x tK` tile product: cycles and MACs follow
    /// from the shape alone.
    fn charge_multiply(&self, counters: &mut PerfCounters) {
        let macs = u64::from(self.tm) * u64::from(self.tn) * u64::from(self.tk);
        let ops = macs * 2;
        let throughput = u64::from(ops_per_cycle_for_size(self.base_size));
        let cycles = ops.div_ceil(throughput);
        counters.accel_macs += macs;
        counters.accel_compute_cycles += cycles;
        counters.device_cycles += cycles;
    }

    fn compute_stream(&mut self, counters: &mut PerfCounters) {
        self.product.clear();
        self.product.resize(self.c.len(), 0);
        mac_into(&mut self.product, &self.a, &self.b, self.tn as usize, self.tk as usize);
        self.charge_multiply(counters);
        self.out.extend(self.product.iter().map(|&v| v as u32));
    }

    fn compute_accumulate(&mut self, counters: &mut PerfCounters) {
        mac_into(&mut self.c, &self.a, &self.b, self.tn as usize, self.tk as usize);
        self.charge_multiply(counters);
    }

    fn begin_opcode(&mut self, opcode: u32, counters: &mut PerfCounters) {
        if !self.device.decodes(opcode) {
            self.protocol_errors += 1;
            return;
        }
        match opcode {
            isa::OP_RESET => {
                self.tm = self.base_size;
                self.tn = self.base_size;
                self.tk = self.base_size;
                self.resize_buffers();
                self.out.clear();
            }
            isa::OP_SEND_A => self.state = Pending::FillA { index: 0, after: AfterFill::Idle },
            isa::OP_SEND_B => self.state = Pending::FillB { index: 0, after: AfterFill::Idle },
            isa::OP_SEND_A_COMPUTE_READ => {
                self.state = Pending::FillA { index: 0, after: AfterFill::ComputeStream }
            }
            isa::OP_SEND_B_COMPUTE_READ => {
                self.state = Pending::FillB { index: 0, after: AfterFill::ComputeStream }
            }
            isa::OP_FUSED_SABC => self.state = Pending::FillA { index: 0, after: AfterFill::ThenB },
            isa::OP_COMPUTE => self.compute_accumulate(counters),
            isa::OP_COMPUTE_READ => self.compute_stream(counters),
            isa::OP_READ_C => {
                self.out.extend(self.c.iter().map(|&v| v as u32));
                self.c.fill(0);
            }
            isa::OP_CFG_DIMS => self.state = Pending::CfgDims { index: 0, dims: [0; 3] },
            _ => unreachable!("supports() filtered unknown opcodes"),
        }
    }

    /// Takes a `cfg` tile iff [`Device::tile_defect`] has nothing against it.
    fn apply_cfg(&mut self, dims: [u32; 3]) {
        if self.device.tile_defect(&dims.map(i64::from)).is_some() {
            self.protocol_errors += 1;
            return;
        }
        let [tm, tn, tk] = dims;
        self.tm = tm;
        self.tn = tn;
        self.tk = tk;
        self.resize_buffers();
    }

    /// In a `FillA`/`FillB` state: copies as many leading beats of `bytes`
    /// as the buffer still takes, then acts on a completed fill. Returns
    /// the bytes taken — at least one beat when `bytes` holds one.
    fn fill(&mut self, bytes: &[u8], counters: &mut PerfCounters) -> usize {
        let (buffer, index, after) = match self.state {
            Pending::FillA { index, after } => (&mut self.a, index, after),
            Pending::FillB { index, after } => (&mut self.b, index, after),
            Pending::Opcode | Pending::CfgDims { .. } => unreachable!("not filling"),
        };
        let taken = (buffer.len() - index).min(bytes.len() / 4);
        crate::copy_beats(&mut buffer[index..index + taken], bytes);
        let index = index + taken;
        if index < buffer.len() {
            self.state = match self.state {
                Pending::FillA { .. } => Pending::FillA { index, after },
                _ => Pending::FillB { index, after },
            };
            return taken * 4;
        }
        self.state = Pending::Opcode;
        match after {
            AfterFill::Idle => {}
            AfterFill::ComputeStream => self.compute_stream(counters),
            AfterFill::ThenB => {
                self.state = Pending::FillB { index: 0, after: AfterFill::ComputeStream }
            }
        }
        taken * 4
    }
}

impl StreamAccelerator for MatMulAccel {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset(&mut self) {
        self.tm = self.base_size;
        self.tn = self.base_size;
        self.tk = self.base_size;
        self.resize_buffers();
        self.out.clear();
        self.state = Pending::Opcode;
        self.protocol_errors = 0;
    }

    fn consume_word(&mut self, word: u32, counters: &mut PerfCounters) {
        match self.state {
            Pending::Opcode => self.begin_opcode(word, counters),
            Pending::FillA { .. } | Pending::FillB { .. } => {
                self.fill(&word.to_le_bytes(), counters);
            }
            Pending::CfgDims { index, mut dims } => {
                dims[index] = word;
                if index == 2 {
                    self.apply_cfg(dims);
                    self.state = Pending::Opcode;
                } else {
                    self.state = Pending::CfgDims { index: index + 1, dims };
                }
            }
        }
    }

    /// A fill takes its whole run of beats in one slice copy; every other
    /// beat goes through [`consume_word`](Self::consume_word).
    fn consume_burst(&mut self, mut bytes: &[u8], counters: &mut PerfCounters) {
        while let Some(beat) = bytes.first_chunk::<4>() {
            let taken = match self.state {
                Pending::FillA { .. } | Pending::FillB { .. } => self.fill(bytes, counters),
                Pending::Opcode | Pending::CfgDims { .. } => {
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

    fn drive(acc: &mut MatMulAccel, words: &[u32]) -> PerfCounters {
        let mut counters = PerfCounters::new();
        for w in words {
            acc.consume_word(*w, &mut counters);
        }
        counters
    }

    fn drain(acc: &mut MatMulAccel) -> Vec<i32> {
        std::iter::from_fn(|| acc.pop_output_word()).map(|w| w as i32).collect()
    }

    /// Reference tile product for test oracles.
    fn ref_matmul(a: &[i32], b: &[i32], tm: usize, tn: usize, tk: usize) -> Vec<i32> {
        let mut c = vec![0i32; tm * tn];
        for m in 0..tm {
            for n in 0..tn {
                for k in 0..tk {
                    c[m * tn + n] =
                        c[m * tn + n].wrapping_add(a[m * tk + k].wrapping_mul(b[k * tn + n]));
                }
            }
        }
        c
    }

    #[test]
    fn v1_fused_computes_product() {
        let mut acc = MatMulAccel::new(MatMulVersion::V1, 2);
        let a = [1, 2, 3, 4];
        let b = [5, 6, 7, 8];
        let mut words = vec![isa::OP_FUSED_SABC];
        words.extend(a.iter().map(|v| *v as u32));
        words.extend(b.iter().map(|v| *v as u32));
        let counters = drive(&mut acc, &words);
        assert_eq!(drain(&mut acc), ref_matmul(&a, &b, 2, 2, 2));
        assert_eq!(acc.protocol_errors(), 0);
        assert_eq!(counters.accel_macs, 8);
        assert!(counters.accel_compute_cycles > 0);
    }

    #[test]
    fn v1_rejects_split_opcodes() {
        let mut acc = MatMulAccel::new(MatMulVersion::V1, 2);
        drive(&mut acc, &[isa::OP_SEND_A]);
        assert_eq!(acc.protocol_errors(), 1);
    }

    #[test]
    fn v2_input_stationary_reuses_a() {
        let mut acc = MatMulAccel::new(MatMulVersion::V2, 2);
        let a = [1, 0, 0, 1]; // identity
        let b1 = [1, 2, 3, 4];
        let b2 = [9, 8, 7, 6];
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B_COMPUTE_READ);
        words.extend(b1.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B_COMPUTE_READ);
        words.extend(b2.iter().map(|v| *v as u32));
        drive(&mut acc, &words);
        let out = drain(&mut acc);
        assert_eq!(&out[..4], &b1);
        assert_eq!(&out[4..], &b2);
    }

    #[test]
    fn v2_b_stationary_via_sacr() {
        let mut acc = MatMulAccel::new(MatMulVersion::V2, 2);
        let b = [1, 0, 0, 1];
        let a1 = [2, 3, 4, 5];
        let mut words = vec![isa::OP_SEND_B];
        words.extend(b.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_A_COMPUTE_READ);
        words.extend(a1.iter().map(|v| *v as u32));
        drive(&mut acc, &words);
        assert_eq!(drain(&mut acc), a1.to_vec());
    }

    #[test]
    fn v2_rejects_internal_accumulation() {
        let mut acc = MatMulAccel::new(MatMulVersion::V2, 2);
        drive(&mut acc, &[isa::OP_COMPUTE]);
        assert_eq!(acc.protocol_errors(), 1);
        drive(&mut acc, &[isa::OP_READ_C]);
        assert_eq!(acc.protocol_errors(), 2);
    }

    #[test]
    fn v3_accumulates_across_computes() {
        // C-stationary: two compute instructions accumulate into C before a
        // single read.
        let mut acc = MatMulAccel::new(MatMulVersion::V3, 2);
        let a = [1, 0, 0, 1];
        let b = [1, 2, 3, 4];
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B);
        words.extend(b.iter().map(|v| *v as u32));
        words.push(isa::OP_COMPUTE);
        words.push(isa::OP_COMPUTE);
        words.push(isa::OP_READ_C);
        drive(&mut acc, &words);
        assert_eq!(drain(&mut acc), vec![2, 4, 6, 8]);
    }

    #[test]
    fn v3_read_clears_c() {
        let mut acc = MatMulAccel::new(MatMulVersion::V3, 2);
        let a = [1, 0, 0, 1];
        let b = [1, 1, 1, 1];
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B);
        words.extend(b.iter().map(|v| *v as u32));
        words.push(isa::OP_COMPUTE);
        words.push(isa::OP_READ_C);
        words.push(isa::OP_READ_C);
        drive(&mut acc, &words);
        let out = drain(&mut acc);
        assert_eq!(&out[..4], &[1, 1, 1, 1]);
        assert_eq!(&out[4..], &[0, 0, 0, 0], "second read sees a cleared C");
    }

    #[test]
    fn v4_configures_non_square_tiles() {
        let mut acc = MatMulAccel::new(MatMulVersion::V4, 2);
        drive(&mut acc, &[isa::OP_CFG_DIMS, 4, 2, 6]);
        assert_eq!(acc.tile_shape(), (4, 2, 6));
        assert_eq!(acc.protocol_errors(), 0);
        // Non-divisible shape is rejected, shape unchanged.
        drive(&mut acc, &[isa::OP_CFG_DIMS, 3, 2, 2]);
        assert_eq!(acc.protocol_errors(), 1);
        assert_eq!(acc.tile_shape(), (4, 2, 6));
    }

    #[test]
    fn v4_rejects_oversized_tiles() {
        let mut acc = MatMulAccel::new(MatMulVersion::V4, 16);
        // 128x32x32 = 9216 words: fits.
        drive(&mut acc, &[isa::OP_CFG_DIMS, 128, 32, 32]);
        assert_eq!(acc.protocol_errors(), 0);
        assert_eq!(acc.tile_shape(), (128, 32, 32));
        // 64x64x64 square = 12288 words: must not fit (keeps paper's T=32 cap).
        drive(&mut acc, &[isa::OP_CFG_DIMS, 64, 64, 64]);
        assert_eq!(acc.protocol_errors(), 1);
    }

    #[test]
    fn v4_non_square_product_is_correct() {
        let mut acc = MatMulAccel::new(MatMulVersion::V4, 1);
        drive(&mut acc, &[isa::OP_CFG_DIMS, 2, 3, 4]);
        let a: Vec<i32> = (1..=8).collect(); // 2x4
        let b: Vec<i32> = (1..=12).collect(); // 4x3
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B);
        words.extend(b.iter().map(|v| *v as u32));
        words.push(isa::OP_COMPUTE);
        words.push(isa::OP_READ_C);
        drive(&mut acc, &words);
        assert_eq!(drain(&mut acc), ref_matmul(&a, &b, 2, 3, 4));
    }

    #[test]
    fn reset_opcode_restores_base_shape() {
        let mut acc = MatMulAccel::new(MatMulVersion::V4, 2);
        drive(&mut acc, &[isa::OP_CFG_DIMS, 4, 4, 4]);
        assert_eq!(acc.tile_shape(), (4, 4, 4));
        drive(&mut acc, &[isa::OP_RESET]);
        assert_eq!(acc.tile_shape(), (2, 2, 2));
    }

    #[test]
    fn compute_cycles_follow_table1_throughput() {
        for (size, expect_ops_per_cycle) in [(4u32, 10u64), (8, 60), (16, 112)] {
            let mut acc = MatMulAccel::new(MatMulVersion::V3, size);
            let n = (size * size) as usize;
            let mut words = vec![isa::OP_SEND_A];
            words.extend(std::iter::repeat_n(1, n));
            words.push(isa::OP_SEND_B);
            words.extend(std::iter::repeat_n(1, n));
            words.push(isa::OP_COMPUTE);
            let counters = drive(&mut acc, &words);
            let macs = u64::from(size).pow(3);
            assert_eq!(counters.accel_macs, macs);
            assert_eq!(counters.accel_compute_cycles, (2 * macs).div_ceil(expect_ops_per_cycle));
        }
    }

    #[test]
    fn unknown_opcode_is_a_protocol_error() {
        let mut acc = MatMulAccel::new(MatMulVersion::V3, 2);
        drive(&mut acc, &[0xDEAD]);
        assert_eq!(acc.protocol_errors(), 1);
    }

    #[test]
    fn wrapping_arithmetic_is_deterministic() {
        let mut acc = MatMulAccel::new(MatMulVersion::V3, 1);
        let words = [
            isa::OP_SEND_A,
            i32::MAX as u32,
            isa::OP_SEND_B,
            2u32,
            isa::OP_COMPUTE,
            isa::OP_READ_C,
        ];
        drive(&mut acc, &words);
        assert_eq!(drain(&mut acc), vec![i32::MAX.wrapping_mul(2)]);
    }

    #[test]
    fn name_reflects_version_and_size() {
        let acc = MatMulAccel::new(MatMulVersion::V2, 8);
        assert_eq!(acc.name(), "v2_8");
        assert_eq!((acc.device, acc.base_size), (Device::parse("v2_8").unwrap(), 8));
        assert_eq!(MatMulVersion::V4.to_string(), "v4");
    }
}

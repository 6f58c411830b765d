//! Property-based tests of the accelerator models: for arbitrary inputs
//! the devices compute exactly what the reference kernels compute, for
//! arbitrary *garbage* instruction streams they never panic — they record
//! protocol errors, as the drivers' tests rely on — and a stream fed as
//! DMA bursts cut anywhere is the same stream fed word by word.

use proptest::prelude::*;

use axi4mlir_accelerators::conv::ConvAccel;
use axi4mlir_accelerators::isa;
use axi4mlir_accelerators::matmul::{MatMulAccel, MatMulVersion, V4_CAPACITY_WORDS};
use axi4mlir_sim::axi::StreamAccelerator;
use axi4mlir_sim::counters::PerfCounters;

fn drive(acc: &mut dyn StreamAccelerator, words: &[u32]) {
    let mut counters = PerfCounters::new();
    for w in words {
        acc.consume_word(*w, &mut counters);
    }
}

fn drain(acc: &mut dyn StreamAccelerator) -> Vec<i32> {
    std::iter::from_fn(|| acc.pop_output_word()).map(|w| w as i32).collect()
}

/// The m-n-k triple loop, walking B by column: the devices' row-major
/// kernels must agree with it.
fn ref_matmul(a: &[i32], b: &[i32], m: usize, n: usize, k: usize) -> Vec<i32> {
    let mut c = vec![0i32; m * n];
    for mi in 0..m {
        for ni in 0..n {
            for ki in 0..k {
                c[mi * n + ni] =
                    c[mi * n + ni].wrapping_add(a[mi * k + ki].wrapping_mul(b[ki * n + ni]));
            }
        }
    }
    c
}

/// A linear congruential generator: each program below is a function of
/// one seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }

    /// An operand word, extremes included.
    fn operand(&mut self) -> u32 {
        let random = self.next() as u32;
        self.pick(&[0, 1, u32::MAX, i32::MAX as u32, i32::MIN as u32, random, random])
    }
}

/// Everything a driver can observe of a run.
#[derive(Debug, PartialEq)]
struct Observed {
    out: Vec<u32>,
    counters: PerfCounters,
    protocol_errors: u64,
}

/// Feeds `words` cut at random points (empty pieces included), draining
/// a random share of the output after each piece and the rest at the end.
/// With `bursts` each piece is one little-endian `consume_burst` and each
/// drain one `produce_burst`; otherwise both go word by word. The same
/// `rng` state gives both paths the same cuts and drains.
fn feed(acc: &mut dyn StreamAccelerator, words: &[u32], rng: &mut Lcg, bursts: bool) -> Observed {
    let mut counters = PerfCounters::new();
    let mut out = Vec::new();
    let mut drain = |acc: &mut dyn StreamAccelerator, words: usize| {
        if bursts {
            let mut bytes = vec![0u8; 4 * words];
            acc.produce_burst(&mut bytes);
            out.extend(bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())));
        } else {
            out.extend((0..words).map(|_| acc.pop_output_word().expect("queued")));
        }
    };
    let mut rest = words;
    while !rest.is_empty() {
        let reach = if rng.below(2) == 0 { rest.len().min(8) } else { rest.len() };
        let (piece, tail) = rest.split_at(rng.below(1 + reach));
        if bursts {
            let bytes: Vec<u8> = piece.iter().flat_map(|word| word.to_le_bytes()).collect();
            acc.consume_burst(&bytes, &mut counters);
        } else {
            piece.iter().for_each(|word| acc.consume_word(*word, &mut counters));
        }
        rest = tail;
        let ready = acc.output_len();
        drain(acc, rng.below(ready + 1));
    }
    let ready = acc.output_len();
    drain(acc, ready);
    Observed { out, counters, protocol_errors: acc.protocol_errors() }
}

/// Cuts a random tail off a third of the programs, so some end mid-fill.
fn maybe_truncate(words: &mut Vec<u32>, rng: &mut Lcg) {
    if rng.below(3) == 0 {
        words.truncate(rng.below(words.len() + 1));
    }
}

/// A random MatMul program: decodable and undecodable opcodes with their
/// payloads, `cfg` tiles legal and rejected. It is written against a
/// model driven word by word alongside, which says whether an opcode was
/// taken (so its payload follows) and the tile shape payloads have.
fn matmul_program(version: MatMulVersion, size: u32, rng: &mut Lcg) -> Vec<u32> {
    let mut model = MatMulAccel::new(version, size);
    let mut counters = PerfCounters::new();
    let mut words = Vec::new();
    let mut emit = |model: &mut MatMulAccel, word: u32| {
        words.push(word);
        model.consume_word(word, &mut counters);
    };
    let dims = [size, 2 * size, 3 * size, size + 1, 0, 200 * size];
    for _ in 0..1 + rng.below(24) {
        let garbage = rng.next() as u32;
        let opcode = rng.pick(&[
            isa::OP_RESET,
            isa::OP_FUSED_SABC,
            isa::OP_SEND_A,
            isa::OP_SEND_B,
            isa::OP_COMPUTE,
            isa::OP_READ_C,
            isa::OP_SEND_B_COMPUTE_READ,
            isa::OP_SEND_A_COMPUTE_READ,
            isa::OP_COMPUTE_READ,
            isa::OP_CFG_DIMS,
            isa::OP_CFG_DIMS,
            garbage,
        ]);
        let errors = model.protocol_errors();
        emit(&mut model, opcode);
        if model.protocol_errors() > errors {
            continue;
        }
        let (tm, tn, tk) = model.tile_shape();
        let payload = match opcode {
            isa::OP_SEND_A | isa::OP_SEND_A_COMPUTE_READ => tm * tk,
            isa::OP_SEND_B | isa::OP_SEND_B_COMPUTE_READ => tk * tn,
            isa::OP_FUSED_SABC => tm * tk + tk * tn,
            isa::OP_CFG_DIMS => 3,
            _ => 0,
        };
        for _ in 0..payload {
            let word = if opcode == isa::OP_CFG_DIMS { rng.pick(&dims) } else { rng.operand() };
            emit(&mut model, word);
        }
    }
    maybe_truncate(&mut words, rng);
    words
}

/// A random convolution program: `rst` configurations (absurd ones too),
/// filter and window fills, reads and undecodable opcodes.
fn conv_program(rng: &mut Lcg) -> Vec<u32> {
    let mut model = ConvAccel::new();
    let mut counters = PerfCounters::new();
    let mut words = Vec::new();
    let mut emit = |model: &mut ConvAccel, word: u32| {
        words.push(word);
        model.consume_word(word, &mut counters);
    };
    let (mut fhw, mut ic) = (0u32, 0u32);
    for _ in 0..1 + rng.below(32) {
        let garbage = rng.next() as u32;
        let opcode = rng.pick(&[
            isa::CONV_OP_SET_FILTER_SIZE,
            isa::CONV_OP_SET_IN_CHANNELS,
            isa::CONV_OP_SEND_FILTER,
            isa::CONV_OP_SEND_INPUT_COMPUTE,
            isa::CONV_OP_SEND_INPUT_COMPUTE,
            isa::CONV_OP_READ_OUTPUT,
            garbage,
        ]);
        let errors = model.protocol_errors();
        emit(&mut model, opcode);
        if model.protocol_errors() > errors {
            continue;
        }
        match opcode {
            isa::CONV_OP_SET_FILTER_SIZE => {
                fhw = rng.pick(&[0, 1, 2, 3, 0x1_0000]);
                emit(&mut model, fhw);
            }
            isa::CONV_OP_SET_IN_CHANNELS => {
                ic = rng.pick(&[0, 1, 2, 5, u32::MAX]);
                emit(&mut model, ic);
            }
            isa::CONV_OP_SEND_FILTER | isa::CONV_OP_SEND_INPUT_COMPUTE => {
                for _ in 0..ic * fhw * fhw {
                    let word = rng.operand();
                    emit(&mut model, word);
                }
            }
            _ => {}
        }
    }
    maybe_truncate(&mut words, rng);
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any MatMul program, fed in bursts cut anywhere with the output
    /// drained in bursts, is observably the program fed word by word.
    #[test]
    fn matmul_bursts_are_the_per_word_stream(
        version in proptest::sample::select(vec![
            MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4,
        ]),
        size in proptest::sample::select(vec![1u32, 2, 3, 4]),
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let words = matmul_program(version, size, &mut rng);
        for _ in 0..3 {
            let cuts = rng.next();
            let mut per_word = MatMulAccel::new(version, size);
            let mut burst = MatMulAccel::new(version, size);
            prop_assert_eq!(
                feed(&mut burst, &words, &mut Lcg(cuts), true),
                feed(&mut per_word, &words, &mut Lcg(cuts), false)
            );
            prop_assert_eq!(burst.tile_shape(), per_word.tile_shape());
        }
    }

    /// The same for the convolution device.
    #[test]
    fn conv_bursts_are_the_per_word_stream(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let words = conv_program(&mut rng);
        for _ in 0..3 {
            let cuts = rng.next();
            prop_assert_eq!(
                feed(&mut ConvAccel::new(), &words, &mut Lcg(cuts), true),
                feed(&mut ConvAccel::new(), &words, &mut Lcg(cuts), false)
            );
        }
    }

    /// Every version's product, taken in one burst, equals the triple
    /// loop — 1x1x1 tiles, non-square v4 tiles and extreme operands
    /// included.
    #[test]
    fn burst_fed_products_match_the_triple_loop(
        version in proptest::sample::select(vec![
            MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4,
        ]),
        size in proptest::sample::select(vec![1u32, 2, 3]),
        seed in any::<u64>(),
    ) {
        let mut rng = Lcg(seed);
        let mut words = Vec::new();
        let (tm, tn, tk) = if version == MatMulVersion::V4 {
            let dims = [size, 2 * size, 3 * size, 5 * size];
            let shape = (rng.pick(&dims), rng.pick(&dims), rng.pick(&dims));
            words.extend([isa::OP_CFG_DIMS, shape.0, shape.1, shape.2]);
            shape
        } else {
            (size, size, size)
        };
        let a: Vec<u32> = (0..tm * tk).map(|_| rng.operand()).collect();
        let b: Vec<u32> = (0..tk * tn).map(|_| rng.operand()).collect();
        match version {
            MatMulVersion::V1 => {
                words.push(isa::OP_FUSED_SABC);
                words.extend(&a);
                words.extend(&b);
            }
            MatMulVersion::V2 => {
                words.push(isa::OP_SEND_B);
                words.extend(&b);
                words.push(isa::OP_SEND_A_COMPUTE_READ);
                words.extend(&a);
            }
            MatMulVersion::V3 | MatMulVersion::V4 => {
                words.push(isa::OP_SEND_A);
                words.extend(&a);
                words.push(isa::OP_SEND_B);
                words.extend(&b);
                words.extend([isa::OP_COMPUTE, isa::OP_READ_C]);
            }
        }
        let bytes: Vec<u8> = words.iter().flat_map(|word| word.to_le_bytes()).collect();
        let mut acc = MatMulAccel::new(version, size);
        let mut counters = PerfCounters::new();
        acc.consume_burst(&bytes, &mut counters);
        prop_assert_eq!(acc.protocol_errors(), 0);
        let signed = |words: &[u32]| words.iter().map(|w| *w as i32).collect::<Vec<i32>>();
        let expect = ref_matmul(&signed(&a), &signed(&b), tm as usize, tn as usize, tk as usize);
        prop_assert_eq!(drain(&mut acc), expect);
        prop_assert_eq!(counters.accel_macs, u64::from(tm * tn * tk));
    }

    /// v3 tile products equal the reference for arbitrary i32 data.
    #[test]
    fn v3_products_match_reference(
        size in proptest::sample::select(vec![1u32, 2, 3, 4, 8]),
        seed in any::<u64>(),
    ) {
        let n = (size * size) as usize;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) as i32
        };
        let a: Vec<i32> = (0..n).map(|_| next()).collect();
        let b: Vec<i32> = (0..n).map(|_| next()).collect();
        let mut acc = MatMulAccel::new(MatMulVersion::V3, size);
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B);
        words.extend(b.iter().map(|v| *v as u32));
        words.push(isa::OP_COMPUTE);
        words.push(isa::OP_READ_C);
        drive(&mut acc, &words);
        prop_assert_eq!(drain(&mut acc), ref_matmul(&a, &b, size as usize, size as usize, size as usize));
        prop_assert_eq!(acc.protocol_errors(), 0);
    }

    /// Arbitrary garbage streams never panic on any version; a protocol
    /// error is recorded whenever an unknown opcode arrives while idle.
    #[test]
    fn garbage_streams_never_panic(
        version in proptest::sample::select(vec![
            MatMulVersion::V1, MatMulVersion::V2, MatMulVersion::V3, MatMulVersion::V4,
        ]),
        words in proptest::collection::vec(any::<u32>(), 0..256),
    ) {
        let mut acc = MatMulAccel::new(version, 4);
        drive(&mut acc, &words);
        // Whatever happened, the device is still usable after a reset.
        let mut counters = PerfCounters::new();
        acc.consume_word(isa::OP_RESET, &mut counters);
        // (If mid-fill, the reset word lands in a buffer; a second full
        // reset via the trait brings it to a known state.)
        acc.reset();
        prop_assert_eq!(acc.protocol_errors(), 0, "reset clears the error counter");
        prop_assert_eq!(acc.output_len(), 0);
    }

    /// Any legal v4 tile shape accepts configuration and computes the
    /// correct non-square product.
    #[test]
    fn v4_flexible_shapes_compute(
        tm in proptest::sample::select(vec![2i64, 4, 6, 8]),
        tn in proptest::sample::select(vec![2i64, 4, 6, 8]),
        tk in proptest::sample::select(vec![2i64, 4, 6, 8]),
    ) {
        prop_assume!((tm * tk + tk * tn + tm * tn) as u64 <= V4_CAPACITY_WORDS);
        let mut acc = MatMulAccel::new(MatMulVersion::V4, 2);
        drive(&mut acc, &[isa::OP_CFG_DIMS, tm as u32, tn as u32, tk as u32]);
        prop_assert_eq!(acc.protocol_errors(), 0);
        prop_assert_eq!(acc.tile_shape(), (tm as u32, tn as u32, tk as u32));
        let a: Vec<i32> = (0..tm * tk).map(|i| i as i32 - 7).collect();
        let b: Vec<i32> = (0..tk * tn).map(|i| 3 - i as i32).collect();
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B);
        words.extend(b.iter().map(|v| *v as u32));
        words.push(isa::OP_COMPUTE);
        words.push(isa::OP_READ_C);
        drive(&mut acc, &words);
        prop_assert_eq!(
            drain(&mut acc),
            ref_matmul(&a, &b, tm as usize, tn as usize, tk as usize)
        );
    }

    /// The conv accelerator's window inner products match a direct dot
    /// product for arbitrary window contents.
    #[test]
    fn conv_windows_match_dot_product(
        ic in 1u32..6,
        fhw in 1u32..4,
        seed in any::<u64>(),
    ) {
        let n = (ic * fhw * fhw) as usize;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as i32) % 1000
        };
        let filter: Vec<i32> = (0..n).map(|_| next()).collect();
        let window: Vec<i32> = (0..n).map(|_| next()).collect();
        let mut acc = ConvAccel::new();
        let mut words = vec![
            isa::CONV_OP_SET_FILTER_SIZE, fhw,
            isa::CONV_OP_SET_IN_CHANNELS, ic,
            isa::CONV_OP_SEND_FILTER,
        ];
        words.extend(filter.iter().map(|v| *v as u32));
        words.push(isa::CONV_OP_SEND_INPUT_COMPUTE);
        words.extend(window.iter().map(|v| *v as u32));
        words.push(isa::CONV_OP_READ_OUTPUT);
        drive(&mut acc, &words);
        let expect: i32 = filter
            .iter()
            .zip(&window)
            .fold(0i32, |acc, (f, w)| acc.wrapping_add(f.wrapping_mul(*w)));
        prop_assert_eq!(drain(&mut acc), vec![expect]);
        prop_assert_eq!(acc.protocol_errors(), 0);
    }

    /// C-stationary accumulation: k compute steps accumulate exactly.
    #[test]
    fn v3_accumulates_k_partial_products(steps in 1usize..6) {
        let size = 2u32;
        let a = [1i32, 2, 3, 4];
        let b = [5i32, 6, 7, 8];
        let mut acc = MatMulAccel::new(MatMulVersion::V3, size);
        let mut words = vec![isa::OP_SEND_A];
        words.extend(a.iter().map(|v| *v as u32));
        words.push(isa::OP_SEND_B);
        words.extend(b.iter().map(|v| *v as u32));
        words.extend(std::iter::repeat_n(isa::OP_COMPUTE, steps));
        words.push(isa::OP_READ_C);
        drive(&mut acc, &words);
        let single = ref_matmul(&a, &b, 2, 2, 2);
        let expect: Vec<i32> = single.iter().map(|v| v * steps as i32).collect();
        prop_assert_eq!(drain(&mut acc), expect);
    }
}

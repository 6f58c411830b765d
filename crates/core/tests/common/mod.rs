//! Strategies shared by the key, cache and shard property tests: typed
//! draws over the whole domain of every [`CandidateKey`] field, whole
//! keys that name a buildable configuration (the only kind a decode
//! boundary admits), and arbitrary measurement payloads.

#![allow(dead_code)] // each test binary uses its own subset

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use axi4mlir_accelerators::conv::CONV_WINDOW_CAPACITY;
use axi4mlir_config::{CacheTiling, CpuModel, FlowStrategy};
use axi4mlir_core::explore::cache::CachedEval;
use axi4mlir_core::explore::{
    AccelInstance, CandidateKey, Device, Flow, MatMulVersion, OptionsPoint, Problem,
};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_workloads::batched::BatchedMatMulProblem;
use axi4mlir_workloads::matmul::MatMulProblem;
use axi4mlir_workloads::resnet::ConvLayer;

pub fn options_point() -> impl Strategy<Value = OptionsPoint> {
    let cache_tiling = prop_oneof![
        Just(CacheTiling::Off),
        Just(CacheTiling::Auto),
        (1i64..=4096).prop_map(CacheTiling::Fixed),
    ];
    let cpu = prop_oneof![Just(CpuModel::PynqZ2), Just(CpuModel::Zcu102), Just(CpuModel::Desktop)];
    (any::<bool>(), any::<bool>(), cache_tiling, cpu).prop_map(
        |(coalesce, specialized_copies, cache_tiling, cpu)| OptionsPoint {
            coalesce,
            specialized_copies,
            cache_tiling,
            cpu,
        },
    )
}

fn gemm() -> impl Strategy<Value = MatMulProblem> {
    (1i64..=4096, 1i64..=4096, 1i64..=4096).prop_map(|(m, n, k)| MatMulProblem::new(m, n, k))
}

/// Every problem the key can hold: a few fixed shapes (entries sharing a
/// shard exercise the merge) among draws over the whole typed domain.
pub fn problem() -> impl Strategy<Value = Problem> {
    let layer = (1usize..=11, 0usize..=64, 0usize..=512, 1usize..=512, 1usize..=4).prop_map(
        |(filter_hw, margin, in_channels, out_channels, stride)| ConvLayer {
            in_hw: filter_hw + margin,
            in_channels,
            filter_hw,
            out_channels,
            stride,
        },
    );
    prop_oneof![
        Just(Problem::MatMul(MatMulProblem::new(16, 16, 16))),
        Just(Problem::MatMul(MatMulProblem::new(64, 64, 64))),
        gemm().prop_map(Problem::MatMul),
        (gemm(), 1usize..=64)
            .prop_map(|(gemm, batch)| Problem::Batched(BatchedMatMulProblem::new(gemm, batch))),
        layer.prop_map(Problem::Conv),
    ]
}

pub fn accel_instance() -> impl Strategy<Value = AccelInstance> {
    let version = prop_oneof![
        Just(MatMulVersion::V1),
        Just(MatMulVersion::V2),
        Just(MatMulVersion::V3),
        Just(MatMulVersion::V4),
    ];
    (version, 1i64..=1024).prop_map(|(version, size)| AccelInstance { version, size })
}

pub fn device() -> impl Strategy<Value = Device> {
    prop_oneof![Just(Device::Conv2d), accel_instance().prop_map(Device::from)]
}

pub fn flow() -> impl Strategy<Value = Flow> {
    prop_oneof![
        Just(Flow::FilterOutputStationary),
        proptest::sample::select(FlowStrategy::all().to_vec()).prop_map(Flow::MatMul),
    ]
}

/// Whole keys that name a buildable configuration: a conv layer the
/// conv2d unit can hold (channels clamped until the window fits), or a
/// GEMM on an instance under one of its own flows with a tile that
/// device runs (a fixed generation's own square tile; on a v4 any edges
/// whose three operand tiles fit its 10 240 words — 3 x 58^2 does).
pub fn candidate_key() -> impl Strategy<Value = CandidateKey> {
    let tile = (1i64..=58, 1i64..=58, 1i64..=58);
    (problem(), accel_instance(), any::<usize>(), tile, options_point(), any::<u64>()).prop_map(
        |(workload, accel, pick, tile, options, seed)| match workload {
            Problem::Conv(layer) => CandidateKey {
                workload: Problem::Conv(ConvLayer {
                    in_channels: layer
                        .in_channels
                        .clamp(1, CONV_WINDOW_CAPACITY / (layer.filter_hw * layer.filter_hw)),
                    ..layer
                }),
                accel: Device::Conv2d,
                flow: Flow::FilterOutputStationary,
                tile: (0, 0, 0),
                options,
                seed,
            },
            _ => {
                let flows = accel.flows();
                let flow = Flow::MatMul(flows[pick % flows.len()]);
                let tile = match accel.version {
                    MatMulVersion::V4 => tile,
                    _ => (accel.size, accel.size, accel.size),
                };
                CandidateKey { workload, accel: accel.into(), flow, tile, options, seed }
            }
        },
    )
}

/// Any payload: arbitrary counters and any finite task-clock,
/// bit-pattern-arbitrary (subnormals included) — the shortest-roundtrip
/// float formatting must preserve all of them. Non-finite bit patterns
/// have their exponent's top bit cleared, which maps them onto finite
/// values without biasing the rest.
pub fn cached_eval() -> impl Strategy<Value = CachedEval> {
    (vec(any::<u64>(), 13), any::<u64>(), any::<bool>()).prop_map(|(v, clock_bits, verified)| {
        let f = f64::from_bits(clock_bits);
        let task_clock_ms =
            if f.is_finite() { f } else { f64::from_bits(clock_bits & !(1u64 << 62)) };
        CachedEval {
            counters: PerfCounters {
                host_cycles: v[0],
                device_cycles: v[1],
                cache_references: v[2],
                l1_misses: v[3],
                l2_misses: v[4],
                branch_instructions: v[5],
                instructions: v[6],
                uncached_accesses: v[7],
                dma_bytes_to_accel: v[8],
                dma_bytes_from_accel: v[9],
                dma_transactions: v[10],
                accel_compute_cycles: v[11],
                accel_macs: v[12],
            },
            task_clock_ms,
            verified,
            pass_ms: Vec::new(),
        }
    })
}

pub fn entries(max: usize) -> impl Strategy<Value = HashMap<CandidateKey, CachedEval>> {
    vec((candidate_key(), cached_eval()), 0..max).prop_map(|list| list.into_iter().collect())
}

/// The bit-exact equality the round-trip properties assert: `==` on
/// `CachedEval` compares floats by value, which conflates 0.0 and -0.0.
pub fn assert_same(
    a: &HashMap<CandidateKey, CachedEval>,
    b: &HashMap<CandidateKey, CachedEval>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (key, eval) in a {
        let other = b.get(key);
        prop_assert!(other.is_some(), "key lost in the round trip: {:?}", key);
        let other = other.unwrap();
        prop_assert_eq!(eval.counters, other.counters);
        prop_assert_eq!(eval.task_clock_ms.to_bits(), other.task_clock_ms.to_bits());
        prop_assert_eq!(eval.verified, other.verified);
        prop_assert!(other.pass_ms.is_empty(), "wall-clock timings are never persisted");
    }
    Ok(())
}

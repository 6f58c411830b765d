//! Property-based tests of the design-space enumerators: every candidate
//! any space produces must respect divisibility, capacity, and flow
//! legality — the invariants the exploration engine measures on trust.

use proptest::prelude::*;

use axi4mlir_config::FlowStrategy;
use axi4mlir_heuristics::space::SpacePoint;
use axi4mlir_heuristics::space::{batched_points, conv_point, matmul_points, AccelInstance};
use axi4mlir_heuristics::{tile_words, ConvShapeEstimate};

use axi4mlir_accelerators::conv::{CONV_SLICE_CAPACITY, CONV_WINDOW_CAPACITY};
use axi4mlir_accelerators::matmul::{MatMulVersion, V4_CAPACITY_WORDS};

fn all_generations(size: i64) -> Vec<AccelInstance> {
    vec![
        AccelInstance { version: MatMulVersion::V1, size },
        AccelInstance { version: MatMulVersion::V2, size },
        AccelInstance { version: MatMulVersion::V3, size },
        AccelInstance::v4(size),
    ]
}

fn check_invariants(points: &[SpacePoint], dims: (i64, i64, i64), capacity: u64) {
    for p in points {
        let (m, n, k) = dims;
        // Divisibility: every tile edge divides its problem dimension.
        assert!(p.tile.0 > 0 && p.tile.1 > 0 && p.tile.2 > 0, "{p:?}");
        assert_eq!((m % p.tile.0, n % p.tile.1, k % p.tile.2), (0, 0, 0), "{p:?} on {dims:?}");
        // Capacity: flexible tiles fit the accelerator memory; fixed
        // generations use exactly their square tile.
        match p.accel.version {
            MatMulVersion::V4 => assert!(tile_words(p.tile) <= capacity, "{p:?}"),
            _ => assert_eq!(p.tile, (p.accel.size, p.accel.size, p.accel.size), "{p:?}"),
        }
        // Flow legality: the generation's opcode set offers the flow.
        assert!(p.accel.flows().contains(&p.flow), "{p:?}");
        // The cost hook is populated (pruning and halving rank on it).
        assert!(p.estimate.words_total() > 0, "{p:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MatMul candidates respect divisibility, capacity, and flow
    /// legality for arbitrary problem shapes, bases, and capacities.
    #[test]
    fn matmul_candidates_are_legal(
        m in 1i64..96,
        n in 1i64..96,
        k in 1i64..96,
        size in 1i64..24,
        capacity in 1u64..20_000,
    ) {
        let points = matmul_points((m, n, k), &all_generations(size), capacity);
        check_invariants(&points, (m, n, k), capacity);
        // Enumeration is deterministic.
        let again = matmul_points((m, n, k), &all_generations(size), capacity);
        prop_assert_eq!(points, again);
    }

    /// Which tile a device runs is the device's to say
    /// (`Device::tile_defect`); the enumerators generate tiles their own
    /// way, and under the device's own memory budget everything they
    /// yield is a tile the device `AccelInstance::config` instantiates
    /// accepts — described as enumerated, whole-dimension tiles of
    /// problems smaller than the base included.
    #[test]
    fn every_enumerated_tile_is_one_its_device_runs(
        m in 1i64..64,
        n in 1i64..64,
        k in 1i64..64,
        size in 1i64..24,
    ) {
        // Every generation offers Ns; the tile does not depend on the flow.
        let points = matmul_points((m, n, k), &all_generations(size), V4_CAPACITY_WORDS);
        for p in points.into_iter().filter(|p| p.flow == FlowStrategy::NothingStationary) {
            let config = p.accel.config(p.tile, p.flow);
            prop_assert_eq!(config.device, p.accel.instantiated(p.tile).into());
            prop_assert_eq!(&config.accel_dims, &[p.tile.0, p.tile.1, p.tile.2]);
            prop_assert_eq!(config.device.tile_defect(&config.accel_dims), None, "{:?}", p);
        }
    }

    /// Batched candidates share the MatMul legality rules, and their
    /// estimates scale exactly with the batch extent.
    #[test]
    fn batched_candidates_are_legal_and_scale(
        m in 1i64..64,
        n in 1i64..64,
        k in 1i64..64,
        size in 1i64..17,
        batch in 1u64..9,
    ) {
        let accels = all_generations(size);
        let capacity = 10_240u64;
        let batched = batched_points((m, n, k), batch, &accels, capacity);
        check_invariants(&batched, (m, n, k), capacity);
        let single = matmul_points((m, n, k), &accels, capacity);
        prop_assert_eq!(single.len(), batched.len());
        for (s, b) in single.iter().zip(&batched) {
            prop_assert_eq!(b.estimate.words_to_accel, batch * s.estimate.words_to_accel);
            prop_assert_eq!(b.estimate.words_from_accel, batch * s.estimate.words_from_accel);
            prop_assert_eq!(b.estimate.transactions, batch * s.estimate.transactions);
        }
    }

    /// The conv enumerator accepts a shape iff the window and the output
    /// slice fit the device buffers.
    #[test]
    fn conv_legality_matches_the_device_capacities(
        out_channels in 1i64..64,
        out_hw in 1i64..200,
        in_channels in 1i64..3000,
        filter_hw in 1i64..8,
    ) {
        let shape = ConvShapeEstimate { batch: 1, out_channels, out_hw, in_channels, filter_hw };
        let window = (in_channels * filter_hw * filter_hw) as usize;
        let slice = (out_hw * out_hw) as usize;
        let fits = window <= CONV_WINDOW_CAPACITY && slice <= CONV_SLICE_CAPACITY;
        prop_assert_eq!(conv_point(shape).is_ok(), fits, "window {} slice {}", window, slice);
        if let Ok(estimate) = conv_point(shape) {
            // The filter-stationary flow sends each window once per output
            // pixel plus the filter once per output channel: the word count
            // is bounded below by the pure window traffic.
            let pixels = (out_channels * out_hw * out_hw) as u64;
            prop_assert!(estimate.words_to_accel > pixels * window as u64);
            prop_assert_eq!(estimate.words_from_accel, out_channels as u64 * slice as u64);
        }
    }
}

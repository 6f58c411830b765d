//! Manual MatMul drivers for the v1–v4 accelerators, one per dataflow.

use axi4mlir_accelerators::isa;
use axi4mlir_accelerators::matmul::MatMulVersion;
use axi4mlir_config::FlowStrategy;
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::dma_lib::{
    copy_from_dma_region, copy_to_dma_region, dma_init, dma_start_recv, dma_start_send,
    dma_wait_recv_completion, dma_wait_send_completion, write_literal_to_dma_region,
};
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_workloads::matmul::MatMulProblem;

/// One batched opcode transmission: instruction word plus an optional tile,
/// in a single DMA transaction (what a careful manual driver does).
fn send_opcode(
    soc: &mut Soc,
    literal: u32,
    tile: Option<&MemRefDesc>,
    strategy: CopyStrategy,
) -> Result<(), Diagnostic> {
    let mut off = write_literal_to_dma_region(soc, literal, 0);
    if let Some(tile) = tile {
        off = copy_to_dma_region(soc, tile, off, strategy);
    }
    dma_start_send(soc, off, 0).map_err(|e| Diagnostic::error(e.to_string()))?;
    dma_wait_send_completion(soc);
    Ok(())
}

fn recv_tile(soc: &mut Soc, tile: &MemRefDesc, strategy: CopyStrategy) -> Result<(), Diagnostic> {
    dma_start_recv(soc, tile.num_bytes(), 0).map_err(|e| Diagnostic::error(e.to_string()))?;
    dma_wait_recv_completion(soc);
    copy_from_dma_region(soc, tile, 0, true, strategy);
    Ok(())
}

/// Per-loop-iteration bookkeeping a compiled C++ driver pays.
fn loop_overhead(soc: &mut Soc) {
    soc.charge_arith(2);
    soc.charge_branch(1);
}

/// Tile subview plus its index arithmetic cost.
fn tile(soc: &mut Soc, buf: &MemRefDesc, offsets: [i64; 2], sizes: [i64; 2]) -> MemRefDesc {
    soc.charge_arith(4);
    buf.subview(offsets.as_ref(), sizes.as_ref())
}

/// The hand-written driver: accel-size tiling, fewest transfers for `flow`.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for unsupported version/flow combinations
/// (e.g. Cs on a v2 accelerator) or non-dividing tiles.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn manual_matmul_drive(
    soc: &mut Soc,
    version: MatMulVersion,
    size: i64,
    flow: FlowStrategy,
    a: &MemRefDesc,
    b: &MemRefDesc,
    c: &MemRefDesc,
    problem: MatMulProblem,
) -> Result<(), Diagnostic> {
    let (m, n, k) = (problem.m, problem.n, problem.k);
    if m % size != 0 || n % size != 0 || k % size != 0 {
        return Err(Diagnostic::error(format!("tile {size} does not divide problem {problem}")));
    }
    let strategy = crate::manual_strategy(soc);
    let t = size;
    dma_init(soc, 0, 0xFF00, 0xFF00);
    send_opcode(soc, isa::OP_RESET, None, strategy)?;

    let supported = match (version, flow) {
        (MatMulVersion::V1, FlowStrategy::NothingStationary) => true,
        (MatMulVersion::V1, _) => false,
        (MatMulVersion::V2, FlowStrategy::OutputStationary) => false,
        (MatMulVersion::V2, _) => true,
        (MatMulVersion::V3 | MatMulVersion::V4, _) => true,
    };
    if !supported {
        return Err(Diagnostic::error(format!("{version} does not support the {flow} dataflow")));
    }

    match (version, flow) {
        (MatMulVersion::V2, FlowStrategy::OutputStationary) => {
            unreachable!("rejected by the support check above")
        }
        (MatMulVersion::V1, _) => {
            // Fused opcode: lit + A + B in one transaction, then recv C.
            let mut mi = 0;
            while mi < m {
                loop_overhead(soc);
                let mut ni = 0;
                while ni < n {
                    loop_overhead(soc);
                    let mut ki = 0;
                    while ki < k {
                        loop_overhead(soc);
                        let ta = tile(soc, a, [mi, ki], [t, t]);
                        let tb = tile(soc, b, [ki, ni], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        let mut off = write_literal_to_dma_region(soc, isa::OP_FUSED_SABC, 0);
                        off = copy_to_dma_region(soc, &ta, off, strategy);
                        off = copy_to_dma_region(soc, &tb, off, strategy);
                        dma_start_send(soc, off, 0)
                            .map_err(|e| Diagnostic::error(e.to_string()))?;
                        dma_wait_send_completion(soc);
                        recv_tile(soc, &tc, strategy)?;
                        ki += t;
                    }
                    ni += t;
                }
                mi += t;
            }
        }
        (MatMulVersion::V2, FlowStrategy::NothingStationary) => {
            let mut mi = 0;
            while mi < m {
                loop_overhead(soc);
                let mut ni = 0;
                while ni < n {
                    loop_overhead(soc);
                    let mut ki = 0;
                    while ki < k {
                        loop_overhead(soc);
                        let ta = tile(soc, a, [mi, ki], [t, t]);
                        let tb = tile(soc, b, [ki, ni], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_A, Some(&ta), strategy)?;
                        send_opcode(soc, isa::OP_SEND_B, Some(&tb), strategy)?;
                        send_opcode(soc, isa::OP_COMPUTE_READ, None, strategy)?;
                        recv_tile(soc, &tc, strategy)?;
                        ki += t;
                    }
                    ni += t;
                }
                mi += t;
            }
        }
        (MatMulVersion::V2, FlowStrategy::InputAStationary) => {
            let mut mi = 0;
            while mi < m {
                loop_overhead(soc);
                let mut ki = 0;
                while ki < k {
                    loop_overhead(soc);
                    let ta = tile(soc, a, [mi, ki], [t, t]);
                    send_opcode(soc, isa::OP_SEND_A, Some(&ta), strategy)?;
                    let mut ni = 0;
                    while ni < n {
                        loop_overhead(soc);
                        let tb = tile(soc, b, [ki, ni], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_B_COMPUTE_READ, Some(&tb), strategy)?;
                        recv_tile(soc, &tc, strategy)?;
                        ni += t;
                    }
                    ki += t;
                }
                mi += t;
            }
        }
        (MatMulVersion::V2, FlowStrategy::InputBStationary) => {
            let mut ki = 0;
            while ki < k {
                loop_overhead(soc);
                let mut ni = 0;
                while ni < n {
                    loop_overhead(soc);
                    let tb = tile(soc, b, [ki, ni], [t, t]);
                    send_opcode(soc, isa::OP_SEND_B, Some(&tb), strategy)?;
                    let mut mi = 0;
                    while mi < m {
                        loop_overhead(soc);
                        let ta = tile(soc, a, [mi, ki], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_A_COMPUTE_READ, Some(&ta), strategy)?;
                        recv_tile(soc, &tc, strategy)?;
                        mi += t;
                    }
                    ni += t;
                }
                ki += t;
            }
        }
        (MatMulVersion::V3 | MatMulVersion::V4, FlowStrategy::NothingStationary) => {
            let mut mi = 0;
            while mi < m {
                loop_overhead(soc);
                let mut ni = 0;
                while ni < n {
                    loop_overhead(soc);
                    let mut ki = 0;
                    while ki < k {
                        loop_overhead(soc);
                        let ta = tile(soc, a, [mi, ki], [t, t]);
                        let tb = tile(soc, b, [ki, ni], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_A, Some(&ta), strategy)?;
                        send_opcode(soc, isa::OP_SEND_B, Some(&tb), strategy)?;
                        send_opcode(soc, isa::OP_COMPUTE, None, strategy)?;
                        send_opcode(soc, isa::OP_READ_C, None, strategy)?;
                        recv_tile(soc, &tc, strategy)?;
                        ki += t;
                    }
                    ni += t;
                }
                mi += t;
            }
        }
        (MatMulVersion::V3 | MatMulVersion::V4, FlowStrategy::InputAStationary) => {
            let mut mi = 0;
            while mi < m {
                loop_overhead(soc);
                let mut ki = 0;
                while ki < k {
                    loop_overhead(soc);
                    let ta = tile(soc, a, [mi, ki], [t, t]);
                    send_opcode(soc, isa::OP_SEND_A, Some(&ta), strategy)?;
                    let mut ni = 0;
                    while ni < n {
                        loop_overhead(soc);
                        let tb = tile(soc, b, [ki, ni], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_B, Some(&tb), strategy)?;
                        send_opcode(soc, isa::OP_COMPUTE, None, strategy)?;
                        send_opcode(soc, isa::OP_READ_C, None, strategy)?;
                        recv_tile(soc, &tc, strategy)?;
                        ni += t;
                    }
                    ki += t;
                }
                mi += t;
            }
        }
        (MatMulVersion::V3 | MatMulVersion::V4, FlowStrategy::InputBStationary) => {
            let mut ki = 0;
            while ki < k {
                loop_overhead(soc);
                let mut ni = 0;
                while ni < n {
                    loop_overhead(soc);
                    let tb = tile(soc, b, [ki, ni], [t, t]);
                    send_opcode(soc, isa::OP_SEND_B, Some(&tb), strategy)?;
                    let mut mi = 0;
                    while mi < m {
                        loop_overhead(soc);
                        let ta = tile(soc, a, [mi, ki], [t, t]);
                        let tc = tile(soc, c, [mi, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_A, Some(&ta), strategy)?;
                        send_opcode(soc, isa::OP_COMPUTE, None, strategy)?;
                        send_opcode(soc, isa::OP_READ_C, None, strategy)?;
                        recv_tile(soc, &tc, strategy)?;
                        mi += t;
                    }
                    ni += t;
                }
                ki += t;
            }
        }
        (MatMulVersion::V3 | MatMulVersion::V4, FlowStrategy::OutputStationary) => {
            let mut mi = 0;
            while mi < m {
                loop_overhead(soc);
                let mut ni = 0;
                while ni < n {
                    loop_overhead(soc);
                    let tc = tile(soc, c, [mi, ni], [t, t]);
                    let mut ki = 0;
                    while ki < k {
                        loop_overhead(soc);
                        let ta = tile(soc, a, [mi, ki], [t, t]);
                        let tb = tile(soc, b, [ki, ni], [t, t]);
                        send_opcode(soc, isa::OP_SEND_A, Some(&ta), strategy)?;
                        send_opcode(soc, isa::OP_SEND_B, Some(&tb), strategy)?;
                        send_opcode(soc, isa::OP_COMPUTE, None, strategy)?;
                        ki += t;
                    }
                    send_opcode(soc, isa::OP_READ_C, None, strategy)?;
                    recv_tile(soc, &tc, strategy)?;
                    ni += t;
                }
                mi += t;
            }
        }
    }
    Ok(())
}

/// `manual_matmul_drive` as the `drive` argument of
/// `Session::run_manual`: the bound buffers are a MatMul workload's A, B
/// and C, in that order.
pub fn matmul_driver(
    version: MatMulVersion,
    size: i64,
    flow: FlowStrategy,
    problem: MatMulProblem,
) -> impl FnOnce(&mut Soc, &[MemRefDesc]) -> Result<(), Diagnostic> {
    move |soc, buffers| match buffers {
        [a, b, c] => manual_matmul_drive(soc, version, size, flow, a, b, c, problem),
        _ => Err(crate::wrong_buffer_count("MatMul", "A, B, C", buffers.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_config::AcceleratorConfig;
    use axi4mlir_core::driver::{CompilePlan, MatMulWorkload, RunReport, Session};

    /// One manual run through the shared harness. The plan names the
    /// device and the seed; the driver argument decides the dataflow (the
    /// plan's flow is a report label, left at the preset default here so
    /// flows a generation does not offer reach the driver's own check).
    fn run(
        version: MatMulVersion,
        size: i64,
        flow: FlowStrategy,
        problem: MatMulProblem,
        seed: u64,
    ) -> Result<RunReport, Diagnostic> {
        let plan =
            CompilePlan::for_accelerator(AcceleratorConfig::matmul(version, size)).seed(seed);
        Session::for_sweep().run_manual(
            &MatMulWorkload::new(problem),
            &plan,
            matmul_driver(version, size, flow, problem),
        )
    }

    #[test]
    fn v1_ns_verifies() {
        let r =
            run(MatMulVersion::V1, 4, FlowStrategy::NothingStationary, MatMulProblem::square(8), 1)
                .unwrap();
        assert!(r.verified);
        assert_eq!(r.accel_name, "v1_4");
    }

    #[test]
    fn v2_flows_verify() {
        for flow in [
            FlowStrategy::NothingStationary,
            FlowStrategy::InputAStationary,
            FlowStrategy::InputBStationary,
        ] {
            let r = run(MatMulVersion::V2, 4, flow, MatMulProblem::square(8), 2).unwrap();
            assert!(r.verified, "{flow}");
        }
    }

    #[test]
    fn v3_all_flows_verify() {
        for flow in FlowStrategy::all() {
            let r = run(MatMulVersion::V3, 4, flow, MatMulProblem::square(8), 3).unwrap();
            assert!(r.verified, "{flow}");
        }
    }

    #[test]
    fn unsupported_combinations_error() {
        for version in [MatMulVersion::V1, MatMulVersion::V2] {
            let err = run(version, 4, FlowStrategy::OutputStationary, MatMulProblem::square(8), 0)
                .unwrap_err();
            assert!(err.message.contains("does not support"));
        }
    }

    #[test]
    fn stationary_flows_move_less_data_than_ns() {
        let v3 = |flow| run(MatMulVersion::V3, 4, flow, MatMulProblem::square(16), 4).unwrap();
        let ns = v3(FlowStrategy::NothingStationary);
        let a_s = v3(FlowStrategy::InputAStationary);
        let cs = v3(FlowStrategy::OutputStationary);
        assert!(a_s.counters.dma_bytes_to_accel < ns.counters.dma_bytes_to_accel);
        assert!(cs.counters.dma_bytes_from_accel < ns.counters.dma_bytes_from_accel);
    }

    #[test]
    fn non_dividing_tile_is_rejected() {
        let err =
            run(MatMulVersion::V3, 5, FlowStrategy::NothingStationary, MatMulProblem::square(8), 0)
                .unwrap_err();
        assert!(err.message.contains("does not divide"));
    }

    #[test]
    fn a_workload_that_binds_other_buffers_is_refused() {
        let problem = MatMulProblem::square(8);
        let batch = axi4mlir_workloads::batched::BatchedMatMulProblem::new(problem, 2);
        let plan = CompilePlan::for_accelerator(AcceleratorConfig::matmul(MatMulVersion::V3, 4));
        let err = Session::for_sweep()
            .run_manual(
                &axi4mlir_core::driver::BatchedMatMulWorkload::new(batch),
                &plan,
                matmul_driver(MatMulVersion::V3, 4, FlowStrategy::NothingStationary, problem),
            )
            .unwrap_err();
        assert!(err.message.contains("found 6"), "{}", err.message);
    }
}

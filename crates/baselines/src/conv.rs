//! The manual Conv2D driver (layer-specific, as in §IV-D's baselines).

use axi4mlir_accelerators::isa;
use axi4mlir_runtime::dma_lib::{
    copy_from_dma_region, copy_to_dma_region, dma_init, dma_start_recv, dma_start_send,
    dma_wait_recv_completion, dma_wait_send_completion, write_literal_to_dma_region,
};
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_workloads::resnet::ConvLayer;

/// Hand-written driver for one convolution layer on the §IV-D accelerator:
/// filter + output stationary, one output slice per output channel.
///
/// # Errors
///
/// Propagates DMA failures as diagnostics.
#[allow(clippy::too_many_lines)]
fn manual_conv_drive(
    soc: &mut Soc,
    input: &MemRefDesc,
    filter: &MemRefDesc,
    output: &MemRefDesc,
    layer: ConvLayer,
) -> Result<(), Diagnostic> {
    let strategy = crate::manual_strategy(soc);
    let send_err = |e: axi4mlir_sim::dma::DmaError| Diagnostic::error(e.to_string());
    let (ic, fhw, s) = (layer.in_channels as i64, layer.filter_hw as i64, layer.stride as i64);
    let ohw = layer.out_hw() as i64;
    dma_init(soc, 0, 0xFF00, 0xFF00);
    // rst: configure filter size and channel count — the manual driver
    // hard-codes the layer constants.
    let mut off = write_literal_to_dma_region(soc, isa::CONV_OP_SET_FILTER_SIZE, 0);
    off = write_literal_to_dma_region(soc, fhw as u32, off);
    off = write_literal_to_dma_region(soc, isa::CONV_OP_SET_IN_CHANNELS, off);
    off = write_literal_to_dma_region(soc, ic as u32, off);
    dma_start_send(soc, off, 0).map_err(send_err)?;
    dma_wait_send_completion(soc);

    let mut oc = 0;
    while oc < layer.out_channels as i64 {
        soc.charge_arith(2);
        soc.charge_branch(1);
        // sF: one filter slice.
        soc.charge_arith(4);
        let wf = filter.subview(&[oc, 0, 0, 0], &[1, ic, fhw, fhw]);
        let mut off = write_literal_to_dma_region(soc, isa::CONV_OP_SEND_FILTER, 0);
        off = copy_to_dma_region(soc, &wf, off, strategy);
        dma_start_send(soc, off, 0).map_err(send_err)?;
        dma_wait_send_completion(soc);
        // Input windows.
        let mut oh = 0;
        while oh < ohw {
            soc.charge_arith(2);
            soc.charge_branch(1);
            let mut ow = 0;
            while ow < ohw {
                soc.charge_arith(2);
                soc.charge_branch(1);
                soc.charge_arith(4);
                let window = input.subview(&[0, 0, oh * s, ow * s], &[1, ic, fhw, fhw]);
                let mut off = write_literal_to_dma_region(soc, isa::CONV_OP_SEND_INPUT_COMPUTE, 0);
                off = copy_to_dma_region(soc, &window, off, strategy);
                dma_start_send(soc, off, 0).map_err(send_err)?;
                dma_wait_send_completion(soc);
                ow += 1;
            }
            oh += 1;
        }
        // rO: collect the output slice.
        let slice = output.subview(&[0, oc, 0, 0], &[1, 1, ohw, ohw]);
        let off = write_literal_to_dma_region(soc, isa::CONV_OP_READ_OUTPUT, 0);
        dma_start_send(soc, off, 0).map_err(send_err)?;
        dma_wait_send_completion(soc);
        dma_start_recv(soc, slice.num_bytes(), 0).map_err(send_err)?;
        dma_wait_recv_completion(soc);
        copy_from_dma_region(soc, &slice, 0, true, strategy);
        oc += 1;
    }
    Ok(())
}

/// `manual_conv_drive` as the `drive` argument of
/// `Session::run_manual`: the bound buffers are a convolution workload's
/// input, filter and output, in that order.
pub fn conv_driver(
    layer: ConvLayer,
) -> impl FnOnce(&mut Soc, &[MemRefDesc]) -> Result<(), Diagnostic> {
    move |soc, buffers| match buffers {
        [input, filter, output] => manual_conv_drive(soc, input, filter, output, layer),
        _ => Err(crate::wrong_buffer_count("convolution", "I, W, O", buffers.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_core::driver::{CompilePlan, ConvWorkload, RunReport, Session};

    fn small_layer() -> ConvLayer {
        ConvLayer { in_hw: 7, in_channels: 4, filter_hw: 3, out_channels: 2, stride: 1 }
    }

    fn run(layer: ConvLayer, seed: u64) -> RunReport {
        let plan = CompilePlan::for_conv_layer(layer).seed(seed);
        Session::for_sweep()
            .run_manual(&ConvWorkload::new(layer), &plan, conv_driver(layer))
            .unwrap()
    }

    #[test]
    fn manual_conv_verifies() {
        let r = run(small_layer(), 5);
        assert!(r.verified);
        assert!(r.counters.dma_bytes_from_accel > 0);
    }

    #[test]
    fn strided_layer_verifies() {
        let layer =
            ConvLayer { in_hw: 9, in_channels: 2, filter_hw: 3, out_channels: 2, stride: 2 };
        assert!(run(layer, 6).verified);
    }

    #[test]
    fn pointwise_filter_verifies() {
        // The fHW == 1 case of Fig. 16 (no contiguous runs to vectorize).
        let layer =
            ConvLayer { in_hw: 6, in_channels: 8, filter_hw: 1, out_channels: 4, stride: 2 };
        assert!(run(layer, 7).verified);
    }

    #[test]
    fn window_traffic_scales_with_output_size() {
        let small = run(small_layer(), 1);
        let bigger = run(ConvLayer { in_hw: 11, ..small_layer() }, 1);
        assert!(bigger.counters.dma_bytes_to_accel > small.counters.dma_bytes_to_accel);
    }
}

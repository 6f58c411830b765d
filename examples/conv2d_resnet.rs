//! Driving the §IV-D Conv2D accelerator over ResNet18 layers with the
//! filter+output-stationary flow of Fig. 15, comparing AXI4MLIR-generated
//! drivers against the hand-written baseline (the Fig. 16 scenario on a
//! reduced layer set).
//!
//! Run with: `cargo run --release --example conv2d_resnet [--full]`

use axi4mlir::baselines::conv_driver;
use axi4mlir::prelude::*;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let layers: Vec<ConvLayer> = if full {
        resnet18_layers()
    } else {
        // Shrunk spatial extents for a quick demonstration.
        vec![
            ConvLayer { in_hw: 16, in_channels: 64, filter_hw: 3, out_channels: 32, stride: 1 },
            ConvLayer { in_hw: 16, in_channels: 64, filter_hw: 1, out_channels: 32, stride: 2 },
            ConvLayer { in_hw: 30, in_channels: 32, filter_hw: 3, out_channels: 64, stride: 2 },
        ]
    };

    println!("layer [iHW_iC_fHW_oC_s]   manual [ms]   axi4mlir [ms]   speedup");
    println!("------------------------------------------------------------------");
    // All layers drive the same Conv2D device through one session; the
    // two drivers of a layer share its workload and plan.
    let mut session = Session::for_sweep();
    for layer in layers {
        let (workload, plan) = (ConvWorkload::new(layer), CompilePlan::for_conv_layer(layer));
        let manual =
            session.run_manual(&workload, &plan, conv_driver(layer)).expect("manual driver");
        let generated = session.run(&workload, &plan).expect("generated driver");
        assert!(manual.verified && generated.verified, "{layer}: both must verify");
        println!(
            "{:<24} {:>10.3} {:>14.3} {:>9.2}x",
            layer.label(),
            manual.task_clock_ms,
            generated.task_clock_ms,
            manual.task_clock_ms / generated.task_clock_ms,
        );
    }
    println!("\nNote the fHW = 1 layer: single-element rows defeat the strided-copy");
    println!("optimization, so the generated driver gains little there (paper Fig. 16).");
}

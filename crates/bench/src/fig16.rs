//! Fig. 16: ResNet18 convolution layers, AXI4MLIR vs. manual driver.
//!
//! Per layer, the three metrics normalized to the manual C++ driver.
//! Reproduction targets: AXI4MLIR is faster on layers with `fHW > 1`
//! (contiguous filter rows let the specialized copy engage), while the
//! `fHW == 1` layers show little or no gain — the paper's `56_64_1_128_2`
//! slowdown — because windows of one element degrade to the element-wise
//! path.

use axi4mlir_baselines::conv_driver;
use axi4mlir_core::driver::{CompilePlan, ConvWorkload, Session};
use axi4mlir_support::fmtutil::{fmt_percent, TextTable};
use axi4mlir_workloads::resnet::{resnet18_layers, ConvLayer};

use crate::Scale;

/// One layer's normalized metrics (AXI4MLIR / manual).
#[derive(Clone, Debug)]
pub struct Fig16Row {
    /// The layer.
    pub layer: ConvLayer,
    /// branch-instructions ratio.
    pub branch_ratio: f64,
    /// cache-references ratio.
    pub cache_ratio: f64,
    /// task-clock ratio (< 1 means AXI4MLIR wins).
    pub clock_ratio: f64,
}

/// Layers per scale: the full eleven, or a reduced set spanning both the
/// `fHW = 3` win case and the `fHW = 1` no-win case.
fn layers(scale: Scale) -> Vec<ConvLayer> {
    match scale {
        Scale::Full => resnet18_layers(),
        Scale::Quick => vec![
            // Shrunk spatial extents keep debug runs fast while preserving
            // the channel/filter structure that drives the result.
            ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 3, out_channels: 16, stride: 1 },
            ConvLayer { in_hw: 10, in_channels: 64, filter_hw: 1, out_channels: 16, stride: 2 },
        ],
    }
}

/// Runs the per-layer comparison. Both drivers of a layer run its one
/// workload under its one plan, and all layers drive the same Conv2D
/// device through one shared session.
pub fn rows(scale: Scale) -> Vec<Fig16Row> {
    let mut out = Vec::new();
    let mut session = Session::for_sweep();
    for layer in layers(scale) {
        let workload = ConvWorkload::new(layer);
        let plan = CompilePlan::for_conv_layer(layer);
        let manual = session.run_manual(&workload, &plan, conv_driver(layer)).expect("manual conv");
        assert!(manual.verified, "{layer}: manual driver must verify");
        let generated = session.run(&workload, &plan).expect("generated conv");
        assert!(generated.verified, "{layer}: generated driver must verify");
        out.push(Fig16Row {
            layer,
            branch_ratio: generated.counters.branch_instructions as f64
                / manual.counters.branch_instructions as f64,
            cache_ratio: generated.counters.cache_references as f64
                / manual.counters.cache_references as f64,
            clock_ratio: generated.task_clock_ms / manual.task_clock_ms,
        });
    }
    out
}

/// Renders the figure series.
pub fn render(rows: &[Fig16Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "dims [iHW, iC, fHW, oC, stride]",
        "branch-inst",
        "cache-references",
        "task-clock",
        "speedup",
    ]);
    for r in rows {
        t.row(vec![
            r.layer.label(),
            fmt_percent(r.branch_ratio),
            fmt_percent(r.cache_ratio),
            fmt_percent(r.clock_ratio),
            format!("{:.2}x", 1.0 / r.clock_ratio),
        ]);
    }
    t
}

/// The machine-readable Fig. 16 series.
pub fn report(scale: Scale, rows: &[Fig16Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let mut r = BenchReport::new("fig16").scale(scale);
    for row in rows {
        r.push(
            BenchEntry::new(row.layer.label())
                .metric("branch_ratio", row.branch_ratio)
                .metric("cache_ratio", row.cache_ratio)
                .metric("clock_ratio", row.clock_ratio),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_references_drop_with_wide_filters() {
        let rows = rows(Scale::Quick);
        let wide = rows.iter().find(|r| r.layer.filter_hw == 3).unwrap();
        assert!(wide.cache_ratio < 1.0, "{:.3}", wide.cache_ratio);
    }

    #[test]
    fn render_uses_figure_labels() {
        let text = render(&rows(Scale::Quick)).render();
        assert!(text.contains("task-clock"));
        assert!(text.contains("10_64_3_16_1"));
    }
}

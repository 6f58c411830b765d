//! Table I: the accelerator inventory, with measured throughput.
//!
//! The static columns come from `axi4mlir_accelerators::registry`; the
//! `measured OPs/cycle` column drives one tile product through each model
//! and divides retired OPs by charged compute cycles — the reproduction's
//! analogue of the paper's synthesis reports.

use axi4mlir_accelerators::isa;
use axi4mlir_accelerators::registry::{table1, AcceleratorSpec};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::fmtutil::TextTable;

/// One rendered row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// The spec (type, size, reuse, opcodes, nominal throughput).
    pub spec: AcceleratorSpec,
    /// Throughput measured by driving one tile product.
    pub measured_ops_per_cycle: f64,
}

/// Drives one full tile product through the model and measures OPs/cycle.
fn probe(spec: &AcceleratorSpec) -> f64 {
    let mut accel = spec.device().instantiate();
    let mut counters = PerfCounters::new();
    let n = (spec.size * spec.size) as usize;
    let mut words = Vec::new();
    match spec.version {
        axi4mlir_accelerators::matmul::MatMulVersion::V1 => {
            words.push(isa::OP_FUSED_SABC);
            words.extend(std::iter::repeat_n(1, 2 * n));
        }
        axi4mlir_accelerators::matmul::MatMulVersion::V2 => {
            words.push(isa::OP_SEND_A);
            words.extend(std::iter::repeat_n(1, n));
            words.push(isa::OP_SEND_B);
            words.extend(std::iter::repeat_n(1, n));
            words.push(isa::OP_COMPUTE_READ);
        }
        _ => {
            words.push(isa::OP_SEND_A);
            words.extend(std::iter::repeat_n(1, n));
            words.push(isa::OP_SEND_B);
            words.extend(std::iter::repeat_n(1, n));
            words.push(isa::OP_COMPUTE);
        }
    }
    for w in words {
        accel.consume_word(w, &mut counters);
    }
    let ops = 2 * counters.accel_macs;
    ops as f64 / counters.accel_compute_cycles.max(1) as f64
}

/// Builds all Table I rows.
pub fn rows() -> Vec<Table1Row> {
    table1()
        .into_iter()
        .map(|spec| {
            let measured = probe(&spec);
            Table1Row { spec, measured_ops_per_cycle: measured }
        })
        .collect()
}

/// Renders the table in the paper's column order.
pub fn render(rows: &[Table1Row]) -> TextTable {
    let mut t = TextTable::new(vec![
        "type",
        "possible reuse",
        "opcodes",
        "size",
        "OPs/cycle (paper)",
        "OPs/cycle (measured)",
    ]);
    for r in rows {
        t.row(vec![
            r.spec.version.to_string(),
            r.spec.reuse.to_string(),
            r.spec.opcodes.join(", "),
            r.spec.size.to_string(),
            r.spec.ops_per_cycle.to_string(),
            format!("{:.1}", r.measured_ops_per_cycle),
        ]);
    }
    t
}

/// The machine-readable Table I.
pub fn report(rows: &[Table1Row]) -> crate::report::BenchReport {
    use crate::report::{BenchEntry, BenchReport};
    let mut r = BenchReport::new("table1");
    for row in rows {
        r.push(
            BenchEntry::new(row.spec.device().to_string())
                .metric("size", u64::from(row.spec.size))
                .metric("nominal_ops_per_cycle", u64::from(row.spec.ops_per_cycle))
                .metric("measured_ops_per_cycle", row.measured_ops_per_cycle),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_rows_matching_nominal_throughput() {
        let rows = rows();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            let nominal = f64::from(r.spec.ops_per_cycle);
            let ratio = r.measured_ops_per_cycle / nominal;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "{}: measured {:.1} vs nominal {nominal}",
                r.spec.device(),
                r.measured_ops_per_cycle
            );
        }
    }

    #[test]
    fn render_includes_every_accelerator() {
        let table = render(&rows());
        let text = table.render();
        for name in ["v1", "v2", "v3", "v4"] {
            assert!(text.contains(name));
        }
        assert!(text.contains("sAsBcCrC"));
        assert!(text.contains("Ins/Out (flex size)"));
    }
}

//! The pre-simulation plan audit: `CompilePlan` + candidate → lint
//! verdict.
//!
//! Exploration candidates are cheap to enumerate but expensive to
//! measure; a candidate whose realized accelerator configuration is
//! *statically* broken — an opcode its generation does not decode, a
//! flow referencing an undefined opcode, a tile whose staged transfer
//! overflows the DMA staging regions or is not one its device runs —
//! would abort the simulator mid-sweep. The audit runs the reusable lint checks from
//! [`axi4mlir_dialects::lint`] over the realized [`CompilePlan`] before
//! a candidate is admitted to the measure queue, so such candidates are
//! rejected up front with a `lint::*` code and **zero** simulations
//! spent. [`JobSpec::build`](super::JobSpec::build) applies the same
//! audit at validation time, which is what makes a hub `submit` of an
//! unmeasurable job fail immediately instead of mid-sweep.

use axi4mlir_config::AcceleratorConfig;
use axi4mlir_dialects::lint;
use axi4mlir_support::diag::Diagnostic;

use crate::driver::CompilePlan;

use super::space::{Candidate, DesignSpace, Fidelity};

/// The tile footprint (in words) of each data argument: the product of
/// the accelerator tile sizes over the dimensions the argument uses.
/// Untiled dimensions (size 0, the conv convention) make the footprint
/// unknown, which skips the capacity check for that argument.
fn operand_footprints(config: &AcceleratorConfig) -> Vec<Option<i64>> {
    let tile_of = |dim: &str| -> Option<i64> {
        config
            .dims
            .iter()
            .position(|d| d == dim)
            .and_then(|i| config.accel_dims.get(i).copied())
            .filter(|&t| t > 0)
    };
    config
        .data
        .iter()
        .map(|(_, dims)| {
            dims.iter().try_fold(1i64, |acc, dim| tile_of(dim).map(|t| acc.saturating_mul(t)))
        })
        .collect()
}

/// Audits one accelerator configuration: ISA legality of its opcode
/// map, opcode references of the selected flow and the init opcodes,
/// per-opcode staged transfer sizes against the DMA staging regions,
/// and the tile against what the device runs.
///
/// # Errors
///
/// Returns the first finding as a [`Diagnostic`] carrying its `lint::*`
/// code.
fn audit_config(config: &AcceleratorConfig) -> Result<(), Diagnostic> {
    let mut findings = lint::check_isa(config.device, &config.opcode_map);
    if let Some(flow) = config.flow(&config.selected_flow) {
        let what = format!("flow `{}`", config.selected_flow);
        findings.extend(lint::check_flow_refs(&config.opcode_map, flow, &what));
    }
    for opcode in &config.init_opcodes {
        if config.opcode_map.get(opcode).is_none() {
            findings.push(
                Diagnostic::error(format!("init opcode `{opcode}` is not defined"))
                    .with_code(lint::LINT_FLOW_LEGAL),
            );
        }
    }
    let footprints = operand_footprints(config);
    findings.extend(lint::check_fifo(
        &config.opcode_map,
        &footprints,
        config.dma.input_buffer_size,
        config.dma.output_buffer_size,
    ));
    findings.extend(lint::check_tile(config.device, &config.accel_dims));
    match findings.into_iter().next() {
        Some(first) => Err(first),
        None => Ok(()),
    }
}

/// Audits a compile plan. Plans without an accelerator (the CPU
/// baseline) are trivially clean.
///
/// # Errors
///
/// See [`audit_config`].
fn audit_plan(plan: &CompilePlan) -> Result<(), Diagnostic> {
    match &plan.config {
        Some(config) => audit_config(config),
        None => Ok(()),
    }
}

/// Audits one exploration candidate by realizing it (at full fidelity —
/// realization builds the plan, it does not simulate) and auditing the
/// realized plan.
///
/// # Errors
///
/// Returns the realization error for candidates foreign to the space,
/// or the first lint finding (with its `lint::*` code) for candidates
/// whose plan is statically broken.
pub fn audit_candidate(space: &dyn DesignSpace, candidate: &Candidate) -> Result<(), Diagnostic> {
    // Enumerated under a user-set budget: this audit's finding, not a foreign key.
    if let Some(("tile", must)) = candidate.key.defect() {
        let finding = format!("{}: tile {must}", candidate.label());
        return Err(Diagnostic::error(finding).with_code(lint::LINT_FIFO_CAPACITY));
    }
    audit_plan(&space.realize(candidate, Fidelity::Full)?.plan)
}

/// Audits a whole space: `Ok` as soon as one candidate passes (the
/// sweep will count the rest), `Err` with the first finding when every
/// candidate fails — such a space can never measure anything. Empty
/// spaces and spaces that fail to enumerate are left for the sweep to
/// diagnose.
///
/// # Errors
///
/// Returns the first candidate's lint [`Diagnostic`] when no candidate
/// survives the audit.
pub(crate) fn audit_space(space: &dyn DesignSpace) -> Result<(), Diagnostic> {
    let Ok(candidates) = space.enumerate() else { return Ok(()) };
    let mut first = None;
    for candidate in &candidates {
        match audit_candidate(space, candidate) {
            Ok(()) => return Ok(()),
            Err(finding) => first = first.or(Some(finding)),
        }
    }
    match first {
        Some(finding) => Err(finding),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::MatMulVersion;
    use axi4mlir_workloads::matmul::MatMulProblem;

    use crate::explore::space::{AccelInstance, MatMulSpace};

    #[test]
    fn every_preset_is_audit_clean() {
        for (version, size) in [
            (MatMulVersion::V1, 4),
            (MatMulVersion::V2, 8),
            (MatMulVersion::V3, 16),
            (MatMulVersion::V4, 16),
        ] {
            let config = AcceleratorConfig::matmul(version, size);
            audit_config(&config).unwrap_or_else(|d| panic!("{}: {}", config.device, d.message));
        }
        audit_config(&AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, 8, (16, 8, 24)))
            .unwrap();
    }

    #[test]
    fn oversized_tiles_fail_the_fifo_audit() {
        // A 256x8x256 tile stages 256*256 = 65536 words = 262144 bytes
        // of A per `sA`, far past the 0xFF00-byte staging region.
        let config = AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, 256, (256, 8, 256));
        let err = audit_config(&config).unwrap_err();
        assert_eq!(err.code.as_deref(), Some(lint::LINT_FIFO_CAPACITY), "{}", err.message);
        assert!(err.message.contains("staging region"), "{}", err.message);
    }

    #[test]
    fn tiles_past_the_device_tile_memory_fail_the_audit() {
        // Each 64x64 operand stages 4096 words = 16 KiB, well inside the
        // staging regions — but the three together need 12288 words, past
        // the v4 device's 10240-word tile memory, so `cfg_dims` would be
        // rejected and the sweep would hang the bus.
        let config = AcceleratorConfig::matmul_with_tile(MatMulVersion::V4, 16, (64, 64, 64));
        let err = audit_config(&config).unwrap_err();
        assert_eq!(err.code.as_deref(), Some(lint::LINT_FIFO_CAPACITY), "{}", err.message);
        assert!(err.message.contains("tile memory"), "{}", err.message);
    }

    #[test]
    fn undefined_init_opcodes_fail_the_flow_audit() {
        let mut config = AcceleratorConfig::matmul(MatMulVersion::V4, 8);
        config.init_opcodes.push("warmup".to_owned());
        let err = audit_config(&config).unwrap_err();
        assert_eq!(err.code.as_deref(), Some(lint::LINT_FLOW_LEGAL), "{}", err.message);
        assert!(err.message.contains("warmup"), "{}", err.message);
    }

    #[test]
    fn cpu_plans_are_trivially_clean() {
        audit_plan(&CompilePlan::cpu()).unwrap();
    }

    #[test]
    fn space_audit_fails_only_when_nothing_survives() {
        // Mixed space: small tiles pass, the whole-dimension tile fails.
        let mixed = MatMulSpace::new(MatMulProblem::new(256, 8, 256))
            .accels(vec![AccelInstance::v4(8)])
            .capacity_words(80_000);
        audit_space(&mixed).unwrap();
        // A base-256 instance admits only the oversized tile.
        let hopeless = MatMulSpace::new(MatMulProblem::new(256, 8, 256))
            .accels(vec![AccelInstance::v4(256)])
            .capacity_words(80_000);
        let err = audit_space(&hopeless).unwrap_err();
        assert_eq!(err.code.as_deref(), Some(lint::LINT_FIFO_CAPACITY), "{}", err.message);
    }
}

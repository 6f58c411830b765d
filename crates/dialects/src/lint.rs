//! Lint passes: static checks for what lowering *assumes*.
//!
//! The dialect verifier (`crate::verify`) checks that ops are well-formed in
//! isolation. The lints here check the cross-cutting assumptions the
//! host/accelerator code generation makes but never states:
//!
//! | code | checks |
//! |------|--------|
//! | [`LINT_ISA_OPCODE`] | `accel_name` names a modelled device and that device decodes every `opcode_map` instruction literal |
//! | [`LINT_FLOW_LEGAL`] | `opcode_flow`/`init_opcodes` reference only defined opcodes |
//! | [`LINT_DMA_BOUNDS`] | subview extents stay inside the source memref (integer-range analysis over the offsets) |
//! | [`LINT_FIFO_CAPACITY`] | per-opcode staged bytes fit the DMA staging regions, and `accel_dim` is a tile the `accel_name` device runs ([`Device::tile_defect`]) |
//! | [`LINT_DEAD_ANNOTATION`] | accelerator annotations sit on live ops and form a complete, fully-referenced set |
//! | [`LINT_SHAPE_TILE`] | `accel_dim` tiles divide the `linalg` operand shapes they tile |
//!
//! Every diagnostic carries the machine-readable code (rendered as
//! `error[lint::...]:`) and an op path like `func.func(main)/scf.for#1`, so
//! tooling — the explorer's plan audit, the hub's `submit` validation — can
//! key on the violation class without parsing prose.

use axi4mlir_accelerators::Device;
use axi4mlir_ir::affine::AffineExpr;
use axi4mlir_ir::analysis::{integer_ranges, IntRange, Liveness, ValueTable};
use axi4mlir_ir::attrs::{Attribute, OpcodeAction, OpcodeFlow, OpcodeMap};
use axi4mlir_ir::ops::{IrCtx, OpId};
use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};

/// Instruction literal the named device does not decode, or no such device.
pub const LINT_ISA_OPCODE: &str = "lint::isa-opcode";
/// Flow or `init_opcodes` references an opcode the map does not define.
pub const LINT_FLOW_LEGAL: &str = "lint::flow-legal";
/// Statically-known out-of-range or underflow DMA burst.
pub const LINT_DMA_BOUNDS: &str = "lint::dma-bounds";
/// Staged transfer past a DMA staging region, or a tile the device does not run.
pub const LINT_FIFO_CAPACITY: &str = "lint::fifo-capacity";
/// Accelerator annotation that can never drive codegen.
pub const LINT_DEAD_ANNOTATION: &str = "lint::dead-annotation";
/// `accel_dim` tile incompatible with a `linalg` operand shape.
pub const LINT_SHAPE_TILE: &str = "lint::shape-tile";

/// A `/`-separated path from the root to `op`, e.g.
/// `func.func(matmul_call)/scf.for#1/linalg.generic#0`. Symbol-carrying ops
/// show their name; others show their position in the parent block.
fn op_path(ctx: &IrCtx, op: OpId) -> String {
    let mut segments = Vec::new();
    let mut cursor = Some(op);
    while let Some(current) = cursor {
        let data = ctx.op(current);
        cursor = data.parent.and_then(|b| ctx.block(b).parent).and_then(|r| ctx.region(r).parent);
        if cursor.is_none() && data.name == "builtin.module" {
            break;
        }
        let segment = match ctx.attr(current, "sym_name").and_then(|a| a.as_str()) {
            Some(sym) => format!("{}({sym})", data.name),
            None => match data.parent.map(|b| &ctx.block(b).ops) {
                Some(ops) => {
                    let pos = ops.iter().position(|o| *o == current).unwrap_or(0);
                    format!("{}#{pos}", data.name)
                }
                None => data.name.to_string(),
            },
        };
        segments.push(segment);
    }
    segments.reverse();
    segments.join("/")
}

fn lint_err(diags: &mut DiagnosticEngine, code: &str, path: &str, msg: impl Into<String>) {
    diags.emit(Diagnostic::error(format!("{path}: {}", msg.into())).with_code(code));
}

fn lint_warn(diags: &mut DiagnosticEngine, code: &str, path: &str, msg: impl Into<String>) {
    diags.emit(Diagnostic::warning(format!("{path}: {}", msg.into())).with_code(code));
}

// ---------------------------------------------------------------------
// Reusable checks (shared with the explorer's plan audit)
// ---------------------------------------------------------------------

/// Checks every opcode's instruction literal (the leading `send_literal`)
/// against what `device` decodes.
pub fn check_isa(device: Device, map: &OpcodeMap) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, actions) in map.iter() {
        let Some(OpcodeAction::SendLiteral { value }) = actions.first() else {
            continue;
        };
        if !device.decodes(*value) {
            out.push(
                Diagnostic::error(format!(
                    "opcode `{name}` sends instruction literal {value:#x} which accelerator \
                     `{device}` does not decode"
                ))
                .with_code(LINT_ISA_OPCODE),
            );
        }
    }
    out
}

/// Checks that every opcode referenced by `flow` is defined in `map`.
pub fn check_flow_refs(map: &OpcodeMap, flow: &OpcodeFlow, what: &str) -> Vec<Diagnostic> {
    flow.opcode_names()
        .into_iter()
        .filter(|name| map.get(name).is_none())
        .map(|name| {
            Diagnostic::error(format!("{what} references undefined opcode `{name}`"))
                .with_code(LINT_FLOW_LEGAL)
        })
        .collect()
}

/// Checks the per-opcode staged transfer sizes against the DMA staging
/// regions. `footprints[arg]` is the tile size of data argument `arg` in
/// words; an argument with unknown footprint is skipped.
pub fn check_fifo(
    map: &OpcodeMap,
    footprints: &[Option<i64>],
    input_bytes: u64,
    output_bytes: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, actions) in map.iter() {
        let (mut send_words, mut recv_words) = (0i64, 0i64);
        let mut known = true;
        for action in actions {
            match action {
                OpcodeAction::SendLiteral { .. }
                | OpcodeAction::SendDim { .. }
                | OpcodeAction::SendIdx { .. } => send_words += 1,
                OpcodeAction::Send { arg } => {
                    match footprints.get(*arg as usize).copied().flatten() {
                        Some(words) => send_words += words,
                        None => known = false,
                    }
                }
                OpcodeAction::Recv { arg } => {
                    match footprints.get(*arg as usize).copied().flatten() {
                        Some(words) => recv_words += words,
                        None => known = false,
                    }
                }
            }
        }
        if !known {
            continue;
        }
        let send_bytes = send_words.saturating_mul(4) as u64;
        let recv_bytes = recv_words.saturating_mul(4) as u64;
        if send_bytes > input_bytes {
            out.push(
                Diagnostic::error(format!(
                    "opcode `{name}` stages {send_bytes} bytes but the input staging region \
                     holds {input_bytes} bytes"
                ))
                .with_code(LINT_FIFO_CAPACITY),
            );
        }
        if recv_bytes > output_bytes {
            out.push(
                Diagnostic::error(format!(
                    "opcode `{name}` receives {recv_bytes} bytes but the output staging region \
                     holds {output_bytes} bytes"
                ))
                .with_code(LINT_FIFO_CAPACITY),
            );
        }
    }
    out
}

/// Checks an `accel_dim` tile against what `device` runs
/// ([`Device::tile_defect`]): handed any other, it keeps the tile it has
/// (v4 rejects the `cfg_dims`) and the host's transfers hang the bus.
pub fn check_tile(device: Device, tile: &[i64]) -> Option<Diagnostic> {
    let finding =
        format!("`accel_dim` {tile:?} {} (accelerator `{device}`)", device.tile_defect(tile)?);
    Some(Diagnostic::error(finding).with_code(LINT_FIFO_CAPACITY))
}

// ---------------------------------------------------------------------
// IR-level lints
// ---------------------------------------------------------------------

/// The annotation attributes codegen consumes as one unit.
const ANNOTATION_KEYS: [&str; 6] =
    ["accel_name", "accel_dim", "dma_init_config", "opcode_map", "opcode_flow", "init_opcodes"];

fn dma_dict_u64(dict: &std::collections::BTreeMap<String, Attribute>, key: &str) -> Option<u64> {
    dict.get(key).and_then(Attribute::as_int).and_then(|v| u64::try_from(v).ok())
}

/// The tile footprint (in words) of each `linalg` operand: the product of
/// the operand's indexing map evaluated at the `accel_dim` tile sizes.
/// Dimensions the accelerator does not tile (size 0, the conv convention)
/// make the footprint unknown.
fn operand_footprints(ctx: &IrCtx, op: OpId, tiles: &[i64]) -> Vec<Option<i64>> {
    let Some(maps) = ctx.attr(op, "indexing_maps").and_then(Attribute::as_array) else {
        return Vec::new();
    };
    maps.iter()
        .map(|attr| {
            let map = attr.as_map()?;
            if map.num_dims() != tiles.len() {
                return None;
            }
            let extents = map.eval(tiles);
            if extents.iter().any(|e| *e <= 0) {
                return None;
            }
            Some(extents.iter().product())
        })
        .collect()
}

fn lint_annotated_op(ctx: &IrCtx, op: OpId, liveness: &Liveness, diags: &mut DiagnosticEngine) {
    let path = op_path(ctx, op);
    let present: Vec<&str> =
        ANNOTATION_KEYS.iter().copied().filter(|k| ctx.attr(op, k).is_some()).collect();

    // Dead/unreachable annotation: the op the annotations ride on never
    // executes or its results are never observed, so codegen would emit an
    // accelerator call nothing reads.
    if !liveness.op_is_live(ctx, op) {
        lint_err(
            diags,
            LINT_DEAD_ANNOTATION,
            &path,
            "accelerator annotations on a dead op (no side effects, results unused)",
        );
    }

    // Incomplete annotation sets can never drive codegen.
    for required in ["accel_name", "opcode_map", "opcode_flow"] {
        if !present.contains(&required) {
            lint_err(
                diags,
                LINT_DEAD_ANNOTATION,
                &path,
                format!(
                    "annotation set {{{}}} is missing `{required}`; lowering ignores it",
                    present.join(", ")
                ),
            );
        }
    }

    let map = ctx.attr(op, "opcode_map").and_then(Attribute::as_opcodes);
    let flow = ctx.attr(op, "opcode_flow").and_then(Attribute::as_flow);
    let init = ctx.attr(op, "init_opcodes").and_then(Attribute::as_flow);
    // Where an `accel_name` attribute becomes a device, or is refused.
    let name = ctx.attr(op, "accel_name").and_then(Attribute::as_str);
    let device = name.and_then(Device::parse);
    if let (Some(name), None) = (name, device) {
        lint_err(
            diags,
            LINT_ISA_OPCODE,
            &path,
            format!("accelerator `{name}` names no modelled device, its opcodes cannot be checked"),
        );
    }

    if let Some(map) = map {
        // Flow legality: every reference resolves.
        if let Some(flow) = flow {
            for d in check_flow_refs(map, flow, "opcode_flow") {
                diags.emit(prefix_path(d, &path));
            }
        }
        if let Some(init) = init {
            for d in check_flow_refs(map, init, "init_opcodes") {
                diags.emit(prefix_path(d, &path));
            }
        }
        // ISA legality of the instruction literals.
        if let Some(device) = device {
            for d in check_isa(device, map) {
                diags.emit(prefix_path(d, &path));
            }
        }
        // Opcodes defined but never emitted are dead annotations.
        let mut referenced: Vec<&str> = Vec::new();
        referenced.extend(flow.map(OpcodeFlow::opcode_names).unwrap_or_default());
        referenced.extend(init.map(OpcodeFlow::opcode_names).unwrap_or_default());
        for (opcode, _) in map.iter() {
            if !referenced.contains(&opcode) {
                lint_warn(
                    diags,
                    LINT_DEAD_ANNOTATION,
                    &path,
                    format!("opcode `{opcode}` is defined but referenced by no flow"),
                );
            }
        }
    }

    // Tile-dependent checks need the accel_dim tile sizes.
    let Some(dim_map) = ctx.attr(op, "accel_dim").and_then(Attribute::as_map) else {
        return;
    };
    let tiles = dim_map.eval(&vec![0; dim_map.num_dims()]);
    let footprints = operand_footprints(ctx, op, &tiles);

    // FIFO capacity vs. the tile footprint each opcode moves.
    if let (Some(map), Some(Attribute::Dict(dma))) = (map, ctx.attr(op, "dma_init_config")) {
        if let (Some(input), Some(output)) =
            (dma_dict_u64(dma, "inputBufferSize"), dma_dict_u64(dma, "outputBufferSize"))
        {
            for d in check_fifo(map, &footprints, input, output) {
                diags.emit(prefix_path(d, &path));
            }
        }
    }

    // The tile vs. what the named device runs.
    if let Some(d) = device.and_then(|device| check_tile(device, &tiles)) {
        diags.emit(prefix_path(d, &path));
    }

    // Shape compatibility: each tiled dimension must divide the operand
    // extent it tiles, or the strip-mined loop nest leaves a remainder the
    // accelerator cannot process.
    if let Some(maps) = ctx.attr(op, "indexing_maps").and_then(Attribute::as_array) {
        for (index, (attr, operand)) in maps.iter().zip(&ctx.op(op).operands).enumerate() {
            let Some(imap) = attr.as_map() else { continue };
            let Some(mr) = ctx.value_type(*operand).as_memref() else { continue };
            if imap.num_dims() != tiles.len() || imap.num_results() != mr.rank() {
                continue;
            }
            for (result, expr) in imap.results.iter().enumerate() {
                let AffineExpr::Dim(d) = expr else { continue };
                let tile = tiles[*d];
                let extent = mr.shape[result];
                if tile <= 0 || extent < 0 {
                    continue;
                }
                if tile > extent || extent % tile != 0 {
                    lint_err(
                        diags,
                        LINT_SHAPE_TILE,
                        &path,
                        format!(
                            "tile {tile} for `{}` must divide operand #{index} extent {extent}",
                            dim_map.dim_names.get(*d).map_or("?", String::as_str)
                        ),
                    );
                }
            }
        }
    }
}

fn prefix_path(mut d: Diagnostic, path: &str) -> Diagnostic {
    d.message = format!("{path}: {}", d.message);
    d
}

/// DMA bounds: a `memref.subview` whose *minimum* offset plus static size
/// already exceeds the source extent is out of range on every execution;
/// integer-range analysis bounds the offsets (loop induction variables
/// included).
fn lint_subview(
    ctx: &IrCtx,
    op: OpId,
    ranges: &ValueTable<IntRange>,
    diags: &mut DiagnosticEngine,
) {
    let data = ctx.op(op);
    let Some(mr) = data.operands.first().and_then(|v| ctx.value_type(*v).as_memref()) else {
        return;
    };
    let Some(sizes) = ctx.attr(op, "static_sizes").and_then(Attribute::as_array) else {
        return;
    };
    let path = op_path(ctx, op);
    for (dim, size_attr) in sizes.iter().enumerate() {
        let Some(size) = size_attr.as_int() else { continue };
        if size <= 0 {
            lint_err(
                diags,
                LINT_DMA_BOUNDS,
                &path,
                format!("dimension {dim}: static size {size} underflows the transfer"),
            );
            continue;
        }
        let Some(extent) = mr.shape.get(dim).copied().filter(|e| *e >= 0) else { continue };
        let Some(offset) = data.operands.get(1 + dim) else { continue };
        let Some((lo, hi)) = ranges.get(*offset).bounds() else { continue };
        if hi < 0 {
            lint_err(
                diags,
                LINT_DMA_BOUNDS,
                &path,
                format!("dimension {dim}: offset is always negative (at most {hi})"),
            );
        } else if lo != i64::MIN && lo.saturating_add(size) > extent {
            lint_err(
                diags,
                LINT_DMA_BOUNDS,
                &path,
                format!(
                    "dimension {dim}: minimum offset {lo} + size {size} exceeds source \
                     extent {extent}"
                ),
            );
        }
    }
}

/// Runs the full lint suite over the subtree at `root`, accumulating into
/// `diags`.
///
/// # Errors
///
/// Returns the first error-severity lint (warnings alone stay `Ok`); all
/// findings remain in `diags`.
pub fn lint_module(
    ctx: &IrCtx,
    root: OpId,
    diags: &mut DiagnosticEngine,
) -> Result<(), Diagnostic> {
    let liveness = Liveness::compute(ctx, root);
    let ranges = integer_ranges(ctx, root);
    for op in ctx.walk(root) {
        let annotated = ANNOTATION_KEYS.iter().any(|k| ctx.attr(op, k).is_some());
        if annotated {
            lint_annotated_op(ctx, op, &liveness, diags);
        }
        if ctx.op(op).name == "memref.subview" {
            lint_subview(ctx, op, &ranges, diags);
        }
    }
    diags.result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, func, linalg, memref};
    use axi4mlir_ir::affine::AffineMap;
    use axi4mlir_ir::ops::Module;
    use axi4mlir_ir::types::Type;
    use std::collections::BTreeMap;

    /// An annotated matmul module in the shape the annotate pass produces:
    /// square `dim x dim` operands, v1-style fused opcode map, tile size
    /// `tile` in every dimension.
    fn annotated_matmul(dim: i64, tile: i64, accel_name: &str, map_text: &str) -> (Module, OpId) {
        let mut m = Module::new();
        let f = func::func(&mut m, "matmul_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![dim, dim], Type::i32());
        let bb = memref::alloc(&mut b, vec![dim, dim], Type::i32());
        let c = memref::alloc(&mut b, vec![dim, dim], Type::i32());
        let op = linalg::generic_matmul(&mut b, a, bb, c);
        annotate(&mut m, op, accel_name, map_text, tile);
        (m, op)
    }

    fn annotate(m: &mut Module, op: OpId, accel_name: &str, map_text: &str, tile: i64) {
        let map = OpcodeMap::parse(map_text).unwrap();
        let flow_name = map.iter().next().unwrap().0.to_owned();
        let flow = OpcodeFlow::parse(&format!("({flow_name})")).unwrap();
        let init = OpcodeFlow::parse("(reset)").unwrap();
        let names: Vec<String> = ["m", "n", "k"].iter().map(|s| (*s).to_owned()).collect();
        let accel_dim = AffineMap::new(names, (0..3).map(|_| AffineExpr::Const(tile)).collect());
        let mut dma = BTreeMap::new();
        dma.insert("id".to_owned(), Attribute::Int(0));
        dma.insert("inputAddress".to_owned(), Attribute::Int(0x42));
        dma.insert("inputBufferSize".to_owned(), Attribute::Int(0xFF00));
        dma.insert("outputAddress".to_owned(), Attribute::Int(0xFF42));
        dma.insert("outputBufferSize".to_owned(), Attribute::Int(0xFF00));
        m.ctx.set_attr(op, "accel_name", Attribute::Str(accel_name.to_owned()));
        m.ctx.set_attr(op, "accel_dim", Attribute::Map(accel_dim));
        m.ctx.set_attr(op, "dma_init_config", Attribute::Dict(dma));
        m.ctx.set_attr(op, "opcode_map", Attribute::Opcodes(map));
        m.ctx.set_attr(op, "opcode_flow", Attribute::Flow(flow));
        m.ctx.set_attr(op, "init_opcodes", Attribute::Flow(init));
    }

    const V1_MAP: &str = "opcode_map<sAsBcCrC = [send_literal(32), send(0), send(1), recv(2)], \
         reset = [send_literal(255)]>";

    fn lint(m: &Module) -> DiagnosticEngine {
        let mut diags = DiagnosticEngine::new();
        let _ = lint_module(&m.ctx, m.top(), &mut diags);
        diags
    }

    fn codes(diags: &DiagnosticEngine) -> Vec<&str> {
        diags.diagnostics().iter().filter_map(|d| d.code.as_deref()).collect()
    }

    #[test]
    fn clean_annotated_matmul_lints_clean() {
        let (m, _) = annotated_matmul(8, 4, "v1_4", V1_MAP);
        let diags = lint(&m);
        assert!(!diags.has_errors(), "{}", diags.render());
    }

    #[test]
    fn isa_violation_gets_the_isa_code() {
        // sA's literal 0x22 is only decoded by v2+; annotating a v1
        // accelerator with it is a flow-legality bug caught statically.
        let split_map = "opcode_map<sA = [send_literal(34), send(0)], \
                         reset = [send_literal(255)]>";
        let (m, _) = annotated_matmul(8, 4, "v1_4", split_map);
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_ISA_OPCODE), "{}", diags.render());
        let msg = diags.render();
        assert!(msg.contains("`v1_4` does not decode"), "{msg}");
    }

    #[test]
    fn undefined_flow_opcode_gets_the_flow_code() {
        let (mut m, op) = annotated_matmul(8, 4, "v1_4", V1_MAP);
        let flow = OpcodeFlow::parse("(sX)").unwrap();
        m.ctx.set_attr(op, "opcode_flow", Attribute::Flow(flow));
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_FLOW_LEGAL), "{}", diags.render());
        assert!(diags.render().contains("undefined opcode `sX`"));
    }

    #[test]
    fn oversized_tile_overflows_the_staging_region() {
        // A 128x128 tile of i32 is 64 KiB per operand; the Fig. 6a staging
        // regions hold 0xFF00 bytes.
        let (m, _) = annotated_matmul(256, 128, "v1_4", V1_MAP);
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_FIFO_CAPACITY), "{}", diags.render());
        assert!(diags.render().contains("staging region"), "{}", diags.render());
    }

    #[test]
    fn annotations_on_a_dead_op_are_flagged() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let x = arith::const_i32(&mut b, 1);
        let y = arith::const_i32(&mut b, 2);
        let dead = b.insert_op("arith.addi", vec![x, y], vec![Type::i32()], []);
        annotate(&mut m, dead, "v1_4", V1_MAP, 4);
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_DEAD_ANNOTATION), "{}", diags.render());
        assert!(diags.render().contains("dead op"), "{}", diags.render());
    }

    #[test]
    fn incomplete_annotation_set_is_flagged() {
        let (mut m, op) = annotated_matmul(8, 4, "v1_4", V1_MAP);
        m.ctx.op_mut(op).attrs.remove("opcode_map");
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_DEAD_ANNOTATION), "{}", diags.render());
        assert!(diags.render().contains("missing `opcode_map`"), "{}", diags.render());
    }

    #[test]
    fn unreferenced_opcode_is_a_dead_annotation_warning() {
        let extra_map = "opcode_map<sAsBcCrC = [send_literal(32), send(0), send(1), recv(2)], \
                         reset = [send_literal(255)], cC = [send_literal(240)]>";
        let (m, _) = annotated_matmul(8, 4, "v3_4", extra_map);
        let diags = lint(&m);
        // Warning, not error: the map entry is legal, just unused. But the
        // fused literal 0x20 is v1-only, so v3 also gets an ISA error here.
        assert!(diags.render().contains("referenced by no flow"), "{}", diags.render());
    }

    #[test]
    fn indivisible_tile_gets_the_shape_code() {
        let (m, _) = annotated_matmul(8, 3, "v1_4", V1_MAP);
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_SHAPE_TILE), "{}", diags.render());
        assert!(diags.render().contains("must divide operand"), "{}", diags.render());
    }

    #[test]
    fn out_of_range_subview_gets_the_dma_code() {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let src = memref::alloc(&mut b, vec![8, 8], Type::i32());
        let c6 = arith::const_index(&mut b, 6);
        let c0 = arith::const_index(&mut b, 0);
        // Offset 6 + size 4 > extent 8 in dimension 0.
        let view = memref::subview(&mut b, src, vec![c6, c0], vec![4, 4]);
        let z = arith::const_i32(&mut b, 0);
        crate::accel::send(&mut b, view, z, true);
        let diags = lint(&m);
        assert!(codes(&diags).contains(&LINT_DMA_BOUNDS), "{}", diags.render());
        assert!(diags.render().contains("exceeds source extent 8"), "{}", diags.render());
    }

    #[test]
    fn loop_bounded_subview_lints_clean() {
        use crate::scf;
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let src = memref::alloc(&mut b, vec![64, 64], Type::i32());
        let lb = arith::const_index(&mut b, 0);
        let ub = arith::const_index(&mut b, 64);
        let step = arith::const_index(&mut b, 4);
        let l = scf::for_loop(&mut b, lb, ub, step);
        let mut bb = scf::body_builder(&mut m.ctx, &l);
        // iv in [0, 63]; worst case 63 + 4 > 64, but the *minimum* offset is
        // fine, so this is not statically-known out of range.
        let view = memref::subview(&mut bb, src, vec![l.iv, lb], vec![4, 4]);
        let z = arith::const_i32(&mut bb, 0);
        crate::accel::send(&mut bb, view, z, true);
        let diags = lint(&m);
        assert!(!diags.has_errors(), "{}", diags.render());
    }

    #[test]
    fn op_paths_name_functions_and_positions() {
        let (m, op) = annotated_matmul(8, 4, "v1_4", V1_MAP);
        let path = op_path(&m.ctx, op);
        assert_eq!(path, "func.func(matmul_call)/linalg.generic#3");
    }
}

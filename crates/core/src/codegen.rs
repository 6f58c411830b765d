//! Steps 4 & 5a: tiled loop-nest generation with flow-directed `accel` op
//! placement.
//!
//! [`GenerateAccelDriverPass`] rewrites every annotated `linalg` op into the
//! Fig. 6b / Fig. 15b shape: `accel.dma_init` + `init_opcodes` once, then
//! the (cache- and accelerator-) tiled `scf.for` nest with `memref.subview`s
//! at the depth their dimensions become available and the `accel` ops of
//! each opcode placed at the depth the `opcode_flow` dictates.

use axi4mlir_config::KernelKind;
use axi4mlir_dialects::{accel, arith, linalg, memref, scf};
use axi4mlir_ir::attrs::{Attribute, OpcodeAction, OpcodeFlow, OpcodeMap};
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::ops::{IrCtx, Module, OpId, ValueId};
use axi4mlir_ir::pass::Pass;
use axi4mlir_ir::types::Type;
use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};

use crate::plan::{self, LoopPlan, OffsetExpr, PlacedOpcode, Position};

/// Rewrites annotated linalg ops into accelerator driver code.
///
/// With `coalesce` enabled (the paper's §V future-work optimization), all
/// opcodes placed at the same loop site batch their staged words into a
/// single `dma_start_send`/`wait` pair per receive boundary, instead of one
/// transaction per opcode.
#[derive(Debug, Default)]
pub struct GenerateAccelDriverPass {
    coalesce: bool,
}

impl GenerateAccelDriverPass {
    /// Creates the pass; `coalesce` batches same-site transfers.
    pub(crate) fn new(coalesce: bool) -> Self {
        Self { coalesce }
    }
}

impl Pass for GenerateAccelDriverPass {
    fn name(&self) -> &str {
        "axi4mlir-generate-driver"
    }

    fn run(
        &mut self,
        module: &mut Module,
        _diags: &mut DiagnosticEngine,
    ) -> Result<(), Diagnostic> {
        let top = module.top();
        let annotated: Vec<OpId> = module
            .ctx
            .walk(top)
            .into_iter()
            .filter(|op| {
                module.ctx.op(*op).kind.is_linalg() && module.ctx.attr(*op, "opcode_flow").is_some()
            })
            .collect();
        if annotated.is_empty() {
            return Err(Diagnostic::error("no annotated linalg operation to rewrite"));
        }
        for op in annotated {
            rewrite_one(&mut module.ctx, op, self.coalesce)?;
        }
        Ok(())
    }
}

/// Everything read back from the Fig. 6a trait attributes.
struct Trait {
    opcode_map: OpcodeMap,
    flow: OpcodeFlow,
    init_opcodes: Vec<String>,
    accel_dims: Vec<i64>,
    permutation: Option<Vec<usize>>,
    dma: [i64; 5],
    cache_tile: Option<i64>,
}

fn read_trait(ctx: &IrCtx, op: OpId) -> Result<Trait, Diagnostic> {
    let attr_err = |name: &str| Diagnostic::error(format!("annotated op is missing `{name}`"));
    let opcode_map = ctx
        .attr(op, "opcode_map")
        .and_then(|a| a.as_opcodes())
        .ok_or_else(|| attr_err("opcode_map"))?
        .clone();
    let flow = ctx
        .attr(op, "opcode_flow")
        .and_then(|a| a.as_flow())
        .ok_or_else(|| attr_err("opcode_flow"))?
        .clone();
    let init_opcodes = ctx
        .attr(op, "init_opcodes")
        .and_then(|a| a.as_flow())
        .map(|f| f.opcode_names().into_iter().map(str::to_owned).collect())
        .unwrap_or_default();
    let accel_dim_map =
        ctx.attr(op, "accel_dim").and_then(|a| a.as_map()).ok_or_else(|| attr_err("accel_dim"))?;
    let zeros = vec![0i64; accel_dim_map.num_dims()];
    let accel_dims = accel_dim_map.eval(&zeros);
    let permutation = match ctx.attr(op, "permutation_map").and_then(|a| a.as_map()) {
        Some(map) => Some(
            map.as_permutation()
                .ok_or_else(|| Diagnostic::error("permutation_map must be a pure permutation"))?,
        ),
        None => None,
    };
    let dma_dict = ctx
        .attr(op, "dma_init_config")
        .and_then(|a| match a {
            Attribute::Dict(d) => Some(d),
            _ => None,
        })
        .ok_or_else(|| attr_err("dma_init_config"))?;
    let dma_field = |key: &str| {
        dma_dict
            .get(key)
            .and_then(Attribute::as_int)
            .ok_or_else(|| Diagnostic::error(format!("dma_init_config is missing `{key}`")))
    };
    let dma = [
        dma_field("id")?,
        dma_field("inputAddress")?,
        dma_field("inputBufferSize")?,
        dma_field("outputAddress")?,
        dma_field("outputBufferSize")?,
    ];
    let cache_tile = ctx.attr(op, "cache_tile").and_then(|a| a.as_int());
    Ok(Trait { opcode_map, flow, init_opcodes, accel_dims, permutation, dma, cache_tile })
}

fn rewrite_one(ctx: &mut IrCtx, op: OpId, coalesce: bool) -> Result<(), Diagnostic> {
    let tr = read_trait(ctx, op)?;
    let operands = ctx.op(op).operands.clone();
    // A MatMul is annotated as a `linalg.generic`, which names no kernel.
    let kernel = KernelKind::from_op_kind(&ctx.op(op).kind).unwrap_or(KernelKind::MatMul);
    let plan = match kernel {
        KernelKind::MatMul => {
            let (m, n, k) = linalg::matmul_dims(ctx, op).ok_or_else(|| {
                Diagnostic::error("annotated op does not have static MatMul shapes")
            })?;
            if tr.accel_dims.len() != 3 {
                return Err(Diagnostic::error("matmul accel_dim must have three results"));
            }
            let tiles = (tr.accel_dims[0], tr.accel_dims[1], tr.accel_dims[2]);
            let perm: [usize; 3] = match &tr.permutation {
                Some(p) if p.len() == 3 => [p[0], p[1], p[2]],
                Some(_) => return Err(Diagnostic::error("matmul permutation must rank 3")),
                None => [0, 1, 2],
            };
            plan::matmul_plan((m, n, k), tiles, &perm, tr.cache_tile)?
        }
        KernelKind::Conv2dNchwFchw => {
            let shapes = linalg::conv_shapes(ctx, op)?;
            let stride = linalg::conv_stride(ctx, op);
            // accel_dim = (B,H,W,iC,oC,fH,fW) -> (0,0,0,ic,1,fhw,fhw).
            if tr.accel_dims.len() != 7 {
                return Err(Diagnostic::error("conv accel_dim must have seven results"));
            }
            let (ic, fhw) = (tr.accel_dims[3], tr.accel_dims[5]);
            if shapes[0][1] != ic {
                return Err(Diagnostic::error(format!(
                    "accelerator is configured for {ic} input channels but the operation has {}",
                    shapes[0][1]
                )));
            }
            if shapes[1][3] != fhw {
                return Err(Diagnostic::error(format!(
                    "accelerator is configured for filter size {fhw} but the operation has {}",
                    shapes[1][3]
                )));
            }
            plan::conv_plan(plan::ConvPlanParams {
                batch: shapes[0][0],
                out_channels: shapes[1][0],
                out_hw: shapes[2][2],
                in_channels: ic,
                filter_hw: fhw,
                stride,
            })?
        }
    };
    let placed = plan::place_flow(&plan, &tr.opcode_map, &tr.flow)?;
    validate_opcodes(&tr.opcode_map)?;

    let block =
        ctx.op(op).parent.ok_or_else(|| Diagnostic::error("annotated op must be attached"))?;
    let index = ctx.position_in_block(op).expect("attached op has a position");
    ctx.erase_op(op);
    let mut b = OpBuilder::at(ctx, block, index);
    let mut gen = DriverGen {
        plan: &plan,
        placed: &placed,
        opcode_map: &tr.opcode_map,
        operands: &operands,
        subviews: vec![None; operands.len()],
        ivs: Vec::new(),
        coalesce,
    };
    gen.emit_prologue(&mut b, &tr)?;
    gen.emit_level(&mut b, 0)?;
    Ok(())
}

/// Static opcode sanity: no staging action may follow a `recv` within one
/// opcode (the staged words would never be flushed before the accelerator
/// is expected to produce output — a guaranteed hang).
fn validate_opcodes(map: &OpcodeMap) -> Result<(), Diagnostic> {
    for (name, actions) in map.iter() {
        let mut seen_recv = false;
        for a in actions {
            match a {
                OpcodeAction::Recv { .. } => seen_recv = true,
                _ if seen_recv => {
                    return Err(Diagnostic::error(format!(
                        "opcode `{name}` stages data after a recv; the transfer would hang"
                    )))
                }
                _ => {}
            }
        }
    }
    Ok(())
}

struct DriverGen<'a> {
    plan: &'a LoopPlan,
    placed: &'a [PlacedOpcode],
    opcode_map: &'a OpcodeMap,
    operands: &'a [ValueId],
    /// Current tile subview per argument (None until created).
    subviews: Vec<Option<ValueId>>,
    /// Induction variable per emitted loop level.
    ivs: Vec<ValueId>,
    /// Batch same-site transfers into single transactions (§V).
    coalesce: bool,
}

impl<'a> DriverGen<'a> {
    fn emit_prologue(&mut self, b: &mut OpBuilder<'_>, tr: &Trait) -> Result<(), Diagnostic> {
        // accel.dma_init with the five configuration scalars.
        let vals: Vec<ValueId> = tr.dma.iter().map(|v| arith::const_i32(b, *v as i32)).collect();
        accel::dma_init(b, vals[0], vals[1], vals[2], vals[3], vals[4]);
        // Init opcodes run once per kernel, against the *full* operands.
        for opcode in &tr.init_opcodes {
            let actions = self
                .opcode_map
                .get(opcode)
                .ok_or_else(|| Diagnostic::error(format!("init opcode `{opcode}` is not defined")))?
                .to_vec();
            let views: Vec<ValueId> = self.operands.to_vec();
            expand_actions(b, &actions, &views, &self.output_flags(), None)?;
        }
        Ok(())
    }

    fn output_flags(&self) -> Vec<bool> {
        self.plan.args.iter().map(|a| a.is_output).collect()
    }

    /// Emits loop `level` (0-based) and everything inside it at the
    /// builder's position.
    fn emit_level(&mut self, b: &mut OpBuilder<'_>, level: usize) -> Result<(), Diagnostic> {
        let info = self.plan.levels[level].clone();
        let step = arith::const_index(b, info.step);
        let (lb, ub) = match info.base {
            None => {
                let lb = arith::const_index(b, 0);
                let ub = arith::const_index(b, info.extent);
                (lb, ub)
            }
            Some(base_level) => {
                let base_iv = self.ivs[base_level];
                let extent = arith::const_index(b, info.extent);
                let ub = arith::addi(b, base_iv, extent);
                (base_iv, ub)
            }
        };
        let loop_ = scf::for_loop(b, lb, ub, step);
        self.ivs.push(loop_.iv);
        let depth = level + 1; // 1-based
        {
            let mut body = scf::body_builder(b.ctx(), &loop_);
            // Subviews that become available at this depth.
            for arg in 0..self.plan.args.len() {
                if self.plan.args[arg].ready_depth() == depth {
                    let view = self.emit_subview(&mut body, arg)?;
                    self.subviews[arg] = Some(view);
                }
            }
            // Pre-positioned opcodes.
            self.emit_placed(&mut body, depth, Position::Pre)?;
            // The nested loop.
            if level + 1 < self.plan.depth() {
                self.emit_level(&mut body, level + 1)?;
            }
            // Post-positioned opcodes.
            self.emit_placed(&mut body, depth, Position::Post)?;
        }
        // Subviews and the induction variable go out of scope with the loop.
        for (arg, plan) in self.plan.args.iter().enumerate() {
            if plan.ready_depth() == depth {
                self.subviews[arg] = None;
            }
        }
        self.ivs.pop();
        Ok(())
    }

    fn emit_subview(&mut self, b: &mut OpBuilder<'_>, arg: usize) -> Result<ValueId, Diagnostic> {
        let plan = &self.plan.args[arg];
        let mut offsets = Vec::with_capacity(plan.dim_offsets.len());
        for off in &plan.dim_offsets {
            let v = match off {
                OffsetExpr::Zero => arith::const_index(b, 0),
                OffsetExpr::LoopIv { level, scale } => {
                    let iv = *self.ivs.get(*level).ok_or_else(|| {
                        Diagnostic::error(format!(
                            "argument {} subview needs loop {level} before it exists",
                            plan.name
                        ))
                    })?;
                    if *scale == 1 {
                        iv
                    } else {
                        let s = arith::const_index(b, *scale);
                        arith::muli(b, iv, s)
                    }
                }
            };
            offsets.push(v);
        }
        Ok(memref::subview(b, self.operands[arg], offsets, plan.tile_sizes.clone()))
    }

    fn emit_placed(
        &mut self,
        b: &mut OpBuilder<'_>,
        depth: usize,
        position: Position,
    ) -> Result<(), Diagnostic> {
        let outputs = self.output_flags();
        let site: Vec<&PlacedOpcode> =
            self.placed.iter().filter(|p| p.depth == depth && p.position == position).collect();
        if site.is_empty() {
            return Ok(());
        }
        let views: Vec<ValueId> =
            self.subviews.iter().zip(self.operands).map(|(sv, full)| sv.unwrap_or(*full)).collect();
        let ivs_by_dim: Vec<(String, ValueId)> = self
            .plan
            .levels
            .iter()
            .zip(&self.ivs)
            .filter(|(l, _)| !l.is_cache_level)
            .map(|(l, iv)| (l.dim.clone(), *iv))
            .collect();
        if self.coalesce {
            // Concatenate the whole site's actions: one transaction per
            // receive boundary (the §V coalescing optimization).
            let mut combined = Vec::new();
            for placed in &site {
                let actions = self.opcode_map.get(&placed.opcode).ok_or_else(|| {
                    Diagnostic::error(format!("undefined opcode `{}`", placed.opcode))
                })?;
                combined.extend(actions.iter().cloned());
            }
            expand_actions(b, &combined, &views, &outputs, Some(&ivs_by_dim))?;
        } else {
            for placed in &site {
                let actions = self
                    .opcode_map
                    .get(&placed.opcode)
                    .ok_or_else(|| {
                        Diagnostic::error(format!("undefined opcode `{}`", placed.opcode))
                    })?
                    .to_vec();
                expand_actions(b, &actions, &views, &outputs, Some(&ivs_by_dim))?;
            }
        }
        Ok(())
    }
}

/// Expands an action list into `accel` ops with offset chaining.
///
/// A *flush* (the batched `dma_start_send` + wait) is attached to the last
/// staging action before each `recv` and to the last staging action of the
/// list — so a single opcode produces one transaction (the §III-A batching)
/// and a coalesced site produces one transaction per receive boundary.
fn expand_actions(
    b: &mut OpBuilder<'_>,
    actions: &[OpcodeAction],
    views: &[ValueId],
    is_output: &[bool],
    ivs_by_dim: Option<&[(String, ValueId)]>,
) -> Result<(), Diagnostic> {
    if !actions.iter().any(|a| !matches!(a, OpcodeAction::Recv { .. })) {
        return Err(Diagnostic::error("opcode has no staging actions"));
    }
    // Which staging actions flush: the last one before each recv boundary
    // and the last one overall.
    let mut flush_at = vec![false; actions.len()];
    let mut last_stager: Option<usize> = None;
    for (i, action) in actions.iter().enumerate() {
        if matches!(action, OpcodeAction::Recv { .. }) {
            if let Some(s) = last_stager.take() {
                flush_at[s] = true;
            }
        } else {
            last_stager = Some(i);
        }
    }
    if let Some(s) = last_stager {
        flush_at[s] = true;
    }

    let mut off = arith::const_i32(b, 0);
    for (i, action) in actions.iter().enumerate() {
        let flush = flush_at[i];
        match action {
            OpcodeAction::SendLiteral { value } => {
                let lit = arith::const_i32(b, *value as i32);
                off = accel::send_literal(b, lit, off, flush);
            }
            OpcodeAction::Send { arg } => {
                let view = *views
                    .get(*arg as usize)
                    .ok_or_else(|| Diagnostic::error(format!("send({arg}) out of range")))?;
                off = accel::send(b, view, off, flush);
            }
            OpcodeAction::SendDim { arg, dim } => {
                let view = *views.get(*arg as usize).ok_or_else(|| {
                    Diagnostic::error(format!("send_dim({arg}, {dim}) out of range"))
                })?;
                off = accel::send_dim(b, view, i64::from(*dim), off, flush);
            }
            OpcodeAction::SendIdx { dim } => {
                let ivs = ivs_by_dim.ok_or_else(|| {
                    Diagnostic::error("send_idx is not available in init opcodes")
                })?;
                let iv =
                    ivs.iter().find(|(d, _)| d == dim).map(|(_, v)| *v).ok_or_else(|| {
                        Diagnostic::error(format!("send_idx({dim}): no such loop"))
                    })?;
                let cast = arith::index_cast(b, iv, Type::i32());
                off = accel::send_idx(b, cast, off, flush);
            }
            OpcodeAction::Recv { arg } => {
                let view = *views
                    .get(*arg as usize)
                    .ok_or_else(|| Diagnostic::error(format!("recv({arg}) out of range")))?;
                let zero = arith::const_i32(b, 0);
                accel::recv(b, view, zero, is_output.get(*arg as usize).copied().unwrap_or(true));
            }
        }
        // Staging restarts at offset zero after a flushed transaction.
        if flush && i + 1 < actions.len() {
            off = arith::const_i32(b, 0);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::MatchAndAnnotatePass;
    use axi4mlir_accelerators::matmul::MatMulVersion;
    use axi4mlir_config::{AcceleratorConfig, FlowStrategy};
    use axi4mlir_dialects::{func, verify::DialectVerifierPass};
    use axi4mlir_ir::kind::OpKind;
    use axi4mlir_ir::pass::PassManager;
    use axi4mlir_ir::printer::print_op;

    fn matmul_module(dims: i64) -> Module {
        let mut m = Module::new();
        let f = func::func(&mut m, "matmul_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let a = memref::alloc(&mut b, vec![dims, dims], Type::i32());
        let bb = memref::alloc(&mut b, vec![dims, dims], Type::i32());
        let c = memref::alloc(&mut b, vec![dims, dims], Type::i32());
        linalg::generic_matmul(&mut b, a, bb, c);
        m
    }

    fn compile(dims: i64, v3_size: i64, flow: FlowStrategy, cache_tile: Option<i64>) -> Module {
        let mut module = matmul_module(dims);
        let cfg = AcceleratorConfig::matmul(MatMulVersion::V3, v3_size)
            .with_selected_flow(flow.short_name());
        let perm: Vec<String> = flow.matmul_permutation().iter().map(|s| (*s).to_owned()).collect();
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(cfg, perm, cache_tile)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        pm.add(Box::new(DialectVerifierPass));
        pm.run(&mut module).unwrap();
        module
    }

    #[test]
    fn ns_flow_generates_three_loops_with_innermost_transfers() {
        let m = compile(16, 4, FlowStrategy::NothingStationary, None);
        let fors = m.ctx.find_ops(m.top(), OpKind::ScfFor);
        assert_eq!(fors.len(), 3);
        assert!(m.ctx.find_ops(m.top(), OpKind::LinalgGeneric).is_empty(), "linalg op replaced");
        assert_eq!(m.ctx.find_ops(m.top(), OpKind::AccelDmaInit).len(), 1);
        // All sends/recvs sit in the innermost loop.
        let innermost = fors
            .iter()
            .copied()
            .find(|f| m.ctx.find_ops(*f, OpKind::ScfFor).len() == 1)
            .expect("innermost loop");
        assert_eq!(m.ctx.find_ops(innermost, OpKind::AccelSend).len(), 2, "sA and sB");
        assert_eq!(m.ctx.find_ops(innermost, OpKind::AccelRecv).len(), 1, "rC");
    }

    #[test]
    fn as_flow_hoists_sa_out_of_innermost() {
        let m = compile(16, 4, FlowStrategy::InputAStationary, None);
        let fors = m.ctx.find_ops(m.top(), OpKind::ScfFor);
        let innermost =
            fors.iter().copied().find(|f| m.ctx.find_ops(*f, OpKind::ScfFor).len() == 1).unwrap();
        // Only sB inside the innermost loop; sA was hoisted one level up.
        assert_eq!(m.ctx.find_ops(innermost, OpKind::AccelSend).len(), 1);
        let printed = print_op(&m.ctx, m.top());
        assert_eq!(
            printed.matches("accel.send\"").count(),
            2,
            "sA at depth 2, sB at depth 3: {printed}"
        );
    }

    #[test]
    fn cs_flow_receives_after_inner_loop() {
        let m = compile(16, 4, FlowStrategy::OutputStationary, None);
        let fors = m.ctx.find_ops(m.top(), OpKind::ScfFor);
        let innermost =
            fors.iter().copied().find(|f| m.ctx.find_ops(*f, OpKind::ScfFor).len() == 1).unwrap();
        assert!(
            m.ctx.find_ops(innermost, OpKind::AccelRecv).is_empty(),
            "recv hoisted out of k loop"
        );
        // The recv lives in the depth-2 loop, after the inner loop.
        let depth2 =
            fors.iter().copied().find(|f| m.ctx.find_ops(*f, OpKind::ScfFor).len() == 2).unwrap();
        let body = m.ctx.sole_block(depth2, 0);
        let ops = &m.ctx.block(body).ops;
        let recv_pos = ops.iter().position(|o| m.ctx.op(*o).kind == OpKind::AccelRecv);
        let for_pos = ops.iter().position(|o| m.ctx.op(*o).kind == OpKind::ScfFor);
        assert!(recv_pos.unwrap() > for_pos.unwrap(), "recv must follow the k loop");
    }

    #[test]
    fn cache_tiling_adds_outer_loops() {
        let m = compile(64, 8, FlowStrategy::NothingStationary, Some(32));
        // m and n gain cache loops; the streaming dim k does not.
        assert_eq!(m.ctx.find_ops(m.top(), OpKind::ScfFor).len(), 5);
    }

    #[test]
    fn init_opcodes_run_before_loops() {
        let m = compile(16, 4, FlowStrategy::NothingStationary, None);
        let f = m.funcs()[0];
        let entry = m.ctx.sole_block(f, 0);
        let kinds: Vec<&OpKind> =
            m.ctx.block(entry).ops.iter().map(|o| &m.ctx.op(*o).kind).collect();
        let position = |kind: OpKind| kinds.iter().position(|k| **k == kind).unwrap();
        let init_pos = position(OpKind::AccelDmaInit);
        let reset_pos = position(OpKind::AccelSendLiteral);
        let loop_pos = position(OpKind::ScfFor);
        assert!(init_pos < reset_pos && reset_pos < loop_pos);
    }

    #[test]
    fn generated_ir_round_trips_through_text() {
        let m = compile(16, 8, FlowStrategy::InputBStationary, None);
        let printed = print_op(&m.ctx, m.top());
        let m2 = axi4mlir_ir::parser::parse_module(&printed).unwrap();
        assert_eq!(print_op(&m2.ctx, m2.top()), printed);
    }

    #[test]
    fn conv_codegen_matches_fig15b() {
        let mut m = Module::new();
        let f = func::func(&mut m, "conv_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let i = memref::alloc(&mut b, vec![1, 256, 7, 7], Type::i32());
        let w = memref::alloc(&mut b, vec![64, 256, 3, 3], Type::i32());
        let o = memref::alloc(&mut b, vec![1, 64, 5, 5], Type::i32());
        linalg::conv_2d_nchw_fchw(&mut b, i, w, o, 1);
        let cfg = AcceleratorConfig::conv2d(256, 3);
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(cfg, vec![], None)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        pm.add(Box::new(DialectVerifierPass));
        pm.run(&mut m).unwrap();
        // Four loops: b, oc, oh, ow.
        assert_eq!(m.ctx.find_ops(m.top(), OpKind::ScfFor).len(), 4);
        // Init opcodes use sendDim for fH and iC.
        assert_eq!(m.ctx.find_ops(m.top(), OpKind::AccelSendDim).len(), 2);
        let printed = print_op(&m.ctx, m.top());
        assert!(printed.contains("accel.recv"));
    }

    #[test]
    fn conv_config_shape_mismatch_is_reported() {
        let mut m = Module::new();
        let f = func::func(&mut m, "conv_call", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        let i = memref::alloc(&mut b, vec![1, 128, 7, 7], Type::i32());
        let w = memref::alloc(&mut b, vec![64, 128, 3, 3], Type::i32());
        let o = memref::alloc(&mut b, vec![1, 64, 5, 5], Type::i32());
        linalg::conv_2d_nchw_fchw(&mut b, i, w, o, 1);
        let cfg = AcceleratorConfig::conv2d(256, 3);
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(cfg, vec![], None)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        let err = pm.run(&mut m).unwrap_err();
        assert!(err.message.contains("input channels"), "{}", err.message);
    }

    #[test]
    fn opcode_staging_after_recv_is_rejected() {
        let mut module = matmul_module(16);
        let mut cfg = AcceleratorConfig::matmul(MatMulVersion::V3, 4);
        // Corrupt the opcode map: stage after recv.
        let broken = OpcodeMap::parse("opcode_map<sA = [send_literal(0x22), send(0)], sB = [send_literal(0x23), send(1)], cC = [send_literal(0xF0)], rC = [recv(2), send_literal(9)], reset = [send_literal(0xFF)]>").unwrap();
        cfg.opcode_map = broken;
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(cfg, vec![], None)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        let err = pm.run(&mut module).unwrap_err();
        assert!(err.message.contains("stages data after a recv"), "{}", err.message);
    }
}

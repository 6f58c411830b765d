//! Loop planning and flow-directed opcode placement (steps 4 & 5a).
//!
//! A `LoopPlan` describes the tiled loop nest for one offloaded op:
//! ordered loop levels (optional cache-tiling loops wrapping the
//! accelerator-tile loops, in permuted order) and, per data argument, how
//! its tile subview is addressed from the loop induction variables.
//!
//! `place_flow` then maps the `opcode_flow` onto that nest: opcodes in
//! the *deepest* flow scope run in the innermost loop; opcodes in enclosing
//! scopes are **hoisted** to the shallowest loop their data allows (the
//! stationary optimization of §III-C), positioned before or after the
//! nested loop according to their position relative to the nested scope.

use std::collections::BTreeSet;

use axi4mlir_ir::attrs::{FlowElem, OpcodeAction, OpcodeFlow, OpcodeMap};
use axi4mlir_support::diag::Diagnostic;

/// How one dimension of a tile subview is offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OffsetExpr {
    /// Offset 0 (the dimension is consumed whole).
    Zero,
    /// `iv(level) * scale` — `scale` is 1 for matmul tiles (the induction
    /// variable already steps in elements) and the spatial stride for
    /// convolution windows.
    LoopIv {
        /// Index into [`LoopPlan::levels`].
        level: usize,
        /// Multiplier applied to the induction variable.
        scale: i64,
    },
}

/// One loop of the generated nest, outermost first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LoopLevel {
    /// The iteration-space dimension this loop walks.
    pub dim: String,
    /// Trip extent in elements (upper bound when `base` is `None`).
    pub extent: i64,
    /// Step in elements.
    pub step: i64,
    /// For accelerator loops nested inside a cache loop of the same dim:
    /// the cache loop's level index; the loop then runs
    /// `[iv(base), iv(base) + extent)`.
    pub base: Option<usize>,
    /// `true` for cache-tiling loops (no subview/opcode ever binds to them).
    pub is_cache_level: bool,
}

/// Per-argument tiling information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ArgPlan {
    /// Argument name from the configuration (`A`, `B`, `C`, `I`, ...).
    pub name: String,
    /// Offset expression per memref dimension.
    pub dim_offsets: Vec<OffsetExpr>,
    /// Static tile shape (the subview sizes).
    pub tile_sizes: Vec<i64>,
    /// `true` for the kernel output (recv'd tiles accumulate).
    pub is_output: bool,
}

impl ArgPlan {
    /// 1-based depth of the deepest loop this argument's subview reads;
    /// 0 when the tile is loop-invariant.
    pub(crate) fn ready_depth(&self) -> usize {
        self.dim_offsets
            .iter()
            .map(|o| match o {
                OffsetExpr::Zero => 0,
                OffsetExpr::LoopIv { level, .. } => level + 1,
            })
            .max()
            .unwrap_or(0)
    }
}

/// The full tiled-loop plan for one offloaded operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LoopPlan {
    /// Loops, outermost first.
    pub levels: Vec<LoopLevel>,
    /// Data arguments in operand order.
    pub args: Vec<ArgPlan>,
}

impl LoopPlan {
    /// Number of loops.
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// 1-based depth of the accelerator loop walking `dim` (cache levels
    /// are skipped).
    fn accel_loop_depth(&self, dim: &str) -> Option<usize> {
        self.levels.iter().position(|l| !l.is_cache_level && l.dim == dim).map(|i| i + 1)
    }

    /// The loop depth an opcode requires: the deepest loop feeding any
    /// subview it sends/receives, or any `send_idx` dimension it streams.
    fn required_depth(&self, opcode_map: &OpcodeMap, opcode: &str) -> Result<usize, Diagnostic> {
        let actions = opcode_map.get(opcode).ok_or_else(|| {
            Diagnostic::error(format!("flow references undefined opcode `{opcode}`"))
        })?;
        let mut depth = 0;
        for action in actions {
            match action {
                OpcodeAction::Send { arg } | OpcodeAction::Recv { arg } => {
                    let plan = self.args.get(*arg as usize).ok_or_else(|| {
                        Diagnostic::error(format!(
                            "opcode `{opcode}` references argument {arg} outside the plan"
                        ))
                    })?;
                    depth = depth.max(plan.ready_depth());
                }
                OpcodeAction::SendIdx { dim } => {
                    let d = self.accel_loop_depth(dim).ok_or_else(|| {
                        Diagnostic::error(format!("send_idx({dim}) but no loop iterates `{dim}`"))
                    })?;
                    depth = depth.max(d);
                }
                OpcodeAction::SendLiteral { .. } | OpcodeAction::SendDim { .. } => {}
            }
        }
        Ok(depth)
    }
}

/// Where an opcode sits relative to the nested loop of its depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Position {
    /// Before the nested loop (transfers feeding deeper iterations).
    Pre,
    /// After the nested loop (results collected once the loop finishes).
    Post,
}

/// One opcode assigned to a loop depth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PlacedOpcode {
    /// Opcode name (an `opcode_map` key).
    pub opcode: String,
    /// 1-based loop depth (1 = outermost).
    pub depth: usize,
    /// Before or after the nested loop.
    pub position: Position,
}

/// Maps an `opcode_flow` onto a loop plan.
///
/// # Errors
///
/// Rejects flows with sibling scopes (the nest is a simple loop chain),
/// opcodes whose data needs a deeper loop than their scope allows (an
/// illegal stationarity for the chosen permutation), and references to
/// unknown opcodes.
pub(crate) fn place_flow(
    plan: &LoopPlan,
    opcode_map: &OpcodeMap,
    flow: &OpcodeFlow,
) -> Result<Vec<PlacedOpcode>, Diagnostic> {
    let total_depth = plan.depth();
    // Depth of the flow tree (scope chain length).
    fn scope_depth(elems: &[FlowElem]) -> Result<usize, Diagnostic> {
        let scopes: Vec<&Vec<FlowElem>> = elems
            .iter()
            .filter_map(|e| match e {
                FlowElem::Scope(inner) => Some(inner),
                FlowElem::Opcode(_) => None,
            })
            .collect();
        match scopes.len() {
            0 => Ok(1),
            1 => Ok(1 + scope_depth(scopes[0])?),
            _ => Err(Diagnostic::error(
                "opcode_flow has sibling scopes; the tiled loop nest is a single chain",
            )),
        }
    }
    let flow_depth = scope_depth(&flow.root)?;
    if flow_depth > total_depth {
        return Err(Diagnostic::error(format!(
            "opcode_flow nests {flow_depth} scopes but the loop nest is only {total_depth} deep"
        )));
    }

    let mut placed = Vec::new();
    place_scope(plan, opcode_map, &flow.root, 0, flow_depth, total_depth, &mut placed)?;
    Ok(placed)
}

fn place_scope(
    plan: &LoopPlan,
    opcode_map: &OpcodeMap,
    elems: &[FlowElem],
    scope_index: usize,
    flow_depth: usize,
    total_depth: usize,
    out: &mut Vec<PlacedOpcode>,
) -> Result<(), Diagnostic> {
    let is_deepest = scope_index + 1 == flow_depth;
    // Opcodes in scope `i` may sit no deeper than this (the remaining
    // scopes each need at least one deeper loop).
    let max_allowed = total_depth - (flow_depth - 1 - scope_index);
    let mut seen_scope = false;
    for elem in elems {
        match elem {
            FlowElem::Scope(inner) => {
                place_scope(
                    plan,
                    opcode_map,
                    inner,
                    scope_index + 1,
                    flow_depth,
                    total_depth,
                    out,
                )?;
                seen_scope = true;
            }
            FlowElem::Opcode(name) => {
                let required = plan.required_depth(opcode_map, name)?;
                let depth = if is_deepest {
                    // Innermost scope: runs every iteration of every loop.
                    total_depth
                } else if required == 0 {
                    max_allowed
                } else {
                    if required > max_allowed {
                        return Err(Diagnostic::error(format!(
                            "opcode `{name}` needs loop depth {required} but its flow scope allows at most {max_allowed}; \
                             the permutation does not legalize this stationarity"
                        )));
                    }
                    required
                };
                out.push(PlacedOpcode {
                    opcode: name.clone(),
                    depth,
                    position: if seen_scope { Position::Post } else { Position::Pre },
                });
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Plan builders
// ---------------------------------------------------------------------

/// Builds the MatMul loop plan: optional square cache tiling (edge
/// `cache_tile`) around accelerator tiling `(tm, tn, tk)`, loops in
/// `permutation` order (indices into `(m, n, k)`, outermost first).
///
/// # Errors
///
/// Requires every tile to divide its dimension, and the cache tile (when
/// present and smaller than the dimension) to be a multiple of the
/// accelerator tile and a divisor of the dimension.
pub(crate) fn matmul_plan(
    dims: (i64, i64, i64),
    tiles: (i64, i64, i64),
    permutation: &[usize; 3],
    cache_tile: Option<i64>,
) -> Result<LoopPlan, Diagnostic> {
    let dim_names = ["m", "n", "k"];
    let sizes = [dims.0, dims.1, dims.2];
    let tile_sizes = [tiles.0, tiles.1, tiles.2];
    {
        let seen: BTreeSet<usize> = permutation.iter().copied().collect();
        if seen != BTreeSet::from([0, 1, 2]) {
            return Err(Diagnostic::error("permutation must be a permutation of (m, n, k)"));
        }
    }
    for i in 0..3 {
        if tile_sizes[i] <= 0 || sizes[i] % tile_sizes[i] != 0 {
            return Err(Diagnostic::error(format!(
                "tile {} for dim {} must divide the problem size {}",
                tile_sizes[i], dim_names[i], sizes[i]
            )));
        }
    }
    let mut levels: Vec<LoopLevel> = Vec::new();
    // Which dims get a cache loop. The innermost permuted dimension is
    // never cache-tiled: splitting the streaming dimension would multiply
    // the stationary operand's transfers (e.g. re-reading C once per
    // cache-k chunk under the Cs flow), defeating the selected dataflow.
    let mut cache_level_of = [None; 3];
    if let Some(ct) = cache_tile {
        for &d in &permutation[..2] {
            if ct < sizes[d] {
                if ct % tile_sizes[d] != 0 || sizes[d] % ct != 0 {
                    return Err(Diagnostic::error(format!(
                        "cache tile {ct} must be a multiple of tile {} and divide dim {} ({})",
                        tile_sizes[d], dim_names[d], sizes[d]
                    )));
                }
                cache_level_of[d] = Some(levels.len());
                levels.push(LoopLevel {
                    dim: dim_names[d].to_owned(),
                    extent: sizes[d],
                    step: ct,
                    base: None,
                    is_cache_level: true,
                });
            }
        }
    }
    let mut accel_level_of = [0usize; 3];
    for &d in permutation {
        accel_level_of[d] = levels.len();
        match cache_level_of[d] {
            Some(cache_level) => levels.push(LoopLevel {
                dim: dim_names[d].to_owned(),
                extent: cache_tile.expect("cache level implies cache tile"),
                step: tile_sizes[d],
                base: Some(cache_level),
                is_cache_level: false,
            }),
            None => levels.push(LoopLevel {
                dim: dim_names[d].to_owned(),
                extent: sizes[d],
                step: tile_sizes[d],
                base: None,
                is_cache_level: false,
            }),
        }
    }
    let (m, n, k) = (0, 1, 2);
    let iv = |d: usize| OffsetExpr::LoopIv { level: accel_level_of[d], scale: 1 };
    let args = vec![
        ArgPlan {
            name: "A".to_owned(),
            dim_offsets: vec![iv(m), iv(k)],
            tile_sizes: vec![tiles.0, tiles.2],
            is_output: false,
        },
        ArgPlan {
            name: "B".to_owned(),
            dim_offsets: vec![iv(k), iv(n)],
            tile_sizes: vec![tiles.2, tiles.1],
            is_output: false,
        },
        ArgPlan {
            name: "C".to_owned(),
            dim_offsets: vec![iv(m), iv(n)],
            tile_sizes: vec![tiles.0, tiles.1],
            is_output: true,
        },
    ];
    Ok(LoopPlan { levels, args })
}

/// Shape parameters for the convolution plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ConvPlanParams {
    /// Batch size.
    pub batch: i64,
    /// Output channels.
    pub out_channels: i64,
    /// Output height/width (square).
    pub out_hw: i64,
    /// Input channels (whole dimension goes to the accelerator).
    pub in_channels: i64,
    /// Filter height/width (square).
    pub filter_hw: i64,
    /// Spatial stride.
    pub stride: i64,
}

/// Builds the Conv2D loop plan of Fig. 15b: loops `(b, oc, oh, ow)`,
/// filter slice at `oc`, input window at `(oh, ow)` (scaled by the spatial
/// stride), output slice at `(b, oc)`.
pub(crate) fn conv_plan(p: ConvPlanParams) -> Result<LoopPlan, Diagnostic> {
    if p.batch <= 0 || p.out_channels <= 0 || p.out_hw <= 0 {
        return Err(Diagnostic::error("convolution plan requires positive extents"));
    }
    let levels = vec![
        LoopLevel {
            dim: "b".to_owned(),
            extent: p.batch,
            step: 1,
            base: None,
            is_cache_level: false,
        },
        LoopLevel {
            dim: "oc".to_owned(),
            extent: p.out_channels,
            step: 1,
            base: None,
            is_cache_level: false,
        },
        LoopLevel {
            dim: "oh".to_owned(),
            extent: p.out_hw,
            step: 1,
            base: None,
            is_cache_level: false,
        },
        LoopLevel {
            dim: "ow".to_owned(),
            extent: p.out_hw,
            step: 1,
            base: None,
            is_cache_level: false,
        },
    ];
    let args = vec![
        ArgPlan {
            name: "I".to_owned(),
            dim_offsets: vec![
                OffsetExpr::LoopIv { level: 0, scale: 1 },
                OffsetExpr::Zero,
                OffsetExpr::LoopIv { level: 2, scale: p.stride },
                OffsetExpr::LoopIv { level: 3, scale: p.stride },
            ],
            tile_sizes: vec![1, p.in_channels, p.filter_hw, p.filter_hw],
            is_output: false,
        },
        ArgPlan {
            name: "W".to_owned(),
            dim_offsets: vec![
                OffsetExpr::LoopIv { level: 1, scale: 1 },
                OffsetExpr::Zero,
                OffsetExpr::Zero,
                OffsetExpr::Zero,
            ],
            tile_sizes: vec![1, p.in_channels, p.filter_hw, p.filter_hw],
            is_output: false,
        },
        ArgPlan {
            name: "O".to_owned(),
            dim_offsets: vec![
                OffsetExpr::LoopIv { level: 0, scale: 1 },
                OffsetExpr::LoopIv { level: 1, scale: 1 },
                OffsetExpr::Zero,
                OffsetExpr::Zero,
            ],
            tile_sizes: vec![1, 1, p.out_hw, p.out_hw],
            is_output: true,
        },
    ];
    Ok(LoopPlan { levels, args })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_accelerators::matmul::MatMulVersion;
    use axi4mlir_config::AcceleratorConfig;

    fn v3_map() -> OpcodeMap {
        AcceleratorConfig::matmul(MatMulVersion::V3, 4).opcode_map
    }

    fn flow(text: &str) -> OpcodeFlow {
        OpcodeFlow::parse(text).unwrap()
    }

    #[test]
    fn matmul_plan_identity_permutation() {
        let plan = matmul_plan((64, 64, 64), (4, 4, 4), &[0, 1, 2], None).unwrap();
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.levels[0].dim, "m");
        assert_eq!(plan.levels[2].dim, "k");
        assert_eq!(plan.args[0].ready_depth(), 3, "A needs m (1) and k (3)");
        assert_eq!(plan.args[2].ready_depth(), 2, "C needs m (1) and n (2)");
    }

    #[test]
    fn matmul_plan_rejects_non_dividing_tiles() {
        let err = matmul_plan((30, 64, 64), (4, 4, 4), &[0, 1, 2], None).unwrap_err();
        assert!(err.message.contains("must divide"));
        let err = matmul_plan((64, 64, 64), (4, 4, 4), &[0, 0, 2], None).unwrap_err();
        assert!(err.message.contains("permutation"));
    }

    #[test]
    fn cache_tiling_adds_outer_levels() {
        let plan = matmul_plan((256, 256, 256), (8, 8, 8), &[0, 1, 2], Some(64)).unwrap();
        // m and n get cache loops; the innermost dim (k) never does.
        assert_eq!(plan.depth(), 5);
        assert!(plan.levels[0].is_cache_level);
        assert_eq!(plan.levels[0].step, 64);
        let accel_m = &plan.levels[2];
        assert_eq!(accel_m.dim, "m");
        assert_eq!(accel_m.base, Some(0));
        assert_eq!(accel_m.extent, 64);
        // A's subview depends on the accel loops only (m at 3, k at 5).
        assert_eq!(plan.args[0].ready_depth(), 5);
        assert_eq!(plan.accel_loop_depth("m"), Some(3));
    }

    #[test]
    fn cache_tile_must_be_compatible() {
        let err = matmul_plan((256, 256, 256), (8, 8, 8), &[0, 1, 2], Some(60)).unwrap_err();
        assert!(err.message.contains("cache tile"));
    }

    #[test]
    fn ns_flow_places_everything_innermost() {
        let plan = matmul_plan((64, 64, 64), (4, 4, 4), &[0, 1, 2], None).unwrap();
        let placed = place_flow(&plan, &v3_map(), &flow("(sA sB cC rC)")).unwrap();
        assert!(placed.iter().all(|p| p.depth == 3 && p.position == Position::Pre));
        assert_eq!(placed.len(), 4);
    }

    #[test]
    fn as_flow_hoists_sa_to_second_loop() {
        // Paper: with permutation (m, k, n), "logic related to sA would be
        // transmitted inside of the second loop".
        let plan = matmul_plan((60, 72, 80), (4, 4, 4), &[0, 2, 1], None).unwrap();
        let placed = place_flow(&plan, &v3_map(), &flow("(sA (sB cC rC))")).unwrap();
        let sa = placed.iter().find(|p| p.opcode == "sA").unwrap();
        assert_eq!(sa.depth, 2);
        assert_eq!(sa.position, Position::Pre);
        for inner in ["sB", "cC", "rC"] {
            let p = placed.iter().find(|p| p.opcode == inner).unwrap();
            assert_eq!(p.depth, 3, "{inner} stays innermost");
        }
    }

    #[test]
    fn cs_flow_reads_c_after_the_k_loop() {
        let plan = matmul_plan((64, 64, 64), (8, 8, 8), &[0, 1, 2], None).unwrap();
        let placed = place_flow(&plan, &v3_map(), &flow("((sA sB cC) rC)")).unwrap();
        let rc = placed.iter().find(|p| p.opcode == "rC").unwrap();
        assert_eq!(rc.depth, 2);
        assert_eq!(rc.position, Position::Post, "rC collects after the k loop finishes");
        let cc = placed.iter().find(|p| p.opcode == "cC").unwrap();
        assert_eq!(cc.depth, 3);
    }

    /// For every flow every MatMul generation ships, the order derived
    /// from the flow's structure is the strategy's hand-named one — and
    /// the one `place_flow` accepts (the rule `loop_order` inverts).
    #[test]
    fn the_derived_loop_order_is_the_strategys_and_place_flow_accepts_it() {
        use axi4mlir_config::presets::matmul_flows;
        use MatMulVersion::{V1, V2, V3, V4};
        for version in [V1, V2, V3, V4] {
            let config = AcceleratorConfig::matmul(version, 4);
            for &(strategy, text) in matmul_flows(version) {
                let order = config.loop_order(&flow(text));
                assert_eq!(order, strategy.matmul_permutation(), "{version} {strategy}");
                let index = |dim: &String| config.dims.iter().position(|d| d == dim).unwrap();
                let permutation = [index(&order[0]), index(&order[1]), index(&order[2])];
                let plan = matmul_plan((16, 16, 16), (4, 4, 4), &permutation, None).unwrap();
                place_flow(&plan, &config.opcode_map, &flow(text))
                    .unwrap_or_else(|d| panic!("{version} {strategy}: {}", d.message));
            }
        }
    }

    #[test]
    fn illegal_stationarity_is_rejected() {
        // As flow with identity permutation (m, n, k): sA needs the k loop
        // (depth 3) but sits in the outer scope (max depth 2).
        let plan = matmul_plan((64, 64, 64), (4, 4, 4), &[0, 1, 2], None).unwrap();
        let err = place_flow(&plan, &v3_map(), &flow("(sA (sB cC rC))")).unwrap_err();
        assert!(err.message.contains("does not legalize"), "{}", err.message);
    }

    #[test]
    fn sibling_scopes_are_rejected() {
        let plan = matmul_plan((64, 64, 64), (4, 4, 4), &[0, 1, 2], None).unwrap();
        let err = place_flow(&plan, &v3_map(), &flow("((sA) (sB) cC rC)")).unwrap_err();
        assert!(err.message.contains("sibling scopes"));
    }

    #[test]
    fn flow_deeper_than_nest_is_rejected() {
        let plan = matmul_plan((64, 64, 64), (4, 4, 4), &[0, 1, 2], None).unwrap();
        let err = place_flow(&plan, &v3_map(), &flow("(sA (sB (cC (rC))))")).unwrap_err();
        assert!(err.message.contains("scopes but the loop nest"));
    }

    #[test]
    fn conv_plan_matches_fig15b_structure() {
        let p = ConvPlanParams {
            batch: 1,
            out_channels: 64,
            out_hw: 5,
            in_channels: 256,
            filter_hw: 3,
            stride: 1,
        };
        let plan = conv_plan(p).unwrap();
        assert_eq!(plan.depth(), 4);
        let cfg = AcceleratorConfig::conv2d(256, 3);
        let placed = place_flow(&plan, &cfg.opcode_map, cfg.selected()).unwrap();
        let sf = placed.iter().find(|p| p.opcode == "sF").unwrap();
        assert_eq!((sf.depth, sf.position), (2, Position::Pre), "filter loads once per oc");
        let sico = placed.iter().find(|p| p.opcode == "sIcO").unwrap();
        assert_eq!((sico.depth, sico.position), (4, Position::Pre), "window per output pixel");
        let ro = placed.iter().find(|p| p.opcode == "rO").unwrap();
        assert_eq!((ro.depth, ro.position), (2, Position::Post), "slice read after oh/ow loops");
    }

    #[test]
    fn conv_window_scales_by_stride() {
        let p = ConvPlanParams {
            batch: 1,
            out_channels: 8,
            out_hw: 7,
            in_channels: 64,
            filter_hw: 3,
            stride: 2,
        };
        let plan = conv_plan(p).unwrap();
        assert_eq!(plan.args[0].dim_offsets[2], OffsetExpr::LoopIv { level: 2, scale: 2 });
    }

    #[test]
    fn send_idx_requires_a_loop() {
        let plan = matmul_plan((16, 16, 16), (4, 4, 4), &[0, 1, 2], None).unwrap();
        let map = OpcodeMap::parse("opcode_map<sx = [send_idx(z)]>").unwrap();
        let err = plan.required_depth(&map, "sx").unwrap_err();
        assert!(err.message.contains("no loop iterates"));
        let map2 = OpcodeMap::parse("opcode_map<sx = [send_idx(k)]>").unwrap();
        assert_eq!(plan.required_depth(&map2, "sx").unwrap(), 3);
    }
}

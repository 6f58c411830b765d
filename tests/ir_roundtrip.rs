//! Property-based tests of the IR infrastructure: printing and re-parsing
//! must be lossless for everything the compiler emits, including the
//! paper's new attribute kinds.

use proptest::prelude::*;

use axi4mlir::accelerators::matmul::MatMulVersion;
use axi4mlir::config::{AcceleratorConfig, FlowStrategy};
use axi4mlir::ir::affine::AffineMap;
use axi4mlir::ir::attrs::{FlowElem, OpcodeAction, OpcodeFlow, OpcodeMap};
use axi4mlir::ir::parser::parse_module;
use axi4mlir::ir::printer::print_op;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_action() -> impl Strategy<Value = OpcodeAction> {
    prop_oneof![
        (0u32..3).prop_map(|arg| OpcodeAction::Send { arg }),
        (0u32..4096).prop_map(|value| OpcodeAction::SendLiteral { value }),
        ((0u32..3), (0u32..4)).prop_map(|(arg, dim)| OpcodeAction::SendDim { arg, dim }),
        "[a-z][a-z0-9]{0,3}".prop_map(|dim| OpcodeAction::SendIdx { dim }),
        (0u32..3).prop_map(|arg| OpcodeAction::Recv { arg }),
    ]
}

fn arb_opcode_map() -> impl Strategy<Value = OpcodeMap> {
    proptest::collection::btree_map(
        "[a-zA-Z][a-zA-Z0-9_]{0,6}",
        proptest::collection::vec(arb_action(), 1..5),
        1..6,
    )
    .prop_map(|m| OpcodeMap::new(m.into_iter().collect()).expect("unique keys from btree_map"))
}

fn arb_flow_elems(depth: u32) -> BoxedStrategy<Vec<FlowElem>> {
    let opcode = "[a-zA-Z][a-zA-Z0-9_]{0,6}".prop_map(FlowElem::Opcode);
    if depth == 0 {
        proptest::collection::vec(opcode, 1..4).boxed()
    } else {
        // At most one nested scope, matching the compiler's restriction.
        (
            proptest::collection::vec(opcode.clone(), 0..3),
            arb_flow_elems(depth - 1),
            proptest::collection::vec(opcode, 0..3),
        )
            .prop_map(|(before, inner, after)| {
                let mut elems = before;
                elems.push(FlowElem::Scope(inner));
                elems.extend(after);
                elems
            })
            .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// opcode_map: print → parse → print is a fixpoint.
    #[test]
    fn opcode_map_roundtrips(map in arb_opcode_map()) {
        let printed = map.to_string();
        let reparsed = OpcodeMap::parse(&printed).expect("printed map parses");
        prop_assert_eq!(&map, &reparsed, "{}", printed);
    }

    /// opcode_flow: print → parse → print is a fixpoint.
    #[test]
    fn opcode_flow_roundtrips(elems in arb_flow_elems(2)) {
        let flow = OpcodeFlow::new(elems);
        let printed = flow.to_string();
        let reparsed = OpcodeFlow::parse(&printed).expect("printed flow parses");
        prop_assert_eq!(&flow, &reparsed, "{}", printed);
    }

    /// Affine permutation maps survive the textual form.
    #[test]
    fn permutation_maps_roundtrip(perm in proptest::sample::select(vec![
        [0usize, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
    ])) {
        let names = vec!["m".to_owned(), "n".to_owned(), "k".to_owned()];
        let map = AffineMap::projection(names, &perm);
        let printed = map.to_string();
        let reparsed = AffineMap::parse(&printed).expect("parses");
        prop_assert_eq!(reparsed.as_permutation(), Some(perm.to_vec()));
    }

    /// Generated driver IR round-trips through the textual form for any
    /// legal flow/size choice.
    #[test]
    fn generated_driver_ir_roundtrips(
        flow in proptest::sample::select(FlowStrategy::all().to_vec()),
        size in proptest::sample::select(vec![4i64, 8]),
    ) {
        use axi4mlir::compiler::annotate::MatchAndAnnotatePass;
        use axi4mlir::compiler::codegen::GenerateAccelDriverPass;
        use axi4mlir::compiler::lower::LowerAccelToRuntimePass;
        use axi4mlir::compiler::pipeline::build_matmul_module;
        use axi4mlir::ir::pass::PassManager;
        use axi4mlir::workloads::matmul::MatMulProblem;

        let mut module = build_matmul_module(MatMulProblem::square(16));
        let config = AcceleratorConfig::matmul(MatMulVersion::V3, size)
            .with_selected_flow(flow.short_name());
        let perm: Vec<String> =
            flow.matmul_permutation().iter().map(|s| (*s).to_owned()).collect();
        let mut pm = PassManager::new();
        pm.add(Box::new(MatchAndAnnotatePass::new(config, perm, None)));
        pm.add(Box::new(GenerateAccelDriverPass::default()));
        pm.add(Box::new(LowerAccelToRuntimePass));
        pm.run(&mut module).expect("compiles");

        let printed = print_op(&module.ctx, module.top());
        let reparsed = parse_module(&printed).expect("generated IR parses");
        prop_assert_eq!(print_op(&reparsed.ctx, reparsed.top()), printed);
    }
}

/// The annotated (pre-codegen) trait attributes also survive a round-trip
/// — the textual IR is a faithful interchange format for the Fig. 6a
/// attributes.
#[test]
fn annotated_trait_roundtrips() {
    use axi4mlir::compiler::annotate::MatchAndAnnotatePass;
    use axi4mlir::compiler::pipeline::build_matmul_module;
    use axi4mlir::ir::pass::PassManager;
    use axi4mlir::workloads::matmul::MatMulProblem;

    let mut module = build_matmul_module(MatMulProblem::square(8));
    let config = AcceleratorConfig::matmul(MatMulVersion::V3, 4).with_selected_flow("As");
    let mut pm = PassManager::new();
    pm.add(Box::new(MatchAndAnnotatePass::new(
        config,
        vec!["m".to_owned(), "k".to_owned(), "n".to_owned()],
        Some(8),
    )));
    pm.run(&mut module).unwrap();
    let printed = print_op(&module.ctx, module.top());
    assert!(printed.contains("opcode_flow = opcode_flow<(sA (sB cC rC))>"));
    assert!(printed.contains("permutation_map = affine_map<(m, n, k) -> (m, k, n)>"));
    let reparsed = parse_module(&printed).unwrap();
    assert_eq!(print_op(&reparsed.ctx, reparsed.top()), printed);
}

//! Malformed IR is an [`InterpError`] from [`run_func`], never a panic:
//! an op whose resolution fails (missing region, attribute or result,
//! unsupported type, unknown callee) carries the reason in its opcode
//! slot and returns it when executed.

use axi4mlir_dialects::{arith, func};
use axi4mlir_interp::{run_func, InterpError};
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::ops::{Module, ValueId};
use axi4mlir_ir::types::{MemRefType, Type, DYNAMIC};
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::LoopbackAccelerator;

fn soc() -> Soc {
    Soc::new(Box::new(LoopbackAccelerator::new()))
}

/// Runs `main` of a module whose only interesting op is built by
/// `build` (given the entry builder and an index constant).
fn run_malformed(build: impl FnOnce(&mut OpBuilder<'_>, ValueId)) -> InterpError {
    let mut m = Module::new();
    let f = func::func(&mut m, "main", vec![], vec![]);
    let mut b = func::entry_builder(&mut m.ctx, &f);
    let c1 = arith::const_index(&mut b, 1);
    build(&mut b, c1);
    run_func(&mut soc(), &m, "main", vec![], CopyStrategy::ElementWise).unwrap_err()
}

/// Ops whose resolution fails are errors when executed. The last
/// three return exactly what the deleted string-dispatch fallback
/// returned for them; the two `scf.for` shapes used to panic in
/// `IrCtx::sole_block`.
#[test]
fn malformed_ops_are_errors_not_panics() {
    let one_region_one_block = "scf.for must have exactly one region of exactly one block";
    let err = run_malformed(|b, c1| {
        b.insert_op("scf.for", vec![c1, c1, c1], vec![], []);
    });
    assert_eq!(err, InterpError::Other { message: one_region_one_block.into() });

    let err = run_malformed(|b, c1| {
        let (op, _) =
            b.insert_region_op("scf.for", vec![c1, c1, c1], vec![], [], vec![Type::Index]);
        let region = b.ctx_ref().op(op).regions[0];
        b.ctx().add_block(region, vec![]);
    });
    assert_eq!(err, InterpError::Other { message: one_region_one_block.into() });

    let err = run_malformed(|b, _| {
        let dynamic = MemRefType::contiguous(vec![DYNAMIC], Type::i32());
        b.insert_op("memref.alloc", vec![], vec![Type::MemRef(dynamic)], []);
    });
    assert_eq!(err, InterpError::Other { message: "cannot alloc dynamic shape".into() });

    let err = run_malformed(|b, _| {
        b.insert_op("arith.constant", vec![], vec![Type::Index], []);
    });
    assert_eq!(err, InterpError::Other { message: "constant without value".into() });

    let err = run_malformed(|b, _| {
        b.insert_op("func.call", vec![], vec![], [("callee", Attribute::Str("nope".into()))]);
    });
    assert_eq!(err, InterpError::UnknownCallee { name: "nope".into() });
}

/// The region-less `scf.for` of the test above as a parser accepts it:
/// IR text is outside input, so it must not be able to panic a run.
#[test]
fn a_parsed_region_less_loop_is_an_error() {
    let text = r#""builtin.module"() ({
  ^bb():
    "func.func"() ({
      ^bb():
        %0 = "arith.constant"() {value = 1} : () -> (index)
        "scf.for"(%0, %0, %0) : (index, index, index) -> ()
        "func.return"() : () -> ()
    }) {arg_types = [], result_types = [], sym_name = "main"} : () -> ()
}) : () -> ()
"#;
    let m = axi4mlir_ir::parser::parse_module(text).expect("the module parses");
    let err = run_func(&mut soc(), &m, "main", vec![], CopyStrategy::ElementWise).unwrap_err();
    assert!(matches!(err, InterpError::Other { .. }), "{err}");
}

//! Malformed IR is an [`InterpError`] from [`run_func`], never a panic:
//! an op whose resolution fails (missing region, attribute, operand or
//! result, a memref of the wrong rank, CPU-kernel operands whose shapes
//! disagree, unsupported type, unknown callee, an `accel` op not lowered)
//! carries the reason in its opcode slot and returns it when executed.

use axi4mlir_dialects::{accel, arith, func, linalg, memref};
use axi4mlir_interp::{run_func, InterpError};
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::ops::{Module, ValueId};
use axi4mlir_ir::types::{MemRefType, Type, DYNAMIC};
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::dma_lib::names;
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

/// A call to the runtime library named `callee` with `operands`.
fn call(b: &mut OpBuilder<'_>, callee: &str, operands: Vec<ValueId>, results: Vec<Type>) {
    b.insert_op("func.call", operands, results, [("callee", Attribute::Str(callee.into()))]);
}

/// Ops without an operand or result that execution reads, or whose
/// memrefs lack the rank it indexes, are refused at resolution by name.
/// The first eight used to panic indexing past the op's operands, its
/// results or a descriptor's sizes. `dma_init`'s count was checked on
/// every run instead, and a load past rank 8 used to take a heap path
/// for its indices that no module needed.
#[test]
fn missing_operands_and_results_are_errors_not_panics() {
    type Build = fn(&mut OpBuilder<'_>, ValueId);
    let cases: [(&str, Build); 10] = [
        ("arith.addi", |b, c1| {
            b.insert_op("arith.addi", vec![c1], vec![Type::Index], []);
        }),
        ("arith.addi", |b, c1| {
            b.insert_op("arith.addi", vec![c1, c1], vec![], []);
        }),
        ("memref.load", |b, _| {
            b.insert_op("memref.load", vec![], vec![Type::i32()], []);
        }),
        ("memref.store", |b, c1| {
            b.insert_op("memref.store", vec![c1], vec![], []);
        }),
        ("memref.subview", |b, _| {
            let view = Type::MemRef(MemRefType::contiguous(vec![1], Type::i32()));
            let sizes = ("static_sizes", Attribute::Array(vec![Attribute::Int(1)]));
            b.insert_op("memref.subview", vec![], vec![view], [sizes]);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            let m = memref::alloc(b, vec![4, 4], Type::i32());
            b.insert_op("linalg.conv_2d_nchw_fchw", vec![m, m, m], vec![], []);
        }),
        ("func.call", |b, _| call(b, names::WRITE_LITERAL, vec![], vec![Type::i32()])),
        ("func.call", |b, c1| {
            let m = memref::alloc(b, vec![4], Type::i32());
            call(b, names::COPY_FROM, vec![m, c1], vec![Type::i32()]);
        }),
        ("func.call", |b, c1| call(b, names::DMA_INIT, vec![c1; 4], vec![])),
        ("memref.load", |b, c1| {
            let m = memref::alloc(b, vec![1; 9], Type::i32());
            let mut operands = vec![m];
            operands.extend([c1; 9]);
            b.insert_op("memref.load", operands, vec![Type::i32()], []);
        }),
    ];
    for (name, build) in cases {
        let err = run_malformed(build);
        let InterpError::Other { message } = &err else { panic!("{name}: {err:?}") };
        assert!(message.starts_with(&format!("{name} takes ")), "{name}: {message}");
    }
}

/// A CPU kernel whose memrefs have the rank it indexes but shapes that
/// do not agree is refused at resolution by name. Each of these used to
/// panic: on the kernels' shape asserts, on an index past the input, or
/// (stride 0) on a division by zero.
#[test]
fn kernel_shapes_that_disagree_are_errors_not_panics() {
    type Build = fn(&mut OpBuilder<'_>, ValueId);
    fn conv(b: &mut OpBuilder<'_>, shapes: [[i64; 4]; 3], stride: i64) {
        let [input, filter, output] = shapes.map(|s| memref::alloc(b, s.to_vec(), Type::i32()));
        linalg::conv_2d_nchw_fchw(b, input, filter, output, stride);
    }
    let cases: [(&str, Build); 8] = [
        ("linalg.matmul", |b, _| {
            let a = memref::alloc(b, vec![4, 8], Type::i32());
            let c = memref::alloc(b, vec![4, 4], Type::i32());
            linalg::named_matmul(b, a, c, a);
        }),
        ("linalg.generic", |b, _| {
            let a = memref::alloc(b, vec![4, 4], Type::i32());
            let bb = memref::alloc(b, vec![8, 8], Type::i32());
            linalg::generic_matmul(b, a, bb, a);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            conv(b, [[1, 3, 8, 8], [2, 4, 3, 3], [1, 2, 6, 6]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            conv(b, [[1, 1, 8, 6], [1, 1, 3, 3], [1, 1, 6, 4]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            conv(b, [[1, 1, 2, 2], [1, 1, 3, 3], [1, 1, 1, 1]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            conv(b, [[1, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], 2);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            conv(b, [[2, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            conv(b, [[1, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], 0);
        }),
    ];
    for (name, build) in cases {
        let err = run_malformed(build);
        let InterpError::Other { message } = &err else { panic!("{name}: {err:?}") };
        let expected = format!("{name} operands must be memrefs ");
        assert!(message.starts_with(&expected), "{name}: {message}");
    }
    let err = run_malformed(|b, _| {
        let a = memref::alloc(b, vec![4, 4], Type::i32());
        let bb = memref::alloc(b, vec![8, 8], Type::i32());
        linalg::named_matmul(b, a, bb, a);
    });
    let message = "linalg.matmul operands must be memrefs A[m, k], B[k, n], C[m, n] of static \
                   extents; found memref<4x4xi32>, memref<8x8xi32>, memref<4x4xi32>";
    assert_eq!(err, InterpError::Other { message: message.into() });
}

/// A subview whose offsets leave its parent view, and a load or store
/// whose indices leave its view, are errors naming the op. The subview
/// used to panic on `subview_into`'s bounds assert; the load and store
/// were only debug-asserted, then hit the simulated memory's bounds
/// panic (or, in range of it, a neighbouring element).
#[test]
fn out_of_view_accesses_are_errors_not_panics() {
    let err = run_malformed(|b, c1| {
        let m = memref::alloc(b, vec![4, 4], Type::i32());
        let c3 = arith::const_index(b, 3);
        memref::subview(b, m, vec![c3, c1], vec![2, 2]);
    });
    let message = "memref.subview subview [3; +2) exceeds dim 0 of size 4";
    assert_eq!(err, InterpError::Other { message: message.into() });

    let err = run_malformed(|b, c1| {
        let m = memref::alloc(b, vec![4, 4], Type::i32());
        let far = arith::const_index(b, 1 << 40);
        memref::load(b, m, vec![c1, far]);
    });
    let message = "memref.load index [1, 1099511627776] is outside its view [4, 4]";
    assert_eq!(err, InterpError::Other { message: message.into() });

    let err = run_malformed(|b, c1| {
        let m = memref::alloc(b, vec![4, 4], Type::i32());
        let word = arith::const_i32(b, 7);
        let below = arith::const_index(b, -1);
        memref::store(b, word, m, vec![below, c1]);
    });
    let message = "memref.store index [-1, 1] is outside its view [4, 4]";
    assert_eq!(err, InterpError::Other { message: message.into() });
}

/// An `accel` op has no meaning in the interpreter: it must be lowered
/// to runtime calls first, and run unlowered it is an error naming it.
#[test]
fn an_unlowered_accel_op_is_an_error() {
    let err = run_malformed(|b, _| {
        let word = arith::const_i32(b, 0);
        accel::dma_init(b, word, word, word, word, word);
    });
    let message = "`accel.dma_init` must be lowered to runtime calls before it runs";
    assert_eq!(err, InterpError::Other { message: message.into() });
}

//! Malformed IR is an [`InterpError`] from [`run_func`], never a panic.
//!
//! A module that breaks a dialect rule (a missing region, attribute,
//! operand or result, a memref of the wrong rank, CPU-kernel operands
//! whose shapes disagree, a subview whose type is not its sizes) is
//! refused by `verify_dialects` naming the op, and running it returns
//! that same message as [`InterpError::Unverified`]: the compile to a
//! program runs the verifier's per-op check. What the verifier cannot
//! know stays with the interpreter, each with its own variant or message.
//! The compile refuses an unknown callee or a call with the wrong arity
//! for the runtime library, an `accel` op not lowered, and an op indexing
//! more dimensions than its index buffer holds, wherever the op sits. The
//! run refuses arguments that do not fit the entry's parameters, indices
//! or subviews that leave their view, and `dma_init` regions or
//! `memref.alloc`s the simulated memory cannot hold.

use axi4mlir_dialects::verify::verify_dialects;
use axi4mlir_dialects::{accel, arith, func, linalg, memref, scf};
use axi4mlir_interp::{run_func, InterpError, RtValue};
use axi4mlir_ir::attrs::Attribute;
use axi4mlir_ir::builder::OpBuilder;
use axi4mlir_ir::kind::OpKind;
use axi4mlir_ir::ops::{Module, ValueId};
use axi4mlir_ir::types::{MemRefType, Type, DYNAMIC};
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::dma_lib::names;
use axi4mlir_runtime::memref::MemRefDesc;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::LoopbackAccelerator;
use axi4mlir_sim::mem::{ElemType, CAPACITY};
use axi4mlir_support::diag::DiagnosticEngine;

fn soc() -> Soc {
    Soc::new(Box::new(LoopbackAccelerator::new()))
}

/// A module whose `main` holds the op(s) `build` makes (given the entry
/// builder and an index constant).
fn module(build: impl FnOnce(&mut OpBuilder<'_>, ValueId)) -> Module {
    let mut m = Module::new();
    let f = func::func(&mut m, "main", vec![], vec![]);
    let mut b = func::entry_builder(&mut m.ctx, &f);
    let c1 = arith::const_index(&mut b, 1);
    build(&mut b, c1);
    m
}

fn run(m: &Module) -> InterpError {
    run_func(&mut soc(), m, "main", vec![], CopyStrategy::ElementWise).unwrap_err()
}

/// Asserts that the dialect verifier refuses `m` naming the op `name`,
/// and that running `m` returns that refusal as the static-refusal
/// variant. Returns the message.
fn assert_refused(name: &str, m: &Module) -> String {
    let mut diags = DiagnosticEngine::new();
    let verdict = verify_dialects(&m.ctx, m.top(), &mut diags).expect_err(name);
    assert!(verdict.message.starts_with(&format!("{name} (")), "{name}: {}", verdict.message);
    assert_eq!(run(m), InterpError::Unverified { message: verdict.message.clone() }, "{name}");
    verdict.message
}

/// Asserts that the dialect verifier accepts `m`, and returns the
/// interpreter's own refusal of it.
fn assert_interp_refuses(m: &Module) -> InterpError {
    let mut diags = DiagnosticEngine::new();
    verify_dialects(&m.ctx, m.top(), &mut diags).expect("the dialect rules hold");
    run(m)
}

/// Region, attribute and shape defects are the verifier's. The two
/// `scf.for` shapes used to panic in `IrCtx::sole_block`; an unknown
/// callee is the interpreter's, which alone knows the runtime library.
#[test]
fn malformed_ops_are_errors_not_panics() {
    let m = module(|b, c1| {
        b.insert_op(OpKind::ScfFor, vec![c1, c1, c1], vec![], []);
    });
    assert!(assert_refused("scf.for", &m).ends_with("expects one region with one block"));

    let m = module(|b, c1| {
        let (op, _) =
            b.insert_region_op(OpKind::ScfFor, vec![c1, c1, c1], vec![], [], vec![Type::Index]);
        let region = b.ctx_ref().op(op).regions[0];
        b.ctx().add_block(region, vec![]);
    });
    assert!(assert_refused("scf.for", &m).ends_with("expects one region with one block"));

    let m = module(|b, _| {
        let dynamic = MemRefType::contiguous(vec![DYNAMIC], Type::i32());
        b.insert_op(OpKind::MemrefAlloc, vec![], vec![Type::MemRef(dynamic)], []);
    });
    assert!(assert_refused("memref.alloc", &m).ends_with("a memref of static extents"));

    let m = module(|b, _| {
        b.insert_op(OpKind::ArithConstant, vec![], vec![Type::Index], []);
    });
    assert!(assert_refused("arith.constant", &m).ends_with("missing value attribute"));

    let m = module(|b, _| {
        b.insert_op(OpKind::FuncCall, vec![], vec![], [("callee", Attribute::Str("nope".into()))]);
    });
    assert_eq!(assert_interp_refuses(&m), InterpError::UnknownCallee { name: "nope".into() });
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
    assert_refused("scf.for", &m);
}

/// A call to the runtime library named `callee` with `operands`.
fn call(b: &mut OpBuilder<'_>, callee: &str, operands: Vec<ValueId>, results: Vec<Type>) {
    b.insert_op(OpKind::FuncCall, operands, results, [("callee", Attribute::Str(callee.into()))]);
}

/// Ops without an operand or result that execution reads, or whose
/// memrefs lack the rank it indexes, are refused by name. The first
/// eight used to panic indexing past the op's operands, its results or a
/// descriptor's sizes. A runtime call's arity is the library's, so the
/// interpreter refuses it; `dma_init`'s was once checked on every run.
/// A load past rank 8 is the interpreter's too: its index buffer holds
/// eight.
#[test]
fn missing_operands_and_results_are_errors_not_panics() {
    type Build = fn(&mut OpBuilder<'_>, ValueId);
    let verifier: [(&str, Build); 6] = [
        ("arith.addi", |b, c1| {
            b.insert_op(OpKind::ArithAddi, vec![c1], vec![Type::Index], []);
        }),
        ("arith.addi", |b, c1| {
            b.insert_op(OpKind::ArithAddi, vec![c1, c1], vec![], []);
        }),
        ("memref.load", |b, _| {
            b.insert_op(OpKind::MemrefLoad, vec![], vec![Type::i32()], []);
        }),
        ("memref.store", |b, c1| {
            b.insert_op(OpKind::MemrefStore, vec![c1], vec![], []);
        }),
        ("memref.subview", |b, _| {
            let view = Type::MemRef(MemRefType::contiguous(vec![1], Type::i32()));
            let sizes = ("static_sizes", Attribute::Array(vec![Attribute::Int(1)]));
            b.insert_op(OpKind::MemrefSubview, vec![], vec![view], [sizes]);
        }),
        ("linalg.conv_2d_nchw_fchw", |b, _| {
            let m = memref::alloc(b, vec![4, 4], Type::i32());
            b.insert_op(OpKind::LinalgConv2dNchwFchw, vec![m, m, m], vec![], []);
        }),
    ];
    for (name, build) in verifier {
        assert_refused(name, &module(build));
    }

    let calls: [(&str, Build); 3] = [
        (names::WRITE_LITERAL, |b, _| call(b, names::WRITE_LITERAL, vec![], vec![Type::i32()])),
        (names::COPY_FROM, |b, c1| {
            let m = memref::alloc(b, vec![4], Type::i32());
            call(b, names::COPY_FROM, vec![m, c1], vec![Type::i32()]);
        }),
        (names::DMA_INIT, |b, c1| call(b, names::DMA_INIT, vec![c1; 4], vec![])),
    ];
    for (callee, build) in calls {
        let err = assert_interp_refuses(&module(build));
        let InterpError::Other { message } = &err else { panic!("{callee}: {err:?}") };
        assert!(message.starts_with(&format!("func.call @{callee} takes ")), "{message}");
    }

    let err = assert_interp_refuses(&module(|b, c1| {
        let m = memref::alloc(b, vec![1; 9], Type::i32());
        let mut operands = vec![m];
        operands.extend([c1; 9]);
        b.insert_op(OpKind::MemrefLoad, operands, vec![Type::i32()], []);
    }));
    let message = "memref.load indexes 9 dimensions; at most 8 are supported";
    assert_eq!(err, InterpError::Other { message: message.into() });
}

/// A CPU kernel whose memrefs have the rank it indexes but shapes that
/// do not agree is refused by name. Each of these used to panic: on the
/// kernels' shape asserts, on an index past the input, or (stride 0) on
/// a division by zero.
#[test]
fn kernel_shapes_that_disagree_are_errors_not_panics() {
    type Build = fn(&mut OpBuilder<'_>, ValueId);
    fn conv(b: &mut OpBuilder<'_>, shapes: [[i64; 4]; 3], stride: i64) {
        let [input, filter, output] = shapes.map(|s| memref::alloc(b, s.to_vec(), Type::i32()));
        linalg::conv_2d_nchw_fchw(b, input, filter, output, stride);
    }
    let cases: [(&str, &str, Build); 9] = [
        ("linalg.matmul", "A[m, k]", |b, _| {
            let a = memref::alloc(b, vec![4, 8], Type::i32());
            let c = memref::alloc(b, vec![4, 4], Type::i32());
            linalg::named_matmul(b, a, c, a);
        }),
        ("linalg.generic", "A[m, k]", |b, _| {
            let a = memref::alloc(b, vec![4, 4], Type::i32());
            let bb = memref::alloc(b, vec![8, 8], Type::i32());
            linalg::generic_matmul(b, a, bb, a);
        }),
        ("linalg.conv_2d_nchw_fchw", "input[b, c, h, h]", |b, _| {
            conv(b, [[1, 3, 8, 8], [2, 4, 3, 3], [1, 2, 6, 6]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", "input[b, c, h, h]", |b, _| {
            conv(b, [[1, 1, 8, 6], [1, 1, 3, 3], [1, 1, 6, 4]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", "input[b, c, h, h]", |b, _| {
            conv(b, [[1, 1, 2, 2], [1, 1, 3, 3], [1, 1, 1, 1]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", "input[b, c, h, h]", |b, _| {
            conv(b, [[1, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], 2);
        }),
        ("linalg.conv_2d_nchw_fchw", "input[b, c, h, h]", |b, _| {
            conv(b, [[2, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], 1);
        }),
        ("linalg.conv_2d_nchw_fchw", "strides must be positive", |b, _| {
            conv(b, [[1, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], 0);
        }),
        ("linalg.conv_2d_nchw_fchw", "strides must be positive", |b, _| {
            conv(b, [[1, 1, 8, 8], [1, 1, 3, 3], [1, 1, 6, 6]], -1);
        }),
    ];
    for (name, rule, build) in cases {
        let message = assert_refused(name, &module(build));
        assert!(message.contains(rule), "{name}: {message}");
    }
    let message = assert_refused(
        "linalg.matmul",
        &module(|b, _| {
            let a = memref::alloc(b, vec![4, 4], Type::i32());
            let bb = memref::alloc(b, vec![8, 8], Type::i32());
            linalg::named_matmul(b, a, bb, a);
        }),
    );
    let rule = "operands must be memrefs A[m, k], B[k, n], C[m, n] of static extents; found \
                memref<4x4xi32>, memref<8x8xi32>, memref<4x4xi32>";
    assert!(message.ends_with(rule), "{message}");
}

/// A subview's result type is its `static_sizes` over the source's
/// element type. A `[2, 8]` view typed `4x4` passed both verifiers and
/// panicked the CPU MatMul on its contraction assert.
#[test]
fn a_subview_typed_unlike_its_sizes_is_refused() {
    fn subview(b: &mut OpBuilder<'_>, c1: ValueId, sizes: [i64; 2], view: Type) -> ValueId {
        let buf = memref::alloc(b, vec![8, 8], Type::i32());
        let sizes = Attribute::Array(sizes.map(Attribute::Int).to_vec());
        let op = b.insert_op(
            OpKind::MemrefSubview,
            vec![buf, c1, c1],
            vec![view],
            [("static_sizes", sizes)],
        );
        b.result(op)
    }
    let strided = |elem: Type| Type::MemRef(MemRefType::strided(vec![4, 4], elem, vec![8, 1]));
    let m = module(|b, c1| {
        let view = subview(b, c1, [2, 8], strided(Type::i32()));
        let other = memref::alloc(b, vec![4, 4], Type::i32());
        linalg::named_matmul(b, view, other, other);
    });
    assert!(assert_refused("memref.subview", &m)
        .ends_with("must be static_sizes of the source's element type"));

    let m = module(|b, c1| {
        subview(b, c1, [4, 4], strided(Type::f32()));
    });
    assert!(assert_refused("memref.subview", &m)
        .ends_with("must be static_sizes of the source's element type"));

    let m = module(|b, c1| {
        subview(b, c1, [-1, 4], strided(Type::i32()));
    });
    assert!(assert_refused("memref.subview", &m).ends_with("non-negative integers"));
}

/// The attributes and result types an op is read by are the verifier's.
#[test]
fn attributes_and_result_types_are_the_verifiers() {
    type Build = fn(&mut OpBuilder<'_>, ValueId);
    let cases: [(&str, &str, Build); 4] = [
        ("memref.dim", "dimension", |b, _| {
            let m = memref::alloc(b, vec![4, 4], Type::i32());
            memref::dim(b, m, 2);
        }),
        ("arith.constant", "an integer", |b, _| {
            b.insert_op(
                OpKind::ArithConstant,
                vec![],
                vec![Type::f32()],
                [("value", Attribute::Float(0.5))],
            );
        }),
        ("arith.constant", "result must be", |b, _| {
            let ty = Type::MemRef(MemRefType::contiguous(vec![4], Type::i32()));
            b.insert_op(OpKind::ArithConstant, vec![], vec![ty], [("value", Attribute::Int(0))]);
        }),
        ("arith.index_cast", "result must be", |b, c1| {
            arith::index_cast(b, c1, Type::f32());
        }),
    ];
    for (name, rule, build) in cases {
        let message = assert_refused(name, &module(build));
        assert!(message.contains(rule), "{name}: {message}");
    }
}

/// Arguments come from outside the module, so the interpreter checks
/// each against its parameter's type. A rank-1 descriptor for a
/// `memref<4x4xi32>` used to reach the CPU MatMul and panic on its rank
/// assert.
#[test]
fn arguments_that_do_not_fit_their_parameters_are_refused() {
    let mut m = Module::new();
    let tile = Type::MemRef(MemRefType::contiguous(vec![4, 4], Type::i32()));
    let f = func::func(&mut m, "main", vec![tile.clone(), tile.clone(), tile, Type::Index], vec![]);
    let [a, b_arg, c] = [0, 1, 2].map(|i| func::arg(&m.ctx, f.op, i));
    let mut b = func::entry_builder(&mut m.ctx, &f);
    linalg::named_matmul(&mut b, a, b_arg, c);

    let mut host = soc();
    let mut desc =
        |shape: &[i64], elem| RtValue::MemRef(MemRefDesc::alloc(&mut host.mem, shape, elem));
    let good = desc(&[4, 4], ElemType::I32);
    let cases = [
        (desc(&[16], ElemType::I32), RtValue::Index(0)),
        (desc(&[4, 8], ElemType::I32), RtValue::Index(0)),
        (desc(&[4, 4], ElemType::F32), RtValue::Index(0)),
        (RtValue::I32(4), RtValue::Index(0)),
        (good.clone(), RtValue::I32(0)),
    ];
    for (first, last) in cases {
        let args = vec![first, good.clone(), good.clone(), last];
        let err = run_func(&mut host, &m, "main", args, CopyStrategy::ElementWise).unwrap_err();
        assert!(matches!(err, InterpError::BadArguments { .. }), "{err}");
    }
    let args = vec![good.clone(), good.clone(), good, RtValue::Index(0)];
    run_func(&mut host, &m, "main", args, CopyStrategy::ElementWise)
        .expect("fitting arguments run");
}

/// A subview whose offsets leave its parent view, and a load or store
/// whose indices leave its view, are errors naming the op. The subview
/// used to panic on `subview_into`'s bounds assert; the load and store
/// were only debug-asserted, then hit the simulated memory's bounds
/// panic (or, in range of it, a neighbouring element).
#[test]
fn out_of_view_accesses_are_errors_not_panics() {
    let err = assert_interp_refuses(&module(|b, c1| {
        let m = memref::alloc(b, vec![4, 4], Type::i32());
        let c3 = arith::const_index(b, 3);
        memref::subview(b, m, vec![c3, c1], vec![2, 2]);
    }));
    let message = "memref.subview subview [3; +2) exceeds dim 0 of size 4";
    assert_eq!(err, InterpError::Other { message: message.into() });

    let err = assert_interp_refuses(&module(|b, c1| {
        let m = memref::alloc(b, vec![4, 4], Type::i32());
        let far = arith::const_index(b, 1 << 40);
        memref::load(b, m, vec![c1, far]);
    }));
    let message = "memref.load index [1, 1099511627776] is outside its view [4, 4]";
    assert_eq!(err, InterpError::Other { message: message.into() });

    let err = assert_interp_refuses(&module(|b, c1| {
        let m = memref::alloc(b, vec![4, 4], Type::i32());
        let word = arith::const_i32(b, 7);
        let below = arith::const_index(b, -1);
        memref::store(b, word, m, vec![below, c1]);
    }));
    let message = "memref.store index [-1, 1] is outside its view [4, 4]";
    assert_eq!(err, InterpError::Other { message: message.into() });
}

/// An `accel` op has no meaning in the interpreter: it must be lowered
/// to runtime calls first, and run unlowered it is an error naming it.
#[test]
fn an_unlowered_accel_op_is_an_error() {
    let err = assert_interp_refuses(&module(|b, _| {
        let word = arith::const_i32(b, 0);
        accel::dma_init(b, word, word, word, word, word);
    }));
    let message = "`accel.dma_init` must be lowered to runtime calls before it runs";
    assert_eq!(err, InterpError::Other { message: message.into() });
}

/// A buffer or DMA region the simulated memory cannot hold is refused
/// before any of it is allocated: a `dma_init` size when the call runs,
/// a static `memref.alloc` by the verifier. Each case used to panic: a
/// negative size overflowed the bump allocator, an `i64::MAX`-byte
/// region or a 2^61-element buffer overflowed the backing `Vec`'s
/// capacity, and a 2^64-element shape overflowed its element count.
/// (A region or buffer past the capacity but short of those overflows
/// was worse: the host allocated, and zeroed, every byte of it.)
#[test]
fn sizes_past_the_simulated_memory_are_refused_before_allocation() {
    for sizes in [[-1, 0], [0, -1], [1, i64::MAX]] {
        let m = module(|b, c1| {
            let [input, output] = sizes.map(|size| arith::const_index(b, size));
            call(b, names::DMA_INIT, vec![c1, c1, input, c1, output], vec![]);
        });
        let mut diags = DiagnosticEngine::new();
        verify_dialects(&m.ctx, m.top(), &mut diags).expect("the dialect rules hold");
        let mut soc = soc();
        let err = run_func(&mut soc, &m, "main", vec![], CopyStrategy::ElementWise).unwrap_err();
        let message = format!(
            "func.call @dma_init: byte sizes {sizes:?} must be non-negative and fit the \
             {CAPACITY} of {CAPACITY} simulated bytes left"
        );
        assert_eq!(err, InterpError::Other { message });
        assert_eq!(soc.mem.allocated_bytes(), 0, "{sizes:?}");
    }

    for shape in [vec![1 << 32, 1 << 32], vec![1 << 61]] {
        let m = module(|b, _| {
            memref::alloc(b, shape.clone(), Type::i32());
        });
        let message = assert_refused("memref.alloc", &m);
        assert!(message.ends_with("must fit the simulated memory's capacity"), "{message}");
        let mut soc = soc();
        run_func(&mut soc, &m, "main", vec![], CopyStrategy::ElementWise).unwrap_err();
        assert_eq!(soc.mem.allocated_bytes(), 0, "{shape:?}");
    }
}

/// A `memref.alloc` in a loop allocates on every trip, and the simulated
/// memory frees nothing within a run: the verifier bounds one buffer, the
/// run refuses the allocation that would pass the capacity. Five 64 MiB
/// buffers used to return `Ok` holding 320 MiB.
#[test]
fn allocations_repeated_in_a_loop_stop_at_the_capacity() {
    let m = module(|b, c1| {
        let c0 = arith::const_index(b, 0);
        let c5 = arith::const_index(b, 5);
        let l = scf::for_loop(b, c0, c5, c1);
        memref::alloc(&mut scf::body_builder(b.ctx(), &l), vec![16_777_216], Type::i32());
    });
    let mut soc = soc();
    let err = run_func(&mut soc, &m, "main", vec![], CopyStrategy::ElementWise).unwrap_err();
    let message =
        format!("memref.alloc of 67108864 bytes must fit the 0 of {CAPACITY} simulated bytes left");
    assert_eq!(err, InterpError::Other { message });
    assert!(soc.mem.allocated_bytes() <= CAPACITY, "{}", soc.mem.allocated_bytes());
}

/// An op that cannot run is the compile's refusal wherever it sits: in a
/// loop of zero trips it used to be skipped.
#[test]
fn an_op_that_cannot_run_is_refused_in_a_loop_that_never_runs() {
    let m = module(|b, c1| {
        let c0 = arith::const_index(b, 0);
        let l = scf::for_loop(b, c1, c0, c1);
        let mut body = scf::body_builder(b.ctx(), &l);
        body.insert_op(OpKind::parse("test.mystery"), vec![], vec![], []);
    });
    assert_eq!(
        assert_interp_refuses(&m),
        InterpError::UnsupportedOp { name: "test.mystery".into() }
    );
}

/// `index` arithmetic is `i64`, and an overflow is an error naming the op
/// in every build profile: `arith.addi` or `arith.muli` of two `i64::MAX`
/// constants used to panic in a debug build and wrap in a release one. An
/// `scf.for` increment that passes `i64::MAX` has passed the bound too, so
/// the loop ends: from `i64::MAX - 1` to `i64::MAX` by 2 used to panic in a
/// debug build and run about 2^63 trips in a release one.
#[test]
fn index_overflow_is_an_error_and_ends_a_loop() {
    for (kind, op) in [(OpKind::ArithAddi, '+'), (OpKind::ArithMuli, '*')] {
        let err = assert_interp_refuses(&module(|b, _| {
            let max = arith::const_index(b, i64::MAX);
            match kind {
                OpKind::ArithAddi => arith::addi(b, max, max),
                _ => arith::muli(b, max, max),
            };
        }));
        let message = format!("{kind} overflows index: {max} {op} {max}", max = i64::MAX);
        assert_eq!(err, InterpError::Other { message });
    }

    let m = module(|b, _| {
        let lb = arith::const_index(b, i64::MAX - 1);
        let ub = arith::const_index(b, i64::MAX);
        let c2 = arith::const_index(b, 2);
        scf::for_loop(b, lb, ub, c2);
    });
    let mut soc = soc();
    run_func(&mut soc, &m, "main", vec![], CopyStrategy::ElementWise).expect("the loop ends");
    assert_eq!(soc.counters.branch_instructions, 1, "one trip: the increment passes the bound");
}

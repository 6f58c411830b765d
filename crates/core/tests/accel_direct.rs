//! Execution tests of `accel` IR written directly rather than generated
//! from a preset, including the actions no preset emits: `accel.sendIdx`
//! and `accel.sendDim` inside loops. Each module runs the way every host
//! driver runs: lowered by `LowerAccelToRuntimePass`, the one definition
//! of what an `accel` op does, then interpreted.

use axi4mlir_core::lower::LowerAccelToRuntimePass;
use axi4mlir_dialects::{accel, arith, func, memref, scf};
use axi4mlir_interp::run_func;
use axi4mlir_ir::ops::Module;
use axi4mlir_ir::pass::PassManager;
use axi4mlir_ir::types::Type;
use axi4mlir_runtime::copy::CopyStrategy;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::LoopbackAccelerator;

/// Lowers `m` to runtime calls and runs its `main` on a loopback SoC.
fn run_lowered(mut m: Module) -> Soc {
    let mut pm = PassManager::new();
    pm.add(Box::new(LowerAccelToRuntimePass));
    pm.run(&mut m).expect("the module lowers");
    let mut s = Soc::new(Box::new(LoopbackAccelerator::new()));
    run_func(&mut s, &m, "main", vec![], CopyStrategy::ElementWise).unwrap();
    s
}

/// Emits `accel.dma_init` with the standard test staging sizes.
fn emit_dma_init(b: &mut axi4mlir_ir::builder::OpBuilder<'_>) {
    let id = arith::const_i32(b, 0);
    let in_addr = arith::const_i32(b, 66);
    let in_size = arith::const_i32(b, 4096);
    let out_addr = arith::const_i32(b, 8192);
    let out_size = arith::const_i32(b, 4096);
    accel::dma_init(b, id, in_addr, in_size, out_addr, out_size);
}

/// `accel.sendIdx` streams the loop induction variable: with a loopback
/// device, the words coming back are exactly the loop indices.
#[test]
fn send_idx_streams_loop_indices() {
    let mut m = Module::new();
    let f = func::func(&mut m, "main", vec![], vec![]);
    let mut b = func::entry_builder(&mut m.ctx, &f);
    emit_dma_init(&mut b);
    let c0 = arith::const_index(&mut b, 0);
    let c10 = arith::const_index(&mut b, 10);
    let c2 = arith::const_index(&mut b, 2);
    let l = scf::for_loop(&mut b, c0, c10, c2);
    let mut bb = scf::body_builder(&mut m.ctx, &l);
    let off0 = arith::const_i32(&mut bb, 0);
    let idx = arith::index_cast(&mut bb, l.iv, Type::i32());
    accel::send_idx(&mut bb, idx, off0, true);

    let mut s = run_lowered(m);
    // The loopback echoes every beat; 5 iterations staged one word each.
    let echoed: Vec<u32> = std::iter::from_fn(|| s.accel.pop_output_word()).collect();
    assert_eq!(echoed, vec![0, 2, 4, 6, 8]);
    assert_eq!(s.counters.dma_transactions, 5);
}

/// `accel.sendDim` streams a view dimension; dim words for a subview use
/// the *tile* shape, not the parent shape.
#[test]
fn send_dim_streams_tile_dimension() {
    let mut m = Module::new();
    let f = func::func(&mut m, "main", vec![], vec![]);
    let mut b = func::entry_builder(&mut m.ctx, &f);
    emit_dma_init(&mut b);
    let parent = memref::alloc(&mut b, vec![64, 32], Type::i32());
    let z = arith::const_index(&mut b, 0);
    let tile = memref::subview(&mut b, parent, vec![z, z], vec![8, 16]);
    let off0 = arith::const_i32(&mut b, 0);
    let off1 = accel::send_dim(&mut b, tile, 0, off0, false);
    accel::send_dim(&mut b, tile, 1, off1, true);

    let mut s = run_lowered(m);
    let echoed: Vec<u32> = std::iter::from_fn(|| s.accel.pop_output_word()).collect();
    assert_eq!(echoed, vec![8, 16], "tile dims, not parent dims");
    assert_eq!(s.counters.dma_transactions, 1, "both words batched into one send");
}

/// Staged literals batch into one transaction exactly as §III-A describes:
/// the offset chain builds the message, the flush transmits it whole.
#[test]
fn literal_batching_is_one_transaction() {
    let mut m = Module::new();
    let f = func::func(&mut m, "main", vec![], vec![]);
    let mut b = func::entry_builder(&mut m.ctx, &f);
    emit_dma_init(&mut b);
    let off0 = arith::const_i32(&mut b, 0);
    let w1 = arith::const_i32(&mut b, 0xAA);
    let w2 = arith::const_i32(&mut b, 0xBB);
    let w3 = arith::const_i32(&mut b, 0xCC);
    let off1 = accel::send_literal(&mut b, w1, off0, false);
    let off2 = accel::send_literal(&mut b, w2, off1, false);
    accel::send_literal(&mut b, w3, off2, true);

    let mut s = run_lowered(m);
    let echoed: Vec<u32> = std::iter::from_fn(|| s.accel.pop_output_word()).collect();
    assert_eq!(echoed, vec![0xAA, 0xBB, 0xCC]);
    assert_eq!(s.counters.dma_transactions, 1);
    assert_eq!(s.counters.dma_bytes_to_accel, 12);
}

/// Counters are data-independent: two runs over different input values
/// (same shapes) charge identical cycles, references, and traffic.
#[test]
fn counters_are_data_independent() {
    let run = |fill: i32| {
        let mut m = Module::new();
        let f = func::func(&mut m, "main", vec![], vec![]);
        let mut b = func::entry_builder(&mut m.ctx, &f);
        emit_dma_init(&mut b);
        let buf = memref::alloc(&mut b, vec![4, 4], Type::i32());
        let z = arith::const_index(&mut b, 0);
        let v = arith::const_i32(&mut b, fill);
        memref::store(&mut b, v, buf, vec![z, z]);
        let off0 = arith::const_i32(&mut b, 0);
        accel::send(&mut b, buf, off0, true);
        run_lowered(m).counters
    };
    assert_eq!(run(1), run(-999));
}

// A plain-linalg 8x8x8 matmul: well-formed input for `--config`. Beside it,
// two Fig. 5 documents that name no usable device (`unknown_device.json`,
// `name_kernel_mismatch.json`): `axi4mlir-opt matmul8.mlir --config <each>`
// is a diagnostic naming the accelerator, exit 1.
"builtin.module"() ({
  ^bb():
    "func.func"() ({
      ^bb(%0: memref<8x8xi32>, %1: memref<8x8xi32>, %2: memref<8x8xi32>):
        "linalg.generic"(%0, %1, %2) ({
          ^bb(%3: i32, %4: i32, %5: i32):
            %6 = "arith.muli"(%3, %4) : (i32, i32) -> (i32)
            %7 = "arith.addi"(%5, %6) : (i32, i32) -> (i32)
            "linalg.yield"(%7) : (i32) -> ()
        }) {indexing_maps = [affine_map<(m, n, k) -> (m, k)>, affine_map<(m, n, k) -> (k, n)>, affine_map<(m, n, k) -> (m, n)>], iterator_types = ["parallel", "parallel", "reduction"], num_inputs = 2} : (memref<8x8xi32>, memref<8x8xi32>, memref<8x8xi32>) -> ()
        "func.return"() : () -> ()
    }) {arg_types = [memref<8x8xi32>, memref<8x8xi32>, memref<8x8xi32>], result_types = [], sym_name = "matmul_call"} : () -> ()
}) : () -> ()

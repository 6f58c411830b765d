"builtin.module"() ({
  ^bb():
    "func.func"() ({
      ^bb(%0: memref<1x8x8x8xi32>, %1: memref<1x8x3x3xi32>, %2: memref<1x1x6x6xi32>):
        "linalg.conv_2d_nchw_fchw"(%0, %1) {accel_dim = affine_map<(b, h, w, ic, oc, fh, fw) -> (0, 0, 0, 8, 1, 3, 3)>, accel_name = "conv2d", dma_init_config = {id = 0, inputAddress = 66, inputBufferSize = 65280, outputAddress = 65346, outputBufferSize = 65280}, init_opcodes = opcode_flow<(rst)>, num_inputs = 2, opcode_flow = opcode_flow<(sF (sIcO) rO)>, opcode_map = opcode_map<sIcO = [send_literal(70), send(0)], sF = [send_literal(1), send(1)], rO = [send_literal(8), recv(2)], rst = [send_literal(32), send_dim(1, 3), send_literal(16), send_dim(0, 1)]>, strides = [1, 1]} : (memref<1x8x8x8xi32>, memref<1x8x3x3xi32>) -> ()
        "func.return"() : () -> ()
    }) {arg_types = [memref<1x8x8x8xi32>, memref<1x8x3x3xi32>, memref<1x1x6x6xi32>], result_types = [], sym_name = "conv_call"} : () -> ()
}) : () -> ()


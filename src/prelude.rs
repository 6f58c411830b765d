//! Convenient re-exports of the most frequently used types.

pub use axi4mlir_accelerators::matmul::MatMulVersion;
pub use axi4mlir_config::{AcceleratorConfig, CpuSpec, FlowStrategy, SystemConfig};
pub use axi4mlir_core::driver::{
    BatchedMatMulWorkload, CompilePlan, ConvWorkload, MatMulWorkload, PipelineBuilder, RunReport,
    Session, Workload,
};
pub use axi4mlir_core::options::{CacheTiling, PipelineOptions};
pub use axi4mlir_workloads::batched::BatchedMatMulProblem;
pub use axi4mlir_workloads::matmul::MatMulProblem;
pub use axi4mlir_workloads::resnet::{resnet18_layers, ConvLayer};

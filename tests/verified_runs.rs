//! A verified module runs: whenever the structural and dialect verifiers
//! accept a module, running it ends in `Ok` or in a run-time
//! [`InterpError`] — never a panic, and never the static refusal
//! [`InterpError::Unverified`], which would mean the interpreter holds a
//! module rule the verifier does not.
//!
//! The corpus is the golden inputs (as written, and lowered to runtime
//! calls by the pre-annotated pipeline), the malformed fixtures, and the
//! modules the three smoke design spaces compile to. Each runs as it is
//! and under seeded mutations: an operand dropped or duplicated, a
//! constant, a `static_sizes` entry or a memref extent perturbed, or an
//! op renamed to another the interpreter executes. Arguments are
//! allocated from the entry's parameter types, and each module drives
//! the device it was compiled for.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use axi4mlir::accelerators::device::Device;
use axi4mlir::compiler::driver::{PipelineBuilder, Session};
use axi4mlir::compiler::explore::{realize, Fidelity, JobSpec};
use axi4mlir::dialects::verify::verify_dialects;
use axi4mlir::interp::{run_func, Frame, InterpError, Program, RtValue};
use axi4mlir::ir::attrs::Attribute;
use axi4mlir::ir::kind::OpKind;
use axi4mlir::ir::ops::{Module, OpId};
use axi4mlir::ir::parser::parse_module;
use axi4mlir::ir::printer::print_op;
use axi4mlir::ir::types::{Type, DYNAMIC};
use axi4mlir::ir::verifier::verify;
use axi4mlir::runtime::copy::CopyStrategy;
use axi4mlir::runtime::memref::MemRefDesc;
use axi4mlir::runtime::soc::Soc;
use axi4mlir::sim::axi::LoopbackAccelerator;
use axi4mlir::sim::mem::{ElemType, SimAddr, BASE_ADDR};
use axi4mlir::support::diag::DiagnosticEngine;

/// Mutants drawn per corpus module.
const MUTANTS_PER_MODULE: usize = 120;

/// Registered kinds the interpreter does not execute: containers, an
/// op it does not model, a generic whose trait decides, a terminator of
/// that generic's body, and the `accel` ops (it runs them only lowered).
const NOT_EXECUTED: [OpKind; 5] = [
    OpKind::BuiltinModule,
    OpKind::FuncFunc,
    OpKind::MemrefAlloca,
    OpKind::LinalgGeneric,
    OpKind::LinalgYield,
];

/// Kinds a rename may pick: every op the interpreter executes.
fn known_ops() -> Vec<OpKind> {
    let executed = |kind: &&OpKind| !kind.is_accel() && !NOT_EXECUTED.contains(kind);
    OpKind::REGISTERED.iter().filter(executed).cloned().collect()
}

/// A corpus module and the device it drives, if any.
struct Subject {
    name: String,
    module: Module,
    device: Option<Device>,
}

/// One seeded change to a module.
#[derive(Clone, Debug)]
enum Mutation {
    DropOperand(OpId, usize),
    DuplicateOperand(OpId, usize),
    Constant(OpId, i64),
    StaticSize(OpId, usize, i64),
    Rename(OpId, OpKind),
    /// Extent `dim` of the `nth` memref type in the printed module.
    Extent {
        nth: usize,
        dim: usize,
        value: i64,
    },
}

/// xorshift64*: a seeded draw without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `.mlir` files of `dir` (under the repository root), sorted.
fn fixtures(dir: &str, skip: &str) -> Vec<String> {
    let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("entry").path().to_string_lossy().into_owned())
        .filter(|path| path.ends_with(".mlir") && !path.ends_with(skip))
        .collect();
    paths.sort();
    paths
}

/// The device an annotated module names in its `accel_name`.
fn annotated_device(m: &Module) -> Option<Device> {
    let named = m.ctx.walk(m.top()).into_iter().find_map(|op| m.ctx.attr(op, "accel_name"));
    named.and_then(Attribute::as_str).and_then(Device::parse)
}

fn golden_subjects() -> Vec<Subject> {
    let mut subjects = Vec::new();
    for path in fixtures("tests/golden", ".expected.mlir") {
        let module = parse_module(&read(&path)).expect("golden inputs parse");
        let device = annotated_device(&module);
        let mut lowered = module.clone();
        let mut pm = PipelineBuilder::new().pre_annotated().build();
        pm.run(&mut lowered).expect("golden inputs compile");
        subjects.push(Subject { name: format!("{path} (as written)"), module, device });
        subjects.push(Subject { name: format!("{path} (lowered)"), module: lowered, device });
    }
    for path in fixtures("tests/malformed", ".expected.mlir") {
        let module = parse_module(&read(&path)).expect("malformed fixtures parse");
        subjects.push(Subject { name: path, module, device: None });
    }
    subjects
}

/// The first, middle and last candidate of each smoke space, compiled
/// the way a sweep compiles them.
fn smoke_subjects() -> Vec<Subject> {
    let jobs = [
        JobSpec { dims: Some((16, 16, 16)), accels: vec!["v4_8".into()], ..JobSpec::default() },
        JobSpec {
            workload: "batched".into(),
            dims: Some((8, 8, 8)),
            batch: Some(2),
            accels: vec!["v4_8".into()],
            ..JobSpec::default()
        },
        JobSpec {
            workload: "conv".into(),
            layer: Some("10_64_3_16_1".into()),
            ..JobSpec::default()
        },
    ];
    let mut subjects = Vec::new();
    for job in jobs {
        let request = job.build().expect("the smoke job builds");
        let candidates = request.space.as_dyn().enumerate().expect("the smoke space enumerates");
        let mut picks = vec![0, candidates.len() / 2, candidates.len() - 1];
        picks.dedup();
        for pick in picks {
            let mut realized = realize(&candidates[pick].key, Fidelity::Full).expect("realizes");
            realized.plan.options.capture_ir = true;
            let report =
                Session::for_sweep().run(&*realized.workload, &realized.plan).expect("runs");
            let text = &report.ir_after.last().expect("a pass ran").ir;
            subjects.push(Subject {
                name: format!("{} candidate {pick}", job.workload),
                module: parse_module(text).expect("printed modules parse"),
                device: realized.plan.config.as_ref().map(|config| config.device),
            });
        }
    }
    subjects
}

/// Every mutation of `m` this test knows how to make.
fn mutations(m: &Module) -> Vec<Mutation> {
    let known = known_ops();
    let mut all = Vec::new();
    for op in m.ctx.walk(m.top()) {
        let data = m.ctx.op(op);
        for i in 0..data.operands.len() {
            all.extend([Mutation::DropOperand(op, i), Mutation::DuplicateOperand(op, i)]);
        }
        if let Some(v) = m.ctx.attr(op, "value").and_then(Attribute::as_int) {
            // A negative value too, but no huge one: as an `scf.for`
            // bound that would run for ever.
            let values = [v - 1, v + 1, 0, 2 * v, -v - 1];
            all.extend(values.map(|value| Mutation::Constant(op, value)));
        }
        if let Some(sizes) = m.ctx.attr(op, "static_sizes").and_then(Attribute::as_array) {
            for (i, size) in sizes.iter().filter_map(Attribute::as_int).enumerate() {
                all.extend([size - 1, size + 1, 0].map(|v| Mutation::StaticSize(op, i, v)));
            }
        }
        if known.contains(&data.kind) {
            let others = known.iter().filter(|&kind| *kind != data.kind);
            all.extend(others.map(|kind| Mutation::Rename(op, kind.clone())));
        }
    }
    let text = print_op(&m.ctx, m.top());
    for (nth, (at, _)) in text.match_indices("memref<").enumerate() {
        let shape = text[at + "memref<".len()..].split(['>', ',']).next().unwrap_or("");
        let extents = shape.split('x').map_while(|e| e.parse::<i64>().ok());
        for (dim, extent) in extents.enumerate() {
            all.extend([extent - 1, extent + 1].map(|value| Mutation::Extent { nth, dim, value }));
        }
    }
    all
}

/// `m` under `mutation`, or `None` when the mutated text does not parse.
fn mutate(m: &Module, mutation: &Mutation) -> Option<Module> {
    let mut m = m.clone();
    match *mutation {
        Mutation::DropOperand(op, i) => {
            m.ctx.op_mut(op).operands.remove(i);
        }
        Mutation::DuplicateOperand(op, i) => {
            let operands = &mut m.ctx.op_mut(op).operands;
            operands.insert(i, operands[i]);
        }
        Mutation::Constant(op, value) => m.ctx.set_attr(op, "value", Attribute::Int(value)),
        Mutation::StaticSize(op, i, value) => {
            let mut sizes = m.ctx.attr(op, "static_sizes")?.as_array()?.to_vec();
            sizes[i] = Attribute::Int(value);
            m.ctx.set_attr(op, "static_sizes", Attribute::Array(sizes));
        }
        Mutation::Rename(op, ref kind) => m.ctx.op_mut(op).kind = kind.clone(),
        Mutation::Extent { nth, dim, value } => {
            let text = print_op(&m.ctx, m.top());
            let (at, _) = text.match_indices("memref<").nth(nth)?;
            let start = at + "memref<".len();
            let shape = text[start..].split(['>', ',']).next()?;
            let mut extents: Vec<String> = shape.split('x').map(str::to_owned).collect();
            extents[dim] = value.to_string();
            let mutated =
                format!("{}{}{}", &text[..start], extents.join("x"), &text[start + shape.len()..]);
            return parse_module(&mutated).ok();
        }
    }
    Some(m)
}

/// Whether both verifiers accept `m`.
fn verified(m: &Module) -> bool {
    let mut diags = DiagnosticEngine::new();
    verify(&m.ctx, m.top(), &mut diags).is_ok()
        && verify_dialects(&m.ctx, m.top(), &mut diags).is_ok()
}

/// A zeroed argument for each parameter of `m`'s first function, or
/// `None` for a parameter type the simulator does not model.
fn arguments(soc: &mut Soc, m: &Module) -> Option<(String, Vec<RtValue>)> {
    let func = *m.funcs().first()?;
    let name = m.ctx.attr(func, "sym_name")?.as_str()?.to_owned();
    let entry = m.ctx.sole_block(func, 0);
    let mut args = Vec::new();
    for param in &m.ctx.block(entry).args {
        args.push(match m.ctx.value_type(*param) {
            Type::Index => RtValue::Index(0),
            Type::Int(_) => RtValue::I32(0),
            Type::Float(_) => RtValue::F32(0.0),
            Type::MemRef(ty) => {
                let elem = match *ty.elem {
                    Type::Int(32) => ElemType::I32,
                    Type::Float(32) => ElemType::F32,
                    Type::Int(64) => ElemType::I64,
                    Type::Float(64) => ElemType::F64,
                    _ => return None,
                };
                let shape: Vec<i64> =
                    ty.shape.iter().map(|&e| if e == DYNAMIC { 1 } else { e }).collect();
                RtValue::MemRef(MemRefDesc::alloc(&mut soc.mem, &shape, elem))
            }
            Type::Unit => return None,
        });
    }
    Some((name, args))
}

/// A system driving `device`, or the loopback device.
fn soc(device: Option<Device>) -> Soc {
    Soc::new(device.map_or_else(|| Box::new(LoopbackAccelerator::new()) as _, Device::instantiate))
}

/// Runs `m` on `device`: `None` when it ended as a verified module may,
/// else what went wrong.
fn run(m: &Module, device: Option<Device>) -> Option<String> {
    let mut soc = soc(device);
    let (func, args) = arguments(&mut soc, m)?;
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        run_func(&mut soc, m, &func, args, CopyStrategy::ElementWise)
    }));
    match outcome {
        Ok(Err(InterpError::Unverified { message })) => {
            Some(format!("refused as unverified: {message}"))
        }
        Ok(_) => None,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Some(format!("panicked: {message}"))
        }
    }
}

#[test]
fn every_verified_mutant_runs_to_a_result_or_a_run_time_error() {
    let mut subjects = golden_subjects();
    subjects.extend(smoke_subjects());
    let mut rng = Rng(0x5eed_a4c1_0000_0001);
    let (mut ran, mut failures) = (0, Vec::new());
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    for subject in &subjects {
        let all = mutations(&subject.module);
        let drawn = (0..MUTANTS_PER_MODULE).map(|_| Some(all[rng.below(all.len())].clone()));
        for mutation in std::iter::once(None).chain(drawn) {
            let mutant = match &mutation {
                Some(mutation) => mutate(&subject.module, mutation),
                None => Some(subject.module.clone()),
            };
            let Some(mutant) = mutant.filter(verified) else { continue };
            ran += 1;
            if let Some(fault) = run(&mutant, subject.device) {
                failures.push(format!("{} under {mutation:?}: {fault}", subject.name));
            }
        }
    }
    panic::set_hook(default_hook);
    assert!(ran >= 500, "only {ran} verified mutants ran");
    assert!(
        failures.is_empty(),
        "{} of {ran} verified mutants did not run:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A compiled program is immutable: threads share it as it is.
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Program>();
};

/// A program compiled once runs again after `Soc::recycle` exactly as a
/// fresh compile-and-run does, and so does one `Arc`-shared program on two
/// threads at once, each with its own system and frame: the same
/// counters, and the same bytes in the simulated memory. So sessions that
/// share a memo of programs need not recompile them.
#[test]
fn a_compiled_program_reruns_like_a_fresh_run() {
    let mut subjects = golden_subjects();
    subjects.extend(smoke_subjects());
    let memory =
        |soc: &Soc| soc.mem.read_bytes(SimAddr(BASE_ADDR), soc.mem.allocated_bytes()).to_vec();
    let mut compared = 0;
    for subject in &subjects {
        let m = &subject.module;
        let mut fresh = soc(subject.device);
        let Some((func, args)) = arguments(&mut fresh, m) else { continue };
        if run_func(&mut fresh, m, &func, args, CopyStrategy::ElementWise).is_err() {
            continue;
        }
        let program = Arc::new(Program::compile(m, &func).expect("the module ran"));
        let rerun = |program: Arc<Program>| {
            let (mut rerun, mut frame) = (soc(subject.device), Frame::default());
            for _ in 0..2 {
                rerun.recycle();
                let (_, args) = arguments(&mut rerun, m).expect("the module ran");
                let copies = CopyStrategy::ElementWise;
                program.run(&mut rerun, &mut frame, args, copies).expect("the module ran");
            }
            (rerun.counters, memory(&rerun))
        };
        let reruns: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    let program = Arc::clone(&program);
                    scope.spawn(move || rerun(program))
                })
                .collect();
            threads.into_iter().map(|thread| thread.join().expect("the rerun ran")).collect()
        });
        for (counters, bytes) in reruns {
            assert_eq!(counters, fresh.counters, "{}", subject.name);
            assert!(bytes == memory(&fresh), "{}: memory differs", subject.name);
        }
        compared += 1;
    }
    // Two malformed fixtures end in a run-time error.
    assert!(compared + 2 >= subjects.len(), "only {compared} corpus modules ran");
}

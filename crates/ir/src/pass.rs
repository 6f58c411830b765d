//! The pass manager.
//!
//! Mirrors MLIR's pass infrastructure at the scale this project needs:
//! passes transform a [`Module`], the manager verifies after each pass and
//! can capture IR snapshots (the `--print-ir-after-all` debugging
//! workflow, used by the quickstart example to show each AXI4MLIR stage).

use axi4mlir_support::diag::{Diagnostic, DiagnosticEngine};

use crate::ops::Module;
use crate::printer::print_op;
use crate::verifier;

/// A module-level transformation.
pub trait Pass {
    /// Unique, command-line-style name (`"axi4mlir-generate-flow"`).
    fn name(&self) -> &str;

    /// Applies the transformation.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] if the pass cannot apply; the module may be
    /// left partially transformed only if the error says so.
    fn run(&mut self, module: &mut Module, diags: &mut DiagnosticEngine) -> Result<(), Diagnostic>;
}

/// A snapshot of the IR after one pass.
#[derive(Clone, Debug)]
pub struct IrSnapshot {
    /// Name of the pass that just ran.
    pub pass: String,
    /// Printed module.
    pub ir: String,
}

/// Wall-clock cost of one pass execution (the `-mlir-timing` workflow).
#[derive(Clone, Debug)]
pub struct PassTiming {
    /// Name of the pass.
    pub pass: String,
    /// Wall-clock time the pass (including its verification) took.
    pub millis: f64,
}

/// Renders a timing report in the style of MLIR's `-mlir-timing`.
pub fn render_timings(timings: &[PassTiming]) -> String {
    let total: f64 = timings.iter().map(|t| t.millis).sum();
    let mut out = String::from("===-- Pass execution timing report --===\n");
    for t in timings {
        let share = if total > 0.0 { 100.0 * t.millis / total } else { 0.0 };
        out.push_str(&format!("  {:>10.4} ms ({share:>5.1}%)  {}\n", t.millis, t.pass));
    }
    out.push_str(&format!("  {total:>10.4} ms (100.0%)  total\n"));
    out
}

/// An extra per-pass check run alongside the structural verifier. This is
/// how dialect-level verification (which lives in a crate above this one)
/// plugs into the blame-the-pass loop.
type ExtraVerifier = Box<dyn Fn(&Module) -> Result<(), Diagnostic>>;

/// Runs a pipeline of passes, verifying after each, with optional IR capture.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    extra_verifiers: Vec<ExtraVerifier>,
    capture_ir: bool,
    timings: Vec<PassTiming>,
}

impl PassManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pass to the end of the pipeline.
    pub fn add(&mut self, pass: Box<dyn Pass>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// Registers an extra verifier run after every pass, in registration
    /// order, after the structural verifier. A failure is blamed on the pass
    /// that just ran.
    pub fn add_verifier(&mut self, verifier: ExtraVerifier) -> &mut Self {
        self.extra_verifiers.push(verifier);
        self
    }

    /// Enables IR snapshot capture after each pass.
    pub fn capture_ir(&mut self, on: bool) -> &mut Self {
        self.capture_ir = on;
        self
    }

    /// Number of scheduled passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// `true` when no passes are scheduled.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Per-pass wall-clock timings of the most recent [`PassManager::run`].
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// Runs the pipeline.
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass or verification failure, naming it.
    pub fn run(&mut self, module: &mut Module) -> Result<Vec<IrSnapshot>, Diagnostic> {
        let mut snapshots = Vec::new();
        self.timings.clear();
        for pass in &mut self.passes {
            let started = std::time::Instant::now();
            let mut diags = DiagnosticEngine::new();
            pass.run(module, &mut diags).map_err(|d| {
                Diagnostic::error(format!("pass `{}` failed: {}", pass.name(), d.message))
                    .with_note(diags.render())
            })?;
            if diags.has_errors() {
                return Err(Diagnostic::error(format!(
                    "pass `{}` reported errors: {}",
                    pass.name(),
                    diags.render()
                )));
            }
            verifier::verify_ok(&module.ctx, module.top()).map_err(|d| {
                Diagnostic::error(format!(
                    "verification failed after pass `{}`: {}",
                    pass.name(),
                    d.message
                ))
            })?;
            for extra in &self.extra_verifiers {
                extra(module).map_err(|d| {
                    Diagnostic::error(format!(
                        "verification failed after pass `{}`: {}",
                        pass.name(),
                        d.message
                    ))
                })?;
            }
            self.timings.push(PassTiming {
                pass: pass.name().to_owned(),
                millis: started.elapsed().as_secs_f64() * 1e3,
            });
            if self.capture_ir {
                snapshots.push(IrSnapshot {
                    pass: pass.name().to_owned(),
                    ir: print_op(&module.ctx, module.top()),
                });
            }
        }
        Ok(snapshots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attribute;
    use crate::builder::OpBuilder;
    use crate::kind::OpKind;
    use crate::types::Type;

    struct AddConstant(i64);

    impl Pass for AddConstant {
        fn name(&self) -> &str {
            "test-add-constant"
        }
        fn run(
            &mut self,
            module: &mut Module,
            _diags: &mut DiagnosticEngine,
        ) -> Result<(), Diagnostic> {
            let body = module.body();
            let mut b = OpBuilder::at_end(&mut module.ctx, body);
            b.insert_op(
                OpKind::ArithConstant,
                vec![],
                vec![Type::index()],
                [("value", Attribute::Int(self.0))],
            );
            Ok(())
        }
    }

    struct Failing;

    impl Pass for Failing {
        fn name(&self) -> &str {
            "test-failing"
        }
        fn run(&mut self, _m: &mut Module, _d: &mut DiagnosticEngine) -> Result<(), Diagnostic> {
            Err(Diagnostic::error("intentional failure"))
        }
    }

    struct Corrupting;

    impl Pass for Corrupting {
        fn name(&self) -> &str {
            "test-corrupting"
        }
        fn run(
            &mut self,
            module: &mut Module,
            _d: &mut DiagnosticEngine,
        ) -> Result<(), Diagnostic> {
            // Create a use of a value that is never defined in scope.
            let body = module.body();
            let c = module.ctx.create_op(
                OpKind::ArithConstant,
                vec![],
                vec![Type::index()],
                Default::default(),
            );
            let v = module.ctx.result(c, 0);
            let u = module.ctx.create_op(
                OpKind::parse("test.use"),
                vec![v],
                vec![],
                Default::default(),
            );
            module.ctx.append_op(body, u);
            Ok(())
        }
    }

    #[test]
    fn passes_run_in_order_with_snapshots() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        pm.capture_ir(true);
        pm.add(Box::new(AddConstant(1))).add(Box::new(AddConstant(2)));
        assert_eq!(pm.len(), 2);
        let snaps = pm.run(&mut module).unwrap();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].pass, "test-add-constant");
        assert!(snaps[1].ir.matches("arith.constant").count() == 2);
    }

    #[test]
    fn failing_pass_stops_pipeline() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        pm.add(Box::new(Failing)).add(Box::new(AddConstant(3)));
        let err = pm.run(&mut module).unwrap_err();
        assert!(err.message.contains("test-failing"));
        assert!(
            module.ctx.find_ops(module.top(), OpKind::ArithConstant).is_empty(),
            "later pass must not run"
        );
    }

    #[test]
    fn verification_catches_corrupting_pass() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        pm.add(Box::new(Corrupting));
        let err = pm.run(&mut module).unwrap_err();
        assert!(err.message.contains("verification failed after pass `test-corrupting`"));
    }

    #[test]
    fn extra_verifier_blames_the_breaking_pass() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        pm.add_verifier(Box::new(|m: &Module| {
            if m.ctx.find_ops(m.top(), OpKind::parse("test.use")).is_empty() {
                Ok(())
            } else {
                Err(Diagnostic::error("test.use is forbidden here"))
            }
        }));
        // AddConstant passes both verifiers; the second pass introduces the
        // forbidden op and is blamed by name.
        struct AddUse;
        impl Pass for AddUse {
            fn name(&self) -> &str {
                "test-add-use"
            }
            fn run(&mut self, m: &mut Module, _d: &mut DiagnosticEngine) -> Result<(), Diagnostic> {
                let body = m.body();
                let u =
                    m.ctx.create_op(OpKind::parse("test.use"), vec![], vec![], Default::default());
                m.ctx.append_op(body, u);
                Ok(())
            }
        }
        pm.add(Box::new(AddConstant(1))).add(Box::new(AddUse));
        let err = pm.run(&mut module).unwrap_err();
        assert!(err.message.contains("after pass `test-add-use`"), "{}", err.message);
        assert!(err.message.contains("test.use is forbidden"), "{}", err.message);
        assert_eq!(pm.timings().len(), 1, "the blamed pass is not timed");
    }

    #[test]
    fn empty_manager_is_a_no_op() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        assert!(pm.is_empty());
        assert!(pm.run(&mut module).unwrap().is_empty());
        assert!(pm.timings().is_empty());
    }

    #[test]
    fn timings_cover_every_executed_pass() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        pm.add(Box::new(AddConstant(1))).add(Box::new(AddConstant(2)));
        pm.run(&mut module).unwrap();
        assert_eq!(pm.timings().len(), 2);
        assert!(pm.timings().iter().all(|t| t.pass == "test-add-constant"));
        assert!(pm.timings().iter().all(|t| t.millis >= 0.0));
        let report = render_timings(pm.timings());
        assert!(report.contains("Pass execution timing report"));
        assert!(report.contains("total"));
        // A rerun replaces, not appends.
        pm.run(&mut module).unwrap();
        assert_eq!(pm.timings().len(), 2);
    }

    #[test]
    fn failing_run_keeps_timings_of_completed_passes() {
        let mut module = Module::new();
        let mut pm = PassManager::new();
        pm.add(Box::new(AddConstant(1))).add(Box::new(Failing));
        pm.run(&mut module).unwrap_err();
        assert_eq!(pm.timings().len(), 1, "only the pass that completed is timed");
    }
}

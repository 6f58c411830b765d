//! `axi4mlir-lint` — standalone static checker for `.mlir` files.
//!
//! ```text
//! axi4mlir-lint <file.mlir ...> [--deny-warnings]
//! ```
//!
//! Each file is parsed, structurally verified, dialect-verified, and run
//! through the full lint suite (`lint::isa-opcode`, `lint::flow-legal`,
//! `lint::dma-bounds`, `lint::fifo-capacity`, `lint::dead-annotation`,
//! `lint::shape-tile`). Diagnostics are printed one per line, prefixed with
//! the file name. The exit code is nonzero if any file fails to parse or
//! produces an error-severity finding (`--deny-warnings` promotes warnings
//! to failures). Pass `-` to read one module from stdin.

use std::io::Read as _;
use std::process::ExitCode;

use axi4mlir_dialects::lint::lint_module;
use axi4mlir_dialects::verify::verify_dialects;
use axi4mlir_ir::parser::parse_module;
use axi4mlir_ir::verifier::verify;
use axi4mlir_support::args;
use axi4mlir_support::diag::{DiagnosticEngine, Severity};

fn usage() -> &'static str {
    "usage: axi4mlir-lint <file.mlir ... | -> [--deny-warnings]"
}

/// Lints one module's text. Returns the diagnostics produced.
fn lint_text(text: &str) -> Result<DiagnosticEngine, String> {
    let module = parse_module(text).map_err(|d| d.to_string())?;
    let mut diags = DiagnosticEngine::new();
    // Structural and dialect verification first: lint facts (liveness,
    // ranges) assume well-formed IR.
    let _ = verify(&module.ctx, module.top(), &mut diags);
    if !diags.has_errors() {
        let _ = verify_dialects(&module.ctx, module.top(), &mut diags);
    }
    if !diags.has_errors() {
        let _ = lint_module(&module.ctx, module.top(), &mut diags);
    }
    Ok(diags)
}

fn run() -> Result<bool, String> {
    let args = args::argv();
    if args::wants_help(&args) {
        return Err(usage().to_owned());
    }
    args::reject_unknown(&args, &["--deny-warnings"], usage())?;
    let deny_warnings = args::flag(&args, "--deny-warnings");
    let files = args::positionals(&args, &[], usage())?;
    if files.is_empty() {
        return Err(usage().to_owned());
    }
    let mut clean = true;
    for file in &files {
        let text = if file == "-" {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).map_err(|e| e.to_string())?;
            buf
        } else {
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?
        };
        match lint_text(&text) {
            Ok(diags) => {
                for d in diags.diagnostics() {
                    eprintln!("{file}: {d}");
                }
                let failing = diags.has_errors()
                    || (deny_warnings
                        && diags.diagnostics().iter().any(|d| d.severity == Severity::Warning));
                if failing {
                    clean = false;
                } else {
                    println!("{file}: ok");
                }
            }
            Err(message) => {
                eprintln!("{file}: parse error: {message}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("axi4mlir-lint: {message}");
            ExitCode::FAILURE
        }
    }
}

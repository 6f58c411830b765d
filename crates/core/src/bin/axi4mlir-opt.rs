//! `axi4mlir-opt` — the `mlir-opt`-style command-line driver.
//!
//! Reads a module in the generic textual form, applies the AXI4MLIR pass
//! pipeline, and prints the transformed module:
//!
//! ```text
//! axi4mlir-opt input.mlir --config accel.json [--accel NAME] [--flow Cs]
//!              [--cache-tile N] [--no-lower] [--coalesce] [--print-ir-after-all]
//!              [--timing] [--lint] [--verify-each]
//! ```
//!
//! Without `--config` the input must already carry the Fig. 6a trait
//! attributes (e.g. IR produced by `--print-ir-after-all`), and only the
//! codegen/lowering passes run. Pass `-` as the input to read stdin.
//! `--timing` prints a per-pass wall-clock report to stderr (MLIR's
//! `-mlir-timing` workflow). `--lint` runs the static lint suite over the
//! parsed input before the pipeline and aborts on any `lint::*` error.
//! `--verify-each` additionally runs the dialect verifier (on top of the
//! always-on structural verifier) between every pass, so the pass that
//! breaks an invariant is blamed by name.

use std::io::Read as _;
use std::process::ExitCode;

use axi4mlir_config::SystemConfig;
use axi4mlir_core::driver::PipelineBuilder;
use axi4mlir_dialects::lint;
use axi4mlir_dialects::verify::verify_dialects;
use axi4mlir_ir::parser::parse_module;
use axi4mlir_ir::pass::render_timings;
use axi4mlir_ir::printer::print_op;
use axi4mlir_support::args;
use axi4mlir_support::diag::DiagnosticEngine;

struct Options {
    input: String,
    config: Option<String>,
    accel: Option<String>,
    flow: Option<String>,
    cache_tile: Option<i64>,
    lower: bool,
    coalesce: bool,
    print_after_all: bool,
    timing: bool,
    lint: bool,
    verify_each: bool,
}

fn usage() -> &'static str {
    "usage: axi4mlir-opt <input.mlir | -> [--config accel.json] [--accel NAME] \
     [--flow Ns|As|Bs|Cs|<name>] [--cache-tile N] [--no-lower] [--coalesce] \
     [--print-ir-after-all] [--timing] [--lint] [--verify-each]"
}

const VALUE_FLAGS: [&str; 4] = ["--config", "--accel", "--flow", "--cache-tile"];
const SWITCHES: [&str; 6] =
    ["--no-lower", "--coalesce", "--print-ir-after-all", "--timing", "--lint", "--verify-each"];

fn parse_args() -> Result<Options, String> {
    let args = args::argv();
    if args::wants_help(&args) {
        return Err(usage().to_owned());
    }
    args::reject_unknown(&args, &[VALUE_FLAGS.as_slice(), &SWITCHES].concat(), usage())?;
    let inputs = args::positionals(&args, &VALUE_FLAGS, usage())?;
    let [input] = &inputs[..] else {
        return Err(usage().to_owned());
    };
    Ok(Options {
        input: input.clone(),
        config: args::value(&args, "--config")?,
        accel: args::value(&args, "--accel")?,
        flow: args::value(&args, "--flow")?,
        cache_tile: args::number(&args, "--cache-tile")?,
        lower: !args::flag(&args, "--no-lower"),
        coalesce: args::flag(&args, "--coalesce"),
        print_after_all: args::flag(&args, "--print-ir-after-all"),
        timing: args::flag(&args, "--timing"),
        lint: args::flag(&args, "--lint"),
        verify_each: args::flag(&args, "--verify-each"),
    })
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let text = if opts.input == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(&opts.input)
            .map_err(|e| format!("cannot read {}: {e}", opts.input))?
    };
    let mut module = parse_module(&text).map_err(|d| d.to_string())?;

    if opts.lint {
        let mut diags = DiagnosticEngine::new();
        let result = lint::lint_module(&module.ctx, module.top(), &mut diags);
        for d in diags.diagnostics() {
            eprintln!("{d}");
        }
        result.map_err(|d| format!("lint failed: {}", d.message))?;
    }

    let mut builder = PipelineBuilder::new()
        .pre_annotated()
        .cache_tile(opts.cache_tile)
        .coalesce(opts.coalesce)
        .lower(opts.lower)
        .capture_ir(opts.print_after_all);
    if let Some(config_path) = &opts.config {
        let config_text = std::fs::read_to_string(config_path)
            .map_err(|e| format!("cannot read {config_path}: {e}"))?;
        let system = SystemConfig::from_json(&config_text).map_err(|d| d.to_string())?;
        let mut accel = match &opts.accel {
            Some(name) => system
                .accelerator(name)
                .ok_or_else(|| format!("no accelerator named {name} in {config_path}"))?
                .clone(),
            None => system
                .accelerators
                .first()
                .ok_or_else(|| format!("{config_path} defines no accelerators"))?
                .clone(),
        };
        if let Some(flow) = &opts.flow {
            if accel.flow(flow).is_none() {
                let offered: Vec<&str> = accel.flows.iter().map(|(n, _)| n.as_str()).collect();
                return Err(format!(
                    "accelerator {} does not offer flow `{flow}` (offers: {})",
                    accel.device,
                    offered.join(", ")
                ));
            }
            accel = accel.with_selected_flow(flow);
        }
        builder = builder.accelerator(accel);
    }

    let mut pm = builder.build();
    if opts.verify_each {
        pm.add_verifier(Box::new(|m| {
            let mut diags = DiagnosticEngine::new();
            verify_dialects(&m.ctx, m.top(), &mut diags)
        }));
    }
    let snapshots = pm.run(&mut module).map_err(|d| d.to_string())?;
    for snapshot in snapshots {
        eprintln!("// ----- IR after {} -----", snapshot.pass);
        eprintln!("{}", snapshot.ir);
    }
    if opts.timing {
        eprint!("{}", render_timings(pm.timings()));
    }
    print!("{}", print_op(&module.ctx, module.top()));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("axi4mlir-opt: {message}");
            ExitCode::FAILURE
        }
    }
}

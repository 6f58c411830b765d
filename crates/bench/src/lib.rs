//! The experiment harness: one module per table/figure of the paper.
//!
//! Every module exposes typed rows plus a [`axi4mlir_support::fmtutil::TextTable`]
//! renderer, and takes a [`Scale`] so the same code serves two callers:
//!
//! - the `fig*`/`table1` binaries (`Scale::Full`) that regenerate the
//!   paper's series (run in release mode; see `EXPERIMENTS.md`),
//! - the tests (`Scale::Quick`), at debug-friendly sizes:
//!   `tests/golden_reports.rs` pins every simulated number against
//!   `tests/golden/BENCH_*.json` and asserts, one table per module, every
//!   reproduction target the module headers state (who wins, where
//!   crossovers fall); the in-file tests cover rendering and what the
//!   typed rows carry beyond the report.
//!
//! Sweeps run through the `axi4mlir-core` driver layer: each module holds
//! one [`Session`](axi4mlir_core::driver::Session) per sweep and recycles
//! its SoC between runs, so per-run allocation is amortized across the
//! grid while counters stay bit-identical to fresh runs.
//!
//! Every module also exposes a `report()` function producing the
//! machine-readable [`report::BenchReport`] (`BENCH_*.json`) that the
//! binaries emit under `--json` and CI uploads as artifacts.

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig16;
pub mod fig17;
pub mod report;
pub mod table1;

use axi4mlir_support::args;

/// How big a sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sweep for tests: small dimensions, fewer configurations,
    /// but still spanning the qualitative crossovers.
    Quick,
    /// The paper's full parameter grid.
    Full,
}

impl Scale {
    /// Parses the command line every figure binary shares —
    /// `[--quick] [--json [DIR]]` — exiting with `usage` on any other
    /// flag, so a typo cannot silently start the minutes-long full sweep.
    pub fn from_args(usage: &str) -> Scale {
        let argv = args::argv();
        if let Err(message) = args::reject_unknown(&argv, &["--quick", "--json"], usage) {
            eprintln!("{message}");
            std::process::exit(2);
        }
        if args::flag(&argv, "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The square MatMul dimensions to sweep.
    fn matmul_dims(self) -> Vec<i64> {
        match self {
            Scale::Quick => vec![16, 32, 64],
            Scale::Full => vec![16, 32, 64, 128, 256],
        }
    }

    /// The "relevant" dims (>= 64) used by Figs. 11-13.
    fn relevant_dims(self) -> Vec<i64> {
        match self {
            Scale::Quick => vec![64],
            Scale::Full => vec![64, 128, 256],
        }
    }

    /// Accelerator sizes for Figs. 11-13.
    fn accel_sizes(self) -> Vec<i64> {
        match self {
            Scale::Quick => vec![8],
            Scale::Full => vec![8, 16],
        }
    }
}

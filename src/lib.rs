//! # polaris — a Rust reproduction of the Polaris parallelizing compiler
//!
//! This crate is the facade over the workspace that reproduces
//! *"Restructuring Programs for High-Speed Computers with Polaris"*
//! (Blume et al., ICPP 1996): a source-to-source automatic parallelizer
//! for a Fortran-77 subset, together with the run-time speculative
//! parallelization framework and the evaluation substrate used to
//! regenerate the paper's tables and figures.
//!
//! ```
//! use polaris::{parallelize, PassOptions};
//!
//! let source = "
//!     program demo
//!     real a(100), b(100)
//!     do i = 1, 100
//!       t = b(i) * 2.0
//!       a(i) = t + 1.0
//!     end do
//!     print *, a(1)
//!     end
//! ";
//! let output = parallelize(source, &PassOptions::polaris()).unwrap();
//! assert!(output.annotated_source.contains("!$POLARIS DOALL PRIVATE(T)"));
//! assert_eq!(output.report.parallel_loops(), 1);
//! ```
//!
//! The sub-crates, one per system the paper describes (see `DESIGN.md`):
//!
//! | crate | paper section |
//! |---|---|
//! | [`ir`] (`polaris-ir`) | §2 — the Fortran IR, parser, pattern matching, unparser |
//! | [`symbolic`] (`polaris-symbolic`) | §3.3 — polynomials, ranges, monotonicity, Faulhaber sums |
//! | [`core`](mod@core) (`polaris-core`) | §3 — the restructurer: inlining, induction, reductions, range test, privatization |
//! | [`machine`] (`polaris-machine`) | §3.5 and §4 — the Privatizing-Doall test (shadow marks and verdict), the simulated multiprocessor, the real-thread backend that runs `PARALLEL DO` and speculative loops, the adaptive dispatcher, the dependence oracle, the validation harness |
//! | [`benchmarks`] (`polaris-benchmarks`) | §4.1 — the 16 Table-1 kernels plus TRACK |
//! | [`obs`] (`polaris-obs`) | observability: spans, typed counters, chrome-trace / metrics export |
//! | [`verify`] (`polaris-verify`) | verification: inter-pass invariant checking, static race detection, lints |
//! | [`daemon`] (`polarisd`) | the crash-only compile service: deadlines, retry, circuit-breaker quarantine |

pub mod fuzz;

pub use polaris_benchmarks as benchmarks;
pub use polaris_core as core;
pub use polaris_ir as ir;
pub use polaris_machine as machine;
pub use polaris_obs as obs;
pub use polaris_symbolic as symbolic;
pub use polaris_verify as verify;
pub use polarisd as daemon;

pub use polaris_core::{CompileReport, InductionMode, LoopReport, PassOptions};
pub use polaris_ir::{CompileError, Program};
pub use polaris_machine::{Engine, MachineConfig, RunResult};

/// The result of [`parallelize`].
#[derive(Debug, Clone)]
pub struct ParallelizeOutput {
    /// The transformed program (annotations attached to its loops).
    pub program: Program,
    /// The transformed program unparsed with `!$POLARIS` directives.
    pub annotated_source: String,
    /// What every pass did.
    pub report: CompileReport,
}

/// One-call driver: parse F-Mini source, run the restructuring pipeline,
/// and return the annotated program.
pub fn parallelize(
    source: &str,
    opts: &PassOptions,
) -> Result<ParallelizeOutput, CompileError> {
    let (program, report) = polaris_core::parse_and_compile(source, opts)?;
    let annotated_source = polaris_ir::printer::print_program(&program);
    Ok(ParallelizeOutput { program, annotated_source, report })
}

/// Parse + compile + execute on the simulated machine, returning
/// `(serial result, parallel result)`; convenience for examples/tests.
pub fn parallelize_and_run(
    source: &str,
    opts: &PassOptions,
    config: &MachineConfig,
) -> Result<(RunResult, RunResult, ParallelizeOutput), Box<dyn std::error::Error>> {
    let mut original = polaris_ir::parse(source)?;
    // The machine executes call-free programs; inline the reference copy
    // too when needed (inlining is semantics-preserving, so the serial
    // baseline is unchanged).
    let has_calls = original
        .main()
        .map(|m| {
            let mut found = false;
            m.body.walk(&mut |s| {
                if matches!(s.kind, polaris_ir::StmtKind::Call { .. }) {
                    found = true;
                }
            });
            found
        })
        .unwrap_or(false);
    if has_calls {
        polaris_core::inline::inline_all(&mut original)?;
    }
    let serial = polaris_machine::run_serial(&original)?;
    let out = parallelize(source, opts)?;
    let parallel = polaris_machine::run(&out.program, config)?;
    Ok((serial, parallel, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trip() {
        let src = "program t\nreal a(2000)\ndo i = 1, 2000\n  a(i) = i*1.5\nend do\nprint *, a(9)\nend\n";
        let (serial, parallel, out) =
            parallelize_and_run(src, &PassOptions::polaris(), &MachineConfig::challenge_8())
                .unwrap();
        assert_eq!(serial.output, parallel.output);
        assert!(parallel.cycles < serial.cycles);
        assert_eq!(out.report.parallel_loops(), 1);
        // the annotated source re-parses and re-analyzes identically
        let again = parallelize(&out.annotated_source, &PassOptions::polaris()).unwrap();
        assert_eq!(again.report.parallel_loops(), 1);
    }
}

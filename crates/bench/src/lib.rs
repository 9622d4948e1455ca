//! # polaris-bench — the paper's evaluation harnesses
//!
//! One binary per table/figure of the paper's evaluation (§4), on the
//! deterministic simulated machine:
//!
//! * `table1`  — the benchmark inventory (origin, lines of code, serial
//!   time), ours vs the paper's,
//! * `figure7` — 8-processor speedups, Polaris vs the PFA-like baseline,
//!   for all sixteen codes (`--json` writes the same numbers as a
//!   host-independent document, pinned by `tests/golden/figure7.json`),
//! * `figure6` — PD-test speedup and potential slowdown vs processor
//!   count for the TRACK/NLFILT partially parallel loop (simulated,
//!   deterministic), plus the wall time of the same program, PD test
//!   included, on the machine's real-thread backend,
//! * `ablation` — the §3.3 claims: speedup collapse without the range
//!   test / privatization / induction / run-time tests, the direction-
//!   vector complexity comparison, and static-vs-dynamic scheduling.
//!
//! Wall-clock performance (compile, execute, serve; end to end and per
//! layer) is measured by the standalone `benchmark/` package, not here.

use polaris_core::{compile, CompileReport, PassOptions};
use polaris_ir::Program;
use polaris_machine::{run, run_serial, CodegenModel, MachineConfig};

/// Compile a benchmark with the given options, returning the program
/// and report (panics on compile errors — harness context).
pub fn compile_bench(
    b: &polaris_benchmarks::Benchmark,
    opts: &PassOptions,
) -> (Program, CompileReport) {
    let mut p = b.program();
    let rep = compile(&mut p, opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    (p, rep)
}

/// Measured speedups of one benchmark under both compilers.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub name: &'static str,
    pub serial_cycles: u64,
    pub polaris: f64,
    pub vfa: f64,
}

/// Run one benchmark under serial / Polaris@procs / VFA@procs.
pub fn speedups(b: &polaris_benchmarks::Benchmark, procs: usize) -> SpeedupRow {
    let serial = run_serial(&b.program()).unwrap();
    let (pol, _) = compile_bench(b, &PassOptions::polaris());
    let rp = run(&pol, &MachineConfig::challenge_8().with_procs(procs)).unwrap();
    let (vfa, _) = compile_bench(b, &PassOptions::vfa());
    let rv = run(
        &vfa,
        &MachineConfig::challenge_8()
            .with_procs(procs)
            .with_codegen(CodegenModel::aggressive()),
    )
    .unwrap();
    assert_eq!(serial.output, rp.output, "{}: polaris output mismatch", b.name);
    assert_eq!(serial.output, rv.output, "{}: vfa output mismatch", b.name);
    SpeedupRow {
        name: b.name,
        serial_cycles: serial.cycles,
        polaris: serial.cycles as f64 / rp.cycles as f64,
        vfa: serial.cycles as f64 / rv.cycles as f64,
    }
}

/// An ASCII bar for quick visual comparison in terminal output.
pub fn bar(value: f64, scale: f64) -> String {
    let n = ((value / scale) * 40.0).round().max(0.0) as usize;
    "#".repeat(n.min(60))
}

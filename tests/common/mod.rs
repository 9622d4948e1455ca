//! Support shared by the root conformance tests: the kernel list, a
//! multi-unit program, the fuel cap, the output checksum, the compile-or-panic helper, the one
//! audit of a kernel, and the one iterator over the engine × backend × schedule × workers matrix
//! that the bit-identity tiers walk.

// Each test binary uses its own subset.
#![allow(dead_code)]

use polaris::ir::stmt::StmtKind;
use polaris::verify::{agreement, verify_compiled, RaceVerdict};
use polaris::{Engine, MachineConfig, PassOptions, Program};
use polaris_benchmarks::Benchmark;
use polaris_machine::{AdaptiveController, Schedule, StateDump};
use std::sync::Arc;

/// The 26 kernels every kernel suite walks (and the benchmark's
/// `compile_suite` compiles): the 16 Table-1 codes, TRACK, the six
/// irregular kernels, the skewed-cost SPMVT and the two locality kernels.
pub fn kernels() -> Vec<Benchmark> {
    use polaris_benchmarks as b;
    let mut v = b::all();
    v.push(b::track());
    v.extend(b::irregular().into_iter().map(|(k, _)| k));
    v.push(b::skewed());
    v.extend(b::locality().into_iter().map(|(k, _)| k));
    assert_eq!(v.len(), 26);
    v
}

/// A main program with two subroutines and a one-statement function, all
/// three inlined into main under `PassOptions::polaris()`.
pub const MULTI_UNIT: &str = "
      program main
      integer n
      parameter (n = 4000)
      real grid(n), rhs(n)
      real nrm
      call setup(grid, rhs, n)
      call smooth(grid, rhs, n)
      nrm = vnorm(grid, n)
      print *, 'norm', nrm
      end

      subroutine setup(g, r, n)
      integer n
      real g(n), r(n)
      do i = 1, n
        g(i) = 0.0
        r(i) = 1.0/i
      end do
      end

      subroutine smooth(g, r, n)
      integer n
      real g(n), r(n)
      real t
      do i = 2, n - 1
        t = r(i)*0.5
        g(i) = t + r(i - 1)*0.25 + r(i + 1)*0.25
      end do
      end

      real function vnorm(g, n)
      integer n
      real g(n)
      vnorm = g(2)*g(2)
      return
      end
";

/// Generous for every kernel and every bounded corpus program, tight
/// enough that a miscompile into an endless loop fails within seconds
/// instead of hanging CI.
pub const FUEL: u64 = 20_000_000;

/// Chunk size of forced work stealing (the `polarisc --schedule
/// stealing` default).
pub const STEAL_CHUNK: usize = 4;

/// FNV-1a over the printed output, one `\n` after every line.
pub fn fnv1a(lines: &[String]) -> u64 {
    let text: String = lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect();
    polarisd::proto::fnv1a(text.as_bytes())
}

/// Restructure `src` with the full Polaris pipeline; a compile error or
/// a rolled-back stage is a test failure attributed to `what`.
pub fn compiled(src: &str, what: &str) -> Program {
    let out = polaris::parallelize(src, &PassOptions::polaris())
        .unwrap_or_else(|e| panic!("{what}: compile: {e}"));
    assert!(!out.report.degraded(), "{what}: {:?}", out.report.rolled_back_stages());
    out.program
}

/// TFFT2 at `parameter (nt = 3, len = 3)`: a size at which the last bits
/// of its `+:CSUM` reduction reach the printed seven digits.
pub fn tfft2_at_three() -> String {
    let b = kernels().into_iter().find(|b| b.name == "TFFT2").expect("TFFT2 is a kernel");
    let (from, to) = ("parameter (nt = 48, len = 64)", "parameter (nt = 3, len = 3)");
    assert!(b.source.contains(from), "TFFT2's PARAMETER line moved");
    b.source.replace(from, to)
}

/// [`polaris_machine::run_with_state`] less the variables some loop of
/// `program` privatizes without copying out: their values after the loop
/// are unspecified (the rule `run_validated` compares by).
pub fn run_with_comparable_state(
    program: &Program,
    cfg: &MachineConfig,
) -> Result<(polaris::RunResult, StateDump), polaris_machine::MachineError> {
    let mut unspecified: Vec<&polaris::ir::Name> = Vec::new();
    for unit in &program.units {
        unit.body.walk(&mut |s| {
            if let StmtKind::Do(d) = &s.kind {
                unspecified.extend(d.par.private.iter().filter(|p| !d.par.copy_out.contains(p)));
            }
        });
    }
    let (r, mut dump) = polaris_machine::run_with_state(program, cfg)?;
    dump.scalars.retain(|(name, _)| !unspecified.contains(&name));
    dump.arrays.retain(|(name, _)| !unspecified.contains(&name));
    Ok((r, dump))
}

/// What one kernel's audit adds to a suite's non-vacuity sums.
#[derive(Default)]
pub struct Audited {
    pub serial_exercised: usize,
    pub completeness_misses: usize,
    /// PARALLEL claims joined between the race report and the oracle.
    pub compared: usize,
    pub precision_misses: usize,
    /// Claims the static race detector proved outright.
    pub clean: usize,
}

impl Audited {
    pub fn add(&mut self, a: &Audited) {
        self.serial_exercised += a.serial_exercised;
        self.completeness_misses += a.completeness_misses;
        self.compared += a.compared;
        self.precision_misses += a.precision_misses;
        self.clean += a.clean;
    }
}

/// The one audit of a kernel. Each of the 26 is audited once per run of
/// the root tests, by the suite that owns it: `oracle_conformance` the
/// 16 Table-1 codes and TRACK, `irregular_conformance` the six
/// irregular kernels, `adaptive_conformance` the skewed-cost SPMVT and
/// `verify_conformance` the two locality kernels. The kernel is
/// compiled once, checked by the static verifier once and run under the
/// dependence oracle once on the serial machine, and three verdicts
/// must hold: the oracle sees no PARALLEL claim contradicted by an
/// undischarged dependence, the emitted program passes the verifier's
/// full invariant set, and every loop the static race detector calls
/// `clean` survives the oracle's cross-check.
pub fn audit_kernel(b: &Benchmark) -> Audited {
    let what = b.name;
    let out = polaris::parallelize(b.source, &PassOptions::polaris())
        .unwrap_or_else(|e| panic!("{what}: compile: {e}"));
    let report = polaris_machine::audit(&out.program, &out.report)
        .unwrap_or_else(|e| panic!("{what}: oracle run: {e}"));
    assert!(
        !report.has_violations(),
        "{what}: PARALLEL claim contradicted by observed dependence:\n{:#?}",
        report.violations().collect::<Vec<_>>()
    );
    let v = verify_compiled(&out.program, &out.report);
    assert!(v.ok(), "{what}: verifier violation: {:?}", v.final_violations);
    assert!(v.verifier_rollbacks.is_empty(), "{what}: {:?}", v.verifier_rollbacks);
    assert!(v.invariants_checked > 0, "{what}: verifier never ran");
    let race = v.race.as_ref().unwrap_or_else(|| panic!("{what}: no race report"));
    let a = agreement(race, &report);
    assert!(a.sound(), "{what}: static `clean` contradicted by the oracle on {:?}", a.soundness_failures);
    Audited {
        serial_exercised: report.serial_loops_exercised(),
        completeness_misses: report.completeness_misses(),
        compared: a.compared,
        precision_misses: a.precision_misses.len(),
        clean: race.count(RaceVerdict::Clean),
    }
}

/// How a parallel backend hands out iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// Block partitioning.
    Static,
    /// Work stealing forced on every parallel loop.
    Stealing,
    /// The adaptive dispatcher over block partitioning.
    Adaptive,
}

/// The configurations one conformance test covers.
pub struct Matrix<'a> {
    pub engines: &'a [Engine],
    /// Processor counts of the simulated multiprocessor.
    pub procs: &'a [usize],
    /// Worker counts of the real-thread backend.
    pub threads: &'a [usize],
    /// Applied to every simulated and threaded configuration.
    pub schedules: &'a [Sched],
}

/// Call `f(label, config)` for every configuration of `m`: per engine,
/// the serial machine once (it has neither workers nor a schedule), then
/// every backend × worker count × schedule. An adaptive configuration is
/// passed **twice** with one shared controller, so both the measuring
/// invocation and the re-dispatched one are covered.
pub fn for_each_config(m: &Matrix, mut f: impl FnMut(&str, &MachineConfig)) {
    for &engine in m.engines {
        f(&format!("{engine:?}/serial"), &MachineConfig::serial().with_engine(engine));
        let simulated = m
            .procs
            .iter()
            .map(|&p| (format!("simulated p{p}"), MachineConfig::challenge_8().with_procs(p)));
        let threaded = m
            .threads
            .iter()
            .map(|&t| (format!("threaded x{t}"), MachineConfig::threaded(t, Schedule::Static)));
        for (backend, base) in simulated.chain(threaded) {
            for &sched in m.schedules {
                let mut cfg = base.clone().with_engine(engine);
                let passes = match sched {
                    Sched::Static => 1,
                    Sched::Stealing => {
                        cfg.schedule = Schedule::Stealing { chunk: STEAL_CHUNK };
                        1
                    }
                    Sched::Adaptive => {
                        cfg = cfg.with_adaptive(Arc::new(AdaptiveController::new()));
                        2
                    }
                };
                for pass in 0..passes {
                    f(&format!("{engine:?}/{backend}/{sched:?}#{pass}"), &cfg);
                }
            }
        }
    }
}

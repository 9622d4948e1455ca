//! Support shared by the root conformance tests: the fuel cap, the
//! output checksum, the compile-or-panic helper, and the one iterator
//! over the engine × backend × schedule × workers matrix that the
//! bit-identity tiers walk.

// Each test binary uses its own subset.
#![allow(dead_code)]

use polaris::{Engine, MachineConfig, PassOptions, Program};
use polaris_machine::{AdaptiveController, Schedule};
use std::sync::Arc;

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

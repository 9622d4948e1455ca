//! # polaris-machine — the evaluation substrate
//!
//! The paper evaluates Polaris by running transformed programs on an
//! 8-processor SGI Challenge and reporting speedups (Figure 7) and by
//! running the PD test on an Alliant FX/80 (Figure 6). Neither machine
//! is available, so this crate provides the substitution described in
//! DESIGN.md: a deterministic F-Mini **interpreter** with a cycle-level
//! **cost model** and a simulated shared-memory multiprocessor.
//!
//! * Programs are *actually executed* (results are real and are checked
//!   against sequential semantics by [`exec::run_validated`]), so a
//!   mis-parallelization by the compiler shows up as wrong output, not
//!   just as a bad number.
//! * Each executed operation is charged cycles; a `DOALL` loop's
//!   iterations are charged to per-processor buckets (static block or
//!   dynamic self-scheduling), and the loop costs
//!   `max(buckets) + fork/join + reduction-merge + privatization setup`.
//! * Loops marked `SPECULATIVE` follow the §3.5 protocol on both
//!   backends: accesses to tracked arrays are marked on shadows and pay
//!   for it, the PD-test analysis runs on the recorded pattern, and a
//!   failed test charges the attempt *plus* the sequential re-execution
//!   — reproducing Figure 6's speedup/slowdown trade-off. On real
//!   threads (`threaded`) the lanes' work is committed only if the
//!   test passes; the in-order simulation is the re-execution.
//! * Only the outermost concurrent loop of a dynamic nest runs parallel
//!   (loop-level parallelism, as on the Challenge).
//!
//! The "codegen model" knob reproduces the paper's observation about
//! PFA's aggressive back end: when enabled, innermost loops with
//! straight-line bodies get an unroll/fuse bonus while bodies with
//! conditionals pay a penalty — which is how PFA beats Polaris on two
//! codes and loses badly on APPSP/TOMCATV despite equal parallelism.

mod adaptive;
pub mod bytecode;
mod claims;
pub(crate) mod cost;
mod dispatch;
pub(crate) mod error;
pub mod exec;
pub mod lower;
mod lrpd;
pub mod oracle;
pub(crate) mod threaded;
pub(crate) mod value;
pub(crate) mod vm;

pub use adaptive::{AdaptiveController, DecisionRow};
pub use cost::{CodegenModel, CostModel, Schedule};
pub use error::MachineError;
pub use exec::{run, run_recorded, run_serial, run_validated, run_with_state, RunResult, StateDump};
pub use oracle::{audit, audit_recorded, audit_with};

/// Which execution engine interprets lowered statements.
///
/// * `Vm` — the default: the lowered [`lower::Image`] is compiled once
///   more to compact bytecode ([`bytecode`]) and dispatched by a flat
///   register VM (`vm`): interned symbols, explicit jump tables, the
///   image's array layouts (one table both engines flatten by),
///   register-allocated temporaries. Measured 2.8–3.2× the tree-walker
///   (`machine.vm_over_tree`) at *identical* semantics — cycles, fuel,
///   errors and output are bit-for-bit equal.
/// * `TreeWalk` — the original recursive interpreter over the statement
///   tree, retained as the differential oracle the VM is held to
///   (`tests/vm_equivalence.rs`), and the one engine a dependence-oracle
///   audit ([`oracle::audit`]) traces on.
///
/// Both engines share the loop orchestration layer (a loop's prologue,
/// mode decision and epilogue; parallel dispatch, speculation,
/// adversarial validation, the threaded backend), so the engine choice
/// affects only how statements execute and how a *serial* loop
/// invocation iterates: the VM takes the back-edge inside its dispatch
/// loop, the tree-walker calls its body per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    #[default]
    Vm,
    TreeWalk,
}

impl Engine {
    /// Parse a `--engine` flag value.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "vm" => Some(Engine::Vm),
            "tree-walk" | "tree" | "treewalk" => Some(Engine::TreeWalk),
            _ => None,
        }
    }
}

/// How `PARALLEL DO` and `SPECULATIVE` loops are executed.
///
/// * `Simulated` — the historical mode: iterations run sequentially on
///   the interpreter thread and a cycle cost model charges them to
///   per-processor buckets, reproducing the paper's Challenge numbers.
/// * `Threaded` — loops the pipeline proved parallel, and loops it left
///   to the run-time PD test, are chunked over the iteration space and
///   executed by the calling thread and real OS helper threads that
///   outlive the run (`threaded`), with per-lane private copies (and shadows)
///   and reduction logs the calling thread folds in serial order while
///   the loop runs. Results
///   (output, final memory) match serial execution bit for bit;
///   the simulated cycle accounting is still maintained so speedup
///   *models* stay comparable across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    Simulated,
    Threaded,
}

/// Simulated machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of processors (1 = serial execution, no overheads).
    pub procs: usize,
    pub schedule: Schedule,
    pub codegen: CodegenModel,
    /// Execution step budget. `None` = unlimited. When set, the
    /// interpreter charges one unit per statement / loop iteration and
    /// aborts with [`MachineError::FuelExhausted`] once the budget is
    /// spent — a miscompiled non-terminating program becomes a reported
    /// error instead of a hang. In threaded mode every thread counts its
    /// own steps from the master's count at the fork, so each is held to
    /// the remaining budget, and the master settles the total at the
    /// join: the verdict is that of the serial step count at every limit.
    pub fuel: Option<u64>,
    /// Cap on total array elements lowering may allocate. `None` =
    /// the built-in per-array safety limit only.
    pub memory_cap: Option<usize>,
    /// Parallel-loop execution backend (default: `Simulated`).
    pub exec_mode: ExecMode,
    /// Statement execution engine (default: the bytecode [`Engine::Vm`];
    /// `Engine::TreeWalk` is the differential oracle).
    pub engine: Engine,
    /// Cooperative cancellation: when set, the interpreter checks the
    /// token at every fuel-step boundary (statement / loop iteration)
    /// and aborts with [`MachineError::Cancelled`] once it trips. `None`
    /// costs nothing.
    pub cancel: Option<polaris_core::CancelToken>,
    /// Test hook (chaos suites): panic when the monotonic step counter
    /// reaches this value, simulating a worker crash mid-execution.
    #[doc(hidden)]
    pub panic_at_step: Option<u64>,
    /// Adaptive per-loop dispatch controller ([`AdaptiveController`]).
    /// When set, eligible loops (proven parallel or LRPD candidates) ask
    /// it every invocation whether to run serially or concurrently, on
    /// how many workers and under which schedule. A concurrent DOALL
    /// runs that plan instead of the fixed `schedule`; a speculation
    /// keeps `procs` and `schedule`; which of the two a loop is, its
    /// annotation says. The controller is shared (`Arc`) so the
    /// adaptation history survives across runs of the same source (e.g.
    /// cached recompiles in `polarisd`).
    pub adaptive: Option<std::sync::Arc<AdaptiveController>>,
}

impl MachineConfig {
    /// The paper's evaluation machine: 8 processors, static scheduling.
    pub fn challenge_8() -> MachineConfig {
        MachineConfig { procs: 8, ..MachineConfig::serial() }
    }

    /// Serial reference machine.
    pub fn serial() -> MachineConfig {
        MachineConfig {
            procs: 1,
            schedule: Schedule::Static,
            codegen: CodegenModel::none(),
            fuel: None,
            memory_cap: None,
            exec_mode: ExecMode::Simulated,
            engine: Engine::default(),
            cancel: None,
            panic_at_step: None,
            adaptive: None,
        }
    }

    /// Real-thread execution on `procs` threads: the calling thread plus
    /// `procs - 1` helpers, spawned when a loop first amortizes a fork.
    /// Both backends read the one `procs`/`schedule` pair, so cost-model
    /// accounting (and the speculative fallback path) describes what
    /// actually runs.
    pub fn threaded(procs: usize, schedule: Schedule) -> MachineConfig {
        MachineConfig { procs: procs.max(1), schedule, exec_mode: ExecMode::Threaded, ..MachineConfig::serial() }
    }

    pub fn with_adaptive(
        mut self,
        ctrl: std::sync::Arc<AdaptiveController>,
    ) -> MachineConfig {
        self.adaptive = Some(ctrl);
        self
    }

    pub fn with_engine(mut self, engine: Engine) -> MachineConfig {
        self.engine = engine;
        self
    }

    pub fn with_cancel(mut self, token: polaris_core::CancelToken) -> MachineConfig {
        self.cancel = Some(token);
        self
    }

    pub fn with_procs(mut self, procs: usize) -> MachineConfig {
        self.procs = procs;
        self
    }

    pub fn with_codegen(mut self, codegen: CodegenModel) -> MachineConfig {
        self.codegen = codegen;
        self
    }

    pub fn with_fuel(mut self, fuel: u64) -> MachineConfig {
        self.fuel = Some(fuel);
        self
    }

    pub fn with_memory_cap(mut self, elements: usize) -> MachineConfig {
        self.memory_cap = Some(elements);
        self
    }
}

/// 64-bit FNV-1a of `bytes`: the workspace's one content hash, behind the
/// adaptive table's check word, [`StateDump`]'s per-array digest and
/// `polarisd`'s checksums.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}

#[cfg(test)]
mod tests {
    /// The reference values of the FNV-1a specification's test suite.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }
}

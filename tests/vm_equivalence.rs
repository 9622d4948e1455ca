//! The differential net holding the bytecode VM to the tree-walker.
//!
//! `Engine::Vm` is the workspace default, so every other suite already
//! runs on the VM; this file is the *explicit* two-engine comparison:
//! for the 17 paper kernels and the 256-seed fuzz corpus, under both the
//! simulated and the threaded backend, the two engines must produce
//!
//! * bit-identical printed output (checksums included),
//! * identical simulated cycle counts,
//! * identical final machine state (every scalar exactly, every array
//!   by FNV-1a over element bit patterns — [`StateDump`]),
//!
//! plus a proptest generator of adversarial units (nested loops, STOP,
//! reductions, lastprivate temporaries) run through both engines per
//! case.
//!
//! [`StateDump`]: polaris_machine::StateDump

mod common;

use common::{compiled, for_each_config, Matrix, Sched, FUEL};
use polaris::fuzz::generate_program;
use polaris::{Engine, MachineConfig, Program};
use polaris_machine::{run_with_state, RunResult, StateDump};
use proptest::prelude::*;

/// Run under both engines with otherwise-identical configs and assert
/// output, cycles and final state all match bit for bit.
fn assert_engines_agree(program: &Program, cfg: &MachineConfig, what: &str) -> RunResult {
    let (vm, tree) = run_both(program, cfg, what);
    let (vm, vm_state) = vm.unwrap_or_else(|e| panic!("{what}: vm run: {e}"));
    let (tree, tree_state) = tree.unwrap_or_else(|e| panic!("{what}: tree-walk run: {e}"));
    assert_eq!(vm.output, tree.output, "{what}: output differs between engines");
    assert_eq!(vm.cycles, tree.cycles, "{what}: simulated cycles differ between engines");
    assert_state_eq(&vm_state, &tree_state, what);
    vm
}

type EngineOutcome = Result<(RunResult, StateDump), polaris_machine::MachineError>;

fn run_both(program: &Program, cfg: &MachineConfig, what: &str) -> (EngineOutcome, EngineOutcome) {
    let _ = what;
    let vm = run_with_state(program, &cfg.clone().with_engine(Engine::Vm));
    let tree = run_with_state(program, &cfg.clone().with_engine(Engine::TreeWalk));
    (vm, tree)
}

fn assert_state_eq(vm: &StateDump, tree: &StateDump, what: &str) {
    assert_eq!(
        vm.scalars, tree.scalars,
        "{what}: final scalar state differs between engines"
    );
    assert_eq!(
        vm.arrays, tree.arrays,
        "{what}: final array state differs between engines"
    );
}

fn kernels() -> Vec<polaris_benchmarks::Benchmark> {
    let mut ks = polaris_benchmarks::all();
    ks.push(polaris_benchmarks::track());
    ks
}

/// [`assert_engines_agree`] on the serial machine, the simulated
/// machine at each of `procs` and real threads at each of `threads`;
/// returns the runs in that order.
fn engines_agree_on(
    program: &Program,
    procs: &[usize],
    threads: &[usize],
    what: &str,
) -> Vec<RunResult> {
    // One engine in the matrix: `assert_engines_agree` runs every
    // configuration it is handed on both.
    let matrix = Matrix { engines: &[Engine::Vm], procs, threads, schedules: &[Sched::Static] };
    let mut runs = Vec::new();
    for_each_config(&matrix, |label, cfg| {
        let cfg = cfg.clone().with_fuel(FUEL);
        runs.push(assert_engines_agree(program, &cfg, &format!("{what} ({label})")));
    });
    runs
}

/// The engines agreeing with *each other* is necessary; every parallel
/// configuration agreeing with serial semantics keeps the net anchored
/// to ground truth.
fn assert_all_match_serial(runs: &[RunResult], what: &str) {
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(runs[0].output, r.output, "{what}: configuration {i} drifted from serial");
    }
}

// ---- the 17 kernels --------------------------------------------------

/// Serial + simulated-parallel, both engines, all 17 kernels. Also pins
/// the untransformed program (the serial reference everything else in
/// the workspace compares against).
#[test]
fn kernels_serial_and_simulated_parallel_agree_across_engines() {
    for k in kernels() {
        engines_agree_on(&k.program(), &[], &[], &format!("{} (untransformed)", k.name));
        let runs = engines_agree_on(&compiled(k.source, k.name), &[8], &[], k.name);
        assert_all_match_serial(&runs, k.name);
    }
}

/// Real-thread backend, both engines, all 17 kernels: checksums must be
/// bit-identical (the chunk-ordered merge makes threading deterministic,
/// so exact equality is the right bar — see tests/fuzz_differential.rs).
#[test]
fn kernels_threaded_agree_across_engines() {
    for k in kernels() {
        let runs = engines_agree_on(&compiled(k.source, k.name), &[], &[2, 8], k.name);
        assert_all_match_serial(&runs, k.name);
    }
}

// ---- the 256-seed corpus ---------------------------------------------

fn corpus_slice(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let src = generate_program(seed);
        let program = compiled(&src, &format!("seed {seed}"));
        engines_agree_on(&program, &[8], &[4], &format!("seed {seed}\n{src}"));
    }
}

#[test]
fn corpus_seeds_0_64_agree_across_engines() {
    corpus_slice(0..64);
}

#[test]
fn corpus_seeds_64_128_agree_across_engines() {
    corpus_slice(64..128);
}

#[test]
fn corpus_seeds_128_192_agree_across_engines() {
    corpus_slice(128..192);
}

#[test]
fn corpus_seeds_192_256_agree_across_engines() {
    corpus_slice(192..256);
}

// ---- adversarial proptest units --------------------------------------

/// Parameters for one adversarial unit. Rendered to F-Mini source below;
/// the shapes are chosen to stress exactly what the bytecode compiler
/// does differently from the tree-walker: nested loop bodies (CallLoop
/// re-entry), STOP mid-loop (Flow::Stop propagation out of dispatch),
/// reductions and lastprivate temporaries (register/scalar interaction),
/// and IF arms (jump-table branches).
#[derive(Debug, Clone)]
struct Adversarial {
    extent: i64,
    inner_extent: i64,
    depth2: bool,
    stop_at: Option<i64>,
    reduction_mul: bool,
    lastprivate: bool,
    guard: bool,
}

fn adversarial_source(a: &Adversarial) -> String {
    let mut s = String::new();
    s.push_str("program adv\n");
    s.push_str(&format!("real a({}), b({})\n", a.extent, a.extent));
    s.push_str("s = 0.0\np = 1.0\n");
    s.push_str(&format!("do i = 1, {}\n", a.extent));
    s.push_str("  a(i) = i * 0.5\n");
    if a.depth2 {
        s.push_str(&format!("  do j = 1, {}\n", a.inner_extent));
        s.push_str("    a(i) = a(i) + j * 0.25\n");
        s.push_str("  end do\n");
    }
    if a.lastprivate {
        s.push_str("  t = a(i) * 2.0\n  b(i) = t\n");
    } else {
        s.push_str("  b(i) = a(i) + 1.0\n");
    }
    s.push_str("  s = s + b(i)\n");
    if a.reduction_mul {
        s.push_str("  p = p * 1.0625\n");
    }
    if a.guard {
        s.push_str(&format!("  if (i .gt. {}) then\n", a.extent / 2));
        s.push_str("    s = s + 0.125\n  else\n    s = s - 0.125\n  end if\n");
    }
    if let Some(at) = a.stop_at {
        s.push_str(&format!("  if (i .eq. {at}) then\n    print *, 'stop', s\n    stop\n  end if\n"));
    }
    s.push_str("end do\n");
    if a.lastprivate {
        s.push_str("print *, s, p, t\n");
    } else {
        s.push_str("print *, s, p\n");
    }
    s.push_str("end\n");
    s
}

fn adversarial_strategy() -> impl Strategy<Value = Adversarial> {
    (
        (2i64..40, 1i64..6, any::<bool>()),
        (any::<bool>(), 1i64..40),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (extent, inner_extent, depth2),
                (stops, stop_at),
                (reduction_mul, lastprivate, guard),
            )| {
                Adversarial {
                    extent,
                    inner_extent,
                    depth2,
                    stop_at: (stops && stop_at <= extent).then_some(stop_at),
                    reduction_mul,
                    lastprivate,
                    guard,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every generated unit, untransformed and restructured, must agree
    /// across engines serially and under the simulated parallel machine.
    #[test]
    fn adversarial_units_agree_across_engines(a in adversarial_strategy()) {
        let src = adversarial_source(&a);
        let original = polaris_ir::parse(&src)
            .unwrap_or_else(|e| panic!("adversarial unit does not parse: {e}\n{src}"));
        engines_agree_on(&original, &[], &[], &format!("adversarial (untransformed)\n{src}"));
        let program = compiled(&src, &format!("adversarial\n{src}"));
        engines_agree_on(&program, &[8], &[], &format!("adversarial\n{src}"));
    }
}

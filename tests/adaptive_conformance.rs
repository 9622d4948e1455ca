//! Determinism-conformance tier for the adaptive scheduling runtime
//! (the PR-9 tentpole): every kernel in the evaluation suite — the 16
//! Table-1 codes, TRACK, the six irregular kernels, the two locality
//! kernels, and the skewed-cost SPMVT — must compute **bit-identical
//! output** under every schedule mode (`serial`, `static`, `adaptive`,
//! work-`stealing`), on both execution engines (tree-walker and
//! bytecode VM), at every simulated processor count and real thread
//! count in {1, 2, 4, 8}. On top of
//! bit-identity the tier pins the adaptive dispatcher's *behaviour*:
//! decision tables are stable across repeated invocations, the second
//! invocation of an irregular kernel re-dispatches its hot loop to a
//! non-serial winner, the skewed kernel moves to work-stealing chunking
//! and beats block partitioning in the cost model, and the runtime
//! dependence oracle stays violation-free throughout.

mod common;

use common::{for_each_config, Matrix, Sched};
use polaris::{MachineConfig, PassOptions};
use polaris_machine::{audit, run, run_recorded, AdaptiveController, Engine};
use std::sync::Arc;

const ALL_SCHEDULES: [Sched; 3] = [Sched::Static, Sched::Stealing, Sched::Adaptive];

/// The kernels that exercise scheduling hardest (irregular, skewed,
/// partially parallel): they get the full real-thread matrix.
fn scheduling_kernels() -> Vec<polaris_benchmarks::Benchmark> {
    let mut v: Vec<_> = polaris_benchmarks::irregular().into_iter().map(|(b, _)| b).collect();
    v.push(polaris_benchmarks::skewed());
    v.push(polaris_benchmarks::track());
    v
}

/// The full conformance kernel set: the 16 Table-1 codes, the two
/// locality kernels, and the scheduling kernels above.
fn conformance_set() -> Vec<polaris_benchmarks::Benchmark> {
    let mut v = polaris_benchmarks::all();
    v.extend(polaris_benchmarks::locality().into_iter().map(|(b, _)| b));
    v.extend(scheduling_kernels());
    v
}

/// Run `b` restructured under every configuration of `matrix` and
/// demand the serial reference's output, byte for byte.
fn assert_bit_identical(b: &polaris_benchmarks::Benchmark, matrix: &Matrix) {
    let program = common::compiled(b.source, b.name);
    let reference = run(&program, &MachineConfig::serial())
        .unwrap_or_else(|e| panic!("{}: reference: {e}", b.name));
    for_each_config(matrix, |label, cfg| {
        let r = run(&program, cfg).unwrap_or_else(|e| panic!("{}: {label}: {e}", b.name));
        assert_eq!(reference.output, r.output, "{}: {label}: output diverged", b.name);
    });
}

/// The big matrix: every kernel × {serial, static, adaptive, stealing}
/// × {tree-walk, VM} × 1/2/4/8 simulated processors must reproduce the
/// serial reference bit-for-bit.
#[test]
fn all_kernels_bit_identical_across_schedules_engines_and_procs() {
    let matrix = Matrix {
        engines: &[Engine::TreeWalk, Engine::Vm],
        procs: &[1, 2, 4, 8],
        threads: &[],
        schedules: &ALL_SCHEDULES,
    };
    for b in &conformance_set() {
        assert_bit_identical(b, &matrix);
    }
}

/// Real-thread backend: the scheduling kernels under static / adaptive
/// / stealing at 2/4/8 worker threads, and every other kernel under
/// stealing at 8 — bit-identical to the serial reference under any
/// victim/steal interleaving.
#[test]
fn threaded_backend_is_bit_identical_for_every_schedule() {
    let full = Matrix {
        engines: &[Engine::Vm],
        procs: &[],
        threads: &[2, 4, 8],
        schedules: &ALL_SCHEDULES,
    };
    let stealing_at_8 = Matrix { threads: &[8], schedules: &[Sched::Stealing], ..full };
    let hard: Vec<&str> = scheduling_kernels().iter().map(|b| b.name).collect();
    for b in &conformance_set() {
        let matrix = if hard.contains(&b.name) { &full } else { &stealing_at_8 };
        assert_bit_identical(b, matrix);
    }
}

/// A `threaded xN/Stealing` row must run on stealing claims, not on
/// block partitioning under another name: a worker that drains its own
/// lane goes looking for a victim, and only that counts an attempt.
#[test]
fn threaded_stealing_rows_reach_the_steal_queue() {
    let program = common::compiled(polaris_benchmarks::skewed().source, "SPMVT");
    let matrix =
        Matrix { engines: &[Engine::Vm], procs: &[], threads: &[2], schedules: &[Sched::Stealing] };
    let mut stealing_rows = 0;
    for_each_config(&matrix, |label, cfg| {
        if !label.contains("threaded x2/Stealing") {
            return;
        }
        stealing_rows += 1;
        let rec = polaris::obs::Recorder::monotonic();
        run_recorded(&program, cfg, &rec).unwrap_or_else(|e| panic!("{label}: {e}"));
        let attempts = rec.counters().get("exec.steal.attempts").copied().unwrap_or(0);
        assert!(attempts > 0, "{label}: no steal attempted; the row ran another schedule");
    });
    assert_eq!(stealing_rows, 1);
}

/// Decision-table conformance: tables are deterministic across repeated
/// invocations (the decision for each loop is *stable* once measured —
/// no oscillation), the second invocation of each irregular kernel
/// re-dispatches its hottest loop to a non-serial winner, and the
/// skewed kernel lands on work-stealing chunking.
#[test]
fn decision_tables_are_stable_and_redispatch_to_nonserial_winners() {
    let mut kernels: Vec<_> =
        polaris_benchmarks::irregular().into_iter().map(|(b, _)| b).collect();
    kernels.push(polaris_benchmarks::skewed());
    for b in &kernels {
        let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
        let ctrl = Arc::new(AdaptiveController::new());
        let cfg = MachineConfig::challenge_8().with_adaptive(Arc::clone(&ctrl));
        run(&out.program, &cfg).unwrap();
        run(&out.program, &cfg).unwrap();
        let after_two = ctrl.decision_rows();
        assert!(!after_two.is_empty(), "{}: no loop was adaptively dispatched", b.name);
        let hot = after_two.iter().max_by_key(|r| (r.trip, r.loop_id)).unwrap();
        assert_ne!(
            hot.strategy, "serial",
            "{}: hottest loop {} fell back to serial on re-dispatch",
            b.name, hot.label
        );
        assert_eq!(
            hot.event, "redispatch",
            "{}: hottest loop {} second invocation was `{}`, not a re-dispatch",
            b.name, hot.label, hot.event
        );

        // Two more invocations: every loop's decision must be unchanged
        // (stability), and a fresh controller fed the same program must
        // arrive at the same table (determinism).
        run(&out.program, &cfg).unwrap();
        run(&out.program, &cfg).unwrap();
        let after_four = ctrl.decision_rows();
        let key = |rows: &[polaris_machine::DecisionRow]| -> Vec<_> {
            rows.iter()
                .map(|r| (r.loop_id, r.strategy, r.chunking.clone(), r.threads))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            key(&after_two),
            key(&after_four),
            "{}: decision table drifted between invocation 2 and 4",
            b.name
        );
        let ctrl2 = Arc::new(AdaptiveController::new());
        let cfg2 = MachineConfig::challenge_8().with_adaptive(Arc::clone(&ctrl2));
        run(&out.program, &cfg2).unwrap();
        run(&out.program, &cfg2).unwrap();
        assert_eq!(
            key(&after_two),
            key(&ctrl2.decision_rows()),
            "{}: decision table is not deterministic across fresh controllers",
            b.name
        );
    }
}

/// The skewed-cost kernel is the case work stealing exists for: the
/// dispatcher must move its hot loop to stealing chunking, and the
/// re-dispatched run must beat uniform block partitioning in the
/// (deterministic) cost model.
#[test]
fn skewed_kernel_moves_to_stealing_and_beats_block() {
    let b = polaris_benchmarks::skewed();
    let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
    let block = run(&out.program, &MachineConfig::challenge_8()).unwrap();

    let ctrl = Arc::new(AdaptiveController::new());
    let cfg = MachineConfig::challenge_8().with_adaptive(Arc::clone(&ctrl));
    run(&out.program, &cfg).unwrap();
    let redispatched = run(&out.program, &cfg).unwrap();

    let rows = ctrl.decision_rows();
    assert!(
        rows.iter().any(|r| r.chunking.starts_with("steal")),
        "SPMVT: no loop moved to work-stealing chunking: {rows:?}"
    );
    assert!(
        redispatched.cycles < block.cycles,
        "SPMVT: adaptive re-dispatch ({} cycles) does not beat block ({} cycles)",
        redispatched.cycles,
        block.cycles
    );
    assert_eq!(block.output, redispatched.output, "SPMVT: stealing changed output bytes");
}

/// The profile the controller is fed is the one of the invocation it
/// decided: a `PARALLEL DO` whose first invocation has no trips ran no
/// chunk, so its cost CV is 0 — not the CV of the skewed chunks an
/// earlier `SPECULATIVE` loop ran on the same threads.
#[test]
fn a_zero_trip_doall_is_fed_no_profile_of_an_earlier_loop() {
    let src = "program stale\n\
               integer key(64), i, n\n\
               real a(64), b(64), c(64)\n\
               do i = 1, 64\n\
               \x20 key(i) = mod(i * 5, 64) + 1\n\
               \x20 b(i) = i * 0.25\n\
               end do\n\
               n = 0\n\
               !$polaris doall speculative(A)\n\
               do i = 1, 64\n\
               \x20 if (i > 32) then\n\
               \x20   a(key(i)) = sqrt(b(i)) + exp(b(i) * 0.01) + sin(b(i)) + cos(b(i))\n\
               \x20 else\n\
               \x20   a(key(i)) = b(i)\n\
               \x20 end if\n\
               end do\n\
               !$polaris doall\n\
               do i = 1, n\n\
               \x20 c(i) = 1.0\n\
               end do\n\
               print *, a(1), a(64)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let ctrl = Arc::new(AdaptiveController::new());
    let cfg = MachineConfig::threaded(2, polaris_machine::Schedule::Static)
        .with_adaptive(Arc::clone(&ctrl));
    let r = run(&program, &cfg).unwrap();
    assert_eq!(r.output, run(&program, &MachineConfig::serial()).unwrap().output);
    assert!(r.loops.values().any(|s| s.spec_success == 1), "the PD test passes: {:?}", r.loops);
    let rows = ctrl.decision_rows();
    let row = |strategy: &str| {
        rows.iter().find(|r| r.strategy == strategy).unwrap_or_else(|| panic!("{rows:?}"))
    };
    assert!(row("speculative").invocations == 1 && row("static").trip == 0, "{rows:?}");
    assert_eq!(row("static").cost_cv, 0.0, "{rows:?}");
}

/// Soundness is decided where the annotation is read, whatever the
/// controller asks for: under a forced cycle that demands concurrent
/// stealing on every invocation, a `SPECULATIVE` loop whose PD test fails
/// still speculates and re-executes in order, and a proved DOALL forks.
#[test]
fn forced_stealing_speculates_an_unproved_loop_and_forks_a_proved_one() {
    let src = "program forced\n\
               integer key(200), i\n\
               real a(200), b(2000)\n\
               do i = 1, 200\n\
               \x20 key(i) = mod(i, 7) + 1\n\
               end do\n\
               !$polaris doall speculative(A)\n\
               do i = 1, 200\n\
               \x20 a(key(i)) = a(key(i)) + i * 1.0\n\
               end do\n\
               !$polaris doall\n\
               do i = 1, 2000\n\
               \x20 b(i) = i * 0.5 + 1.0\n\
               end do\n\
               print *, a(1), a(7), b(2000)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let serial = run(&program, &MachineConfig::serial()).unwrap();
    let machines = [
        MachineConfig::challenge_8().with_procs(2),
        MachineConfig::threaded(2, polaris_machine::Schedule::Static),
    ];
    for base in machines {
        let cycle = vec![Some(polaris_machine::Schedule::Stealing { chunk: 2 })];
        let forced = AdaptiveController::with_forced_cycle(cycle);
        let cfg = base.with_adaptive(Arc::new(forced));
        for pass in 0..2 {
            let r = run(&program, &cfg).unwrap();
            let what = format!("{:?} pass {pass}: {:?}", cfg.exec_mode, r.loops);
            assert_eq!(r.output, serial.output, "{what}");
            let spec = r.loops.values().find(|s| s.spec_fail + s.spec_success > 0).expect(&what);
            assert_eq!((spec.spec_fail, spec.spec_success), (1, 0), "{what}");
            assert_eq!(r.loops.values().map(|s| s.parallel_invocations).sum::<u64>(), 1, "{what}");
        }
    }
}

/// Zero oracle violations across the whole conformance set: adaptive
/// dispatch changes *where* iterations run, never what the compiler
/// claimed — so the runtime dependence oracle must stay as clean as it
/// is under static scheduling.
#[test]
fn oracle_stays_clean_across_the_conformance_set() {
    for b in &conformance_set() {
        let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
        let oracle = audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("{}: oracle: {e}", b.name));
        assert!(
            !oracle.has_violations(),
            "{}: oracle violations: {:?}",
            b.name,
            oracle.violations().collect::<Vec<_>>()
        );
    }
}

//! Determinism-conformance tier for the adaptive scheduling runtime:
//! every kernel of `common::kernels()` must compute **bit-identical
//! output and final state** under the adaptive controller and every
//! schedule mode, on the simulated multiprocessor and on real threads.
//! The simulated machine runs every concurrent invocation in iteration
//! order on one thread (pinned per chunk plan by
//! `exec::tests::simulated_invocations_visit_iterations_in_ascending_order_for_every_plan`),
//! so its rows are few: they exist to drive the controller's measure
//! and re-dispatch paths. Real threads fold reductions by replaying the
//! lanes' logs, so every kernel gets their full schedule matrix at 2
//! and 3 threads. The engine axis is `vm_equivalence`'s. On top of
//! bit-identity the tier pins the adaptive dispatcher's *behaviour*:
//! decision tables are stable across repeated invocations, the second
//! invocation of an irregular kernel re-dispatches its hot loop to a
//! non-serial winner, the skewed kernel moves to work-stealing chunking
//! and beats block partitioning in the cost model, soundness is
//! decided where the annotation is read, whatever the controller asks,
//! and the runtime dependence oracle stays violation-free.

mod common;

use common::{audit_kernel, for_each_config, run_with_comparable_state, Matrix, Sched};
use polaris::{MachineConfig, PassOptions};
use polaris_machine::{run, run_recorded, AdaptiveController, Engine};
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

/// Run `b` restructured under every configuration of `matrix` and
/// demand the output and the final state of its first, the serial
/// machine, bit for bit (less what a loop privatizes without copying
/// out, whose value after the loop is unspecified).
fn assert_bit_identical(b: &polaris_benchmarks::Benchmark, matrix: &Matrix) {
    let program = common::compiled(b.source, b.name);
    let mut reference = None;
    for_each_config(matrix, |label, cfg| {
        let (r, state) = run_with_comparable_state(&program, cfg)
            .unwrap_or_else(|e| panic!("{}: {label}: {e}", b.name));
        let (output, serial_state) = reference.get_or_insert((r.output.clone(), state.clone()));
        assert_eq!(*output, r.output, "{}: {label}: output diverged", b.name);
        assert_eq!(*serial_state, state, "{}: {label}: final state diverged", b.name);
    });
}

/// Every kernel on the VM, serially and on 2 and 8 simulated
/// processors under block partitioning and under the adaptive
/// controller (its measuring and its re-dispatched invocation), must
/// reproduce the serial reference bit-for-bit: 7 runs a kernel.
#[test]
fn all_kernels_bit_identical_across_schedules_engines_and_procs() {
    let matrix = Matrix {
        engines: &[Engine::Vm],
        procs: &[2, 8],
        threads: &[],
        schedules: &[Sched::Static, Sched::Adaptive],
    };
    for b in &common::kernels() {
        assert_bit_identical(b, &matrix);
    }
}

/// Real-thread backend: the scheduling kernels under static / adaptive
/// / stealing at 2/3/4/8 worker threads, and every other kernel under
/// all three at 2 and 3 and under stealing at 8 — bit-identical to the
/// serial reference, final state included, under any claim
/// interleaving.
#[test]
fn threaded_backend_is_bit_identical_for_every_schedule() {
    let full = Matrix {
        engines: &[Engine::Vm],
        procs: &[],
        threads: &[2, 3, 4, 8],
        schedules: &ALL_SCHEDULES,
    };
    let at_2_and_3 = Matrix { threads: &[2, 3], ..full };
    let stealing_at_8 = Matrix { threads: &[8], schedules: &[Sched::Stealing], ..full };
    let hard: Vec<&str> = scheduling_kernels().iter().map(|b| b.name).collect();
    for b in &common::kernels() {
        if hard.contains(&b.name) {
            assert_bit_identical(b, &full);
        } else {
            assert_bit_identical(b, &at_2_and_3);
            assert_bit_identical(b, &stealing_at_8);
        }
    }
}

/// A `threaded xN/Stealing` row must run on stealing's small chunks,
/// not on block partitioning under another name: on SPMVT it joins more
/// `exec.threaded.chunks` than the `Static` row, which cuts one a thread.
#[test]
fn threaded_stealing_rows_reach_the_steal_queue() {
    let program = common::compiled(polaris_benchmarks::skewed().source, "SPMVT");
    let matrix = Matrix {
        engines: &[Engine::Vm],
        procs: &[],
        threads: &[2],
        schedules: &[Sched::Static, Sched::Stealing],
    };
    let mut chunks = Vec::new();
    for_each_config(&matrix, |label, cfg| {
        if !label.contains("threaded x2/") {
            return;
        }
        let rec = polaris::obs::Recorder::monotonic();
        run_recorded(&program, cfg, &rec).unwrap_or_else(|e| panic!("{label}: {e}"));
        chunks.push((label.to_string(), rec.counters().get("exec.threaded.chunks").copied().unwrap_or(0)));
    });
    let [(_, block), (label, stealing)] = &chunks[..] else { panic!("{chunks:?}: not one Static and one Stealing row") };
    assert!(
        stealing > block,
        "{label}: {stealing} chunks against Static's {block}; the row ran another schedule"
    );
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

/// Zero oracle violations across the conformance set: adaptive dispatch
/// changes *where* iterations run, never what the compiler claimed, and
/// the oracle traces a serial run whatever the configuration. So each
/// kernel is audited once, by the suite that owns it
/// (`common::audit_kernel`); this suite's share is the skewed-cost
/// SPMVT, the kernel it adds to the set.
#[test]
fn oracle_stays_clean_across_the_conformance_set() {
    audit_kernel(&polaris_benchmarks::skewed());
}

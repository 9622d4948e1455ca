//! Fault-injection sweep over the evaluation suite: a panic is injected
//! into each pipeline stage in turn, for every kernel, and the compiler
//! must (a) survive, (b) roll the faulted stage back to its pre-stage
//! snapshot, (c) keep the IR valid, and (d) still emit a program whose
//! parallel execution matches the untransformed serial reference. This
//! is the acceptance gate for the fault-isolating pipeline: one broken
//! pass degrades the optimization level, never the answer.

use polaris_benchmarks::{all, track};
use polaris_core::pipeline::{FaultPlan, STAGE_NAMES};
use polaris_core::{compile, PassOptions, StageOutcome};
use polaris_machine::{run, run_serial, MachineConfig, Schedule};

#[test]
fn every_stage_fault_degrades_gracefully_on_every_kernel() {
    for b in all().into_iter().chain([track()]) {
        let reference = run_serial(&b.program()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for stage in STAGE_NAMES {
            let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in(stage));
            let mut p = b.program();
            let report = compile(&mut p, &opts).unwrap_or_else(|e| {
                panic!("{}: fault in {stage} escaped the pipeline: {e}", b.name)
            });

            // The faulted stage must be individually rolled back…
            let sr = report
                .stage(stage)
                .unwrap_or_else(|| panic!("{}: no stage report for {stage}", b.name));
            assert!(
                matches!(sr.outcome, StageOutcome::RolledBack { .. }),
                "{}: stage {stage} outcome was {:?}, expected RolledBack",
                b.name,
                sr.outcome
            );
            assert!(report.degraded(), "{}: report not degraded for {stage}", b.name);

            // …leaving a valid program…
            polaris_ir::validate::validate_program(&p)
                .unwrap_or_else(|e| panic!("{}: invalid IR after fault in {stage}: {e}", b.name));

            // …whose parallel execution is still semantics-preserving.
            let parallel = run(&p, &MachineConfig::challenge_8()).unwrap_or_else(|e| {
                panic!("{}: degraded program failed to run after fault in {stage}: {e}", b.name)
            });
            assert_eq!(
                reference.output, parallel.output,
                "{}: output diverged after fault in {stage}",
                b.name
            );
        }
    }
}

/// The same 8-stage × 17-kernel sweep under the *real-thread* execution
/// backend. A degraded program handed to worker threads must either run
/// to serial-identical checksums (reductions fold in serial order, so
/// the comparison is exact) or fail with a clean `MachineError` — the
/// documented exit-code-1 fallback — never a panic, a hang, or a wrong
/// answer.
#[test]
fn every_stage_fault_degrades_gracefully_under_threaded_execution() {
    for b in all().into_iter().chain([track()]) {
        let reference = run_serial(&b.program()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        for stage in STAGE_NAMES {
            let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in(stage));
            let mut p = b.program();
            let report = compile(&mut p, &opts).unwrap_or_else(|e| {
                panic!("{}: fault in {stage} escaped the pipeline: {e}", b.name)
            });
            assert!(report.degraded(), "{}: report not degraded for {stage}", b.name);
            polaris_ir::validate::validate_program(&p)
                .unwrap_or_else(|e| panic!("{}: invalid IR after fault in {stage}: {e}", b.name));

            match run(&p, &MachineConfig::threaded(4, Schedule::Static)) {
                Ok(threaded) => assert_eq!(
                    reference.output, threaded.output,
                    "{}: threaded output diverged after fault in {stage}",
                    b.name
                ),
                // Clean fallback: a typed machine error (exit code 1 at
                // the CLI), never a wrong answer. Nothing in the current
                // suite takes this path, but it is the documented
                // contract for degraded programs the backend rejects.
                Err(e) => eprintln!("{}: clean threaded fallback after {stage}: {e}", b.name),
            }
        }
    }
}

#[test]
fn unit_scoped_faults_only_fire_on_matching_units() {
    let b = polaris_benchmarks::by_name("trfd").expect("TRFD in suite");
    // A fault targeted at a unit that does not exist must be inert.
    let opts = PassOptions::polaris()
        .with_faults(FaultPlan::panic_in_unit("induction", "NO_SUCH_UNIT"));
    let mut p = b.program();
    let report = compile(&mut p, &opts).unwrap();
    assert!(!report.degraded(), "fault on absent unit should not fire");

    // Targeted at the real main unit it must fire and roll back.
    let unit = b.program().units[0].name.clone();
    let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in_unit("induction", unit));
    let mut p = b.program();
    let report = compile(&mut p, &opts).unwrap();
    assert!(report.rolled_back_stages().contains(&"induction"));
}

#[test]
fn multiple_simultaneous_faults_are_each_isolated() {
    let b = polaris_benchmarks::by_name("tomcatv").expect("TOMCATV in suite");
    let reference = run_serial(&b.program()).unwrap();
    let opts = PassOptions::polaris().with_faults(
        FaultPlan::panic_in("inline").and_panic_in("induction").and_panic_in("reduction"),
    );
    let mut p = b.program();
    let report = compile(&mut p, &opts).unwrap();
    let rolled = report.rolled_back_stages();
    for s in ["inline", "induction", "reduction"] {
        assert!(rolled.contains(&s), "{s} not rolled back: {rolled:?}");
    }
    let parallel = run(&p, &MachineConfig::challenge_8()).unwrap();
    assert_eq!(reference.output, parallel.output);
}

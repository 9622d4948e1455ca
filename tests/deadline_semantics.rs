//! Resource-cap semantics, as a table: for each cap — execution fuel,
//! wall-clock deadline, memory — in both the *hit* and *not hit* case,
//! the exact exit class is pinned, partial state is shown to be rolled
//! back (never served), and the compiler invariants are re-checked after
//! a mid-pipeline cancellation.
//!
//! | cap            | hit                                  | not hit            |
//! |----------------|--------------------------------------|--------------------|
//! | fuel           | `MachineError::FuelExhausted`        | output = reference |
//! | memory         | `MachineError::MemoryCapExceeded`    | output = reference |
//! | wall (compile) | stages after cancel rolled back      | report clean       |
//! | wall (service) | `degraded`, exit 1, never retried    | `ok`, exit 0       |

mod common;

use polaris::core::pipeline::{FaultPlan, StageOutcome, CANCELLED_PREFIX};
use polaris::core::{CancelToken, PassOptions};
use polaris::{MachineConfig, Program};
use polaris_machine::MachineError;
use polaris_obs::Recorder;
use polarisd::chaos::ChaosPlan;
use polarisd::proto::{Request, Status};
use polarisd::service::{Service, ServiceConfig};
use std::time::Duration;

const SRC: &str = "program caps\n\
                   real v(64)\n\
                   s = 0.0\n\
                   do i = 1, 64\n\
                   \x20 v(i) = i * 2.0\n\
                   end do\n\
                   do i = 1, 64\n\
                   \x20 s = s + v(i)\n\
                   end do\n\
                   print *, s\n\
                   end\n";

fn compiled() -> Program {
    common::compiled(SRC, "caps")
}

fn reference_output() -> Vec<String> {
    polaris_machine::run(&compiled(), &MachineConfig::serial()).unwrap().output
}

// ---- fuel ------------------------------------------------------------

#[test]
fn fuel_cap_hit_is_the_exact_exit_class_and_serves_nothing() {
    let err = polaris_machine::run(&compiled(), &MachineConfig::serial().with_fuel(10))
        .expect_err("10 units of fuel cannot run this program");
    // Exact class with the configured limit — and because `run` returns
    // `Err`, no partial output can leak to a caller.
    assert!(matches!(err, MachineError::FuelExhausted { limit: 10 }), "{err}");
}

#[test]
fn fuel_cap_not_hit_output_matches_the_uncapped_reference() {
    let out = polaris_machine::run(&compiled(), &MachineConfig::serial().with_fuel(2_000_000))
        .expect("generous fuel")
        .output;
    assert_eq!(out, reference_output());
}

// ---- memory ----------------------------------------------------------

#[test]
fn memory_cap_hit_is_the_exact_exit_class_with_need_and_cap() {
    let err = polaris_machine::run(&compiled(), &MachineConfig::serial().with_memory_cap(8))
        .expect_err("v(64) cannot fit in 8 elements");
    match err {
        MachineError::MemoryCapExceeded { need, cap } => {
            assert_eq!(cap, 8);
            assert!(need >= 64, "need {need} must count the 64-element array");
        }
        other => panic!("wrong exit class: {other}"),
    }
}

#[test]
fn memory_cap_not_hit_output_matches_the_uncapped_reference() {
    let out =
        polaris_machine::run(&compiled(), &MachineConfig::serial().with_memory_cap(1 << 20))
            .expect("generous memory cap")
            .output;
    assert_eq!(out, reference_output());
}

// ---- wall deadline, compile level -----------------------------------

/// A mid-pipeline cancellation (the service's wall deadline mechanism)
/// must leave a consistent program: completed stages keep their effect,
/// every remaining stage is rolled back with the cancellation reason, and
/// both the IR validator and the compiler-invariant verifier still pass.
#[test]
fn wall_deadline_hit_mid_compile_rolls_back_remaining_stages_and_keeps_invariants() {
    let mut program = polaris::ir::parse(SRC).unwrap();
    // The induction stage stalls 200ms; a watchdog cancels at 20ms —
    // exactly what polarisd's watchdog does to an in-flight compile.
    let opts = PassOptions::polaris().with_faults(FaultPlan::stall_in("induction", 200));
    let cancel = CancelToken::new();
    let watchdog = {
        let cancel = cancel.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            cancel.cancel("wall deadline (20ms) exceeded");
        })
    };
    let report = polaris::core::compile_cancellable(
        &mut program,
        &opts,
        &Recorder::disabled(),
        &cancel,
    )
    .unwrap();
    watchdog.join().unwrap();

    let cancelled: Vec<&str> = report
        .stages
        .iter()
        .filter(|s| match &s.outcome {
            StageOutcome::RolledBack { reason } => reason.starts_with(CANCELLED_PREFIX),
            _ => false,
        })
        .map(|s| s.name)
        .collect();
    assert!(
        cancelled.contains(&"analyze"),
        "stages after the stall must be cancelled: {:?}",
        report.stages
    );
    // Partial state is kept for *completed* stages only…
    assert!(matches!(report.stage("inline").unwrap().outcome, StageOutcome::Ok));
    // …and what remains is a consistent program: both validators agree.
    polaris::ir::validate::validate_program(&program).expect("IR valid after cancel");
    let verify = polaris::verify::verify_compiled(&program, &report);
    assert!(verify.ok(), "invariants must hold after mid-pipeline cancel");
    // The cancelled compile still runs (degraded ≠ broken).
    let out = polaris_machine::run(&program, &MachineConfig::serial()).unwrap().output;
    assert_eq!(out, reference_output());
}

#[test]
fn wall_deadline_not_hit_compile_is_clean() {
    let mut program = polaris::ir::parse(SRC).unwrap();
    let cancel = CancelToken::new(); // never fired
    let report = polaris::core::compile_cancellable(
        &mut program,
        &PassOptions::polaris(),
        &Recorder::disabled(),
        &cancel,
    )
    .unwrap();
    assert!(!report.degraded());
    assert!(report.stages.iter().all(|s| !matches!(
        &s.outcome,
        StageOutcome::RolledBack { reason } if reason.starts_with(CANCELLED_PREFIX)
    )));
}

// ---- wall deadline, service level -----------------------------------

fn service_request(deadline_ms: Option<u64>) -> Request {
    Request {
        id: 1,
        client: "caps".into(),
        vfa: false,
        deadline_ms,
        return_program: false,
        source: SRC.into(),
    }
}

#[test]
fn wall_deadline_hit_at_the_service_is_degraded_exit_1_never_retried() {
    let chaos = ChaosPlan::seeded(1).with_stall(100, 300);
    let service = Service::with_chaos(
        ServiceConfig { workers: 1, ..ServiceConfig::default() },
        Recorder::disabled(),
        chaos,
    );
    let resp = service
        .submit(service_request(Some(25)))
        .wait_timeout(Duration::from_secs(20))
        .unwrap();
    assert_eq!(resp.status, Status::Degraded);
    assert_eq!(resp.exit_code, 1);
    assert_eq!(resp.attempts, 1, "a deadline blow must not be retried");
    let stats = service.shutdown();
    assert!(stats.deadline_cancels >= 1);
    assert_eq!(stats.retries, 0);
}

#[test]
fn wall_deadline_not_hit_at_the_service_is_ok_exit_0() {
    let service = Service::new(ServiceConfig::default());
    let resp = service
        .submit(service_request(Some(10_000)))
        .wait_timeout(Duration::from_secs(20))
        .unwrap();
    assert_eq!(resp.status, Status::Ok);
    assert_eq!(resp.exit_code, 0);
    assert_eq!(service.stats().deadline_cancels, 0);
}

// ---- search budget ---------------------------------------------------

/// One perfect nest of `depth` loops around
/// `a(i1+…+in) = a(i1+…+in+1) + 1.0`: every direction vector of the
/// pair is feasible, so summarising the band would refine 3ⁿ of them.
fn deep_nest(depth: usize) -> String {
    let vars: Vec<String> = (1..=depth).map(|k| format!("i{k}")).collect();
    let sum = vars.join("+");
    let mut src = String::from("program deep\nreal a(1000)\n");
    for v in &vars {
        src += &format!("do {v} = 1, 2\n");
    }
    src += &format!("a({sum}) = a({sum}+1) + 1.0\n");
    src += &"end do\n".repeat(depth);
    src + "print *, a(1)\nend\n"
}

/// The nest stages' search budget is structural: a band deeper than the
/// stages transform is gated out before anything is summarised, in the
/// compiler, the re-prover and the lint alike — no `CancelToken`, no
/// watchdog. What pins that is a nest report with no cert and no
/// rejection (every judged candidate leaves one) and a silent lint; the
/// 2 s per step is checked in optimised builds only (depth 12 took 90 s
/// to compile before the gates), since unoptimised `analyze`'s range
/// test, cubic in the depth, alone takes seconds on these nests.
#[test]
fn hostile_deep_nests_compile_verify_and_lint_within_the_budget() {
    let timed = |what: &str, depth: usize, t0: std::time::Instant| {
        let took = t0.elapsed();
        let in_budget = cfg!(debug_assertions) || took < Duration::from_secs(2);
        assert!(in_budget, "depth {depth}: {what} took {took:?}");
    };
    for depth in [12, 16] {
        let src = deep_nest(depth);
        let t0 = std::time::Instant::now();
        let out = polaris::parallelize(&src, &PassOptions::polaris()).unwrap();
        timed("compile", depth, t0);
        assert!(!out.report.degraded(), "{:?}", out.report.stages);
        let nest = &out.report.nest;
        assert!(nest.certs.is_empty() && nest.rejections.is_empty(), "nothing that deep is judged");

        let t0 = std::time::Instant::now();
        let v = polaris::verify::verify_compiled(&out.program, &out.report);
        timed("verify", depth, t0);
        assert!(v.rejected_certs().is_empty());

        let t0 = std::time::Instant::now();
        let lint = polaris::verify::lint_program(&polaris_ir::parse(&src).unwrap(), &src);
        timed("lint", depth, t0);
        assert!(lint.findings.iter().all(|f| f.lint != "nest-locality"), "{:?}", lint.findings);
    }
}

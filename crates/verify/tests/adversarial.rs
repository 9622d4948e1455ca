//! Adversarial exercise of the inter-pass verifier: hand-corrupt the IR
//! *after* each of the pipeline's stages (duplicate `LoopId`, dangling
//! symbol, type-punned assignment) and assert that
//!
//! * the verifier catches the damage at that stage's boundary,
//! * the rollback is attributed to the right stage by name,
//! * the rollback reason names the violated invariant,
//! * the program that escapes the pipeline still validates, and
//! * [`polaris_verify::verify_compiled`] surfaces the whole story.

use polaris_core::{
    parse_and_compile, CorruptKind, FaultPlan, PassOptions, StageOutcome, STAGE_NAMES,
};
use polaris_verify::{verify_compiled, VERIFIER_ROLLBACK_PREFIX};

/// A program with work for every stage: a call to inline, constants to
/// fold, two loops (one reduction), a dead store.
const SOURCE: &str = "program t\n\
                      real v(1000)\n\
                      integer n\n\
                      parameter (n = 1000)\n\
                      s = 0.0\n\
                      t = 1.0\n\
                      t = 2.0\n\
                      call fill(v, n)\n\
                      do i = 1, n\n\
                      \x20 s = s + v(i) * t\n\
                      end do\n\
                      print *, s\n\
                      end\n\
                      subroutine fill(a, m)\n\
                      real a(m)\n\
                      integer m\n\
                      do i = 1, m\n\
                      \x20 a(i) = i * 2.0\n\
                      end do\n\
                      end\n";

/// The invariant each corruption kind must trip.
fn expected_invariant(kind: CorruptKind) -> &'static str {
    match kind {
        CorruptKind::DuplicateLoopId => "loop-id-provenance",
        CorruptKind::DanglingSymbol => "symbol-use",
        CorruptKind::TypePun => "type-agreement",
    }
}

#[test]
fn every_stage_and_corruption_kind_is_caught_and_attributed() {
    for kind in CorruptKind::ALL {
        for stage in STAGE_NAMES {
            let opts =
                PassOptions::polaris().with_faults(FaultPlan::corrupt_in(stage, kind));
            let (program, report) = parse_and_compile(SOURCE, &opts)
                .unwrap_or_else(|e| panic!("{kind:?} after `{stage}` aborted the compile: {e}"));

            // The corrupted stage — and only it — rolled back.
            assert_eq!(
                report.rolled_back_stages(),
                vec![stage],
                "{kind:?} after `{stage}`"
            );
            let sr = report.stage(stage).unwrap();
            let StageOutcome::RolledBack { reason } = &sr.outcome else {
                panic!("{kind:?} after `{stage}`: expected rollback, got {:?}", sr.outcome);
            };
            assert!(
                reason.starts_with(VERIFIER_ROLLBACK_PREFIX),
                "{kind:?} after `{stage}`: {reason}"
            );
            assert!(
                reason.contains(&format!("invariant `{}`", expected_invariant(kind))),
                "{kind:?} after `{stage}`: wrong invariant named: {reason}"
            );

            // The verifier's own accounting agrees.
            let v = verify_compiled(&program, &report);
            assert_eq!(v.verifier_rollbacks, vec![stage], "{kind:?} after `{stage}`");
            assert!(v.invariant_violations > 0);
            assert!(
                v.final_violations.is_empty(),
                "{kind:?} after `{stage}`: corrupt IR escaped: {:?}",
                v.final_violations
            );
        }
    }
}

#[test]
fn clean_compile_reports_no_verifier_activity() {
    let (program, report) =
        parse_and_compile(SOURCE, &PassOptions::polaris()).unwrap();
    let v = verify_compiled(&program, &report);
    assert!(v.ok(), "{:?}", v.final_violations);
    assert!(v.verifier_rollbacks.is_empty());
    assert_eq!(v.invariant_violations, 0);
    assert_eq!(
        v.invariants_checked,
        (STAGE_NAMES.len() * polaris_ir::validate::INVARIANTS.len()) as u64
    );
}

#[test]
fn corrupted_compile_still_yields_clean_race_verdicts() {
    // A rollback degrades the compile but what escapes must still be a
    // sound program: the static race detector must find no uncovered
    // PARALLEL claim in it.
    let opts = PassOptions::polaris()
        .with_faults(FaultPlan::corrupt_in("induction", CorruptKind::DuplicateLoopId));
    let (program, report) = parse_and_compile(SOURCE, &opts).unwrap();
    let v = verify_compiled(&program, &report);
    if let Some(race) = &v.race {
        assert_eq!(
            race.count(polaris_verify::RaceVerdict::Clean),
            race.parallel_claims(),
            "{:?}",
            race.loops
        );
    }
}

#[test]
fn forged_reduction_annotation_is_not_trusted() {
    use polaris_verify::RaceVerdict;
    // Each statement is reduction-shaped, but V is read in C's operand
    // and C in V's: the directive claims what the body does not bear out.
    let forged = "program cross\n\
                  real c(20), v\n\
                  v = 1.0\n\
                  !$polaris doall reduction(+:v, +:c)\n\
                  do i = 1, 20\n\
                  \x20 v = v + c(i)\n\
                  \x20 c(14) = c(14) + v\n\
                  end do\n\
                  print *, v, c(14)\n\
                  end\n";
    let r = polaris_verify::analyze(&polaris_ir::parse(forged).unwrap()).unwrap();
    assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
    assert_eq!(r.loops[0].verdict, RaceVerdict::PotentialRace, "{}", r.loops[0].detail);

    // The same directive over operands that read neither target holds,
    // in every shape the lowered statement may take.
    let honest = "program sums\n\
                  real c(20), b(20), v\n\
                  v = 1.0\n\
                  !$polaris doall reduction(+:v, +:c)\n\
                  do i = 1, 20\n\
                  \x20 v = b(i) + v - 0.5\n\
                  \x20 c(14) = c(14) - b(i)\n\
                  end do\n\
                  print *, v, c(14)\n\
                  end\n";
    let r = polaris_verify::analyze(&polaris_ir::parse(honest).unwrap()).unwrap();
    assert_eq!(r.loops[0].verdict, RaceVerdict::Clean, "{}", r.loops[0].detail);

    // Wrong operator, and the target on the subtracted side.
    for body in ["v = v * b(i)", "v = b(i) - v"] {
        let src = format!(
            "program t\nreal b(20), v\n!$polaris doall reduction(+:v)\ndo i = 1, 20\n  {body}\nend do\nprint *, v\nend\n"
        );
        let r = polaris_verify::analyze(&polaris_ir::parse(&src).unwrap()).unwrap();
        assert_eq!(r.loops[0].verdict, RaceVerdict::PotentialRace, "{body}: {}", r.loops[0].detail);
    }
}

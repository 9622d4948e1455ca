//! # polaris-verify — independent checking of the restructurer's output
//!
//! Three cooperating analyses, all *independent re-derivations* rather
//! than trust in the passes that produced the result:
//!
//! 1. **Inter-pass IR verifier** — the shared invariant set in
//!    `polaris_ir::validate` is run by the pipeline after every stage;
//!    this crate surfaces its totals ([`VerifyReport`]) and re-runs the
//!    full check over the final program.
//! 2. **Static race detector** ([`race`]) — every PARALLEL claim in the
//!    lowered machine plan is re-checked for cross-iteration conflicts
//!    from scratch: annotation coverage for scalars, range-test
//!    subscript disjointness for arrays.
//! 3. **F-Mini lint suite** ([`lint`]) — programmer-facing static
//!    diagnostics with `line:col` spans, rendered as JSON.
//!
//! [`agreement`] cross-checks the static race verdicts against the
//! runtime dependence oracle (`polaris_machine::audit`): a static
//! `potential-race` on a loop the oracle saw run clean is a *precision
//! miss* (the detector was conservative); a static `clean` on a loop
//! with observed violations is a *soundness failure* — the serious case,
//! counted separately and required to be zero by the conformance suite.

pub mod lint;
pub mod nest;
pub mod race;

pub use lint::{lint_program, Finding, LintReport, Severity};
pub use nest::recheck_certs;
pub use race::{analyze, check_image, LoopRace, RaceReport, RaceVerdict};

use polaris_core::{CompileReport, StageOutcome};
use polaris_ir::cert::CertCheck;
use polaris_ir::Program;
use polaris_obs::json::escape;
use polaris_obs::{Counter, Recorder};
use polaris_runtime::verdict::{ClaimKind, OracleReport};

/// The prefix the pipeline puts on rollback reasons that originate from
/// the inter-pass verifier (as opposed to a stage panicking or erroring
/// on its own).
pub const VERIFIER_ROLLBACK_PREFIX: &str = "post-stage validation failed";

/// Combined verification outcome for one compiled program.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Invariant checks the pipeline ran at stage boundaries.
    pub invariants_checked: u64,
    /// Violations those checks caught (each rolled its stage back).
    pub invariant_violations: u64,
    /// Stages rolled back *because of* a verifier violation, in run order.
    pub verifier_rollbacks: Vec<&'static str>,
    /// Violations from re-running the full invariant set over the final
    /// program. Must be empty: the pipeline never lets ill-formed IR
    /// escape, so anything here is a verifier or pipeline bug.
    pub final_violations: Vec<String>,
    /// Static race verdicts over the lowered plan; `None` when the
    /// program cannot be lowered (e.g. non-constant dimensions), which
    /// leaves nothing for the machine to execute either.
    pub race: Option<RaceReport>,
    /// Independent re-derivation of every nest-transformation
    /// [`polaris_ir::cert::LegalityCert`] from the final IR (see [`nest`]).
    /// A rejected check means a pass applied a transformation its own
    /// evidence does not justify — as serious as an invariant violation.
    pub cert_checks: Vec<CertCheck>,
}

impl VerifyReport {
    /// No invariant ever fired, the final program validates, and every
    /// transformation certificate was independently re-derived.
    pub fn ok(&self) -> bool {
        self.invariant_violations == 0
            && self.final_violations.is_empty()
            && self.certs_ok()
    }

    /// Every nest-transformation certificate re-proved from the IR.
    pub fn certs_ok(&self) -> bool {
        self.cert_checks.iter().all(|c| c.accepted)
    }

    /// Cert checks the re-prover rejected.
    pub fn rejected_certs(&self) -> Vec<&CertCheck> {
        self.cert_checks.iter().filter(|c| !c.accepted).collect()
    }

    /// Mirror the verdict counts into typed observability counters.
    pub fn record(&self, rec: &Recorder) {
        if let Some(race) = &self.race {
            rec.count(Counter::VerifyRaceClean, race.count(RaceVerdict::Clean) as u64);
            rec.count(
                Counter::VerifyRaceNeedsPrivatization,
                race.count(RaceVerdict::NeedsPrivatization) as u64,
            );
            rec.count(
                Counter::VerifyRacePotentialRace,
                race.count(RaceVerdict::PotentialRace) as u64,
            );
        }
    }

    /// Machine-readable JSON document, schema `polaris-verify/v1`.
    /// `agreement` adds the static-vs-oracle cross-check block when the
    /// runtime oracle also ran.
    pub fn to_json(&self, agreement: Option<&Agreement>) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"polaris-verify/v1\",\n");
        s.push_str("  \"invariants\": {\n");
        s.push_str(&format!("    \"checked\": {},\n", self.invariants_checked));
        s.push_str(&format!("    \"violations\": {},\n", self.invariant_violations));
        s.push_str(&format!(
            "    \"verifier_rollbacks\": [{}],\n",
            self.verifier_rollbacks
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str(&format!(
            "    \"final_violations\": [{}]\n",
            self.final_violations
                .iter()
                .map(|v| format!("\"{}\"", escape(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        s.push_str("  },\n");
        s.push_str("  \"certs\": {\n");
        s.push_str(&format!("    \"checked\": {},\n", self.cert_checks.len()));
        s.push_str(&format!("    \"rejected\": {},\n", self.rejected_certs().len()));
        s.push_str("    \"checks\": [\n");
        for (i, c) in self.cert_checks.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"stage\": \"{}\", \"unit\": \"{}\", \"label\": \"{}\", \"accepted\": {}, \"reason\": \"{}\"}}{}\n",
                c.stage,
                escape(&c.unit),
                escape(&c.label),
                c.accepted,
                escape(&c.reason),
                if i + 1 == self.cert_checks.len() { "" } else { "," }
            ));
        }
        s.push_str("    ]\n");
        s.push_str("  },\n");
        match &self.race {
            None => s.push_str("  \"race\": null"),
            Some(race) => {
                s.push_str("  \"race\": {\n");
                s.push_str(&format!(
                    "    \"parallel_claims\": {},\n",
                    race.parallel_claims()
                ));
                s.push_str(&format!(
                    "    \"clean\": {},\n",
                    race.count(RaceVerdict::Clean)
                ));
                s.push_str(&format!(
                    "    \"needs_privatization\": {},\n",
                    race.count(RaceVerdict::NeedsPrivatization)
                ));
                s.push_str(&format!(
                    "    \"potential_race\": {},\n",
                    race.count(RaceVerdict::PotentialRace)
                ));
                s.push_str("    \"loops\": [\n");
                for (i, l) in race.loops.iter().enumerate() {
                    s.push_str(&format!(
                        "      {{\"label\": \"{}\", \"verdict\": \"{}\", \"detail\": \"{}\"}}{}\n",
                        escape(&l.label),
                        l.verdict.as_str(),
                        escape(&l.detail),
                        if i + 1 == race.loops.len() { "" } else { "," }
                    ));
                }
                s.push_str("    ]\n");
                s.push_str("  }");
            }
        }
        match agreement {
            None => s.push('\n'),
            Some(a) => {
                s.push_str(",\n");
                s.push_str("  \"agreement\": {\n");
                s.push_str(&format!("    \"compared\": {},\n", a.compared));
                s.push_str(&format!(
                    "    \"precision_misses\": [{}],\n",
                    a.precision_misses
                        .iter()
                        .map(|l| format!("\"{}\"", escape(l)))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
                s.push_str(&format!(
                    "    \"soundness_failures\": [{}]\n",
                    a.soundness_failures
                        .iter()
                        .map(|l| format!("\"{}\"", escape(l)))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
                s.push_str("  }\n");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Verify a compiled program: collect the pipeline's inter-pass verifier
/// totals from `report`, re-run the full invariant set over the final
/// `program`, and run the static race detector over its lowered plan.
pub fn verify_compiled(program: &Program, report: &CompileReport) -> VerifyReport {
    let final_violations = polaris_ir::validate::check_program(program)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let verifier_rollbacks = report
        .stages
        .iter()
        .filter(|s| match &s.outcome {
            StageOutcome::RolledBack { reason } => reason.starts_with(VERIFIER_ROLLBACK_PREFIX),
            _ => false,
        })
        .map(|s| s.name)
        .collect();
    VerifyReport {
        invariants_checked: report.verify.invariants_checked,
        invariant_violations: report.verify.violations,
        verifier_rollbacks,
        final_violations,
        race: race::analyze(program).ok(),
        cert_checks: nest::recheck_certs(program, report),
    }
}

/// Static-vs-dynamic cross-check of the race verdicts.
#[derive(Debug, Clone, Default)]
pub struct Agreement {
    /// PARALLEL claims present in both reports (joined on loop id).
    pub compared: usize,
    /// Labels where the static detector abstained (`needs-privatization`
    /// or `potential-race`) but the oracle observed a clean run: the
    /// detector was merely conservative.
    pub precision_misses: Vec<String>,
    /// Labels where the static detector said `clean` but the oracle
    /// observed a dependence violation: the detector (or the range test
    /// under it) is unsound for this loop. Must never happen.
    pub soundness_failures: Vec<String>,
}

impl Agreement {
    pub fn sound(&self) -> bool {
        self.soundness_failures.is_empty()
    }
}

/// Join the static race verdicts against the runtime oracle's observed
/// dependences, PARALLEL claims only (the oracle grades speculative and
/// serial loops on different axes the static detector does not model).
pub fn agreement(race: &RaceReport, oracle: &OracleReport) -> Agreement {
    let mut a = Agreement::default();
    for lv in &oracle.loops {
        if lv.claim != ClaimKind::Parallel {
            continue;
        }
        let Some(lr) = race.loops.iter().find(|r| r.loop_id == lv.loop_id) else {
            continue;
        };
        a.compared += 1;
        let observed_violation = !lv.violations.is_empty();
        match (lr.verdict, observed_violation) {
            (RaceVerdict::Clean, true) => a.soundness_failures.push(lv.label.clone()),
            (RaceVerdict::NeedsPrivatization | RaceVerdict::PotentialRace, false) => {
                a.precision_misses.push(lv.label.clone())
            }
            _ => {}
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::stmt::LoopId;
    use polaris_runtime::verdict::{DepKind, DepObservation, LoopVerdict, Violation};

    fn compiled(src: &str) -> (Program, CompileReport) {
        polaris_core::parse_and_compile(src, &polaris_core::PassOptions::polaris()).unwrap()
    }

    #[test]
    fn clean_program_verifies_with_race_report() {
        let (p, rep) = compiled(
            "program t\nreal a(100)\ndo i = 1, 100\n  a(i) = 1.0\nend do\nprint *, a(1)\nend\n",
        );
        let v = verify_compiled(&p, &rep);
        assert!(v.ok(), "{:?}", v.final_violations);
        assert!(v.invariants_checked > 0);
        assert!(v.verifier_rollbacks.is_empty());
        let race = v.race.as_ref().expect("lowerable program");
        assert_eq!(race.count(RaceVerdict::Clean), race.parallel_claims());
        let j = v.to_json(None);
        assert!(j.contains("\"schema\": \"polaris-verify/v1\""), "{j}");
        assert!(j.contains("\"parallel_claims\""), "{j}");
    }

    fn lv(id: u32, label: &str, violations: Vec<Violation>) -> LoopVerdict {
        LoopVerdict {
            loop_id: LoopId(id),
            label: label.into(),
            claim: ClaimKind::Parallel,
            serial_reason: None,
            invocations: 1,
            max_trip: 4,
            deps: Vec::new(),
            violations,
            completeness_miss: false,
            privatizable_miss: false,
        }
    }

    fn lr(id: u32, label: &str, verdict: RaceVerdict) -> LoopRace {
        LoopRace { loop_id: LoopId(id), label: label.into(), verdict, detail: String::new() }
    }

    fn violation(id: u32, label: &str) -> Violation {
        Violation {
            loop_id: LoopId(id),
            label: label.into(),
            dep: DepObservation {
                var: "A".into(),
                kind: DepKind::Flow,
                count: 1,
                src_iter: 0,
                dst_iter: 1,
                element: Some(0),
            },
            detail: "flow dependence".into(),
        }
    }

    #[test]
    fn agreement_classifies_misses_and_failures() {
        let race = RaceReport {
            loops: vec![
                lr(1, "do1", RaceVerdict::PotentialRace),
                lr(2, "do2", RaceVerdict::Clean),
                lr(3, "do3", RaceVerdict::Clean),
            ],
        };
        let oracle = OracleReport {
            loops: vec![
                lv(1, "do1", Vec::new()),
                lv(2, "do2", vec![violation(2, "do2")]),
                lv(3, "do3", Vec::new()),
            ],
        };
        let a = agreement(&race, &oracle);
        assert_eq!(a.compared, 3);
        assert_eq!(a.precision_misses, vec!["do1".to_string()]);
        assert_eq!(a.soundness_failures, vec!["do2".to_string()]);
        assert!(!a.sound());
        let j = VerifyReport::default().to_json(Some(&a));
        assert!(j.contains("\"soundness_failures\": [\"do2\"]"), "{j}");
    }

    #[test]
    fn agreement_on_real_program_has_no_soundness_failures() {
        let (p, rep) = compiled(
            "program t\nreal a(200), s\ns = 0.0\ndo i = 1, 100\n  a(i) = i * 1.0\nend do\n\
             do i = 1, 100\n  s = s + a(i)\nend do\nprint *, s\nend\n",
        );
        let v = verify_compiled(&p, &rep);
        let race = v.race.as_ref().unwrap();
        let oracle = polaris_machine::audit(&p, &rep).unwrap();
        let a = agreement(race, &oracle);
        assert!(a.compared >= 1);
        assert!(a.sound(), "{:?}", a.soundness_failures);
    }
}

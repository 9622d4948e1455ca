//! Conformance suite for the static verifier (`polaris-verify`): every
//! program the conformance net compiles must pass the verifier's full
//! invariant set, with no stage rolled back by the verifier.
//!
//! The kernels' verifier checks ride on their one audit
//! (`common::audit_kernel`), which also cross-checks the static race
//! detector against the dependence oracle. This suite audits the two
//! locality kernels, whose certificates make them the verifier's
//! heaviest inputs; the other suites audit the rest. The 256-seed fuzz
//! corpus shared with `fuzz_differential.rs` is verified here and
//! audited, race cross-check included, in `oracle_conformance.rs`.

mod common;

use common::{audit_kernel, Audited};
use polaris::fuzz::generate_program;
use polaris::verify::verify_compiled;
use polaris::PassOptions;
use polaris_machine::audit;

#[test]
fn kernels_verify_clean_and_static_race_agrees_with_oracle() {
    let mut total = Audited::default();
    for (b, _) in &polaris_benchmarks::locality() {
        total.add(&audit_kernel(b));
    }
    // The detector must prove claims outright rather than abstaining
    // everywhere, and the cross-check must join them.
    assert!(total.compared > 0, "no PARALLEL claims joined across the suite");
    assert!(total.clean > 0, "the detector never proved a claim clean");
    assert!(
        total.precision_misses <= total.compared,
        "precision misses {} exceed compared claims {}",
        total.precision_misses,
        total.compared
    );
}

/// The lint and the compiler agree on which recurrences serialize a
/// loop: no `induction-recurrence` finding names a loop (or an inlined
/// copy of it) that the compiled report runs PARALLEL or SPECULATIVE.
#[test]
fn induction_recurrence_findings_name_only_serial_loops() {
    for b in common::kernels() {
        let out = polaris::parallelize(b.source, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let parsed = polaris::ir::parse(b.source).unwrap();
        for f in polaris::verify::lint_program(&parsed, b.source).findings {
            if f.lint != "induction-recurrence" {
                continue;
            }
            let label = f.message.rsplit('`').nth(1).unwrap();
            let inlined = format!("{label}@");
            for l in &out.report.loops {
                assert!(
                    !((l.label == label || l.label.starts_with(&inlined))
                        && (l.parallel || l.speculative)),
                    "{}: lint finding \"{}\" names {}, which the compiler runs {}",
                    b.name,
                    f.message,
                    l.label,
                    if l.parallel { "PARALLEL" } else { "SPECULATIVE" }
                );
            }
        }
    }
}

/// Each kernel audited individually with speculation disabled: the
/// loops Polaris hands to the LRPD test become plain serial loops, so
/// dynamically-independent ones must show up as completeness misses —
/// this is the paper's motivation for the run-time test, measured.
#[test]
fn disabling_speculation_surfaces_completeness_misses() {
    let mut opts = PassOptions::polaris();
    opts.speculation = false;
    let mut total_misses = 0usize;
    for b in [polaris_benchmarks::by_name("WAVE5").unwrap(), polaris_benchmarks::track()] {
        let out = polaris::parallelize(b.source, &opts)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let report = audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("{}: oracle run: {e}", b.name));
        assert!(!report.has_violations(), "{}: violations without speculation", b.name);
        total_misses += report.completeness_misses() + report.privatizable_misses();
    }
    assert!(
        total_misses > 0,
        "WAVE5/TRACK are the run-time-test codes; with speculation off the \
         oracle must observe at least one dynamically independent serial loop"
    );
}

fn fuzz_corpus_verifies(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let src = generate_program(seed);
        let out = polaris::parallelize(&src, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("seed {seed}: compile: {e}\n{src}"));
        let v = verify_compiled(&out.program, &out.report);
        assert!(
            v.ok(),
            "seed {seed}: verifier violation\n--- source ---\n{src}\n--- violations ---\n{:?}",
            v.final_violations
        );
        assert!(v.verifier_rollbacks.is_empty(), "seed {seed}: {:?}", v.verifier_rollbacks);
        assert!(v.invariants_checked > 0, "seed {seed}: verifier never ran");
    }
}

#[test]
fn fuzz_corpus_verifies_seeds_0_64() {
    fuzz_corpus_verifies(0..64);
}

#[test]
fn fuzz_corpus_verifies_seeds_64_128() {
    fuzz_corpus_verifies(64..128);
}

#[test]
fn fuzz_corpus_verifies_seeds_128_192() {
    fuzz_corpus_verifies(128..192);
}

#[test]
fn fuzz_corpus_verifies_seeds_192_256() {
    fuzz_corpus_verifies(192..256);
}

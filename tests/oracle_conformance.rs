//! Pass-level conformance suite for the dependence oracle: every
//! PARALLEL claim the pipeline publishes is audited against the exact
//! cross-iteration dependences the program exhibits at run time
//! (`polaris_machine::oracle`). A claim contradicted by an observed,
//! undischarged dependence is a soundness violation and fails hard, and
//! so does a loop the static race detector calls `clean` that the
//! oracle sees violate a dependence. Serial loops that turn out
//! dynamically independent are completeness misses and are only
//! *counted* (figure7 folds them into the bench trajectory).
//!
//! The corpus is the paper's 17-kernel suite (Table 1 + TRACK) and the
//! 256-seed deterministic fuzz corpus shared with
//! `fuzz_differential.rs`. Each program is audited here once, and
//! nowhere else; `verify_conformance.rs` runs the verifier over the
//! fuzz corpus.

mod common;

use common::{audit_kernel, Audited, FUEL};
use polaris::fuzz::generate_program;
use polaris::verify::{agreement, analyze};
use polaris::{MachineConfig, PassOptions};
use polaris_machine::audit_with;

#[test]
fn kernels_have_zero_soundness_violations() {
    let mut kernels = polaris_benchmarks::all();
    kernels.push(polaris_benchmarks::track());
    assert_eq!(kernels.len(), 17, "the paper's suite is 16 codes + TRACK");

    let mut total = Audited::default();
    for b in &kernels {
        total.add(&audit_kernel(b));
    }
    // The suite is built to exercise both sides of the precision story:
    // it must contain serial loops (the range test is not vacuous), the
    // cross-check must join claims, and the detector must prove claims
    // outright rather than abstaining everywhere.
    assert!(total.serial_exercised > 0, "no serial loops exercised across the suite");
    assert!(
        total.completeness_misses <= total.serial_exercised,
        "miss count {} exceeds exercised serial loops {}",
        total.completeness_misses,
        total.serial_exercised
    );
    assert!(total.compared > 0, "no PARALLEL claims joined across the suite");
    assert!(total.clean > 0, "the detector never proved a claim clean");
    assert!(
        total.precision_misses <= total.compared,
        "precision misses {} exceed compared claims {}",
        total.precision_misses,
        total.compared
    );
}

fn fuzz_corpus_clean(seeds: std::ops::Range<u64>) {
    let cfg = MachineConfig::serial().with_fuel(FUEL);
    for seed in seeds {
        let src = generate_program(seed);
        let out = polaris::parallelize(&src, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("seed {seed}: compile: {e}\n{src}"));
        let report = audit_with(&out.program, &out.report, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: oracle run: {e}\n{src}"));
        assert!(
            !report.has_violations(),
            "seed {seed}: PARALLEL claim contradicted by observed dependence\n\
             --- source ---\n{src}\n--- violations ---\n{:#?}",
            report.violations().collect::<Vec<_>>()
        );
        let Ok(race) = analyze(&out.program) else { continue };
        let a = agreement(&race, &report);
        assert!(
            a.sound(),
            "seed {seed}: static `clean` contradicted by the oracle\n\
             --- source ---\n{src}\n--- failures ---\n{:?}",
            a.soundness_failures
        );
    }
}

#[test]
fn fuzz_corpus_oracle_clean_seeds_0_64() {
    fuzz_corpus_clean(0..64);
}

#[test]
fn fuzz_corpus_oracle_clean_seeds_64_128() {
    fuzz_corpus_clean(64..128);
}

#[test]
fn fuzz_corpus_oracle_clean_seeds_128_192() {
    fuzz_corpus_clean(128..192);
}

#[test]
fn fuzz_corpus_oracle_clean_seeds_192_256() {
    fuzz_corpus_clean(192..256);
}

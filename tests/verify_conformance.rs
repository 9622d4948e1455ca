//! Conformance suite for the static verifier (`polaris-verify`): every
//! program the pipeline emits must pass the full invariant set, and the
//! static race detector's verdicts must agree with the runtime
//! dependence oracle on the safe side — a loop the detector calls
//! `clean` that the oracle then sees violate a dependence is a
//! soundness failure and fails hard. The reverse (static abstention on
//! a dynamically clean loop) is a precision miss and is only counted.
//!
//! The corpus matches `oracle_conformance.rs`: the full 17-kernel
//! benchmark suite (Table 1 + TRACK) plus the 256-seed deterministic
//! fuzz corpus shared with `fuzz_differential.rs`.

mod common;

use common::FUEL;
use polaris::fuzz::generate_program;
use polaris::verify::{agreement, verify_compiled, RaceVerdict};
use polaris::{MachineConfig, PassOptions};
use polaris_machine::{audit, audit_with};

#[test]
fn kernels_verify_clean_and_static_race_agrees_with_oracle() {
    let mut kernels = polaris_benchmarks::all();
    kernels.push(polaris_benchmarks::track());
    kernels.extend(polaris_benchmarks::irregular().into_iter().map(|(b, _)| b));
    assert_eq!(
        kernels.len(),
        23,
        "the paper's suite is 16 codes + TRACK + 6 irregular kernels"
    );

    let mut compared = 0usize;
    let mut precision_misses = 0usize;
    let mut clean = 0usize;
    for b in &kernels {
        let out = polaris::parallelize(b.source, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let v = verify_compiled(&out.program, &out.report);
        assert!(v.ok(), "{}: {:?}", b.name, v.final_violations);
        assert!(v.verifier_rollbacks.is_empty(), "{}: {:?}", b.name, v.verifier_rollbacks);
        assert!(v.invariants_checked > 0, "{}: verifier never ran", b.name);
        let race = v.race.as_ref().unwrap_or_else(|| panic!("{}: no race report", b.name));
        clean += race.count(RaceVerdict::Clean);
        let oracle = audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("{}: oracle run: {e}", b.name));
        let a = agreement(race, &oracle);
        assert!(
            a.sound(),
            "{}: static `clean` contradicted by the oracle on {:?}",
            b.name,
            a.soundness_failures
        );
        compared += a.compared;
        precision_misses += a.precision_misses.len();
    }
    // The cross-check must not be vacuous, and the detector must prove
    // most claims outright rather than abstaining everywhere.
    assert!(compared > 0, "no PARALLEL claims joined across the suite");
    assert!(clean > 0, "the detector never proved a claim clean");
    assert!(
        precision_misses <= compared,
        "precision misses {precision_misses} exceed compared claims {compared}"
    );
}

fn fuzz_corpus_verifies(seeds: std::ops::Range<u64>) {
    let cfg = MachineConfig::serial().with_fuel(FUEL);
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
        let Some(race) = &v.race else { continue };
        let oracle = audit_with(&out.program, &out.report, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: oracle run: {e}\n{src}"));
        let a = agreement(race, &oracle);
        assert!(
            a.sound(),
            "seed {seed}: static `clean` contradicted by the oracle\n\
             --- source ---\n{src}\n--- failures ---\n{:?}",
            a.soundness_failures
        );
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

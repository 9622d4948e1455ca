//! Pass-level conformance suite for the dependence oracle: every
//! PARALLEL claim the pipeline publishes is audited against the exact
//! cross-iteration dependences the program exhibits at run time
//! (`polaris_machine::oracle`). A claim contradicted by an observed,
//! undischarged dependence is a soundness violation and fails hard;
//! serial loops that turn out dynamically independent are completeness
//! misses and are only *reported* (figure7 folds them into the bench
//! trajectory).
//!
//! The corpus is the full 17-kernel benchmark suite (Table 1 + TRACK)
//! plus the 256-seed deterministic fuzz corpus shared with
//! `fuzz_differential.rs`.

mod common;

use common::FUEL;
use polaris::fuzz::generate_program;
use polaris::{MachineConfig, PassOptions};
use polaris_machine::{audit, audit_with};

#[test]
fn kernels_have_zero_soundness_violations() {
    let mut kernels = polaris_benchmarks::all();
    kernels.push(polaris_benchmarks::track());
    assert_eq!(kernels.len(), 17, "the paper's suite is 16 codes + TRACK");

    let mut serial_exercised = 0usize;
    let mut misses = 0usize;
    for b in &kernels {
        let out = polaris::parallelize(b.source, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let report = audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("{}: oracle run: {e}", b.name));
        assert!(
            !report.has_violations(),
            "{}: PARALLEL claim contradicted by observed dependence:\n{:#?}",
            b.name,
            report.violations().collect::<Vec<_>>()
        );
        serial_exercised += report.serial_loops_exercised();
        misses += report.completeness_misses();
    }
    // The suite is built to exercise both sides of the precision story:
    // it must contain serial loops (the range test is not vacuous) and
    // at least one known dynamic-independence miss (WAVE5/TRACK-style
    // subscripted subscripts when speculation is charged to run time).
    assert!(serial_exercised > 0, "no serial loops exercised across the suite");
    assert!(
        misses <= serial_exercised,
        "miss count {misses} exceeds exercised serial loops {serial_exercised}"
    );
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

//! Counter-consistency invariants of the observability layer, checked
//! over the 256-seed fuzz corpus (the same seeded F-Mini programs the
//! differential and oracle suites use). Every corpus program is
//! compiled and executed with a virtual-clock `Recorder` attached, and
//! the resulting trace must be internally consistent:
//!
//! * the compile-side loop partition (`parallel + speculative + serial`)
//!   equals `compile.loops.total`, which equals the report's loop count;
//! * range-test outcomes partition the queries
//!   (`proved + disproved + abstained = run`);
//! * the exec-side dispatch partition
//!   (`parallel + speculative + serial + adversarial`) equals
//!   `exec.loops.total`, which equals the number of exec loop spans;
//! * the span stream is well-nested (every `E` closes the matching
//!   open `B`, nothing left open);
//! * every exec `loop:` span carries a `LoopId` the compile report
//!   knows — the provenance join the whole layer is keyed on.
//!
//! A proptest over the same seed domain rides along so a failing seed
//! shrinks toward the smallest misbehaving corpus index.

mod common;

use common::FUEL;
use polaris::fuzz::generate_program;
use polaris::obs::{validate_nesting, Phase, Recorder};
use polaris::{MachineConfig, PassOptions};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn check_seed(seed: u64) {
    let src = generate_program(seed);
    let rec = Recorder::virtual_clock();
    let mut program =
        polaris::ir::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: parse: {e}\n{src}"));
    let report = polaris::core::compile_recorded(&mut program, &PassOptions::polaris(), &rec)
        .unwrap_or_else(|e| panic!("seed {seed}: compile: {e}\n{src}"));
    let cfg = MachineConfig::challenge_8().with_fuel(FUEL);
    polaris_machine::run_recorded(&program, &cfg, &rec)
        .unwrap_or_else(|e| panic!("seed {seed}: run: {e}\n{src}"));

    let counters = rec.counters();
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);

    assert_eq!(
        get("compile.loops.parallel")
            + get("compile.loops.speculative")
            + get("compile.loops.serial"),
        get("compile.loops.total"),
        "seed {seed}: compile-side loop modes must partition the total\n{src}"
    );
    assert_eq!(
        get("compile.loops.total"),
        report.loops.len() as u64,
        "seed {seed}: compile.loops.total must equal the report's loop count\n{src}"
    );

    assert_eq!(
        get("compile.dd.range.proved")
            + get("compile.dd.range.disproved")
            + get("compile.dd.range.abstained"),
        get("compile.dd.range.run"),
        "seed {seed}: range-test outcomes must partition the queries run\n{src}"
    );

    assert_eq!(
        get("exec.loops.parallel")
            + get("exec.loops.speculative")
            + get("exec.loops.serial")
            + get("exec.loops.adversarial"),
        get("exec.loops.total"),
        "seed {seed}: exec-side dispatch modes must partition the total\n{src}"
    );

    let events = rec.events();
    validate_nesting(&events)
        .unwrap_or_else(|e| panic!("seed {seed}: ill-nested span stream: {e}\n{src}"));

    let known: BTreeSet<_> = report.loops.iter().map(|l| l.loop_id).collect();
    let mut exec_loop_begins = 0u64;
    for e in &events {
        if e.cat == "exec" && e.phase == Phase::Begin && e.name.starts_with("loop:") {
            exec_loop_begins += 1;
            let id = e
                .loop_id
                .unwrap_or_else(|| panic!("seed {seed}: exec span `{}` without LoopId", e.name));
            assert!(
                known.contains(&id),
                "seed {seed}: exec span `{}` carries LoopId {id:?} unknown to the compile report\n{src}",
                e.name
            );
        }
    }
    assert_eq!(
        exec_loop_begins,
        get("exec.loops.total"),
        "seed {seed}: one exec loop span per dispatch decision\n{src}"
    );
}

#[test]
fn corpus_counter_invariants_seeds_0_64() {
    (0..64).for_each(check_seed);
}

#[test]
fn corpus_counter_invariants_seeds_64_128() {
    (64..128).for_each(check_seed);
}

#[test]
fn corpus_counter_invariants_seeds_128_192() {
    (128..192).for_each(check_seed);
}

#[test]
fn corpus_counter_invariants_seeds_192_256() {
    (192..256).for_each(check_seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random re-draws from the corpus domain; a failure shrinks toward
    /// the smallest misbehaving seed.
    #[test]
    fn counter_invariants_hold_for_sampled_seeds(seed in 0u64..256) {
        check_seed(seed);
    }
}

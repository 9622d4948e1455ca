//! Differential fuzzing of the whole stack: seeded random F-Mini
//! programs are run serially (the reference semantics) and after
//! restructuring on the simulated parallel machine, and their printed
//! outputs must agree — with and without injected pass faults. A
//! separate corpus of byte-mutated sources checks that the frontend
//! rejects garbage with errors rather than panics.
//!
//! Every test is deterministic: the corpus is derived from fixed seeds
//! via SplitMix64 (see `polaris::fuzz`), so a failure reproduces with
//! `generate_program(seed)`.

mod common;

use common::FUEL;
use polaris::core::pipeline::{FaultPlan, STAGE_NAMES};
use polaris::fuzz::{generate_program, mutate_bytes};
use polaris::{MachineConfig, PassOptions};
use polaris_machine::exec::outputs_match;
use polaris_machine::MachineError;

const TOL: f64 = 1e-6;

fn serial_reference(src: &str, seed: u64) -> Vec<String> {
    let program = polaris_ir::parse(src).unwrap_or_else(|e| panic!("seed {seed}: parse: {e}"));
    let cfg = MachineConfig::serial().with_fuel(FUEL);
    polaris_machine::run(&program, &cfg)
        .unwrap_or_else(|e| panic!("seed {seed}: serial reference: {e}\n{src}"))
        .output
}

/// Serial and restructured-parallel outputs must match for every seed;
/// every mismatching seed is reported, the first one in full.
fn differential(seeds: impl IntoIterator<Item = u64>) {
    let mut bad = Vec::new();
    let mut first = String::new();
    for seed in seeds {
        let src = generate_program(seed);
        let reference = serial_reference(&src, seed);

        let opts = PassOptions::polaris();
        let out = polaris::parallelize(&src, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: compile: {e}\n{src}"));
        assert!(
            !out.report.degraded(),
            "seed {seed}: pipeline degraded without any injected fault: {:?}",
            out.report.rolled_back_stages()
        );

        let cfg = MachineConfig::challenge_8().with_fuel(FUEL);
        let parallel = polaris_machine::run(&out.program, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: parallel run: {e}\n{src}"));
        if !outputs_match(&reference, &parallel.output, TOL) {
            if bad.is_empty() {
                first = format!(
                    "--- source ---\n{src}\n--- serial ---\n{}\n--- parallel ---\n{}",
                    reference.join("\n"),
                    parallel.output.join("\n"),
                );
            }
            bad.push(seed);
        }
    }
    assert!(
        bad.is_empty(),
        "serial vs restructured output mismatch on {} seeds: {bad:?}\nseed {}:\n{first}",
        bad.len(),
        bad[0],
    );
}

/// Equivalence property for the real-thread backend: every corpus
/// program, compiled by the full pipeline, must print **bit-identical**
/// checksums under `ExecMode::Threaded` at 2, 4 and 8 threads as the
/// serial interpreter produces. Exact string equality — not the numeric
/// tolerance used elsewhere — is intentional: the join replays each
/// lane's reduction updates in serial order, so threaded results have
/// the serial bits, and any observed difference is a real bug (lost
/// update, racy commit, wrong privatization), not noise.
fn threaded_equivalence(seeds: std::ops::Range<u64>) {
    use polaris_machine::Schedule;
    for seed in seeds {
        let src = generate_program(seed);
        let reference = serial_reference(&src, seed);
        let out = polaris::parallelize(&src, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("seed {seed}: compile: {e}\n{src}"));
        for threads in [2usize, 4, 8] {
            let cfg = MachineConfig::threaded(threads, Schedule::Static).with_fuel(FUEL);
            let threaded = polaris_machine::run(&out.program, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed} @ {threads} threads: {e}\n{src}"));
            assert_eq!(
                reference,
                threaded.output,
                "seed {seed}: serial vs {threads}-thread output mismatch\n--- source ---\n{src}"
            );
        }
        // one self-scheduled configuration per seed as well
        let cfg = MachineConfig::threaded(4, Schedule::Dynamic { chunk: 3 }).with_fuel(FUEL);
        let threaded = polaris_machine::run(&out.program, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed} (dynamic): {e}\n{src}"));
        assert_eq!(
            reference, threaded.output,
            "seed {seed}: serial vs self-scheduled output mismatch\n--- source ---\n{src}"
        );
    }
}

#[test]
fn corpus_threaded_equivalence_seeds_0_64() {
    threaded_equivalence(0..64);
}

#[test]
fn corpus_threaded_equivalence_seeds_64_128() {
    threaded_equivalence(64..128);
}

#[test]
fn corpus_threaded_equivalence_seeds_128_192() {
    threaded_equivalence(128..192);
}

#[test]
fn corpus_threaded_equivalence_seeds_192_256() {
    threaded_equivalence(192..256);
}

#[test]
fn corpus_differential_seeds_0_64() {
    differential(0..64);
}

#[test]
fn corpus_differential_seeds_64_128() {
    differential(64..128);
}

#[test]
fn corpus_differential_seeds_128_192() {
    differential(128..192);
}

#[test]
fn corpus_differential_seeds_192_256() {
    differential(192..256);
}

/// The seeds of `0..8192` the restructurer miscompiled before the
/// induction walks were merged (last values emitted bases-first, a
/// dependant of a rejected candidate, reduction flags on operand reads,
/// liveness blind to the headers it walks through).
#[test]
fn formerly_miscompiled_seeds_match_the_serial_reference() {
    differential([
        366, 1204, 1484, 1842, 2561, 2908, 3510, 3525, 3598, 3646, 3758, 4054, 4157, 4920, 5050,
        5214, 6000, 6035, 6212, 6516, 7595,
    ]);
}

/// The measured traffic: 32x the tier-1 corpus, run in CI in release
/// (`-- --ignored wide_corpus`).
#[test]
#[ignore = "17 s in release; run by CI"]
fn wide_corpus_differential_seeds_0_8192() {
    differential(0..8192);
}

/// Same comparison with a panic injected into one pipeline stage per
/// seed (rotating over all eight stages, so each stage is hit 32
/// times across the corpus). The pipeline must roll the faulted stage
/// back and the surviving transformations must still be semantics-
/// preserving.
fn differential_with_fault(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let src = generate_program(seed);
        let reference = serial_reference(&src, seed);

        let stage = STAGE_NAMES[(seed % STAGE_NAMES.len() as u64) as usize];
        let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in(stage));
        let out = polaris::parallelize(&src, &opts)
            .unwrap_or_else(|e| panic!("seed {seed}: compile with fault in {stage}: {e}\n{src}"));
        assert!(
            out.report.rolled_back_stages().contains(&stage),
            "seed {seed}: injected fault in {stage} but the stage was not rolled back"
        );

        let cfg = MachineConfig::challenge_8().with_fuel(FUEL);
        let parallel = polaris_machine::run(&out.program, &cfg).unwrap_or_else(|e| {
            panic!("seed {seed}: parallel run after fault in {stage}: {e}\n{src}")
        });
        assert!(
            outputs_match(&reference, &parallel.output, TOL),
            "seed {seed}: output mismatch after fault in {stage}\n\
             --- source ---\n{src}\n--- serial ---\n{}\n--- parallel ---\n{}",
            reference.join("\n"),
            parallel.output.join("\n"),
        );
    }
}

/// The adaptive-scheduler axis of the fault sweep: each corpus program
/// runs a gauntlet of faulted invocations against one shared
/// [`AdaptiveController`] on the simulated 8-proc machine —
///
/// 1. invocation 1 **panics mid-measurement** (a simulated worker crash
///    partway through statement dispatch), leaving the controller with
///    decided-but-never-observed entries;
/// 2. two clean invocations adapt on top of that half-measured table;
/// 3. the whole decision table suffers a **torn write**
///    (`corrupt_all`), and the next invocation must detect it via the
///    integrity word, reset, and fall back to static dispatch;
/// 4. a final invocation re-adapts from the reset state.
///
/// Every completed invocation's output must match the serial reference
/// — adaptation state is advisory, never load-bearing for correctness —
/// and no garbage (the corruption XORs `invocations` with 0x5a5a) may
/// survive into the post-recovery table: the scheduler never wedges and
/// never mis-merges.
fn differential_adaptive_faults(seeds: std::ops::Range<u64>) {
    use polaris::machine::AdaptiveController;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    for seed in seeds {
        let src = generate_program(seed);
        let reference = serial_reference(&src, seed);
        let out = polaris::parallelize(&src, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("seed {seed}: compile: {e}\n{src}"));

        let ctrl = Arc::new(AdaptiveController::new());
        let cfg = MachineConfig::challenge_8()
            .with_fuel(FUEL)
            .with_adaptive(Arc::clone(&ctrl));

        // 1. Crash mid-measurement. Tiny programs can finish before the
        //    trigger step — then this is just a clean first invocation,
        //    which must (also) match the reference.
        let mut crash_cfg = cfg.clone();
        crash_cfg.panic_at_step = Some(20 + seed % 60);
        let crashed =
            catch_unwind(AssertUnwindSafe(|| polaris_machine::run(&out.program, &crash_cfg)));
        if let Ok(completed) = crashed {
            let r = completed
                .unwrap_or_else(|e| panic!("seed {seed}: uncrashed adaptive run: {e}\n{src}"));
            assert!(
                outputs_match(&reference, &r.output, TOL),
                "seed {seed}: adaptive output diverged on the uncrashed first invocation\n{src}"
            );
        }

        // 2. Adapt on the half-measured table.
        for pass in 0..2 {
            let r = polaris_machine::run(&out.program, &cfg).unwrap_or_else(|e| {
                panic!("seed {seed}: adaptive pass {pass} after crash: {e}\n{src}")
            });
            assert!(
                outputs_match(&reference, &r.output, TOL),
                "seed {seed}: adaptive pass {pass} diverged after a mid-measurement crash\n{src}"
            );
        }

        // 3. Torn write across the whole table; the next invocation must
        //    reset every damaged entry and still merge correctly.
        let dispatched = ctrl.len();
        ctrl.corrupt_all();
        let r = polaris_machine::run(&out.program, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: run on corrupted table: {e}\n{src}"));
        assert!(
            outputs_match(&reference, &r.output, TOL),
            "seed {seed}: output diverged on a corrupted decision table\n{src}"
        );
        let rows = ctrl.decision_rows();
        assert!(
            rows.len() >= dispatched,
            "seed {seed}: decision table lost entries in recovery ({} -> {})",
            dispatched,
            rows.len()
        );
        for row in &rows {
            // The torn write XORs invocation counts with 0x5a5a.
            // Corruption is detected *lazily*, at the next `decide` for
            // that loop — and a nested eligible loop whose enclosing
            // loop ran parallel is not consulted every run, so its
            // damage may sit dormant. The invariant is therefore: every
            // entry is either sane (reset and re-adapted, count < 0x1000
            // for this bounded corpus) or still *exactly* the torn write
            // (count ^ 0x5a5a sane). A count matching neither would mean
            // `decide`/`observe` folded fresh data into a corrupt entry,
            // laundering the bad state behind a valid check word.
            assert!(
                row.invocations < 0x1000 || (row.invocations ^ 0x5a5a) < 0x1000,
                "seed {seed}: corrupt adaptation state was laundered, not reset: {row:?}"
            );
        }

        // 4. One more clean invocation from the reset state.
        let r = polaris_machine::run(&out.program, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: post-recovery run: {e}\n{src}"));
        assert!(
            outputs_match(&reference, &r.output, TOL),
            "seed {seed}: post-recovery adaptive output diverged\n{src}"
        );
    }
}

#[test]
fn corpus_adaptive_fault_seeds_0_64() {
    differential_adaptive_faults(0..64);
}

#[test]
fn corpus_adaptive_fault_seeds_64_128() {
    differential_adaptive_faults(64..128);
}

#[test]
fn corpus_fault_injection_seeds_0_64() {
    differential_with_fault(0..64);
}

#[test]
fn corpus_fault_injection_seeds_64_128() {
    differential_with_fault(64..128);
}

#[test]
fn corpus_fault_injection_seeds_128_192() {
    differential_with_fault(128..192);
}

#[test]
fn corpus_fault_injection_seeds_192_256() {
    differential_with_fault(192..256);
}

/// The frontend must reject corrupted input with a `CompileError`,
/// never a panic or a stack overflow. (A panic here aborts the test
/// process, so merely surviving the loop is the assertion.)
#[test]
fn parser_never_panics_on_mutated_inputs() {
    let mut rejected = 0u32;
    let mut accepted = 0u32;
    for seed in 0..256u64 {
        let src = generate_program(seed);
        for round in 0..8u64 {
            let mutated = mutate_bytes(&src, seed * 8 + round);
            match polaris_ir::parse(&mutated) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        // Prefix truncations model interrupted reads of otherwise-valid
        // source (open DO/IF blocks, dangling operators, split tokens).
        for frac in [1, 2, 3] {
            let cut = src.len() * frac / 4;
            let _ = polaris_ir::parse(&src[..cut]);
        }
    }
    // Sanity: the mutator produces real negatives (and the occasional
    // still-valid program is fine — parse accepting it is not a bug).
    assert!(rejected > 500, "mutator produced too few invalid programs: {rejected}");
    let _ = accepted;
}

/// A program that would loop effectively forever must terminate with
/// `FuelExhausted` instead of hanging (or allocating an iteration
/// vector for two billion values).
#[test]
fn runaway_loop_exhausts_fuel() {
    let src = "program spin\n\
               integer s\n\
               s = 0\n\
               do i = 1, 2000000000\n\
                 s = s + 1\n\
               end do\n\
               print *, s\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let cfg = MachineConfig::serial().with_fuel(10_000);
    match polaris_machine::run(&program, &cfg) {
        Err(MachineError::FuelExhausted { limit }) => assert_eq!(limit, 10_000),
        other => panic!("expected FuelExhausted, got {other:?}"),
    }
}

/// Fuel applies to restructured parallel execution too.
#[test]
fn fuel_limits_apply_to_restructured_programs() {
    let src = generate_program(3);
    let out = polaris::parallelize(&src, &PassOptions::polaris()).unwrap();
    let cfg = MachineConfig::challenge_8().with_fuel(5);
    match polaris_machine::run(&out.program, &cfg) {
        Err(MachineError::FuelExhausted { limit }) => assert_eq!(limit, 5),
        other => panic!("expected FuelExhausted under a 5-step budget, got {other:?}"),
    }
}

/// An over-large allocation is refused up front by the memory cap.
#[test]
fn memory_cap_rejects_huge_allocations() {
    let src = "program big\n\
               real z(100000000)\n\
               z(1) = 1.0\n\
               print *, z(1)\n\
               end\n";
    let program = polaris_ir::parse(src).unwrap();
    let cfg = MachineConfig::serial().with_memory_cap(1 << 20);
    match polaris_machine::run(&program, &cfg) {
        Err(MachineError::MemoryCapExceeded { need, cap }) => {
            assert_eq!(cap, 1 << 20);
            assert!(need >= 100_000_000);
        }
        other => panic!("expected MemoryCapExceeded, got {other:?}"),
    }
}

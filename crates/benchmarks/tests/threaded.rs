//! Acceptance test for the real-thread execution backend: every
//! benchmark kernel (the sixteen Figure-7 codes plus TRACK) must
//! produce **identical checksums** under `ExecMode::Threaded{procs: 8}`
//! and serial execution.
//!
//! The join replays each lane's reduction updates in serial order, so a
//! reduction total has the serial bits and the comparison is exact
//! string equality — any divergence (lost update, racy merge, wrong
//! privatization) fails loudly.
//!
//! The simulated cycle count is held to the same standard: the threaded
//! backend bills a `PARALLEL DO` through the simulator's own plan and
//! bill, so `cycles` must be *equal* to the simulated machine's at the
//! same `procs`, `schedule` and cost model, not merely close. So is the
//! whole per-loop table: a lane runs the same iterations whoever runs it,
//! and an invocation counts as parallel where the bill's guard says so.
//! A `SPECULATIVE` loop's lanes mark shadows of their own and the join
//! applies the PD test to them, so its verdict and its attempt (+
//! re-execution) bill are the simulated machine's too.

use polaris_benchmarks::{all, track, Benchmark};
use polaris_core::{compile, PassOptions};
use polaris_machine::{run, run_serial, ExecMode, MachineConfig, Schedule};

fn polaris_compiled(b: &Benchmark) -> polaris_ir::Program {
    let mut p = b.program();
    compile(&mut p, &PassOptions::polaris()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    p
}

/// The kernels whose hot scatter the compiler leaves to the run-time PD
/// test: without them every `SPECULATIVE` row below would hold vacuously.
const SPECULATING: [&str; 4] = ["BUCKET", "COMPACT", "TRACK", "WAVE5"];

/// Every kernel under `schedule` on 2, 3 and 8 real threads: serial
/// checksums, and the simulated machine's cycle count and per-loop table
/// — `SPECULATIVE` loops included, which the lanes run and the join
/// commits or throws away.
fn assert_threaded_matches(schedule: Schedule) {
    for b in all().into_iter().chain([track()]) {
        let reference = run_serial(&b.program()).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let pol = polaris_compiled(&b);
        for procs in [2, 3, 8] {
            let cfg = MachineConfig::threaded(procs, schedule);
            let threaded = run(&pol, &cfg)
                .unwrap_or_else(|e| panic!("{} ({schedule:?} x {procs}): {e}", b.name));
            assert_eq!(
                reference.output, threaded.output,
                "{}: threaded checksums diverge from serial under {schedule:?} x {procs}",
                b.name
            );
            let simulated = run(&pol, &MachineConfig { exec_mode: ExecMode::Simulated, ..cfg })
                .unwrap_or_else(|e| panic!("{} (simulated {schedule:?} x {procs}): {e}", b.name));
            assert_eq!(
                simulated.cycles, threaded.cycles,
                "{}: threaded and simulated cycle bills differ under {schedule:?} x {procs}",
                b.name
            );
            let table = |r: &polaris_machine::RunResult| -> Vec<(String, [u64; 5])> {
                r.loops
                    .iter()
                    .map(|(label, s)| {
                        let row = [s.invocations, s.cycles, s.parallel_invocations, s.spec_success, s.spec_fail];
                        (label.clone(), row)
                    })
                    .collect()
            };
            assert_eq!(
                table(&simulated),
                table(&threaded),
                "{}: per-loop [invocations, cycles, parallel, spec ok, spec fail] differ under {schedule:?} x {procs}",
                b.name
            );
            let pd_tests = threaded.loops.values().fold((0, 0), |(ok, no), s| (ok + s.spec_success, no + s.spec_fail));
            assert_eq!(pd_tests != (0, 0), SPECULATING.contains(&b.name), "{}: PD tests {pd_tests:?}", b.name);
            if b.name == "TRACK" {
                assert_eq!(pd_tests, (9, 1), "TRACK: nine permutations, one collision");
            }
        }
    }
}

#[test]
fn all_17_kernels_identical_checksums_threaded_8() {
    assert_threaded_matches(Schedule::Static);
}

#[test]
fn kernels_identical_checksums_under_self_scheduling() {
    assert_threaded_matches(Schedule::Dynamic { chunk: 4 });
}

#[test]
fn kernels_identical_checksums_and_cycles_under_stealing() {
    assert_threaded_matches(Schedule::Stealing { chunk: 4 });
}

#[test]
fn kernels_deterministic_across_repeated_threaded_runs() {
    // Run a reduction-heavy subset repeatedly: results must be
    // bit-identical run to run even though thread interleaving differs.
    for name in ["MDG", "HYDRO2D", "TFFT2"] {
        let b = polaris_benchmarks::by_name(name)
            .unwrap_or_else(|| panic!("{name} missing from the suite"));
        let pol = polaris_compiled(&b);
        let cfg = MachineConfig::threaded(8, Schedule::Dynamic { chunk: 2 });
        let first = run(&pol, &cfg).unwrap();
        for round in 0..3 {
            let again = run(&pol, &cfg).unwrap();
            assert_eq!(first.output, again.output, "{name} round {round} diverged");
        }
    }
}

//! The evaluation-suite correctness tests:
//!
//! 1. the machine's adversarial validation (reverse-order execution with
//!    real privatization/reduction semantics) passes for both pipelines'
//!    outputs — i.e. the compilers' parallelization claims are
//!    semantically sound,
//! 2. the per-benchmark capability expectations behind Figure 7 hold
//!    (who parallelizes the hot loops), without asserting exact speedups.
//!
//! That both outputs print what the original program prints is
//! `end_to_end::vfa_and_polaris_agree_on_results_everywhere`.

use polaris_benchmarks::{all, track, Benchmark, Expectation};
use polaris_core::{compile, PassOptions};
use polaris_machine::{run, run_serial, run_validated, CodegenModel, MachineConfig};

fn compiled(b: &Benchmark, opts: &PassOptions) -> (polaris_ir::Program, polaris_core::CompileReport) {
    let mut p = b.program();
    let rep = compile(&mut p, opts).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    (p, rep)
}

#[test]
fn adversarial_validation_passes_for_both_compilers() {
    for b in all().into_iter().chain([track()]) {
        let (pol, _) = compiled(&b, &PassOptions::polaris());
        run_validated(&pol, &MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("{} (polaris): {e}", b.name));
        let (vfa, _) = compiled(&b, &PassOptions::vfa());
        run_validated(&vfa, &MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("{} (vfa): {e}", b.name));
    }
}

#[test]
fn speedup_shape_matches_figure7() {
    // Coarse shape assertions, not absolute numbers: Polaris must beat
    // the baseline clearly on its headline codes, both must do well on
    // the linear codes, and the flat codes must stay near 1.
    for b in all() {
        let serial = run_serial(&b.program()).unwrap();
        let (pol, _) = compiled(&b, &PassOptions::polaris());
        let rp = run(&pol, &MachineConfig::challenge_8()).unwrap();
        let (vfa, _) = compiled(&b, &PassOptions::vfa());
        let rv = run(
            &vfa,
            &MachineConfig::challenge_8().with_codegen(CodegenModel::aggressive()),
        )
        .unwrap();
        let sp = serial.cycles as f64 / rp.cycles as f64;
        let sv = serial.cycles as f64 / rv.cycles as f64;
        match b.expectation {
            Expectation::PolarisWins => {
                assert!(sp > 3.0, "{}: polaris speedup {sp:.2} too low", b.name);
                assert!(sp > 1.15 * sv, "{}: polaris {sp:.2} should beat vfa {sv:.2}", b.name);
            }
            Expectation::PolarisRuntime => {
                assert!(sp > 2.0, "{}: polaris speedup {sp:.2} too low", b.name);
                assert!(sp > sv, "{}: polaris {sp:.2} should beat vfa {sv:.2}", b.name);
            }
            Expectation::BothGood => {
                assert!(sp > 3.0, "{}: polaris speedup {sp:.2} too low", b.name);
                assert!(sv > 3.0, "{}: vfa speedup {sv:.2} too low", b.name);
            }
            Expectation::BothFlat => {
                assert!(sp < 2.0 && sv < 2.0, "{}: expected near-1, got {sp:.2}/{sv:.2}", b.name);
                assert!(sp > 0.6 && sv > 0.6, "{}: pathological slowdown {sp:.2}/{sv:.2}", b.name);
            }
        }
    }
}

#[test]
fn hot_loop_capability_split() {
    // The specific per-technique claims of the paper, checked on the
    // actual compiler decisions.
    let check = |name: &str, frag: &str, pol_parallel: bool, vfa_parallel: bool| {
        let b = polaris_benchmarks::by_name(name).unwrap();
        let (_, rp) = compiled(&b, &PassOptions::polaris());
        let (_, rv) = compiled(&b, &PassOptions::vfa());
        let lp = rp
            .loop_report(frag)
            .unwrap_or_else(|| panic!("{name}: no loop {frag} in {:?}", rp.loops));
        let lv = rv.loop_report(frag).unwrap();
        assert_eq!(
            lp.parallel || lp.speculative,
            pol_parallel,
            "{name} {frag} polaris: {lp:?}"
        );
        assert_eq!(lv.parallel || lv.speculative, vfa_parallel, "{name} {frag} vfa: {lv:?}");
    };
    // TRFD outer I loop (Figure 2): do21 in the kernel.
    check("TRFD", "do21", true, false);
    // OCEAN outer K loop (Figure 3): needs the permuted range test.
    check("OCEAN", "do30", true, false);
    // BDNA outer I loop (Figure 5): compaction + array privatization.
    check("BDNA", "do21", true, false);
    // MDG pair loop: histogram reductions.
    check("MDG", "do17", true, false);
    // WAVE5 scatter: run-time test for Polaris only.
    check("WAVE5", "do23", true, false);
    // APPLU wavefront: serial for both.
    check("APPLU", "do25", false, false);
}

#[test]
fn track_is_partially_parallel_at_runtime() {
    let b = track();
    let (pol, rep) = compiled(&b, &PassOptions::polaris());
    assert!(rep.speculative_loops() >= 1, "{:#?}", rep.loops);
    let r = run(&pol, &MachineConfig::challenge_8()).unwrap();
    let spec: Vec<_> = r.loops.values().filter(|s| s.spec_success + s.spec_fail > 0).collect();
    assert_eq!(spec.len(), 1, "{:?}", r.loops);
    assert_eq!(spec[0].spec_success, 9, "90% of invocations parallel");
    assert_eq!(spec[0].spec_fail, 1, "1 of 10 invocations collides");
}

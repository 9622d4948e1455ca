//! Conformance net for the six irregular (subscripted-subscript)
//! kernels: each must land in its pinned execution tier — `static`
//! (the hot loop is proved parallel at compile time, directly or via
//! the index-array property pass) or `lrpd` (the loop ships as a
//! run-time speculation instead of serializing) — and must compute a
//! bit-identical result serially and on the threaded executor. The
//! runtime dependence oracle and the static race detector then
//! cross-check every PARALLEL claim (`common::audit_kernel`, the
//! kernels' one audit); a statically-clean loop the oracle sees violate
//! a dependence fails the suite.

mod common;

use common::{audit_kernel, fnv1a, for_each_config, Matrix, Sched};
use polaris::{MachineConfig, PassOptions};
use polaris_machine::{run, Engine};

/// The tier the compiled plan actually landed in, derived from the
/// compile report: any speculative loop means the kernel needed
/// the run-time test; otherwise any parallel loop means a static win.
fn landed_tier(report: &polaris::CompileReport) -> &'static str {
    let spec = report.loops.iter().filter(|l| l.speculative).count();
    let par = report.loops.iter().filter(|l| l.parallel && !l.speculative).count();
    if spec > 0 {
        "lrpd"
    } else if par > 0 {
        "static"
    } else {
        "serial"
    }
}

#[test]
fn irregular_kernels_land_in_their_pinned_tiers() {
    let kernels = polaris_benchmarks::irregular();
    assert_eq!(kernels.len(), 6);
    let mut statics = 0usize;
    for (b, expected) in &kernels {
        let out = polaris::parallelize(b.source, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let got = landed_tier(&out.report);
        assert_eq!(
            got, *expected,
            "{}: landed in tier `{got}`, pinned `{expected}`\n--- annotated ---\n{}",
            b.name, out.annotated_source
        );
        if got == "static" {
            statics += 1;
        }
        // No irregular kernel may silently serialize its scatter: every
        // kernel has at least one parallel or speculative loop.
        assert!(
            out.report.loops.iter().any(|l| l.parallel),
            "{}: no loop parallelized at all",
            b.name
        );
    }
    assert!(statics >= 3, "at least 3 of 6 kernels must be proved statically, got {statics}");
}

#[test]
fn static_kernels_are_proved_by_the_property_pass_or_classic_analysis() {
    // The two scatter kernels (GATHER, PREFIX) are parallel *only*
    // because `idxprop` proved their index arrays injective — pin that
    // attribution so a regression that re-proves them some weaker way
    // (or stops proving them) is visible.
    for name in ["GATHER", "PREFIX"] {
        let b = polaris_benchmarks::by_name(name).unwrap();
        let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
        assert!(
            out.report.idxprop.proved > 0,
            "{name}: idxprop proved nothing, yet the kernel depends on it"
        );
        assert!(
            out.report.dd_props.1 > 0,
            "{name}: the props disjointness rule never fired (dd_props = {:?})",
            out.report.dd_props
        );
        let scatter = out
            .report
            .loops
            .iter()
            .find(|l| l.parallel && !l.index_facts.is_empty())
            .unwrap_or_else(|| panic!("{name}: no parallel loop carries index-array facts"));
        assert!(
            scatter.index_facts.iter().any(|f| f.contains("injective")),
            "{name}: facts {:?} lack injectivity",
            scatter.index_facts
        );
    }
}

#[test]
fn lrpd_kernels_ship_as_speculation_not_serial() {
    for name in ["BUCKET", "COMPACT"] {
        let b = polaris_benchmarks::by_name(name).unwrap();
        let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
        let spec: Vec<_> = out.report.loops.iter().filter(|l| l.speculative).collect();
        assert!(!spec.is_empty(), "{name}: expected a speculative loop, got none");
        // A speculative loop is *not* a static PARALLEL claim — the
        // race detector and oracle treat those tiers differently, so
        // the flags must stay mutually exclusive.
        for l in &spec {
            assert!(
                !l.parallel,
                "{name}: loop {} is both statically parallel and speculative",
                l.label
            );
        }
    }
}

/// Every kernel, serial and threaded: bit-identical output and checksum
/// against the uncompiled program's serial run.
#[test]
fn irregular_outputs_are_bit_identical_across_engines_and_threads() {
    for (b, _) in &polaris_benchmarks::irregular() {
        let reference = run(&b.program(), &MachineConfig::serial())
            .unwrap_or_else(|e| panic!("{}: reference run: {e}", b.name));
        assert!(
            reference.output.iter().any(|l| l.contains("checksum")),
            "{}: kernel prints no checksum line",
            b.name
        );
        let want = fnv1a(&reference.output);

        let program = common::compiled(b.source, b.name);
        let matrix = Matrix {
            engines: &[Engine::Vm],
            procs: &[],
            threads: &[2, 4],
            schedules: &[Sched::Static],
        };
        for_each_config(&matrix, |label, cfg| {
            let r = run(&program, cfg).unwrap_or_else(|e| panic!("{}: {label}: {e}", b.name));
            assert_eq!(
                reference.output, r.output,
                "{}: {label}: output diverged from the serial reference",
                b.name
            );
            assert_eq!(want, fnv1a(&r.output), "{}: {label}: checksum drift", b.name);
        });
    }
}

/// Zero tolerance for static-clean-but-oracle-dirty: on every irregular
/// kernel the runtime dependence oracle must observe no violation, and
/// the static race detector's `clean` verdicts must survive the
/// cross-check.
#[test]
fn irregular_kernels_are_oracle_clean_and_race_sound() {
    let mut statics_compared = 0usize;
    for (b, expected) in &polaris_benchmarks::irregular() {
        let a = audit_kernel(b);
        if *expected == "static" {
            statics_compared += a.compared;
        }
    }
    assert!(statics_compared > 0, "no static claim was ever joined against the oracle");
}

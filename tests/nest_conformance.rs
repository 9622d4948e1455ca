//! Conformance net for the nest-transformation stages over the two
//! locality kernels: MMT must be interchanged and STENCIL2D tiled (plus
//! its tail loops fused), each under a [`polaris_ir::LegalityCert`] that
//! the independent `polaris-verify` re-prover re-derives from the final
//! IR. The transformed programs must then compute bit-identical results
//! to their **untransformed** serial baselines on every backend — the
//! tree-walking interpreter, the bytecode VM, the threaded executor at
//! several widths, and the adaptive controller — with zero runtime
//! oracle violations. Finally the compiler-side memory-class stride
//! penalty is checked against the machine cost model's memory cost.

mod common;

use common::{fnv1a, for_each_config, Matrix, Sched};
use polaris::verify::{agreement, verify_compiled};
use polaris::{MachineConfig, PassOptions};
use polaris_ir::cert::CertKind;
use polaris_machine::{audit, run, CostModel, Engine};

#[test]
fn locality_kernels_receive_their_pinned_transformations() {
    for (b, expected) in &polaris_benchmarks::locality() {
        let out = polaris::parallelize(b.source, &PassOptions::polaris())
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        let nest = &out.report.nest;
        assert!(nest.summarized > 0, "{}: no nest was ever summarized", b.name);
        let applied: Vec<&str> = nest.certs.iter().map(|c| c.stage()).collect();
        assert!(
            applied.contains(expected),
            "{}: pinned transformation `{expected}` missing; applied {applied:?}\n\
             rejections: {:?}",
            b.name,
            nest.rejections
        );
    }
}

#[test]
fn mmt_is_interchanged_to_unit_stride_order() {
    let b = polaris_benchmarks::by_name("MMT").unwrap();
    let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
    let cert = out
        .report
        .nest
        .certs
        .iter()
        .find(|c| c.loop_vars == ["K", "I", "J"])
        .unwrap_or_else(|| panic!("no cert for the (K,I,J) nest: {:?}", out.report.nest.certs));
    let CertKind::Interchange { perm } = &cert.kind else {
        panic!("expected an interchange cert, got {:?}", cert.kind);
    };
    assert_eq!(perm.as_slice(), &[2, 1, 0], "expected the (J, I, K) dot-product order");
    // The relaxable-reduction model is load-bearing here: the scalar
    // accumulator S would otherwise contribute an all-* blocking row.
    assert!(
        cert.vectors.iter().any(|v| v.array == "S" && v.relaxable),
        "S reduction row missing or not relaxable: {:?}",
        cert.vectors
    );
}

#[test]
fn stencil2d_is_tiled_and_its_tail_loops_fused() {
    let b = polaris_benchmarks::by_name("STENCIL2D").unwrap();
    let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
    let nest = &out.report.nest;
    let tile = nest
        .certs
        .iter()
        .find(|c| matches!(c.kind, CertKind::Tile { .. }))
        .unwrap_or_else(|| panic!("no tile cert: {:?}", nest.certs));
    let CertKind::Tile { band, sizes } = &tile.kind else { unreachable!() };
    assert_eq!(band.as_slice(), &[0, 1]);
    assert!(sizes.iter().all(|&s| s == 8), "{sizes:?}");
    assert!(
        nest.certs.iter().any(|c| matches!(c.kind, CertKind::Fuse { .. })),
        "tail loops did not fuse: {:?}",
        nest.certs
    );
}

#[test]
fn disabling_nest_opts_leaves_the_nests_alone() {
    let mut opts = PassOptions::polaris();
    opts.nest_opts = false;
    for (b, _) in &polaris_benchmarks::locality() {
        let out = polaris::parallelize(b.source, &opts).unwrap();
        assert!(out.report.nest.certs.is_empty(), "{}: {:?}", b.name, out.report.nest.certs);
        assert_eq!(out.report.nest.candidates, 0, "{}", b.name);
    }
}

/// Interchange permutes loop headers verbatim, so a band whose inner
/// bound reads the outer variable must be left alone: moved outward,
/// `DO J = 1, I` would read `I` outside the loop that defines it.
#[test]
fn triangular_nest_is_not_interchanged() {
    let src = "program t\nreal a(64,64)\n\
               do i = 1, 64\n  do j = 1, i\n\
               \x20   a(i,j) = 1.0\n\
               end do\nend do\nprint *, a(1,1)\nend\n";
    let out = polaris::parallelize(src, &PassOptions::polaris()).unwrap();
    assert_eq!(
        out.report.nest.interchanges, 0,
        "pipeline interchanged a triangular nest:\n{}",
        out.annotated_source
    );
}

/// Both kernels, both engines, serial / threaded / adaptive: the
/// transformed program must reproduce the *untransformed* program's
/// serial output byte for byte. The kernels keep integer-valued data
/// precisely so that reordered and re-merged sums stay exact.
#[test]
fn transformed_nests_are_bit_identical_to_untransformed_baselines() {
    for (b, _) in &polaris_benchmarks::locality() {
        let reference = run(&b.program(), &MachineConfig::serial())
            .unwrap_or_else(|e| panic!("{}: reference run: {e}", b.name));
        assert!(
            reference.output.iter().any(|l| l.contains("checksum")),
            "{}: kernel prints no checksum line",
            b.name
        );
        let want = fnv1a(&reference.output);

        let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
        assert!(!out.report.nest.certs.is_empty(), "{}: nothing was transformed", b.name);
        let matrix = Matrix {
            engines: &[Engine::TreeWalk, Engine::Vm],
            procs: &[],
            threads: &[2, 4, 8],
            schedules: &[Sched::Static, Sched::Adaptive],
        };
        for_each_config(&matrix, |label, cfg| {
            let r = run(&out.program, cfg)
                .unwrap_or_else(|e| panic!("{}: {label}: {e}", b.name));
            assert_eq!(
                reference.output, r.output,
                "{}: {label}: output diverged from the untransformed serial baseline",
                b.name
            );
            assert_eq!(want, fnv1a(&r.output), "{}: {label}: checksum drift", b.name);
        });
    }
}

/// Zero oracle violations and zero re-prover disagreements on the
/// transformed kernels; static race `clean` verdicts must survive the
/// oracle cross-check.
#[test]
fn transformed_kernels_are_oracle_clean_and_cert_sound() {
    for (b, _) in &polaris_benchmarks::locality() {
        let out = polaris::parallelize(b.source, &PassOptions::polaris()).unwrap();
        let oracle = audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("{}: oracle: {e}", b.name));
        assert!(
            !oracle.has_violations(),
            "{}: oracle violations: {:?}",
            b.name,
            oracle.violations().collect::<Vec<_>>()
        );
        let v = verify_compiled(&out.program, &out.report);
        assert!(v.ok(), "{}: {:?} / rejected certs {:?}", b.name, v.final_violations, v.rejected_certs());
        assert!(
            v.certs_ok(),
            "{}: re-prover rejected a cert: {:?}",
            b.name,
            v.rejected_certs()
        );
        assert_eq!(v.cert_checks.len(), out.report.nest.certs.len(), "{}", b.name);
        let race = v.race.as_ref().unwrap_or_else(|| panic!("{}: no race report", b.name));
        let a = agreement(race, &oracle);
        assert!(
            a.sound(),
            "{}: static `clean` contradicted by the oracle on {:?}",
            b.name,
            a.soundness_failures
        );
    }
}

/// The interchange cost model prices a column-crossing access at eight
/// of the machine's memory accesses.
#[test]
fn memory_class_stride_penalty_is_eight_machine_memory_accesses() {
    assert_eq!(polaris_core::nestdeps::stride_penalty(2, false), 8 * CostModel::default().memory);
}

/// The compiler's band-depth cap and the re-prover's own are two
/// constants on purpose; this ties them: the deepest band the compiler
/// interchanges is re-accepted, and a band one deeper — which the
/// re-prover would refuse unread — gets no cert in the first place.
#[test]
fn deepest_transformed_band_is_the_deepest_the_reprover_accepts() {
    // `b(i1,…,in) = a(i1,…,in) * 2.0` with i1 outermost: the innermost
    // loop crosses columns, so the reversed order is the profitable one.
    let nest = |depth: usize| {
        let vars: Vec<String> = (1..=depth).map(|k| format!("i{k}")).collect();
        let (subs, dims) = (vars.join(","), vec!["4"; depth].join(","));
        let heads: String = vars.iter().map(|v| format!("do {v} = 1, 4\n")).collect();
        format!(
            "program deep\nreal a({dims}), b({dims})\n{heads}b({subs}) = a({subs}) * 2.0\n{}\
             print *, b({})\nend\n",
            "end do\n".repeat(depth),
            vec!["1"; depth].join(","),
        )
    };
    let mut deepest = 0;
    for depth in 2..=6 {
        let out = polaris::parallelize(&nest(depth), &PassOptions::polaris()).unwrap();
        let v = verify_compiled(&out.program, &out.report);
        assert!(v.rejected_certs().is_empty(), "depth {depth}: {:?}", v.rejected_certs());
        for cert in &out.report.nest.certs {
            deepest = deepest.max(cert.loop_vars.len());
        }
    }
    assert_eq!(deepest, 4, "the cap moved: raise `verify::nest::MAX_CERT_DEPTH` with it");
}

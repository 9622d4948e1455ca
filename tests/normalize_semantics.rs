//! Semantic-equivalence tests for loop normalization: the normalized
//! program must produce identical output on the simulated machine,
//! including F77's exhausted loop-variable values.

use polaris::core::normalize;
use polaris::machine::run_serial;

fn check(src: &str) {
    let original = polaris_ir::parse(src).unwrap();
    let r1 = run_serial(&original).unwrap();
    let mut p2 = polaris_ir::parse(src).unwrap();
    normalize::run_unit(&mut p2.units[0]);
    polaris_ir::validate::validate_program(&p2).unwrap();
    let r2 = run_serial(&p2).unwrap();
    assert_eq!(r1.output, r2.output, "normalization changed semantics:\n{src}");
}

#[test]
fn positive_stride() {
    check("program t\nreal a(20)\ndo i = 2, 19, 3\n  a(i) = i*1.0\nend do\nprint *, a(2), a(5), a(17), i\nend\n");
}

#[test]
fn negative_stride() {
    check("program t\nreal a(20)\ndo i = 19, 2, -3\n  a(i) = i*1.0\nend do\nprint *, a(19), a(4), i\nend\n");
}

#[test]
fn empty_strided_loop() {
    check("program t\nk = 0\ndo i = 10, 2, 3\n  k = k + 1\nend do\nprint *, k, i\nend\n");
}

#[test]
fn nested_strided_loops() {
    check("program t\nreal a(30,30)\ns = 0.0\ndo i = 1, 29, 2\n  do j = 30, 3, -4\n    a(i, j) = i*1.0 + j\n    s = s + a(i, j)\n  end do\nend do\nprint *, s, i, j\nend\n");
}

#[test]
fn exit_value_matches_f77() {
    // DO I = 2, 11, 3 -> iterations 2,5,8,11; exhausted value 14
    let src = "program t\nk = 0\ndo i = 2, 11, 3\n  k = k + 1\nend do\nprint *, i, k\nend\n";
    check(src);
    let mut p = polaris_ir::parse(src).unwrap();
    normalize::run_unit(&mut p.units[0]);
    let r = run_serial(&p).unwrap();
    assert_eq!(r.output[0], "14 4");
}

#[test]
fn full_pipeline_handles_strided_kernels() {
    // strided scatter through the whole pipeline + adversarial check
    let src = "program t\nreal a(200)\ns = 0.0\ndo i = 1, 199, 2\n  a(i) = i*0.5\nend do\ndo i = 2, 200, 2\n  a(i) = a(i - 1) + 1.0\nend do\ndo k = 1, 200\n  s = s + a(k)\nend do\nprint *, s\nend\n";
    let out = polaris::parallelize(src, &polaris::PassOptions::polaris()).unwrap();
    assert!(out.report.normalize.loops_normalized >= 2, "{:?}", out.report.normalize);
    assert!(out.report.parallel_loops() >= 2, "{:#?}", out.report.loops);
    polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
        .unwrap_or_else(|e| panic!("{e}\n{}", out.annotated_source));
}

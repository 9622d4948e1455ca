//! The two range-test cases of `crates/bench/benches/ddtest.rs`, as a
//! probe of `polaris-symbolic` under `core`'s analyze stage: the TRFD
//! subscript of the paper's §3.3.1 and the OCEAN pair that needs the
//! loop-permutation step.

use crate::run::CAT;
use polaris::core::ddtest::range_test::{no_carried_dependence, InnerLoop, RefSpec};
use polaris::core::ddtest::DdStats;
use polaris::obs::Recorder;
use polaris::symbolic::poly::{DivPolicy, Poly};
use polaris::symbolic::{Range, RangeEnv};
use std::hint::black_box;

fn poly(src: &str) -> Poly {
    let program =
        polaris::ir::parse(&format!("program t\nx = {src}\nend\n")).expect("probe source parses");
    match &program.units[0].body.0[0].kind {
        polaris::ir::StmtKind::Assign { rhs, .. } => {
            Poly::from_expr(rhs, DivPolicy::Exact).expect("probe expression is polynomial")
        }
        other => unreachable!("probe statement is an assignment, not {other:?}"),
    }
}

fn inner(var: &str, lo: &str, hi: &str) -> InnerLoop {
    InnerLoop { var: var.into(), lo: poly(lo), hi: poly(hi), step: 1 }
}

/// Run each case `reps` times under a span of its own.
pub fn probe(rec: &Recorder, reps: usize) {
    let trfd = RefSpec {
        subs: vec![poly("(i*(n**2+n) + j**2 - j)/2 + k + 1")],
        inner: vec![inner("J", "0", "n - 1"), inner("K", "0", "j - 1")],
    };
    let mut trfd_env = RangeEnv::new();
    trfd_env.set("N", Range::at_least(Poly::int(1)));
    trfd_env.set("I", Range::new(Some(Poly::int(0)), Some(poly("m - 1"))));
    let trfd_loop = inner("I", "0", "m - 1");

    let ocean_inner = vec![inner("J", "0", "zk"), inner("I", "0", "128")];
    let ocean_f =
        RefSpec { subs: vec![poly("258*x*j + 129*k + i + 1")], inner: ocean_inner.clone() };
    let ocean_g =
        RefSpec { subs: vec![poly("258*x*j + 129*k + i + 1 + 129*x")], inner: ocean_inner };
    let mut ocean_env = RangeEnv::new();
    ocean_env.set("K", Range::new(Some(Poly::int(0)), Some(poly("x - 1"))));
    ocean_env.set("X", Range::at_least(Poly::int(1)));
    ocean_env.set("ZK", Range::at_least(Poly::int(0)));
    let ocean_loop = inner("K", "0", "x - 1");

    for _ in 0..reps {
        let span = rec.span(CAT, "symbolic.range_test_trfd");
        let proved = no_carried_dependence(
            black_box(&trfd),
            &trfd,
            "I",
            1,
            &trfd_loop,
            &trfd_env,
            &DdStats::new(),
            true,
        );
        span.end();
        assert!(proved, "the range test proves TRFD's outer loop independent");
        let span = rec.span(CAT, "symbolic.range_test_ocean");
        let proved = no_carried_dependence(
            black_box(&ocean_f),
            &ocean_g,
            "K",
            1,
            &ocean_loop,
            &ocean_env,
            &DdStats::new(),
            true,
        );
        span.end();
        assert!(proved, "the range test proves OCEAN's K loop independent after permutation");
    }
}

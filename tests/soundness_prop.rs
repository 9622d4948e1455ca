//! Compiler soundness property test: random loop nests are compiled
//! with the full Polaris pipeline and then executed **adversarially**
//! (parallel loops in reverse order with real privatization/reduction
//! semantics and poisoned private storage). If the dependence driver
//! ever claims parallelism it cannot justify, the final memory state
//! diverges from sequential execution and this test fails.
//!
//! The generator mixes the idioms the passes actually target: affine
//! array writes with offsets, read-modify chains, scalar temporaries,
//! sum reductions, conditional writes, and inner loops.
//!
//! A second generator targets the subscripted-subscript tier: an index
//! array is filled by a randomly chosen defining loop (affine,
//! prefix-sum, opaque permutation, duplicate-heavy, or clobbered by a
//! second fill), then consumed by scatter/accumulate/gather loops. The
//! property pass may prove the provable fills, but a duplicate-entry
//! array must never yield a statically `clean` PARALLEL claim.
//!
//! A third generator ([`vary_program`]) targets the shape the others
//! never had: a private scalar that in-iteration resolution cannot
//! remove from a subscript or an inner-loop bound.

use proptest::prelude::*;

/// One statement template for the loop body.
#[derive(Debug, Clone)]
enum BodyStmt {
    /// `A(a*i + c) = <expr>`
    Write { a: i64, c: i64 },
    /// `A(a*i + c) = A(a2*i + c2) + 1.0` — potential cross-iteration flow
    ReadWrite { a: i64, c: i64, a2: i64, c2: i64 },
    /// `T = B(i) * 2.0 ; A(a*i + c) = T` — privatizable temp
    Temp { a: i64, c: i64 },
    /// `S = S + A(a*i + c)` — sum reduction
    Reduce { a: i64, c: i64 },
    /// `IF (B(i) > 0.5) A(a*i + c) = B(i)` — conditional write
    CondWrite { a: i64, c: i64 },
    /// inner loop `DO j = 1, 4: A(a*i + j + c) = B(j)` — region write
    Inner { a: i64, c: i64 },
    /// coupled 2-D subscripts over the nest: `M(i, j) = M(i, j) + B(j)`
    /// (or the transposed access `M(j, i)`), both loop variables live in
    /// one reference
    Coupled { transpose: bool },
    /// `A(kk*i + c) = B(i)` — symbolic stride: `kk` is only known at run
    /// time (assigned under a data-dependent branch), so the dependence
    /// tests must reason symbolically or stay conservative
    SymStride { c: i64 },
    /// wrap-around induction chain: `A(i + c) = B(jwrap); jwrap = i` —
    /// the read sees the *previous* iteration's induction value
    WrapAround { c: i64 },
}

const N_ITERS: i64 = 16;
const ASIZE: i64 = 120;

impl BodyStmt {
    fn emit(&self, out: &mut String) {
        match self {
            BodyStmt::Write { a, c } => {
                out.push_str(&format!("  a({a}*i + {c}) = b(i) + 1.0\n"));
            }
            BodyStmt::ReadWrite { a, c, a2, c2 } => {
                out.push_str(&format!("  a({a}*i + {c}) = a({a2}*i + {c2}) + 1.0\n"));
            }
            BodyStmt::Temp { a, c } => {
                out.push_str("  t = b(i) * 2.0\n");
                out.push_str(&format!("  a({a}*i + {c}) = t\n"));
            }
            BodyStmt::Reduce { a, c } => {
                out.push_str(&format!("  s = s + a({a}*i + {c})\n"));
            }
            BodyStmt::CondWrite { a, c } => {
                out.push_str(&format!("  if (b(i) > 0.5) a({a}*i + {c}) = b(i)\n"));
            }
            BodyStmt::Inner { a, c } => {
                out.push_str("  do j = 1, 4\n");
                out.push_str(&format!("    a({a}*i + j + {c}) = b(j)\n"));
                out.push_str("  end do\n");
            }
            BodyStmt::Coupled { transpose } => {
                out.push_str("  do j = 1, 4\n");
                if *transpose {
                    out.push_str("    m(j, i) = m(j, i) + b(j)\n");
                } else {
                    out.push_str("    m(i, j) = m(i, j) + b(j)\n");
                }
                out.push_str("  end do\n");
            }
            BodyStmt::SymStride { c } => {
                out.push_str(&format!("  a(kk*i + {c}) = b(i)\n"));
            }
            BodyStmt::WrapAround { c } => {
                out.push_str(&format!("  a(i + {c}) = b(jwrap) + 1.0\n"));
                out.push_str("  jwrap = i\n");
            }
        }
    }
}

/// Keep every generated subscript inside [1, ASIZE] for i in [1, N_ITERS]
/// (and j in [1,4]).
fn clamp(a: i64, c: i64, extra: i64) -> (i64, i64) {
    let a = a.rem_euclid(4); // 0..3
    let max_wo_c = a * N_ITERS + extra;
    let c = 1 + c.rem_euclid((ASIZE - max_wo_c).max(1));
    (a, c)
}

fn stmt_strategy() -> impl Strategy<Value = BodyStmt> {
    let coef = -8i64..8;
    let off = 0i64..128;
    prop_oneof![
        (coef.clone(), off.clone()).prop_map(|(a, c)| {
            let (a, c) = clamp(a, c, 0);
            BodyStmt::Write { a, c }
        }),
        (coef.clone(), off.clone(), coef.clone(), off.clone()).prop_map(|(a, c, a2, c2)| {
            let (a, c) = clamp(a, c, 0);
            let (a2, c2) = clamp(a2, c2, 0);
            BodyStmt::ReadWrite { a, c, a2, c2 }
        }),
        (coef.clone(), off.clone()).prop_map(|(a, c)| {
            let (a, c) = clamp(a, c, 0);
            BodyStmt::Temp { a, c }
        }),
        (coef.clone(), off.clone()).prop_map(|(a, c)| {
            let (a, c) = clamp(a, c, 0);
            BodyStmt::Reduce { a, c }
        }),
        (coef.clone(), off.clone()).prop_map(|(a, c)| {
            let (a, c) = clamp(a, c, 0);
            BodyStmt::CondWrite { a, c }
        }),
        (coef, off.clone()).prop_map(|(a, c)| {
            let (a, c) = clamp(a, c, 4);
            BodyStmt::Inner { a, c }
        }),
        any::<bool>().prop_map(|transpose| BodyStmt::Coupled { transpose }),
        // kk is at most 3 at run time: keep kk*i + c inside the array
        off.clone()
            .prop_map(|c| BodyStmt::SymStride { c: 1 + c.rem_euclid(ASIZE - 3 * N_ITERS) }),
        off.prop_map(|c| BodyStmt::WrapAround { c: 1 + c.rem_euclid(ASIZE - N_ITERS) }),
    ]
}

fn program_from(stmts: &[BodyStmt]) -> String {
    let mut src = String::new();
    src.push_str("program fuzz\n");
    src.push_str(&format!("real a({ASIZE}), b({ASIZE}), m(20, 20)\n"));
    src.push_str("real s, t\n");
    src.push_str(&format!("do k = 1, {ASIZE}\n  a(k) = k*0.125\n  b(k) = 1.0/k\nend do\n"));
    src.push_str("do k1 = 1, 20\n  do k2 = 1, 20\n    m(k1, k2) = k1*0.5 + k2\n  end do\nend do\n");
    // Runtime-only stride for SymStride: the branch depends on array
    // data, so constant propagation cannot fold `kk`.
    src.push_str("kk = 3\nif (b(1) > 0.0) kk = 2\n");
    src.push_str("jwrap = 1\n");
    src.push_str("s = 0.0\n");
    src.push_str(&format!("do i = 1, {N_ITERS}\n"));
    for s in stmts {
        s.emit(&mut src);
    }
    src.push_str("end do\n");
    // make everything observable
    src.push_str(&format!("print *, s, a(1), a({}), a({ASIZE})\n", ASIZE / 2));
    src.push_str("print *, m(3, 3), m(4, 7), jwrap\n");
    src.push_str("w = 0.0\n");
    src.push_str(&format!("do k = 1, {ASIZE}\n  w = w + a(k)\nend do\n"));
    src.push_str("print *, 'sum', w\nend\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compiled_programs_survive_adversarial_validation(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5)
    ) {
        let src = program_from(&stmts);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let cfg = polaris::MachineConfig::challenge_8();
        // adversarial validation: reverse-order parallel execution must
        // match sequential semantics exactly
        polaris::machine::run_validated(&out.program, &cfg).unwrap_or_else(|e| {
            panic!("UNSOUND parallelization: {e}\n--- source ---\n{src}\n--- annotated ---\n{}",
                   out.annotated_source)
        });
    }

    /// Every generated program must also be oracle-clean: the serial
    /// traced execution may not observe any cross-iteration dependence
    /// that contradicts a published PARALLEL claim.
    #[test]
    fn generated_programs_are_oracle_clean(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5)
    ) {
        let src = program_from(&stmts);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let report = polaris::machine::audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("oracle run failed: {e}\n{src}"));
        prop_assert!(
            !report.has_violations(),
            "oracle observed a race in a PARALLEL loop\n--- source ---\n{}\n--- annotated ---\n{}\n--- violations ---\n{:#?}",
            src, out.annotated_source, report.violations().collect::<Vec<_>>()
        );
    }

    #[test]
    fn vfa_is_also_sound(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5)
    ) {
        let src = program_from(&stmts);
        let out = polaris::parallelize(&src, &polaris::PassOptions::vfa())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| {
                panic!("UNSOUND baseline parallelization: {e}\n{src}\n{}", out.annotated_source)
            });
    }
}

/// How the index array `idx(16)` gets its values before the consumer
/// loops run. The first four are provable by the `idxprop` recognizers;
/// the last three must defeat them.
#[derive(Debug, Clone, Copy)]
enum IdxFill {
    /// `idx(i) = i` — strict identity permutation
    Identity,
    /// `idx(i) = 17 - i` — reversal, slope −1
    Reverse,
    /// `idx(i) = 2*i + c` — strided injective, not a permutation
    Affine { c: i64 },
    /// `idx(1) = 1; idx(i) = idx(i-1) + 1 + mod(i, 2)` — prefix sum
    PrefixSum,
    /// `idx(i) = mod(i*m, 16) + 1`, odd `m` — a run-time permutation
    /// the recognizers cannot see through (LRPD territory)
    ModPerm { m: i64 },
    /// `idx(i) = mod(i, m) + 1` — genuine duplicate entries; any
    /// static `clean` claim on a scatter through this is unsound
    Duplicates { m: i64 },
    /// injective fill, then a second loop overwrites half the entries
    /// with duplicates — the pass must poison its earlier proof
    Clobbered,
}

impl IdxFill {
    fn emit(self, out: &mut String) {
        match self {
            IdxFill::Identity => {
                out.push_str("do i = 1, 16\n  idx(i) = i\nend do\n");
            }
            IdxFill::Reverse => {
                out.push_str("do i = 1, 16\n  idx(i) = 17 - i\nend do\n");
            }
            IdxFill::Affine { c } => {
                out.push_str(&format!("do i = 1, 16\n  idx(i) = 2*i + {c}\nend do\n"));
            }
            IdxFill::PrefixSum => {
                out.push_str("idx(1) = 1\n");
                out.push_str("do i = 2, 16\n  idx(i) = idx(i - 1) + 1 + mod(i, 2)\nend do\n");
            }
            IdxFill::ModPerm { m } => {
                out.push_str(&format!("do i = 1, 16\n  idx(i) = mod(i*{m}, 16) + 1\nend do\n"));
            }
            IdxFill::Duplicates { m } => {
                out.push_str(&format!("do i = 1, 16\n  idx(i) = mod(i, {m}) + 1\nend do\n"));
            }
            IdxFill::Clobbered => {
                out.push_str("do i = 1, 16\n  idx(i) = i\nend do\n");
                out.push_str("do i = 1, 8\n  idx(i + 8) = i\nend do\n");
            }
        }
    }

    /// Whether two iterations of a consumer loop can hit one cell.
    fn may_alias(self) -> bool {
        matches!(self, IdxFill::Duplicates { .. } | IdxFill::Clobbered)
    }
}

/// One consumer statement over `a(idx(i))`.
#[derive(Debug, Clone, Copy)]
enum IdxUse {
    /// `a(idx(i)) = b(i)*1.5 + 0.25` — order-sensitive under duplicates
    Scatter,
    /// `a(idx(i)) = a(idx(i)) + b(i)` — cross-iteration flow under
    /// duplicates
    Accum,
    /// `g(i) = a(idx(i))*0.5 + b(i)` — read-only indirection, always
    /// parallel
    Gather,
}

impl IdxUse {
    fn emit(self, out: &mut String) {
        match self {
            IdxUse::Scatter => out.push_str("  a(idx(i)) = b(i)*1.5 + 0.25\n"),
            IdxUse::Accum => out.push_str("  a(idx(i)) = a(idx(i)) + b(i)\n"),
            IdxUse::Gather => out.push_str("  g(i) = a(idx(i))*0.5 + b(i)\n"),
        }
    }
}

fn idx_fill_strategy() -> impl Strategy<Value = IdxFill> {
    prop_oneof![
        Just(IdxFill::Identity),
        Just(IdxFill::Reverse),
        // 2*16 + c <= 64
        (1i64..=31).prop_map(|c| IdxFill::Affine { c }),
        Just(IdxFill::PrefixSum),
        (0i64..8).prop_map(|k| IdxFill::ModPerm { m: 2 * k + 1 }),
        (2i64..9).prop_map(|m| IdxFill::Duplicates { m }),
        Just(IdxFill::Clobbered),
    ]
}

fn idx_use_strategy() -> impl Strategy<Value = IdxUse> {
    prop_oneof![Just(IdxUse::Scatter), Just(IdxUse::Accum), Just(IdxUse::Gather)]
}

fn idx_program_from(fill: IdxFill, uses: &[IdxUse]) -> String {
    let mut src = String::new();
    src.push_str("program idxfuzz\n");
    src.push_str("real a(64), b(16), g(16)\n");
    src.push_str("integer idx(16)\n");
    src.push_str("do k = 1, 64\n  a(k) = k*0.125\nend do\n");
    src.push_str("do k = 1, 16\n  b(k) = 1.0/k\n  g(k) = 0.0\nend do\n");
    fill.emit(&mut src);
    src.push_str("do i = 1, 16\n");
    for u in uses {
        u.emit(&mut src);
    }
    src.push_str("end do\n");
    src.push_str("print *, a(1), a(13), a(32), a(64)\n");
    src.push_str("print *, g(1), g(16), idx(1), idx(16)\n");
    src.push_str("w = 0.0\n");
    src.push_str("do k = 1, 64\n  w = w + a(k)\nend do\n");
    src.push_str("print *, 'sum', w\nend\n");
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Subscripted-subscript soundness: whatever the property pass
    /// proves (or speculates) about the generated index array, the
    /// adversarial reverse-order execution must match sequential
    /// semantics, and the traced oracle must see no violation. A
    /// duplicate-entry fill additionally pins that the props
    /// disjointness rule proved nothing.
    #[test]
    fn index_array_programs_are_sound(
        fill in idx_fill_strategy(),
        uses in proptest::collection::vec(idx_use_strategy(), 1..3)
    ) {
        let src = idx_program_from(fill, &uses);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        if fill.may_alias() {
            prop_assert_eq!(
                out.report.dd_props.1, 0,
                "props rule claimed disjointness through a duplicate-entry \
                 index array\n--- source ---\n{}\n--- annotated ---\n{}",
                src, out.annotated_source
            );
        }
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| {
                panic!("UNSOUND parallelization: {e}\n--- source ---\n{src}\n--- annotated ---\n{}",
                       out.annotated_source)
            });
        let report = polaris::machine::audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("oracle run failed: {e}\n{src}"));
        prop_assert!(
            !report.has_violations(),
            "oracle observed a race through the index array\n--- source ---\n{}\n\
             --- annotated ---\n{}\n--- violations ---\n{:#?}",
            src, out.annotated_source, report.violations().collect::<Vec<_>>()
        );
    }
}

/// A randomly-shaped 2-D nest carrying a `(<, >)` dependence:
/// `a(i, j) = a(i - d1, j + d2) + 1.0` with `d1, d2 >= 1`. The flow
/// dependence has distance `(d1, -d2)` — positive then negative — so
/// swapping the loops (or tiling the band) would invert a `<`-leading
/// direction vector. The legality prover must reject both, and a
/// `ForceIllegal` fault that applies the rejected interchange anyway
/// must be caught by the independent `polaris-verify` re-prover with
/// the blame pinned on the `interchange` stage.
fn skew_program(d1: i64, d2: i64, n: i64) -> String {
    format!(
        "program skew\nreal a({n}, {n})\nreal w\n\
         do j0 = 1, {n}\n  do i0 = 1, {n}\n    a(i0, j0) = mod(i0*3 + j0, 7) * 1.0\n  end do\nend do\n\
         do i = {}, {}\n  do j = 1, {}\n    a(i, j) = a(i - {d1}, j + {d2}) + 1.0\n  end do\nend do\n\
         w = 0.0\n\
         do jj = 1, {n}\n  do ii = 1, {n}\n    w = w + a(ii, jj)\n  end do\nend do\n\
         print *, 'skew sum', w\nend\n",
        1 + d1,
        n,
        n - d2,
    )
}

/// A triangular nest: `j`'s bound reads `i`, so permuting the headers
/// verbatim changes the iteration space whatever the dependences say.
fn triangular_program(n: i64) -> String {
    format!(
        "program tri\nreal a({n}, {n})\n\
         do i = 1, {n}\n  do j = 1, i\n    a(i, j) = 1.0\n  end do\nend do\n\
         print *, 'tri', a({n}, 1)\nend\n"
    )
}

/// Two conformable loops where the second reads **ahead** of the
/// first's writes: `a(i) = ...` then `c(i) = a(i + off) + ...`. Fused,
/// iteration `i` would read a cell the original second loop only saw
/// after the first loop finished writing — a `(>)`-feasible
/// cross-body dependence. The fusion prover must reject the pair, and
/// a forced fusion must be caught by the re-prover with the blame
/// pinned on the `fuse` stage.
fn antifuse_program(off: i64, n: i64) -> String {
    format!(
        "program af\nreal a({}), b({n}), c({n})\nreal w\n\
         do k = 1, {}\n  a(k) = mod(k, 5) * 1.0\nend do\n\
         do k = 1, {n}\n  b(k) = mod(k*3, 7) * 1.0\n  c(k) = 0.0\nend do\n\
         do i = 1, {n}\n  a(i) = b(i) * 2.0\nend do\n\
         do i = 1, {n}\n  c(i) = a(i + {off}) + 1.0\nend do\n\
         w = 0.0\n\
         do k = 1, {n}\n  w = w + a(k) + c(k)\nend do\n\
         print *, 'af sum', w\nend\n",
        n + off,
        n + off,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The interchange/tiling prover must reject every `(<, >)`-skewed
    /// nest — no interchange or tile certificate may be emitted for it —
    /// and the untransformed result must stay sound under adversarial
    /// execution.
    #[test]
    fn skewed_nests_are_never_interchanged_or_tiled(
        d1 in 1i64..4,
        d2 in 1i64..4,
        n in 12i64..24,
    ) {
        use polaris_ir::cert::CertKind;
        let src = skew_program(d1, d2, n);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        for cert in &out.report.nest.certs {
            prop_assert!(
                !matches!(cert.kind, CertKind::Interchange { .. } | CertKind::Tile { .. })
                    || cert.loop_vars != ["I", "J"],
                "prover licensed a transformation of the skewed (I, J) nest: {cert:?}\n{src}"
            );
        }
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("UNSOUND: {e}\n{src}\n{}", out.annotated_source));
    }

    /// A `ForceIllegal` fault in the interchange stage applies the
    /// rejected permutation anyway (the IR stays well-formed, so only
    /// cert re-derivation can notice). The re-prover must reject the
    /// certificate and attribute it to the `interchange` stage.
    #[test]
    fn forced_illegal_interchange_is_caught_by_the_reprover(
        d1 in 1i64..4,
        d2 in 1i64..4,
        n in 12i64..24,
        triangular in any::<bool>(),
    ) {
        // The triangular row has an empty dependence matrix: there the
        // re-prover's own bounds check is the only thing that can object.
        let src = if triangular { triangular_program(n) } else { skew_program(d1, d2, n) };
        let opts = polaris::PassOptions::polaris()
            .with_faults(polaris::core::pipeline::FaultPlan::force_in("interchange"));
        let out = polaris::parallelize(&src, &opts)
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let forced: Vec<_> = out
            .report
            .nest
            .certs
            .iter()
            .filter(|c| c.loop_vars == ["I", "J"] && c.stage() == "interchange")
            .collect();
        prop_assert!(
            !forced.is_empty(),
            "ForceIllegal did not apply an interchange to the skewed nest\n{src}"
        );
        let checks = polaris::verify::recheck_certs(&out.program, &out.report);
        let caught = checks
            .iter()
            .filter(|c| !c.accepted && c.stage == "interchange")
            .count();
        prop_assert!(
            caught >= forced.len(),
            "re-prover missed a forced illegal interchange\nchecks: {checks:#?}\n{src}"
        );
        prop_assert!(
            !triangular || checks.iter().any(|c| c.reason.contains("band bound reads band variable")),
            "the triangular band was not refused on its bounds\nchecks: {checks:#?}\n{src}"
        );
    }

    /// The fusion prover must reject every read-ahead pair — the
    /// candidate is judged (so it shows up in the rejection ledger) but
    /// no fuse certificate is emitted — and a forced fusion must be
    /// caught by the re-prover with the blame pinned on `fuse`.
    #[test]
    fn read_ahead_pairs_are_never_fused_and_forced_fusion_is_caught(
        off in 1i64..5,
        n in 12i64..24,
    ) {
        use polaris_ir::cert::CertKind;
        let src = antifuse_program(off, n);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        prop_assert!(
            !out.report.nest.certs.iter().any(|c| matches!(c.kind, CertKind::Fuse { .. })),
            "prover licensed a read-ahead fusion\n{src}\n{:#?}",
            out.report.nest.certs
        );
        prop_assert!(
            out.report.nest.rejected > 0,
            "the read-ahead pair never reached the prover (gate too strict?)\n{src}"
        );
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("UNSOUND: {e}\n{src}\n{}", out.annotated_source));

        let opts = polaris::PassOptions::polaris()
            .with_faults(polaris::core::pipeline::FaultPlan::force_in("fuse"));
        let forced_out = polaris::parallelize(&src, &opts)
            .unwrap_or_else(|e| panic!("forced compile failed: {e}\n{src}"));
        let forced = forced_out
            .report
            .nest
            .certs
            .iter()
            .filter(|c| matches!(c.kind, CertKind::Fuse { .. }))
            .count();
        prop_assert!(forced > 0, "ForceIllegal did not apply the fusion\n{src}");
        let checks = polaris::verify::recheck_certs(&forced_out.program, &forced_out.report);
        let caught =
            checks.iter().filter(|c| !c.accepted && c.stage == "fuse").count();
        prop_assert!(
            caught >= forced,
            "re-prover missed a forced illegal fusion\nchecks: {checks:#?}\n{src}"
        );
    }
}

/// Dependence distances around and beyond 2²⁴ — where a finite stand-in
/// for an unknown loop bound would "prove" them infeasible — under
/// symbolic and constant bounds, in a 1-D recurrence and a 2-D `(<, >)`
/// nest with stencil reuse and tileable trip counts. The loop that
/// carries the dependence is never PARALLEL, the nest is never
/// interchanged or tiled, and every cert that is emitted is re-accepted.
/// Compile-level only: nothing this size is executed.
#[test]
fn huge_offsets() {
    use polaris_ir::cert::CertKind;
    let offsets: [i64; 6] = [(1 << 24) - 1, 1 << 24, 1 << 25, (1 << 25) + 1, 40_000_000, 1 << 31];
    for off in offsets {
        for symbolic in [true, false] {
            let trips = (off / 8 + 2) * 8; // beyond the offset, tileable
            let bound = |name: &str| if symbolic { name.to_string() } else { trips.to_string() };
            let (n, m) = (bound("n"), bound("m"));
            let decls = "integer ia(10)\ninteger n, m\nn = ia(1)\nm = ia(2)\n";
            let one_d = format!(
                "program h1\nreal a({})\n{decls}\
                 do i = 1, {n}\n  a(i) = a(i + {off}) + 1.0\nend do\nprint *, a(1)\nend\n",
                trips + off
            );
            let two_d = format!(
                "program h2\nreal a(17, {})\n{decls}\
                 do i = 2, 17\n  do j = 1, {m}\n\
                 \x20   a(i, j) = a(i - 1, j + {off}) + a(i - 1, j + {off} + 1)\n\
                 end do\nend do\nprint *, a(2, 1)\nend\n",
                trips + off + 1
            );
            // With constant bounds the nest is an interchange *and* a tile
            // candidate, so both provers are really asked.
            for (src, rejected) in [(&one_d, 0), (&two_d, if symbolic { 1 } else { 2 })] {
                let out = polaris::parallelize(src, &polaris::PassOptions::polaris())
                    .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
                let carrier = out.program.units[0].body.loops()[0];
                assert_eq!(carrier.var, "I", "{}", out.annotated_source);
                assert!(!carrier.par.parallel, "wrong PARALLEL\n{}", out.annotated_source);
                assert_eq!(out.report.nest.rejected, rejected, "{:?}", out.report.nest.rejections);
                for cert in &out.report.nest.certs {
                    assert!(
                        !matches!(cert.kind, CertKind::Interchange { .. } | CertKind::Tile { .. }),
                        "prover licensed {cert:?}\n{src}"
                    );
                }
                for check in polaris::verify::recheck_certs(&out.program, &out.report) {
                    assert!(check.accepted, "{check:?}\n{src}");
                }
            }
        }
    }
}

/// How the private scalar `T` comes to hold `c + s*v` (`v` the loop
/// variable it follows). Only `Direct` is a definition the in-iteration
/// resolution may substitute; after every other chain `T` stays in the
/// subscript, and reading it there as a fixed symbol separates
/// iterations that really collide.
#[derive(Debug, Clone, Copy)]
enum Chain {
    /// `t = c + s*v`
    Direct,
    /// `t = s*v; t = t + c + k` — the latest definition reads `t` itself
    /// (`k` is 0, but only at run time)
    SelfRef,
    /// `t = c + s*v; if (b(v) > 2.0) t = 0` — a redefinition that never
    /// fires and cannot be ruled out
    Conditional,
    /// `do t = 1, c + s*v - 1 ... end do` — the exit value of an inner loop
    InnerExit,
    /// `ix(1) = c + s*v; t = ix(1); ix(1) = 0` — fed by an array that is
    /// rewritten before the use
    ArrayFed,
}

impl Chain {
    fn emit(self, v: &str, c: i64, s: i64, out: &mut String) {
        let value = format!("{c} + ({s})*{v}");
        out.push_str(&match self {
            Chain::Direct => format!("t = {value}\n"),
            Chain::SelfRef => format!("t = ({s})*{v}\nt = t + {c} + k\n"),
            Chain::Conditional => format!("t = {value}\nif (b({v}) .gt. 2.0) t = 0\n"),
            Chain::InnerExit => format!("do t = 1, {value} - 1\n  s0 = s0 + b(t)\nend do\n"),
            Chain::ArrayFed => format!("ix(1) = {value}\nt = ix(1)\nix(1) = 0\n"),
        });
    }
}

/// Where `T` is read. With `T = c + s*v`, the subscripts below collide
/// across iterations exactly when `s + u` is 0 (or small against `d`).
#[derive(Debug, Clone, Copy)]
enum VaryUse {
    /// `a(t + u*i) = a(t + u*i + d) + 1.0` in a 1-D loop
    Subscript { u: i64, d: i64 },
    /// `do l = t, t + 3: a(l + u*i) = b(l)` — an inner-loop bound
    Bound { u: i64 },
    /// `g(i, t + u*j) = g(i-1, t + u*j + d) + 1.0` in an (I, J) nest with
    /// `T` following `J`: a `(<, >)` dependence when `d > 0`, which the
    /// locality model wants to interchange
    Nest { u: i64, d: i64 },
}

fn vary_program(chain: Chain, c: i64, s: i64, use_: VaryUse) -> String {
    let mut src = String::from(
        "program vary\nreal a(200), b(200), g(16, 100)\ninteger ia(4), ix(4), k, t\nreal s0, w\n\
         ia(1) = 0\nk = ia(1)\ns0 = 0.0\n\
         do k1 = 1, 200\n  a(k1) = k1*0.125\n  b(k1) = 1.0/k1\nend do\n\
         do k2 = 1, 100\n  do k1 = 1, 16\n    g(k1, k2) = mod(k1*3 + k2, 7)*1.0\n  end do\nend do\n",
    );
    match use_ {
        VaryUse::Subscript { u, d } => {
            src.push_str("do i = 1, 16\n");
            chain.emit("i", c, s, &mut src);
            src.push_str(&format!("a(t + {u}*i) = a(t + {u}*i + {d}) + 1.0\nend do\n"));
        }
        VaryUse::Bound { u } => {
            src.push_str("do i = 1, 16\n");
            chain.emit("i", c, s, &mut src);
            src.push_str(&format!("do l = t, t + 3\n  a(l + {u}*i) = b(l)\nend do\nend do\n"));
        }
        VaryUse::Nest { u, d } => {
            src.push_str("do i = 2, 16\ndo j = 1, 12\n");
            chain.emit("j", c, s, &mut src);
            src.push_str(&format!(
                "g(i, t + {u}*j) = g(i - 1, t + {u}*j + {d}) + 1.0\nend do\nend do\n"
            ));
        }
    }
    src.push_str(
        "w = 0.0\ndo k1 = 1, 200\n  w = w + a(k1)\nend do\n\
         do k2 = 1, 100\n  do k1 = 1, 16\n    w = w + g(k1, k2)*k2\n  end do\nend do\n\
         print *, s0, a(1), a(40), w\nend\n",
    );
    src
}

fn vary_strategy() -> impl Strategy<Value = (Chain, i64, i64, VaryUse)> {
    let chain = prop_oneof![
        Just(Chain::Direct),
        Just(Chain::SelfRef),
        Just(Chain::Conditional),
        Just(Chain::InnerExit),
        Just(Chain::ArrayFed),
    ];
    let use_ = prop_oneof![
        (0i64..3, 0i64..3).prop_map(|(u, d)| VaryUse::Subscript { u, d }),
        (0i64..3).prop_map(|u| VaryUse::Bound { u }),
        (0i64..3, 0i64..2).prop_map(|(u, d)| VaryUse::Nest { u, d }),
    ];
    // 36 <= c + s*v, and every subscript stays below 100.
    (chain, 36i64..60, -2i64..2, use_)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Loops and nests whose subscripts and inner-loop bounds read a
    /// private scalar the compiler cannot always resolve: whatever it
    /// decides, the adversarial run matches the sequential one, the
    /// oracle sees no violation, every cert is re-accepted, and real
    /// threads print what serial prints.
    #[test]
    fn varying_subscripts_are_never_read_as_fixed_symbols(
        (chain, c, s, use_) in vary_strategy()
    ) {
        let src = vary_program(chain, c, s, use_);
        let serial = polaris::machine::run_serial(&polaris::ir::parse(&src).unwrap())
            .unwrap_or_else(|e| panic!("serial run failed: {e}\n{src}"));
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let listing = &out.annotated_source;
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("UNSOUND parallelization: {e}\n{src}\n{listing}"));
        let report = polaris::machine::audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("oracle run failed: {e}\n{src}"));
        prop_assert!(
            !report.has_violations(),
            "{:#?}\n{}\n{}", report.violations().collect::<Vec<_>>(), src, listing
        );
        for check in polaris::verify::recheck_certs(&out.program, &out.report) {
            prop_assert!(check.accepted, "{:?}\n{}\n{}", check, src, listing);
        }
        let threaded = polaris::MachineConfig::threaded(
            2,
            polaris::machine::Schedule::Stealing { chunk: 4 },
        );
        let r = polaris::machine::run(&out.program, &threaded)
            .unwrap_or_else(|e| panic!("threaded run failed: {e}\n{src}"));
        prop_assert_eq!(&r.output, &serial.output, "{}\n{}", src, listing);
    }
}

/// One forced choice for the adversarial adaptation cycle: serial
/// (`None`), or concurrent under a schedule. Whether a concurrent
/// invocation is a DOALL or a speculation is read off the loop's
/// annotation, so the generator is free to demand concurrency anywhere.
fn forced_choice_strategy() -> impl Strategy<Value = Option<polaris::machine::Schedule>> {
    use polaris::machine::Schedule;
    prop_oneof![
        Just(None),
        Just(Some(Schedule::Static)),
        (1usize..8).prop_map(|c| Some(Schedule::Stealing { chunk: c })),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adversarial adaptation schedules: a forced cycle of choices —
    /// serial flips, concurrency demanded of any loop, stealing with tiny
    /// chunks — must never change a program's output bytes, on any
    /// invocation, compared to the serial reference.
    #[test]
    fn forced_adaptation_schedules_never_change_output(
        stmts in proptest::collection::vec(stmt_strategy(), 1..5),
        cycle in proptest::collection::vec(forced_choice_strategy(), 1..6),
    ) {
        let src = program_from(&stmts);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let reference = polaris::machine::run(&out.program, &polaris::MachineConfig::serial())
            .unwrap_or_else(|e| panic!("reference run failed: {e}\n{src}"));
        let ctrl = std::sync::Arc::new(
            polaris::machine::AdaptiveController::with_forced_cycle(cycle.clone()),
        );
        let cfg = polaris::MachineConfig::challenge_8().with_adaptive(ctrl);
        for pass in 0..3 {
            let r = polaris::machine::run(&out.program, &cfg)
                .unwrap_or_else(|e| panic!("forced pass {pass} failed: {e}\n{src}"));
            prop_assert_eq!(
                &reference.output, &r.output,
                "forced cycle {:?} pass {} changed output bytes\n--- source ---\n{}\n--- annotated ---\n{}",
                cycle, pass, src, out.annotated_source
            );
        }
    }

    /// Misspeculation storms: a duplicate-entry index array makes every
    /// LRPD attempt fail, driving the adaptive throttle ladder through
    /// speculation → serial hold → probe → re-arm. Output bytes must be
    /// identical on every invocation, and no PARALLEL claim may be
    /// laundered past the traced oracle.
    #[test]
    fn misspeculation_storms_are_invisible_in_output(
        m in 2i64..9,
        uses in proptest::collection::vec(idx_use_strategy(), 1..3),
    ) {
        let src = idx_program_from(IdxFill::Duplicates { m }, &uses);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris())
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let reference = polaris::machine::run(&out.program, &polaris::MachineConfig::serial())
            .unwrap_or_else(|e| panic!("reference run failed: {e}\n{src}"));
        let ctrl = std::sync::Arc::new(polaris::machine::AdaptiveController::new());
        let cfg = polaris::MachineConfig::challenge_8()
            .with_adaptive(std::sync::Arc::clone(&ctrl));
        // Enough invocations to traverse the whole throttle ladder
        // (measure, streak, hold, probe, re-arm) at least once.
        for pass in 0..8 {
            let r = polaris::machine::run(&out.program, &cfg)
                .unwrap_or_else(|e| panic!("storm pass {pass} failed: {e}\n{src}"));
            prop_assert_eq!(
                &reference.output, &r.output,
                "misspeculation storm pass {} changed output bytes\n--- source ---\n{}",
                pass, src
            );
        }
        let report = polaris::machine::audit(&out.program, &out.report)
            .unwrap_or_else(|e| panic!("oracle run failed: {e}\n{src}"));
        prop_assert!(
            !report.has_violations(),
            "oracle observed a race under the adaptive storm\n{:#?}",
            report.violations().collect::<Vec<_>>()
        );
    }
}

/// Steal-heavy adaptation on skewed per-iteration costs: the SPMVT
/// kernel (row cost grows linearly) under forced work-stealing with
/// tiny chunks — maximum steal traffic — on the real threaded backend
/// at several worker counts. Output bytes must match the serial
/// reference under every victim/steal interleaving.
#[test]
fn steal_heavy_skewed_costs_preserve_output_bytes() {
    use polaris::machine::{AdaptiveController, Schedule};
    let b = polaris_benchmarks::skewed();
    let out = polaris::parallelize(b.source, &polaris::PassOptions::polaris()).unwrap();
    let reference =
        polaris::machine::run(&out.program, &polaris::MachineConfig::serial()).unwrap();
    let forced = vec![Some(Schedule::Stealing { chunk: 1 }), Some(Schedule::Stealing { chunk: 3 })];
    for threads in [2usize, 4, 8] {
        let ctrl = std::sync::Arc::new(AdaptiveController::with_forced_cycle(forced.clone()));
        let cfg = polaris::MachineConfig::threaded(threads, Schedule::Static)
            .with_adaptive(ctrl);
        for pass in 0..2 {
            let r = polaris::machine::run(&out.program, &cfg)
                .unwrap_or_else(|e| panic!("x{threads} pass {pass}: {e}"));
            assert_eq!(
                reference.output, r.output,
                "x{threads} pass {pass}: steal-heavy run changed output bytes"
            );
        }
    }
}

/// Deterministic regression shapes that once looked risky.
#[test]
fn known_tricky_shapes_are_sound() {
    let cases = [
        // same-cell accumulation without reduction form
        "do i = 1, 16\n  a(5) = a(5) + b(i)\nend do",
        // write overlapping its own read range through an inner loop
        "do i = 1, 16\n  do j = 1, 4\n    a(i + j) = a(i) + 1.0\n  end do\nend do",
        // coupled strides
        "do i = 1, 16\n  a(2*i) = b(i)\n  a(2*i + 1) = a(2*i) * 0.5\nend do",
        // reduction mixed with an independent write
        "do i = 1, 16\n  s = s + b(i)\n  a(i) = s*0.0 + b(i)\nend do",
        // temp used before definition on one path only
        "do i = 1, 16\n  if (b(i) > 0.2) t = b(i)\n  a(i) = t\nend do",
        // zero-coefficient writes (every iteration hits the same cell)
        "do i = 1, 16\n  a(7) = b(i)\nend do",
    ];
    for body in cases {
        let src = format!(
            "program t\nreal a(64), b(64)\nreal s, t\nt = 0.5\ns = 0.0\n\
             do k = 1, 64\n  a(k) = k*0.5\n  b(k) = 1.0/k\nend do\n{body}\n\
             print *, s, a(1), a(7), a(33)\nend\n"
        );
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris()).unwrap();
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("{e}\n{src}\n{}", out.annotated_source));
    }
}

/// Deterministic index-array shapes with the outcome pinned on both
/// sides: the provable fills must actually be proved (precision), the
/// adversarial ones must not be (soundness), and every one must
/// survive reverse-order execution and the traced oracle.
#[test]
fn index_array_shapes_are_pinned_and_sound() {
    // (fill, expect the props disjointness rule to prove the scatter)
    let cases: [(IdxFill, bool); 5] = [
        (IdxFill::Identity, true),
        (IdxFill::Reverse, true),
        (IdxFill::PrefixSum, true),
        (IdxFill::Duplicates { m: 4 }, false),
        (IdxFill::Clobbered, false),
    ];
    for (fill, provable) in cases {
        let src = idx_program_from(fill, &[IdxUse::Scatter]);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris()).unwrap();
        if provable {
            assert!(
                out.report.dd_props.1 > 0,
                "{fill:?}: the props rule failed to prove a provable scatter\n{src}\n{}",
                out.annotated_source
            );
        } else {
            assert_eq!(
                out.report.dd_props.1, 0,
                "{fill:?}: the props rule proved an aliasing scatter\n{src}\n{}",
                out.annotated_source
            );
        }
        polaris::machine::run_validated(&out.program, &polaris::MachineConfig::challenge_8())
            .unwrap_or_else(|e| panic!("{fill:?}: {e}\n{src}\n{}", out.annotated_source));
        let report = polaris::machine::audit(&out.program, &out.report).unwrap();
        assert!(
            !report.has_violations(),
            "{fill:?}: {:#?}",
            report.violations().collect::<Vec<_>>()
        );
    }
}

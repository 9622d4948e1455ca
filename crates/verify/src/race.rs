//! Static race detector over lowered `RLoop` plans.
//!
//! For every loop the compiler claims PARALLEL, re-derive — independently
//! of the dependence driver that made the claim — that no cross-iteration
//! conflict is possible:
//!
//! * every scalar the body writes must be covered by a privatization,
//!   lastprivate (copy-out) or reduction annotation (the loop's own
//!   control variable, and nested loop control variables, are per-
//!   iteration state of the execution model and exempt) — and a
//!   reduction annotation covers nothing unless the body bears it out:
//!   every access to its target must be the σ of a `σ = σ op β` with the
//!   annotated operator (`reduction_holds`);
//! * every array the body writes must either be covered by a
//!   privatization / speculation / reduction annotation, or its accesses
//!   must be proven iteration-disjoint by the range test, re-run here
//!   over the *lowered* subscripts with the range facts (`!$assert`
//!   conditions, PARAMETER values, enclosing loop headers) re-seeded from
//!   scratch.
//!
//! The verdict per claim is [`RaceVerdict::Clean`] (all writes covered or
//! proven disjoint), [`RaceVerdict::NeedsPrivatization`] (an uncovered
//! write whose only possible conflicts are output/anti — a private copy
//! or renaming would discharge them), or [`RaceVerdict::PotentialRace`]
//! (an uncovered write with reads in flight: a flow dependence cannot be
//! excluded). The verdicts are *conservative*: `Clean` is a proof
//! obligation, the other two are "could not prove" states that the
//! runtime oracle grades into precision misses (see
//! [`crate::agreement`]).

use polaris_core::ddtest::range_test::{InnerLoop, LoopTest, RefSpec};
use polaris_core::ddtest::DdStats;
use polaris_core::idxprop::{self, PropAccess};
use polaris_core::rangeprop::assume_loop_header;
use polaris_ir::expr::{BinOp, Expr, RedOp, UnOp};
use polaris_ir::stmt::{LoopId, StmtKind};
use polaris_ir::symbol::{ArrayProps, SymKind};
use polaris_ir::{Name, Program};
use polaris_machine::lower::{self, Image, Intr, RExpr, RLoop, RRed, RRef, RStmt};
use polaris_machine::MachineError;
use polaris_symbolic::poly::{DivPolicy, Poly};
use polaris_symbolic::{Range, RangeEnv};
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of the static check for one PARALLEL claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceVerdict {
    /// Every cross-iteration-visible write is covered by an annotation or
    /// proven iteration-disjoint.
    Clean,
    /// Uncovered writes remain, but no read of the written storage is in
    /// flight: only output (or discharged anti) conflicts are possible,
    /// which privatization or renaming would clear.
    NeedsPrivatization,
    /// An uncovered write with reads of the same storage: a flow
    /// dependence across iterations cannot be excluded.
    PotentialRace,
}

impl RaceVerdict {
    pub fn as_str(self) -> &'static str {
        match self {
            RaceVerdict::Clean => "clean",
            RaceVerdict::NeedsPrivatization => "needs-privatization",
            RaceVerdict::PotentialRace => "potential-race",
        }
    }

    fn worse(self, other: RaceVerdict) -> RaceVerdict {
        use RaceVerdict::*;
        match (self, other) {
            (PotentialRace, _) | (_, PotentialRace) => PotentialRace,
            (NeedsPrivatization, _) | (_, NeedsPrivatization) => NeedsPrivatization,
            _ => Clean,
        }
    }
}

/// The static verdict for one PARALLEL-claimed loop.
#[derive(Debug, Clone)]
pub struct LoopRace {
    pub loop_id: LoopId,
    pub label: String,
    pub verdict: RaceVerdict,
    /// Why: the first unprovable access for non-clean verdicts, or a
    /// summary of what was discharged for clean ones.
    pub detail: String,
}

/// Verdicts for every PARALLEL claim in the lowered image, in code order.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    pub loops: Vec<LoopRace>,
}

impl RaceReport {
    pub fn parallel_claims(&self) -> usize {
        self.loops.len()
    }

    pub fn count(&self, v: RaceVerdict) -> usize {
        self.loops.iter().filter(|l| l.verdict == v).count()
    }
}

/// Run the static race detector over a compiled program: lower the main
/// unit and check every PARALLEL claim, with range facts seeded from the
/// unit's PARAMETER declarations and `!$assert` conditions.
pub fn analyze(program: &Program) -> Result<RaceReport, MachineError> {
    let image = polaris_machine::lower::lower(program)?;
    let main = program.main().ok_or(MachineError::NoMain)?;
    let mut env = RangeEnv::new();
    for sym in main.symbols.iter() {
        if let SymKind::Parameter(value) = &sym.kind {
            if let Some(p) = Poly::from_expr(value, DivPolicy::Opaque) {
                env.set_fresh(sym.name.clone(), Range::exact(p));
            }
        }
    }
    main.body.walk(&mut |s| {
        if let StmtKind::Assert { cond } = &s.kind {
            env.assume_cond(cond);
        }
    });
    // Index-array properties are re-derived from the IR, NOT read from
    // `Symbol.props`: a corrupted or hand-edited annotation must not be
    // able to launder an unsound PARALLEL claim past the detector.
    let props = idxprop::infer_unit(main).props;
    Ok(check_image(&image, &env, &props))
}

/// Check every PARALLEL claim in an already-lowered image. `facts` holds
/// the loop-invariant range facts (assertions, parameters); scalar
/// assignment facts and enclosing loop headers are accumulated as the
/// walk descends, mirroring the dependence driver's abstract execution.
/// `props` holds independently re-derived index-array properties (pass
/// an empty map to disable the property-based disjointness fallback).
pub fn check_image(
    image: &Image,
    facts: &RangeEnv,
    props: &BTreeMap<Name, ArrayProps>,
) -> RaceReport {
    let mut report = RaceReport::default();
    let mut env = facts.clone();
    walk(&image.code, image, &mut env, props, &mut report);
    report
}

fn walk(
    code: &[RStmt],
    image: &Image,
    env: &mut RangeEnv,
    props: &BTreeMap<Name, ArrayProps>,
    report: &mut RaceReport,
) {
    for s in code {
        match s {
            RStmt::Do(l) => {
                // Facts about the loop variable and anything the body
                // reassigns are stale both inside the loop and after it.
                kill_assigned(std::slice::from_ref(s), image, env);
                let mut body_env = env.clone();
                assume_header(l, image, &mut body_env);
                if l.par.parallel {
                    report.loops.push(check_parallel_loop(l, image, &body_env, props));
                }
                walk(&l.body, image, &mut body_env, props, report);
            }
            RStmt::If(arms, else_body) => {
                for (_, body) in arms {
                    let mut arm_env = env.clone();
                    walk(body, image, &mut arm_env, props, report);
                }
                let mut else_env = env.clone();
                walk(else_body, image, &mut else_env, props, report);
                kill_assigned(std::slice::from_ref(s), image, env);
            }
            RStmt::AssignS(slot, rhs) => {
                let name = &image.scalar_names[*slot];
                env.invalidate(name);
                if let Some(p) =
                    unlower(rhs, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Opaque))
                {
                    if !p.mentions_var(name) {
                        env.set_fresh(name.clone(), Range::exact(p));
                    }
                }
            }
            RStmt::AssignE(slot, _, _) => {
                env.invalidate(&image.shapes[*slot].name);
            }
            _ => {}
        }
    }
}

/// Drop the facts about every scalar slot `code` assigns, loop variables
/// included: the slots are collected first, then killed in one pass.
fn kill_assigned(code: &[RStmt], image: &Image, env: &mut RangeEnv) {
    let mut slots = BTreeSet::new();
    lower::walk(code, &mut |s| match s {
        RStmt::AssignS(slot, _) => {
            slots.insert(*slot);
        }
        RStmt::Do(d) => {
            slots.insert(d.var);
        }
        _ => {}
    });
    env.invalidate_all(slots.into_iter().map(|slot| &*image.scalar_names[slot]));
}

/// Assume a loop header's facts in `env` (mirrors what range propagation
/// feeds the dependence driver). Falls back to invalidating the variable
/// when the bounds cannot be un-lowered.
fn assume_header(l: &RLoop, image: &Image, env: &mut RangeEnv) {
    let var = &image.scalar_names[l.var];
    let init = unlower(&l.init, image);
    let limit = unlower(&l.limit, image);
    let step = l.step.as_ref().map(|s| unlower(s, image));
    match (init, limit, step) {
        (Some(init), Some(limit), None) => {
            assume_loop_header(env, var, &init, &limit, None);
        }
        (Some(init), Some(limit), Some(Some(step))) => {
            assume_loop_header(env, var, &init, &limit, Some(&step));
        }
        _ => env.invalidate(var),
    }
}

/// One array access inside the checked loop's body.
struct ArrAccess {
    write: bool,
    /// Un-lowered per-dimension subscripts (`None`: contains something
    /// outside the symbolic fragment — intrinsics, reals — so every pair
    /// involving this access is unprovable).
    subs: Option<Vec<Expr>>,
    /// Nested loops enclosing the access, outermost first (`None`: a
    /// bound or step could not be modeled).
    inner: Option<Vec<InnerLoop>>,
}

/// Everything the body of one checked loop touches.
#[derive(Default)]
struct BodyAccesses {
    scalar_reads: BTreeSet<usize>,
    scalar_writes: BTreeSet<usize>,
    /// Control variables: the checked loop's own var plus every nested
    /// loop's var (per-iteration state, invisible to the oracle).
    control: BTreeSet<usize>,
    /// (array slot, access) pairs in body order.
    arrays: Vec<(usize, ArrAccess)>,
}

fn check_parallel_loop(
    l: &RLoop,
    image: &Image,
    env: &RangeEnv,
    props: &BTreeMap<Name, ArrayProps>,
) -> LoopRace {
    let mut acc = BodyAccesses::default();
    acc.control.insert(l.var);
    collect(&l.body, image, &mut Vec::new(), &mut Defs::default(), true, &mut acc);

    let name = |slot: usize| image.scalar_names[slot].clone();
    // A REDUCTION annotation covers its target only where the lowered
    // body bears it out; a forged or stale one covers nothing.
    let reduced: Vec<&RRed> =
        l.par.reductions.iter().filter(|r| reduction_holds(&l.body, r)).collect();
    let covered_scalars: BTreeSet<usize> = l
        .par
        .private_scalars
        .iter()
        .chain(l.par.copy_out_scalars.iter())
        .copied()
        .chain(reduced.iter().filter_map(|r| match r.target {
            RRef::Scalar(s) => Some(s),
            RRef::Array(_) => None,
        }))
        .collect();
    let covered_arrays: BTreeSet<usize> = l
        .par
        .private_arrays
        .iter()
        .chain(l.par.spec_arrays.iter())
        .copied()
        .chain(reduced.iter().filter_map(|r| match r.target {
            RRef::Array(a) => Some(a),
            RRef::Scalar(_) => None,
        }))
        .collect();

    let mut verdict = RaceVerdict::Clean;
    let mut detail = String::new();
    let flag = |v: RaceVerdict, why: String, verdict: &mut RaceVerdict, detail: &mut String| {
        if detail.is_empty() || (v == RaceVerdict::PotentialRace && *verdict != v) {
            *detail = why;
        }
        *verdict = verdict.worse(v);
    };

    // Scalars: every written slot must be covered or control state.
    for &slot in &acc.scalar_writes {
        if acc.control.contains(&slot) || covered_scalars.contains(&slot) {
            continue;
        }
        if acc.scalar_reads.contains(&slot) {
            flag(
                RaceVerdict::PotentialRace,
                format!(
                    "scalar `{}` is read and written across iterations with no \
                     privatization or reduction annotation",
                    name(slot)
                ),
                &mut verdict,
                &mut detail,
            );
        } else {
            flag(
                RaceVerdict::NeedsPrivatization,
                format!(
                    "scalar `{}` is written every iteration with no privatization \
                     (cross-iteration output dependence)",
                    name(slot)
                ),
                &mut verdict,
                &mut detail,
            );
        }
    }

    // Arrays: uncovered writes must be proven iteration-disjoint against
    // every access (including themselves) of the same array.
    let step = l
        .step
        .as_ref()
        .map(|s| unlower(s, image).and_then(|e| e.simplified().as_int()))
        .unwrap_or(Some(1));
    let written: BTreeSet<usize> =
        acc.arrays.iter().filter(|(_, a)| a.write).map(|(slot, _)| *slot).collect();
    // A subscript mentioning a body-written scalar (other than control
    // variables) is not iteration-invariant; the range test would treat
    // it as a fixed symbol, so such accesses must abstain.
    let varying: BTreeSet<Name> = acc
        .scalar_writes
        .iter()
        .filter(|s| !acc.control.contains(s))
        .map(|&s| name(s))
        .collect();
    let written_names: BTreeSet<Name> =
        written.iter().map(|&s| image.shapes[s].name.clone()).collect();
    for &slot in &written {
        if covered_arrays.contains(&slot) {
            continue;
        }
        let arr = &image.shapes[slot].name;
        let accesses: Vec<&ArrAccess> =
            acc.arrays.iter().filter(|(s, _)| *s == slot).map(|(_, a)| a).collect();
        let has_reads = accesses.iter().any(|a| !a.write);
        let proven = step.is_some_and(|step| {
            all_pairs_disjoint(l, image, &accesses, step, &varying, env)
                || disjoint_via_props(
                    l, image, &accesses, step, &varying, env, props, &written_names,
                )
        });
        if !proven {
            if has_reads {
                flag(
                    RaceVerdict::PotentialRace,
                    format!(
                        "array `{arr}` is read and written without coverage and \
                         iteration-disjointness of its subscripts could not be proven"
                    ),
                    &mut verdict,
                    &mut detail,
                );
            } else {
                flag(
                    RaceVerdict::NeedsPrivatization,
                    format!(
                        "array `{arr}` is written without coverage and write \
                         disjointness could not be proven (output dependence at worst)"
                    ),
                    &mut verdict,
                    &mut detail,
                );
            }
        }
    }

    if verdict == RaceVerdict::Clean {
        detail = "all cross-iteration-visible writes covered or proven disjoint".into();
    }
    LoopRace { loop_id: l.loop_id, label: l.label.clone(), verdict, detail }
}

/// Is every access to `red`'s target in `code` the σ of a statement
/// `σ = σ op β` with the annotated operator, where neither β nor σ's
/// subscripts read the target? (The paper's rule: "not referenced
/// elsewhere in the loop outside of other reduction statements" — and a
/// read inside *another* reduction's operand is such a reference.)
fn reduction_holds(code: &[RStmt], red: &RRed) -> bool {
    let clear = |e: &RExpr| !e.any(&mut |x| is_target(x, red.target));
    code.iter().all(|s| match s {
        RStmt::AssignS(slot, rhs) if red.target == RRef::Scalar(*slot) => {
            is_update(rhs, &RExpr::Load(*slot), red)
        }
        RStmt::AssignE(slot, subs, rhs) if red.target == RRef::Array(*slot) => {
            subs.iter().all(clear) && is_update(rhs, &RExpr::Elem(*slot, subs.clone()), red)
        }
        RStmt::AssignS(_, rhs) => clear(rhs),
        RStmt::AssignE(_, subs, rhs) => subs.iter().all(clear) && clear(rhs),
        RStmt::Do(d) => {
            red.target != RRef::Scalar(d.var)
                && [Some(&d.init), Some(&d.limit), d.step.as_ref()].into_iter().flatten().all(clear)
                && reduction_holds(&d.body, red)
        }
        RStmt::If(arms, else_body) => {
            arms.iter().all(|(cond, body)| clear(cond) && reduction_holds(body, red))
                && reduction_holds(else_body, red)
        }
        RStmt::Print(items) => items.iter().all(clear),
        RStmt::Stop => true,
    })
}

/// Is `rhs` an `op`-chain holding `sigma` exactly once, on the
/// accumulating side (`σ - β` is a sum, `β - σ` is not), with no other
/// operand reading the target?
fn is_update(rhs: &RExpr, sigma: &RExpr, red: &RRed) -> bool {
    let mut sigmas = 0;
    operands(rhs, red.op, true, &mut |e, positive| {
        if e == sigma {
            sigmas += 1;
            positive
        } else {
            !e.any(&mut |x| is_target(x, red.target))
        }
    }) && sigmas == 1
}

/// Apply `f` to each operand of the `op`-chain at the root of `e` with
/// its sign (`a + b - c` gives a, b, -c); false as soon as `f` is.
fn operands(
    e: &RExpr,
    op: RedOp,
    positive: bool,
    f: &mut dyn FnMut(&RExpr, bool) -> bool,
) -> bool {
    match (op, e) {
        (RedOp::Sum, RExpr::Bin(BinOp::Add, a, b))
        | (RedOp::Product, RExpr::Bin(BinOp::Mul, a, b)) => {
            operands(a, op, positive, f) && operands(b, op, positive, f)
        }
        (RedOp::Sum, RExpr::Bin(BinOp::Sub, a, b)) => {
            operands(a, op, positive, f) && operands(b, op, !positive, f)
        }
        (RedOp::Sum, RExpr::Un(UnOp::Neg, a)) => operands(a, op, !positive, f),
        (RedOp::Max, RExpr::Intrin(Intr::Max, args))
        | (RedOp::Min, RExpr::Intrin(Intr::Min, args)) => {
            args.iter().all(|a| operands(a, op, positive, f))
        }
        _ => f(e, positive),
    }
}

/// Is `e` itself a load of `target` (not one under it)?
fn is_target(e: &RExpr, target: RRef) -> bool {
    match e {
        RExpr::Load(slot) => target == RRef::Scalar(*slot),
        RExpr::Elem(slot, _) => target == RRef::Array(*slot),
        _ => false,
    }
}

/// Prove every (write, access) pair of one array iteration-disjoint at
/// the checked loop via the range test.
fn all_pairs_disjoint(
    l: &RLoop,
    image: &Image,
    accesses: &[&ArrAccess],
    step: i64,
    varying: &BTreeSet<Name>,
    env: &RangeEnv,
) -> bool {
    let var = image.scalar_names[l.var].clone();
    let (Some(lo), Some(hi)) = (
        unlower(&l.init, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Exact)),
        unlower(&l.limit, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Exact)),
    ) else {
        return false;
    };
    let self_loop = InnerLoop { var: var.clone(), lo, hi, step };
    let stats = DdStats::new();
    let spec_of = |a: &ArrAccess| -> Option<RefSpec> {
        let subs = a.subs.as_ref()?;
        let inner = a.inner.as_ref()?;
        let mut polys = Vec::with_capacity(subs.len());
        for e in subs {
            if varying.iter().any(|v| e.references_var(v)) {
                return None;
            }
            polys.push(Poly::from_expr(e, DivPolicy::Exact)?);
        }
        for il in inner {
            if varying.contains(&il.var) {
                return None;
            }
        }
        Some(RefSpec { subs: polys, inner: inner.clone() })
    };
    let specs: Option<Vec<RefSpec>> = accesses.iter().map(|a| spec_of(a)).collect();
    let Some(specs) = specs else { return false };
    let mut range_test = LoopTest::new(&var, step, &self_loop, env, &stats, true);
    for (i, a) in accesses.iter().enumerate() {
        for (j, b) in accesses.iter().enumerate() {
            if j < i || (!a.write && !b.write) {
                continue;
            }
            if specs[i].subs.len() != specs[j].subs.len() {
                return false;
            }
            if !range_test.no_carried_dependence(&specs[i], &specs[j]) {
                return false;
            }
        }
    }
    true
}

/// Fallback for subscripted subscripts the range test abstains on: prove
/// the pairs disjoint from independently re-derived index-array
/// properties (`A(IDX(I))` with `IDX` injective over a domain containing
/// the argument's image). Arrays written inside the checked loop answer
/// no properties — their fill-time facts would be stale mid-loop.
#[allow(clippy::too_many_arguments)]
fn disjoint_via_props(
    l: &RLoop,
    image: &Image,
    accesses: &[&ArrAccess],
    step: i64,
    varying: &BTreeSet<Name>,
    env: &RangeEnv,
    props: &BTreeMap<Name, ArrayProps>,
    written_names: &BTreeSet<Name>,
) -> bool {
    let var = image.scalar_names[l.var].clone();
    let (Some(lo), Some(hi)) = (
        unlower(&l.init, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Exact)),
        unlower(&l.limit, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Exact)),
    ) else {
        return false;
    };
    let self_loop = InnerLoop { var, lo, hi, step };
    let mut recs = Vec::with_capacity(accesses.len());
    for a in accesses {
        let (Some(subs), Some(inner)) = (a.subs.as_ref(), a.inner.as_ref()) else {
            return false;
        };
        recs.push(PropAccess {
            write: a.write,
            subs,
            ctx_vars: inner.iter().map(|il| il.var.clone()).collect(),
        });
    }
    let lookup = |n: &str| {
        if written_names.contains(n) {
            None
        } else {
            props.get(n).cloned()
        }
    };
    let stats = DdStats::new();
    idxprop::pairs_disjoint_via_props(&recs, &self_loop, varying, env, &lookup, &stats)
}

/// In-iteration scalar reaching definitions, mirroring the dependence
/// driver's `resolve_scalar_subscripts`: a subscript mentioning `X` where
/// the body opens with an unconditional `X = f(I)` is analyzed with `f(I)`
/// substituted in. Only *top-level, unconditional* definitions whose RHS
/// reads no array qualify; any deeper or self-referential write kills the
/// definition (it no longer dominates later uses).
#[derive(Default)]
struct Defs(std::collections::BTreeMap<usize, Expr>);

impl Defs {
    fn resolve(&self, e: &Expr, image: &Image) -> Expr {
        let mut cur = e.clone();
        for _ in 0..2 {
            let mut changed = false;
            for (&slot, rhs) in &self.0 {
                let name = &image.scalar_names[slot];
                if cur.references_var(name) {
                    cur = cur.substitute_var(name, rhs);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        cur
    }
}

/// Collect every access in `code`, carrying the chain of nested loops
/// (`inner`) enclosing the current position. `top` is true only for the
/// checked loop's own statement list (where a definition dominates
/// everything after it).
fn collect(
    code: &[RStmt],
    image: &Image,
    inner: &mut Vec<Option<InnerLoop>>,
    defs: &mut Defs,
    top: bool,
    acc: &mut BodyAccesses,
) {
    for s in code {
        match s {
            RStmt::AssignS(slot, rhs) => {
                acc.scalar_writes.insert(*slot);
                collect_expr(rhs, image, inner, defs, acc);
                let dominating_def = top
                    && unlower(rhs, image).is_some_and(|e| {
                        !expr_has_index(&e) && !e.references_var(&image.scalar_names[*slot])
                    });
                if dominating_def {
                    defs.0.insert(*slot, unlower(rhs, image).unwrap());
                } else {
                    defs.0.remove(slot);
                }
            }
            RStmt::AssignE(slot, subs, rhs) => {
                for e in subs {
                    collect_expr(e, image, inner, defs, acc);
                }
                collect_expr(rhs, image, inner, defs, acc);
                acc.arrays.push((*slot, arr_access(true, subs, image, inner, defs)));
            }
            RStmt::Do(d) => {
                acc.control.insert(d.var);
                acc.scalar_writes.insert(d.var);
                defs.0.remove(&d.var);
                collect_expr(&d.init, image, inner, defs, acc);
                collect_expr(&d.limit, image, inner, defs, acc);
                if let Some(st) = &d.step {
                    collect_expr(st, image, inner, defs, acc);
                }
                inner.push(inner_loop_of(d, image));
                collect(&d.body, image, inner, defs, false, acc);
                inner.pop();
            }
            RStmt::If(arms, else_body) => {
                for (cond, body) in arms {
                    collect_expr(cond, image, inner, defs, acc);
                    collect(body, image, inner, defs, false, acc);
                }
                collect(else_body, image, inner, defs, false, acc);
            }
            RStmt::Print(items) => {
                for e in items {
                    collect_expr(e, image, inner, defs, acc);
                }
            }
            RStmt::Stop => {}
        }
    }
}

/// Model a nested loop for the range test; `None` when a bound or step
/// is outside the symbolic fragment.
fn inner_loop_of(d: &RLoop, image: &Image) -> Option<InnerLoop> {
    let lo = unlower(&d.init, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Exact))?;
    let hi = unlower(&d.limit, image).and_then(|e| Poly::from_expr(&e, DivPolicy::Exact))?;
    let step = match &d.step {
        None => 1,
        Some(s) => unlower(s, image).and_then(|e| e.simplified().as_int())?,
    };
    Some(InnerLoop { var: image.scalar_names[d.var].clone(), lo, hi, step })
}

fn arr_access(
    write: bool,
    subs: &[RExpr],
    image: &Image,
    inner: &[Option<InnerLoop>],
    defs: &Defs,
) -> ArrAccess {
    ArrAccess {
        write,
        subs: subs
            .iter()
            .map(|e| unlower(e, image).map(|e| defs.resolve(&e, image).simplified()))
            .collect(),
        inner: inner.iter().cloned().collect(),
    }
}

fn collect_expr(
    e: &RExpr,
    image: &Image,
    inner: &[Option<InnerLoop>],
    defs: &Defs,
    acc: &mut BodyAccesses,
) {
    match e {
        RExpr::Load(slot) => {
            acc.scalar_reads.insert(*slot);
        }
        RExpr::Elem(slot, subs) => {
            for s in subs {
                collect_expr(s, image, inner, defs, acc);
            }
            acc.arrays.push((*slot, arr_access(false, subs, image, inner, defs)));
        }
        RExpr::Un(_, a) => collect_expr(a, image, inner, defs, acc),
        RExpr::Bin(_, a, b) => {
            collect_expr(a, image, inner, defs, acc);
            collect_expr(b, image, inner, defs, acc);
        }
        RExpr::Intrin(_, args) => {
            for a in args {
                collect_expr(a, image, inner, defs, acc);
            }
        }
        RExpr::I(_) | RExpr::R(_) | RExpr::B(_) | RExpr::Str(_) => {}
    }
}

/// Does `e` contain any array element reference?
fn expr_has_index(e: &Expr) -> bool {
    let mut found = false;
    e.for_each(&mut |n| {
        if matches!(n, Expr::Index { .. }) {
            found = true;
        }
    });
    found
}

/// Un-lower a lowered expression back to source-level [`Expr`] form so
/// the symbolic machinery can consume it. Intrinsics and non-integer
/// literals fall outside the fragment (`None`).
fn unlower(e: &RExpr, image: &Image) -> Option<Expr> {
    Some(match e {
        RExpr::I(v) => Expr::Int(*v),
        RExpr::Load(slot) => Expr::Var(image.scalar_names[*slot].clone()),
        RExpr::Elem(slot, subs) => Expr::Index {
            array: image.shapes[*slot].name.clone(),
            subs: subs.iter().map(|s| unlower(s, image)).collect::<Option<Vec<_>>>()?,
        },
        RExpr::Un(UnOp::Neg, a) => Expr::Un { op: UnOp::Neg, arg: Box::new(unlower(a, image)?) },
        RExpr::Bin(op, a, b) => Expr::Bin {
            op: *op,
            lhs: Box::new(unlower(a, image)?),
            rhs: Box::new(unlower(b, image)?),
        },
        RExpr::R(_) | RExpr::B(_) | RExpr::Str(_) | RExpr::Un(_, _) | RExpr::Intrin(_, _) => {
            return None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_core::{compile, PassOptions};

    fn race_of(src: &str) -> RaceReport {
        let mut p = polaris_ir::parse(src).unwrap();
        compile(&mut p, &PassOptions::polaris()).unwrap();
        analyze(&p).unwrap()
    }

    /// Parse only — hand `!$polaris` annotations survive (the compile
    /// pipeline would overwrite them with its own analysis).
    fn race_raw(src: &str) -> RaceReport {
        let p = polaris_ir::parse(src).unwrap();
        analyze(&p).unwrap()
    }

    #[test]
    fn identity_doall_is_clean() {
        let r = race_of(
            "program t\nreal a(100)\ndo i = 1, 100\n  a(i) = 1.0\nend do\nprint *, a(1)\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::Clean, "{}", r.loops[0].detail);
    }

    #[test]
    fn reduction_and_privatized_scalar_are_covered() {
        let r = race_of(
            "program t\nreal a(100), s\ns = 0.0\ndo i = 1, 100\n  t = a(i) * 2.0\n  s = s + t\nend do\nprint *, s\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::Clean, "{}", r.loops[0].detail);
    }

    #[test]
    fn hand_annotated_uncovered_scalar_is_flagged() {
        // A hand directive claims DOALL while `s` carries a recurrence:
        // the detector must not trust the claim.
        let r = race_raw(
            "program t\nreal a(100), s\ns = 0.0\n!$polaris doall\ndo i = 1, 100\n  s = s + a(i)\nend do\nprint *, s\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::PotentialRace, "{}", r.loops[0].detail);
        assert!(r.loops[0].detail.contains("`S`"), "{}", r.loops[0].detail);
    }

    #[test]
    fn hand_annotated_write_only_scalar_needs_privatization() {
        let r = race_raw(
            "program t\nreal a(100)\n!$polaris doall\ndo i = 1, 100\n  t = 1.0\n  a(i) = t\nend do\nprint *, a(1)\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        // T is written then read — read-covered → potential race unless
        // annotated; a write-never-read scalar is rarer, so accept either
        // non-clean verdict here but require non-clean.
        assert_ne!(r.loops[0].verdict, RaceVerdict::Clean, "{}", r.loops[0].detail);
    }

    #[test]
    fn hand_annotated_overlapping_array_write_is_flagged() {
        let r = race_raw(
            "program t\nreal a(101)\n!$polaris doall\ndo i = 1, 100\n  a(i) = a(i + 1)\nend do\nprint *, a(1)\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::PotentialRace, "{}", r.loops[0].detail);
        assert!(r.loops[0].detail.contains("`A`"), "{}", r.loops[0].detail);
    }

    #[test]
    fn hand_annotated_nest_whose_inner_bound_is_the_tested_index_is_flagged() {
        // `DO J = I, I` reads A(I+1), which the next iteration of I writes.
        // Eliminated tested-index-first, J's bound brought I back and the
        // whole footprints [I, I] and [I+1, I+1] looked disjoint.
        let r = race_raw(
            "program t\nreal a(10)\n!$polaris doall\ndo i = 1, 8\n  do j = i, i\n\
             \x20   a(j) = a(j + 1) + 1.0\n  end do\nend do\nprint *, a(1)\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::PotentialRace, "{}", r.loops[0].detail);
        assert!(r.loops[0].detail.contains("`A`"), "{}", r.loops[0].detail);
    }

    #[test]
    fn hand_annotated_write_only_array_overlap_needs_privatization() {
        // Every iteration writes the same element, never reads it inside
        // the loop: output dependence only.
        let r = race_raw(
            "program t\nreal a(100)\n!$polaris doall\ndo i = 1, 100\n  a(1) = 0.0\nend do\nprint *, a(1)\nend\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::NeedsPrivatization, "{}", r.loops[0].detail);
    }

    #[test]
    fn scatter_through_injective_fill_is_clean() {
        // The compiler proves the scatter PARALLEL from IDX's inferred
        // injectivity; the detector must reach the same verdict from its
        // own independent derivation of the property.
        let r = race_of(
            "program t\n\
             integer idx(100)\n\
             real a(100), b(100)\n\
             do i = 1, 100\n\
             \x20 idx(i) = i\n\
             end do\n\
             do i = 1, 100\n\
             \x20 a(idx(i)) = b(i) + 1.0\n\
             end do\n\
             print *, a(1)\n\
             end\n",
        );
        assert_eq!(r.parallel_claims(), 2, "{:?}", r.loops);
        for l in &r.loops {
            assert_eq!(l.verdict, RaceVerdict::Clean, "{}: {}", l.label, l.detail);
        }
    }

    #[test]
    fn hand_annotated_injective_scatter_is_clean_without_compile() {
        // No compile pipeline ran, so Symbol.props is empty: the verdict
        // can only come from the detector's own inference over the IR.
        let r = race_raw(
            "program t\n\
             integer idx(100)\n\
             real a(100), b(100)\n\
             do i = 1, 100\n\
             \x20 idx(i) = i\n\
             end do\n\
             !$polaris doall\n\
             do i = 1, 100\n\
             \x20 a(idx(i)) = b(i) + 1.0\n\
             end do\n\
             print *, a(1)\n\
             end\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::Clean, "{}", r.loops[0].detail);
    }

    #[test]
    fn hand_annotated_non_injective_scatter_stays_flagged() {
        // MOD fills are bounded but not injective: the property rule must
        // refuse, and the hand DOALL claim must be exposed as a race.
        let r = race_raw(
            "program t\n\
             integer bin(100)\n\
             real h(8)\n\
             do i = 1, 100\n\
             \x20 bin(i) = mod(i, 8) + 1\n\
             end do\n\
             !$polaris doall\n\
             do i = 1, 100\n\
             \x20 h(bin(i)) = h(bin(i)) + 1.0\n\
             end do\n\
             print *, h(1)\n\
             end\n",
        );
        assert_eq!(r.parallel_claims(), 1, "{:?}", r.loops);
        assert_eq!(r.loops[0].verdict, RaceVerdict::PotentialRace, "{}", r.loops[0].detail);
        assert!(r.loops[0].detail.contains("`H`"), "{}", r.loops[0].detail);
    }

    #[test]
    fn trfd_nest_is_clean_from_reseeded_facts() {
        // The paper's worked example: the closed-form subscript needs the
        // `!$assert (n >= 1)` fact plus the loop headers, all re-derived
        // here from scratch.
        let r = race_of(
            "program trfd\n\
             real a(100000)\n\
             integer x, x0\n\
             !$assert (n >= 1)\n\
             x0 = 0\n\
             do i = 0, m - 1\n\
             \x20 x = x0\n\
             \x20 do j = 0, n - 1\n\
             \x20   do k = 0, j - 1\n\
             \x20     x = x + 1\n\
             \x20     a(x) = 1.0\n\
             \x20   end do\n\
             \x20 end do\n\
             \x20 x0 = x0 + (n**2 + n)/2\n\
             end do\n\
             end\n",
        );
        assert!(r.parallel_claims() >= 1, "{:?}", r.loops);
        for l in &r.loops {
            assert_eq!(l.verdict, RaceVerdict::Clean, "{}: {}", l.label, l.detail);
        }
    }
}

//! Index-array property analysis (`idxprop`) — subscripted-subscript
//! parallelization in the style of Bhosale & Eigenmann.
//!
//! The classic dependence tests abstain on `A(IDX(I))`: the subscript is
//! an opaque array read, so the range test cannot order two iterations'
//! accesses and the loop falls to the run-time (LRPD) test or stays
//! serial. But most index arrays in irregular codes are *built* by
//! stereotyped fill loops whose shape proves strong content properties:
//!
//! * **affine fills** — `DO I = L, H: IDX(I) = c*I + b` (identity fills
//!   included) store strictly monotone, injective values, a permutation
//!   of a contiguous range when `|c| = 1`;
//! * **prefix-sum fills / strictly-increasing accumulations** —
//!   `IDX(L-1) = base; DO I = L, H: IDX(I) = IDX(I-1) + e` with `e >= 1`
//!   provable by range analysis store strictly increasing (hence
//!   injective) values — the CSR `rowptr` idiom;
//! * **general fills** — any single-statement fill whose RHS the range
//!   machinery can bound yields whole-array *value bounds* (`MOD`-based
//!   binning, for example), the fact the §3.4 region analysis consumes.
//!
//! This pass recognizes those shapes per unit (inlining has already made
//! that interprocedural), records the proven facts as [`ArrayProps`]
//! annotations on the array's symbol, and exposes a pair-disjointness
//! rule ([`pairs_disjoint_via_props`]) the dependence driver invokes when
//! the classic tests fail: a scatter `A(IDX(f(I)))` with `IDX` injective
//! over its fill domain, `f` affine with nonzero slope, and `f`'s image
//! inside that domain touches distinct elements in distinct iterations —
//! the loop is a DOALL, no shadow arrays needed. Loops where no property
//! is provable still fall through to LRPD exactly as before.
//!
//! Every granted fact is a proof, never a heuristic: the recognizers
//! require the fill to be the array's *only* writes in the unit, the
//! disjointness rule re-checks domain containment with the caller's
//! range environment, and the adversarial generators in
//! `tests/soundness_prop.rs` cross-examine the claims against the
//! dynamic dependence oracle.

use crate::ddtest::range_test::InnerLoop;
use crate::ddtest::DdStats;
use crate::iterview::write_pairs;
use crate::rangeprop;
use polaris_ir::expr::Expr;
use polaris_ir::stmt::{DoLoop, Stmt, StmtKind};
use polaris_ir::symbol::SymKind;
use polaris_ir::types::DataType;
use polaris_ir::{ArrayProps, Name, ProgramUnit};
use polaris_symbolic::bounds::{min_max_over, prove_ge, prove_le};
use polaris_symbolic::poly::{Atom, DivPolicy, Poly};
use polaris_symbolic::{Range, RangeEnv};
use std::collections::{BTreeMap, BTreeSet};

/// What the idxprop stage proved, mirrored into the compile report and
/// the observability counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdxPropReport {
    /// Candidate index arrays inspected (rank-1 INTEGER arrays that are
    /// written somewhere in their unit).
    pub arrays_analyzed: usize,
    /// Arrays that earned at least one property.
    pub proved: usize,
    /// Breakdown (an array may count in several).
    pub injective: usize,
    pub monotone: usize,
    pub bounded: usize,
    pub permutations: usize,
}

impl IdxPropReport {
    fn absorb(&mut self, p: &ArrayProps) {
        self.proved += 1;
        if p.injective {
            self.injective += 1;
        }
        if p.monotone_inc || p.monotone_dec {
            self.monotone += 1;
        }
        if p.value_lo.is_some() || p.value_hi.is_some() {
            self.bounded += 1;
        }
        if p.permutation {
            self.permutations += 1;
        }
    }
}

/// Stage entry point: infer properties for `unit`, annotate the winning
/// arrays' symbols and count them in `rep`. Idempotent — stale
/// annotations from a prior run are cleared first, so pipeline rollback +
/// re-run stays exact.
pub(crate) fn annotate_unit(unit: &mut ProgramUnit, rep: &mut IdxPropReport) {
    for name in unit.symbols.iter().map(|s| s.name.clone()).collect::<Vec<_>>() {
        if let Some(sym) = unit.symbols.get_mut(&name) {
            sym.props = None;
        }
    }
    let inferred = infer_unit(unit);
    rep.arrays_analyzed += inferred.analyzed;
    for (name, props) in inferred.props {
        rep.absorb(&props);
        if let Some(sym) = unit.symbols.get_mut(&name) {
            sym.props = Some(props);
        }
    }
}

/// Inference result for one unit (also used directly by the static race
/// detector, which re-derives the facts from the IR rather than trusting
/// the compiler's annotations).
#[derive(Debug, Default)]
pub struct Inference {
    /// Candidate arrays inspected.
    pub(crate) analyzed: usize,
    /// Arrays with at least one proven property.
    pub props: BTreeMap<Name, ArrayProps>,
}

/// Run the recognizers over one unit's body.
pub fn infer_unit(unit: &ProgramUnit) -> Inference {
    let mut inf = Inference::default();
    let writes = write_counts(unit);
    let candidates: BTreeSet<Name> = unit
        .symbols
        .iter()
        .filter(|s| {
            s.ty == DataType::Integer
                && matches!(&s.kind, SymKind::Array(dims) if dims.len() == 1)
                && writes.contains_key(&s.name)
        })
        .map(|s| s.name.clone())
        .collect();
    inf.analyzed = candidates.len();
    if candidates.is_empty() {
        return inf;
    }
    let env = unit_env(unit);
    let top = &unit.body.0;
    for (t, s) in top.iter().enumerate() {
        let StmtKind::Do(d) = &s.kind else { continue };
        if d.body.0.len() != 1 {
            continue;
        }
        let StmtKind::Assign { lhs, rhs, .. } = &d.body.0[0].kind else { continue };
        let name = lhs.name().clone();
        if !candidates.contains(&name) || inf.props.contains_key(&name) {
            continue;
        }
        let [sub] = lhs.subs() else { continue };
        if d.step_expr().simplified().as_int() != Some(1) {
            continue;
        }
        let p = if is_prefix_rhs(&name, rhs) {
            // Prefix-sum fill: needs the base write plus this loop to be
            // the array's only writes in the unit.
            if writes.get(&name) != Some(&2) {
                continue;
            }
            recognize_prefix_fill(&name, d, sub, rhs, &top[..t], &env)
        } else {
            // Direct fill: this statement must be the only write.
            if writes.get(&name) != Some(&1) {
                continue;
            }
            recognize_direct_fill(&name, d, sub, rhs, &env)
        };
        if let Some(p) = p.filter(|p| p.any()) {
            inf.props.insert(name, p);
        }
    }
    inf
}

/// Writes per array over the whole unit: assignments through a
/// subscript, plus a conservative count for arrays passed to CALLs
/// (callees may write their arguments).
fn write_counts(unit: &ProgramUnit) -> BTreeMap<Name, usize> {
    let mut out: BTreeMap<Name, usize> = BTreeMap::new();
    unit.body.walk(&mut |s: &Stmt| match &s.kind {
        StmtKind::Assign { lhs, .. } if !lhs.subs().is_empty() => {
            *out.entry(lhs.name().clone()).or_default() += 1;
        }
        StmtKind::Call { args, .. } => {
            for a in args {
                for arr in a.arrays() {
                    *out.entry(arr).or_default() += 100; // poison: never a fill
                }
                if let Expr::Var(n) = a {
                    *out.entry(n.clone()).or_default() += 100;
                }
            }
        }
        _ => {}
    });
    out
}

/// Loop-invariant facts: PARAMETER values and every `!$assert`
/// condition of the unit, wherever it stands.
fn unit_env(unit: &ProgramUnit) -> RangeEnv {
    let mut env = RangeEnv::new();
    rangeprop::seed_parameters(unit, &mut env);
    unit.body.walk(&mut |s: &Stmt| {
        if matches!(s.kind, StmtKind::Assert { .. }) {
            rangeprop::step_over(&mut env, s);
        }
    });
    env
}

/// Is `rhs` of the form `IDX(..) + e` / `e + IDX(..)` for the array
/// being filled (the prefix-sum shape)?
fn is_prefix_rhs(name: &str, rhs: &Expr) -> bool {
    prefix_parts(name, rhs).is_some()
}

fn prefix_parts<'a>(name: &str, rhs: &'a Expr) -> Option<(&'a [Expr], Expr)> {
    // Flatten the additive spine (`+` is left-associated by the parser,
    // so `IDX(I-1) + A + B` nests the recurrence read).
    fn addends<'b>(e: &'b Expr, out: &mut Vec<&'b Expr>) {
        match e {
            Expr::Bin { op: polaris_ir::expr::BinOp::Add, lhs, rhs } => {
                addends(lhs, out);
                addends(rhs, out);
            }
            _ => out.push(e),
        }
    }
    let mut terms = Vec::new();
    addends(rhs, &mut terms);
    let mut subs: Option<&[Expr]> = None;
    let mut rest: Vec<&Expr> = Vec::new();
    for t in terms {
        match t {
            Expr::Index { array, subs: s } if array == name && subs.is_none() => {
                subs = Some(s.as_slice());
            }
            _ if t.references(name) => return None,
            _ => rest.push(t),
        }
    }
    let subs = subs?;
    let e = rest
        .into_iter()
        .cloned()
        .reduce(|a, b| Expr::Bin {
            op: polaris_ir::expr::BinOp::Add,
            lhs: Box::new(a),
            rhs: Box::new(b),
        })?;
    Some((subs, e))
}

/// `DO I = L, H: IDX(I + k) = rhs` where the RHS does not read `IDX`.
/// Affine RHS with constant slope and intercept proves the full strict
/// lattice; any other boundable RHS proves value bounds only.
fn recognize_direct_fill(
    name: &str,
    d: &DoLoop,
    sub: &Expr,
    rhs: &Expr,
    env: &RangeEnv,
) -> Option<ArrayProps> {
    if rhs.references(name) {
        return None;
    }
    let (init, limit) = (
        Poly::from_expr(&d.init, DivPolicy::Exact)?,
        Poly::from_expr(&d.limit, DivPolicy::Exact)?,
    );
    let offset = position_offset(sub, &d.var)?;
    let dom_lo = init.checked_add(&offset)?;
    let dom_hi = limit.checked_add(&offset)?;
    let mut props = ArrayProps::over(dom_lo.to_expr(), dom_hi.to_expr());

    let affine = Poly::from_expr(rhs, DivPolicy::Exact)
        .filter(|p| !p.var_hidden_in_opaque(&d.var))
        .and_then(|p| {
            let parts = p.by_powers_of(&d.var)?;
            if parts.len() != 2 {
                return None;
            }
            let c = parts[1].as_constant()?;
            let b = parts[0].clone();
            if c.is_zero() || b.mentions_var(&d.var) || b.as_constant().is_none() {
                return None;
            }
            Some((c, b))
        });
    if let Some((c, b)) = affine {
        // Value at position p (= i + k) is c*(p - k) + b: strictly
        // monotone in the position with slope c, injective, and a
        // permutation of a contiguous range when |c| = 1.
        let at_init = init.checked_scale(c)?.checked_add(&b)?;
        let at_limit = limit.checked_scale(c)?.checked_add(&b)?;
        let inc = c.signum() > 0;
        props.monotone_inc = inc;
        props.monotone_dec = !inc;
        props.strict = true;
        props.injective = true;
        props.permutation =
            c == polaris_symbolic::Rat::int(1) || c == polaris_symbolic::Rat::int(-1);
        let (lo, hi) = if inc { (at_init, at_limit) } else { (at_limit, at_init) };
        props.value_lo = Some(lo.to_expr());
        props.value_hi = Some(hi.to_expr());
        return Some(props);
    }

    // Not affine: try whole-value bounds with the loop header assumed
    // (this is where `MOD(.., const)` bin fills earn their bounds).
    let benv = rangeprop::enter_loop(&mut env.clone(), d);
    let p = Poly::from_expr(rhs, DivPolicy::Opaque)?;
    let atoms: Vec<Atom> = p.atoms().into_iter().collect();
    let (lo, hi) = min_max_over(&p, &atoms, &benv);
    props.value_lo = lo.map(|p| p.to_expr());
    props.value_hi = hi.map(|p| p.to_expr());
    Some(props)
}

/// `IDX(base_pos) = base` followed at top level by
/// `DO I = L, H: IDX(I + k) = IDX(I + k - 1) + e` with `base_pos`
/// matching the fill's predecessor position. `e >= 1` provable makes the
/// contents strictly increasing (injective); `e >= 0` non-decreasing
/// only. Decreasing accumulations are recognized symmetrically.
fn recognize_prefix_fill(
    name: &str,
    d: &DoLoop,
    sub: &Expr,
    rhs: &Expr,
    preceding: &[Stmt],
    env: &RangeEnv,
) -> Option<ArrayProps> {
    let (prev_subs, e) = prefix_parts(name, rhs)?;
    let [prev] = prev_subs else { return None };
    if e.references(name) {
        return None;
    }
    let offset = position_offset(sub, &d.var)?;
    let prev_offset = position_offset(prev, &d.var)?;
    // The recurrence must read the immediately preceding position.
    if offset.checked_sub(&prev_offset)?.as_constant()?
        != polaris_symbolic::Rat::int(1)
    {
        return None;
    }
    let (init, limit) = (
        Poly::from_expr(&d.init, DivPolicy::Exact)?,
        Poly::from_expr(&d.limit, DivPolicy::Exact)?,
    );
    let base_pos = init.checked_add(&prev_offset)?;
    let dom_hi = limit.checked_add(&offset)?;
    // Find the base write `IDX(base_pos) = base` before the loop; it is
    // the only other write in the unit (the caller checked the count).
    let base = preceding.iter().rev().find_map(|s| {
        let StmtKind::Assign { lhs, rhs, .. } = &s.kind else { return None };
        if lhs.name() != name {
            return None;
        }
        let [bsub] = lhs.subs() else { return None };
        if Poly::from_expr(bsub, DivPolicy::Exact)? == base_pos && !rhs.references(name) {
            Some(rhs.clone())
        } else {
            None
        }
    })?;
    let mut props = ArrayProps::over(base_pos.to_expr(), dom_hi.to_expr());

    // Bound the increment with the loop header assumed.
    let benv = rangeprop::enter_loop(&mut env.clone(), d);
    let pe = Poly::from_expr(&e, DivPolicy::Opaque)?;
    let atoms: Vec<Atom> = pe.atoms().into_iter().collect();
    let (e_lo, e_hi) = min_max_over(&pe, &atoms, &benv);
    let zero = Poly::int(0);
    let one = Poly::int(1);
    let inc_lo = e_lo.clone().filter(|lo| prove_ge(lo, &zero, env));
    let dec_hi = e_hi.clone().filter(|hi| prove_le(hi, &zero, env));
    if let Some(lo) = &inc_lo {
        props.monotone_inc = true;
        props.strict = prove_ge(lo, &one, env);
    } else if let Some(hi) = &dec_hi {
        props.monotone_dec = true;
        props.strict = prove_le(hi, &Poly::int(-1), env);
    } else {
        return None;
    }
    props.injective = props.strict;
    props.permutation = props.strict && e.simplified().as_int() == Some(1);
    // Value bounds: the base anchors one end; the other end needs a
    // bound on the increment and a polynomial iteration count.
    let base_poly = Poly::from_expr(&base, DivPolicy::Opaque)?;
    let count = limit.checked_sub(&init)?.checked_add(&one)?;
    let far = |step_bound: &Option<Poly>| -> Option<Poly> {
        step_bound
            .as_ref()
            .and_then(|b| b.checked_mul(&count))
            .and_then(|t| base_poly.checked_add(&t))
    };
    if props.monotone_inc {
        props.value_lo = Some(base_poly.to_expr());
        props.value_hi = far(&e_hi).map(|p| p.to_expr());
    } else {
        props.value_hi = Some(base_poly.to_expr());
        props.value_lo = far(&e_lo).map(|p| p.to_expr());
    }
    Some(props)
}

/// If `sub` is `var + k` for a constant `k`, return `k` as a poly.
fn position_offset(sub: &Expr, var: &str) -> Option<Poly> {
    let p = Poly::from_expr(sub, DivPolicy::Exact)?;
    if p.var_hidden_in_opaque(var) {
        return None;
    }
    let parts = p.by_powers_of(var)?;
    if parts.len() != 2 || parts[1].as_constant() != Some(polaris_symbolic::Rat::int(1)) {
        return None;
    }
    parts[0].as_constant()?; // offset must be constant
    Some(parts[0].clone())
}

// ---------------------------------------------------------------------
// Consumption: the property-based pair-disjointness rule
// ---------------------------------------------------------------------

/// One array reference as the disjointness rule sees it: subscripts
/// (already resolved through in-iteration scalar definitions), whether
/// it writes, and the variables of enclosing inner loops.
pub struct PropAccess<'a> {
    pub write: bool,
    pub subs: &'a [Expr],
    pub ctx_vars: Vec<Name>,
}

/// Prove every (write, access) pair of one array loop-carried-disjoint
/// from index-array properties: the pair shares a subscript dimension
/// computed by the *same* function — either `IDX(f(I))` with `IDX`
/// injective, `f` affine in the tested variable with nonzero slope and
/// image inside `IDX`'s fill domain, or a directly affine `f(I)` — so
/// two distinct iterations address two distinct elements.
///
/// `props` must answer `None` for any array written inside the tested
/// loop (its fill-time facts would be stale there), and `varying` must
/// name everything the body writes, scalar or array: a subscript
/// mentioning one is not a function of the iteration number alone and
/// disqualifies its dimension.
pub fn pairs_disjoint_via_props(
    accesses: &[PropAccess<'_>],
    self_loop: &InnerLoop,
    varying: &BTreeSet<Name>,
    env: &RangeEnv,
    props: &dyn Fn(&str) -> Option<ArrayProps>,
    stats: &DdStats,
) -> bool {
    if accesses.is_empty() {
        return false;
    }
    stats.props_tests_run.set(stats.props_tests_run.get() + 1);
    // Separating key per access per dimension: equal keys on some
    // dimension of a pair prove the pair disjoint across iterations.
    type SepKey = Option<(Option<Name>, Poly)>;
    let keys: Vec<Vec<SepKey>> = accesses
        .iter()
        .map(|a| a.subs.iter().map(|e| sep_key(e, a, self_loop, varying, env, props)).collect())
        .collect();
    let separated = |(i, j): (usize, usize)| {
        keys[i].len() == keys[j].len()
            && keys[i].iter().zip(&keys[j]).any(|(a, b)| a.is_some() && a == b)
    };
    if !write_pairs(accesses, |a| a.write).all(separated) {
        return false;
    }
    stats.props_proved.set(stats.props_proved.get() + 1);
    true
}

/// The separating key of one subscript dimension, if it provably maps
/// distinct iterations of the tested loop to distinct values.
fn sep_key(
    e: &Expr,
    a: &PropAccess<'_>,
    self_loop: &InnerLoop,
    varying: &BTreeSet<Name>,
    env: &RangeEnv,
    props: &dyn Fn(&str) -> Option<ArrayProps>,
) -> Option<(Option<Name>, Poly)> {
    let var = &self_loop.var;
    // A mention of something the body writes or of an inner loop's
    // variable makes the value non-functional in the iteration number.
    if varying.iter().any(|v| e.references(v))
        || a.ctx_vars.iter().any(|v| e.references_var(v))
    {
        return None;
    }
    if let Expr::Index { array, subs } = e {
        let [inner] = subs.as_slice() else { return None };
        let p = props(array).filter(|p| p.injective)?;
        if !inner.arrays().is_empty() {
            return None; // no nested indirection
        }
        let q = affine_with_slope(inner, var)?;
        // Injectivity only holds over the fill domain: the argument's
        // image across the whole iteration space must sit inside it.
        let (dlo, dhi) = (
            Poly::from_expr(&p.domain_lo, DivPolicy::Opaque)?,
            Poly::from_expr(&p.domain_hi, DivPolicy::Opaque)?,
        );
        if [&p.domain_lo, &p.domain_hi]
            .iter()
            .any(|d| varying.iter().any(|v| d.references_var(v)))
        {
            return None;
        }
        let mut benv = env.clone();
        let (lo, hi) = if self_loop.step >= 0 {
            (self_loop.lo.clone(), self_loop.hi.clone())
        } else {
            (self_loop.hi.clone(), self_loop.lo.clone())
        };
        benv.set_fresh(var.clone(), Range::new(Some(lo), Some(hi)));
        let (arg_lo, arg_hi) = min_max_over(&q, &[Atom::var(var.clone())], &benv);
        let contained = arg_lo.is_some_and(|lo| prove_ge(&lo, &dlo, env))
            && arg_hi.is_some_and(|hi| prove_le(&hi, &dhi, env));
        if !contained {
            return None;
        }
        return Some((Some(array.clone()), q));
    }
    // Directly affine dimension (classic, but usable even when other
    // dimensions pushed the range test into abstention).
    let q = affine_with_slope(e, var)?;
    Some((None, q))
}

/// `e` as a poly affine in `var` with a nonzero constant slope and no
/// occurrence of `var` hidden inside opaque atoms.
fn affine_with_slope(e: &Expr, var: &str) -> Option<Poly> {
    let q = Poly::from_expr(e, DivPolicy::Exact)?;
    if q.var_hidden_in_opaque(var) {
        return None;
    }
    let parts = q.by_powers_of(var)?;
    if parts.len() != 2 {
        return None;
    }
    let c = parts[1].as_constant()?;
    if c.is_zero() {
        return None;
    }
    Some(q)
}

/// Seed registered whole-array value bounds (`env.set_array_values`)
/// from proven properties — the hook that lets the existing §3.4 region
/// machinery consume `bounded` facts (e.g. `A(IDX(L))` reads proven
/// inside a privatized region because `IDX ∈ [1, M]`). Only arrays whose
/// facts are stable in the analyzed loop may be seeded; the caller
/// passes the set of arrays that loop writes.
pub(crate) fn seed_array_value_ranges(
    unit: &ProgramUnit,
    written_in_loop: &BTreeSet<Name>,
    env: &mut RangeEnv,
) -> usize {
    let mut seeded = 0;
    for sym in unit.symbols.iter() {
        let Some(p) = &sym.props else { continue };
        if written_in_loop.contains(&sym.name) {
            continue;
        }
        let lo = p.value_lo.as_ref().and_then(|e| Poly::from_expr(e, DivPolicy::Opaque));
        let hi = p.value_hi.as_ref().and_then(|e| Poly::from_expr(e, DivPolicy::Opaque));
        if lo.is_some() || hi.is_some() {
            env.set_array_values(sym.name.clone(), Range::new(lo, hi));
            seeded += 1;
        }
    }
    seeded
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(src: &str) -> ProgramUnit {
        let p = polaris_ir::parse(src).unwrap();
        p.units.into_iter().next().unwrap()
    }

    fn infer(src: &str) -> BTreeMap<Name, ArrayProps> {
        infer_unit(&unit(src)).props
    }

    #[test]
    fn identity_fill_is_a_permutation() {
        let props = infer(
            "program p\ninteger idx(10)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             print *, idx(1)\nend\n",
        );
        let p = &props["IDX"];
        assert!(p.injective && p.strict && p.monotone_inc && p.permutation, "{p:?}");
        assert_eq!(p.domain_lo, Expr::int(1));
        assert_eq!(p.domain_hi, Expr::int(10));
        assert_eq!(p.value_lo, Some(Expr::int(1)));
        assert_eq!(p.value_hi, Some(Expr::int(10)));
    }

    #[test]
    fn affine_fill_with_negative_slope_is_strictly_decreasing() {
        let props = infer(
            "program p\ninteger idx(10)\ndo i = 1, 10\n  idx(i) = 21 - 2*i\nend do\n\
             print *, idx(1)\nend\n",
        );
        let p = &props["IDX"];
        assert!(p.injective && p.strict && p.monotone_dec && !p.monotone_inc, "{p:?}");
        assert!(!p.permutation, "slope 2 is not a relabeling: {p:?}");
        assert_eq!(p.value_lo, Some(Expr::int(1)));
        assert_eq!(p.value_hi, Some(Expr::int(19)));
    }

    #[test]
    fn mod_fill_is_bounded_but_not_injective() {
        let props = infer(
            "program p\ninteger bin(100)\ndo i = 1, 100\n  bin(i) = mod(i*7, 16) + 1\nend do\n\
             print *, bin(1)\nend\n",
        );
        let p = &props["BIN"];
        assert!(!p.injective && !p.monotone_inc, "{p:?}");
        assert_eq!(p.value_lo, Some(Expr::int(1)));
        assert_eq!(p.value_hi, Some(Expr::int(16)));
    }

    #[test]
    fn prefix_sum_fill_is_strictly_increasing() {
        let props = infer(
            "program p\ninteger ps(11)\nps(1) = 1\ndo i = 2, 11\n\
             \x20 ps(i) = ps(i-1) + mod(i*3, 4) + 1\nend do\nprint *, ps(1)\nend\n",
        );
        let p = &props["PS"];
        assert!(p.strict && p.injective && p.monotone_inc, "{p:?}");
        assert!(!p.permutation, "variable increment: {p:?}");
        assert_eq!(p.domain_lo, Expr::int(1));
        assert_eq!(p.domain_hi, Expr::int(11));
        assert_eq!(p.value_lo, Some(Expr::int(1)));
        // hi = base + max_step * count = 1 + 4*10
        assert_eq!(p.value_hi, Some(Expr::int(41)));
    }

    #[test]
    fn prefix_sum_with_unit_increment_is_a_permutation() {
        let props = infer(
            "program p\ninteger ps(11)\nps(1) = 5\ndo i = 2, 11\n\
             \x20 ps(i) = ps(i-1) + 1\nend do\nprint *, ps(1)\nend\n",
        );
        assert!(props["PS"].permutation, "{:?}", props["PS"]);
    }

    #[test]
    fn conditional_or_multi_statement_fills_earn_nothing() {
        // Conditional increment: monotone at runtime but not by this
        // recognizer's proof obligations (the body is an IF, not a
        // single assignment).
        let props = infer(
            "program p\ninteger ps(11)\nreal a(10)\nps(1) = 1\ndo i = 2, 11\n\
             \x20 if (a(i-1) .gt. 0.5) then\n    ps(i) = ps(i-1) + 1\n\
             \x20 else\n    ps(i) = ps(i-1)\n  end if\nend do\nprint *, ps(1)\nend\n",
        );
        assert!(props.is_empty(), "{props:?}");
    }

    #[test]
    fn a_second_write_kills_the_fill() {
        let props = infer(
            "program p\ninteger idx(10)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             idx(5) = 1\nprint *, idx(1)\nend\n",
        );
        assert!(props.is_empty(), "rewrite must invalidate the proof: {props:?}");
    }

    #[test]
    fn call_poisons_candidacy() {
        let props = infer(
            "program p\ninteger idx(10)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             call touch(idx)\nprint *, idx(1)\nend\n",
        );
        assert!(props.is_empty(), "callee may rewrite the array: {props:?}");
    }

    #[test]
    fn annotate_writes_symbol_props_and_reports() {
        let mut p = polaris_ir::parse(
            "program p\ninteger idx(10)\ninteger bin(10)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             do i = 1, 10\n  bin(i) = mod(i, 4) + 1\nend do\nprint *, idx(1), bin(1)\nend\n",
        )
        .unwrap();
        let mut rep = IdxPropReport::default();
        annotate_unit(&mut p.units[0], &mut rep);
        assert_eq!(rep.arrays_analyzed, 2);
        assert_eq!(rep.proved, 2);
        assert_eq!(rep.injective, 1);
        assert_eq!(rep.bounded, 2);
        assert_eq!(rep.permutations, 1);
        let sym = p.units[0].symbols.get("IDX").unwrap();
        assert!(sym.props.as_ref().unwrap().injective);
        // Idempotent re-run.
        let mut rep2 = IdxPropReport::default();
        annotate_unit(&mut p.units[0], &mut rep2);
        assert_eq!(rep, rep2);
    }

    #[test]
    fn disjointness_rule_accepts_scatter_through_injective_fill() {
        let u = unit(
            "program p\ninteger idx(10)\nreal a(10), b(10)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             do i = 1, 10\n  a(idx(i)) = b(i)\nend do\nprint *, a(1)\nend\n",
        );
        let inf = infer_unit(&u);
        let subs = [Expr::index("IDX", vec![Expr::var("I")])];
        let acc = [PropAccess { write: true, subs: &subs, ctx_vars: vec![] }];
        let sl = InnerLoop { var: "I".into(), lo: Poly::int(1), hi: Poly::int(10), step: 1 };
        let stats = DdStats::new();
        assert!(pairs_disjoint_via_props(
            &acc,
            &sl,
            &BTreeSet::new(),
            &RangeEnv::new(),
            &|n| inf.props.get(n).cloned(),
            &stats,
        ));
        assert_eq!(stats.props_proved.get(), 1);
    }

    #[test]
    fn disjointness_rule_rejects_out_of_domain_arguments() {
        let u = unit(
            "program p\ninteger idx(10)\nreal a(20), b(20)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             do i = 1, 15\n  a(idx(i)) = b(i)\nend do\nprint *, a(1)\nend\n",
        );
        let inf = infer_unit(&u);
        let subs = [Expr::index("IDX", vec![Expr::var("I")])];
        let acc = [PropAccess { write: true, subs: &subs, ctx_vars: vec![] }];
        // The loop runs to 15 but the fill only covered 1..10: elements
        // 11..15 hold unproven values, so the claim must be refused.
        let sl = InnerLoop { var: "I".into(), lo: Poly::int(1), hi: Poly::int(15), step: 1 };
        let stats = DdStats::new();
        assert!(!pairs_disjoint_via_props(
            &acc,
            &sl,
            &BTreeSet::new(),
            &RangeEnv::new(),
            &|n| inf.props.get(n).cloned(),
            &stats,
        ));
        assert_eq!(stats.props_proved.get(), 0);
    }

    #[test]
    fn disjointness_rule_rejects_varying_scalars_and_zero_slope() {
        let u = unit(
            "program p\ninteger idx(10)\nreal a(10), b(10)\ndo i = 1, 10\n  idx(i) = i\nend do\n\
             do i = 1, 10\n  a(idx(i)) = b(i)\nend do\nprint *, a(1)\nend\n",
        );
        let inf = infer_unit(&u);
        let sl = InnerLoop { var: "I".into(), lo: Poly::int(1), hi: Poly::int(10), step: 1 };
        let stats = DdStats::new();
        let props = |n: &str| inf.props.get(n).cloned();
        // Subscript argument mentions a body-written scalar.
        let subs_k = [Expr::index("IDX", vec![Expr::var("K")])];
        let acc = [PropAccess { write: true, subs: &subs_k, ctx_vars: vec![] }];
        let varying: BTreeSet<Name> = [Name::from("K")].into();
        assert!(!pairs_disjoint_via_props(&acc, &sl, &varying, &RangeEnv::new(), &props, &stats));
        // Zero slope: every iteration hits the same element.
        let subs_c = [Expr::index("IDX", vec![Expr::int(3)])];
        let acc = [
            PropAccess { write: true, subs: &subs_c, ctx_vars: vec![] },
            PropAccess { write: false, subs: &subs_c, ctx_vars: vec![] },
        ];
        assert!(!pairs_disjoint_via_props(
            &acc,
            &sl,
            &BTreeSet::new(),
            &RangeEnv::new(),
            &props,
            &stats
        ));
    }

    #[test]
    fn seeding_registers_value_bounds_for_stable_arrays_only() {
        let u = unit(
            "program p\ninteger bin(10)\ndo i = 1, 10\n  bin(i) = mod(i, 4) + 1\nend do\n\
             print *, bin(1)\nend\n",
        );
        let mut u = u;
        let inf = infer_unit(&u);
        for (name, p) in inf.props {
            u.symbols.get_mut(&name).unwrap().props = Some(p);
        }
        let mut env = RangeEnv::new();
        assert_eq!(seed_array_value_ranges(&u, &BTreeSet::new(), &mut env), 1);
        let atom = Atom::opaque(Expr::index("BIN", vec![Expr::var("L")]));
        let r = env.atom_range(&atom);
        assert!(!r.is_unknown());
        // Written in the loop under analysis: facts are stale, no seed.
        let mut env2 = RangeEnv::new();
        let written: BTreeSet<Name> = [Name::from("BIN")].into();
        assert_eq!(seed_array_value_ranges(&u, &written, &mut env2), 0);
    }
}

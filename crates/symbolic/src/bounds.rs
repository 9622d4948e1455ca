//! Symbolic bounds: minimum/maximum of a polynomial over variable ranges,
//! sign determination, and expression comparison.
//!
//! This is the computational core of the range test (§3.3.1): "to compute
//! the minimum or maximum of an expression for a variable *i*, the range
//! test first attempts to prove that the expression is either
//! monotonically non-decreasing or monotonically non-increasing for *i*
//! [via] the forward difference", then substitutes the variable's upper
//! or lower bound. Variables are eliminated innermost-scope-first, so
//! substituted bounds only mention enclosing-scope variables and the
//! recursion is well founded (a depth budget guards against adversarial
//! condition cycles).

use crate::env::RangeEnv;
use crate::poly::{Atom, Poly};
#[cfg(test)]
use crate::range::Range;

/// Sign classification of a symbolic quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    Neg,
    NonPos,
    Zero,
    NonNeg,
    Pos,
    Unknown,
}

impl Sign {
    pub fn is_nonneg(self) -> bool {
        matches!(self, Sign::Zero | Sign::NonNeg | Sign::Pos)
    }

    pub fn is_nonpos(self) -> bool {
        matches!(self, Sign::Zero | Sign::NonPos | Sign::Neg)
    }

    pub fn is_pos(self) -> bool {
        self == Sign::Pos
    }

    pub fn is_neg(self) -> bool {
        self == Sign::Neg
    }
}

/// Direction of a bound computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Min,
    Max,
}

const MAX_DEPTH: u32 = 8;

std::thread_local! {
    /// Work budget per top-level query: the elimination recursion is
    /// exponential in the worst case (each failing monotonicity probe
    /// explores sub-eliminations), so a deterministic fuel counter keeps
    /// unprovable queries cheap instead of letting them explode.
    static FUEL: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

const FUEL_PER_QUERY: u32 = 4000;

fn refuel() {
    FUEL.with(|f| f.set(FUEL_PER_QUERY));
}

fn spend_fuel() -> bool {
    FUEL.with(|f| {
        let v = f.get();
        if v == 0 {
            false
        } else {
            f.set(v - 1);
            true
        }
    })
}

/// Determine the sign of `p` under the variable ranges in `env`.
pub fn sign(p: &Poly, env: &RangeEnv) -> Sign {
    refuel();
    sign_at(p, env, MAX_DEPTH)
}

fn sign_at(p: &Poly, env: &RangeEnv, depth: u32) -> Sign {
    if let Some(c) = p.as_constant() {
        return match c.signum() {
            1 => Sign::Pos,
            -1 => Sign::Neg,
            _ => Sign::Zero,
        };
    }
    if depth == 0 || !spend_fuel() {
        return Sign::Unknown;
    }
    let lo_sig = eliminate_all(p, env, Dir::Min, depth)
        .and_then(|q| q.as_constant())
        .map(|c| c.signum());
    let hi_sig = eliminate_all(p, env, Dir::Max, depth)
        .and_then(|q| q.as_constant())
        .map(|c| c.signum());
    match (lo_sig, hi_sig) {
        (Some(1), _) => Sign::Pos,
        (_, Some(-1)) => Sign::Neg,
        (Some(0), Some(0)) => Sign::Zero,
        (Some(s), _) if s >= 0 => Sign::NonNeg,
        (_, Some(s)) if s <= 0 => Sign::NonPos,
        _ => Sign::Unknown,
    }
}

/// Lower and upper symbolic bounds of `p` after eliminating exactly the
/// given atoms, in order (first atom eliminated first); `None` means the
/// bound could not be established. Used by the range test to compute the
/// access range of the *inner* loops of a nest while the tested loop's
/// index stays symbolic. Fails if any listed atom survives elimination.
pub fn min_max_over(
    p: &Poly,
    atoms: &[Atom],
    env: &RangeEnv,
) -> (Option<Poly>, Option<Poly>) {
    refuel();
    let lo = eliminate_listed(p, atoms, env, Dir::Min, MAX_DEPTH);
    refuel();
    let hi = eliminate_listed(p, atoms, env, Dir::Max, MAX_DEPTH);
    (lo, hi)
}

/// Prove `a >= b` under `env`.
pub fn prove_ge(a: &Poly, b: &Poly, env: &RangeEnv) -> bool {
    match a.checked_sub(b) {
        Some(d) => sign(&d, env).is_nonneg(),
        None => false,
    }
}

/// Prove `a <= b` under `env`.
pub fn prove_le(a: &Poly, b: &Poly, env: &RangeEnv) -> bool {
    prove_ge(b, a, env)
}

/// Eliminate every rangeable atom of `p`: opaque atoms with known ranges
/// first, then ranged variables innermost-first.
fn eliminate_all(p: &Poly, env: &RangeEnv, dir: Dir, depth: u32) -> Option<Poly> {
    let mut opaques: Vec<&Atom> = p
        .atom_refs()
        .filter(|a| matches!(a, Atom::Opaque { .. }) && !env.atom_range(a).is_unknown())
        .collect();
    opaques.sort();
    opaques.dedup();
    let mut cur = p.clone();
    for atom in opaques {
        cur = eliminate_step(cur, atom, env, dir, depth)?;
    }
    // Innermost (latest-declared) variables first. Most of the
    // environment is not in `cur` at all, in the open or hidden.
    for var in env.order().rev() {
        if cur.mentions_var(var) {
            cur = eliminate_step(cur, &Atom::Var(var.to_string()), env, dir, depth)?;
        }
    }
    Some(cur)
}

/// Eliminate the listed atoms in order; each must disappear (or be
/// absent). Atoms not in the list stay symbolic.
fn eliminate_listed(
    p: &Poly,
    atoms: &[Atom],
    env: &RangeEnv,
    dir: Dir,
    depth: u32,
) -> Option<Poly> {
    let mut cur = p.clone();
    for atom in atoms {
        cur = eliminate_step(cur, atom, env, dir, depth)?;
    }
    Some(cur)
}

/// One step of an elimination: `cur` with `atom` bounded away, or `cur`
/// itself when it does not have the atom.
fn eliminate_step(cur: Poly, atom: &Atom, env: &RangeEnv, dir: Dir, depth: u32) -> Option<Poly> {
    let next = if cur.degree_in_atom(atom) == 0 {
        cur
    } else {
        eliminate_one(&cur, atom, env, dir, depth)?
    };
    // A variable may still hide inside an opaque atom — that would
    // make the "bound" depend on the eliminated variable. Reject.
    if let Atom::Var(v) = atom {
        if next.mentions_var(v) {
            return None;
        }
    }
    Some(next)
}

/// Eliminate one atom that `p` has at top level, replacing it by its
/// range bound in the requested direction.
fn eliminate_one(p: &Poly, atom: &Atom, env: &RangeEnv, dir: Dir, depth: u32) -> Option<Poly> {
    if depth == 0 || !spend_fuel() {
        return None;
    }
    let range = env.atom_range(atom);
    if let Atom::Var(v) = atom {
        if p.var_hidden_in_opaque(v) {
            return None;
        }
        // General (possibly nonlinear) variable elimination via
        // monotonicity of the forward difference.
        let d = p.forward_diff(v)?;
        let mono = sign_at(&d, env, depth - 1);
        let pick = |want_hi: bool| -> Option<&Poly> {
            if want_hi {
                range.hi.as_ref()
            } else {
                range.lo.as_ref()
            }
        };
        let chosen = match (dir, mono) {
            (Dir::Max, s) if s.is_nonneg() => pick(true),
            (Dir::Max, s) if s.is_nonpos() => pick(false),
            (Dir::Min, s) if s.is_nonneg() => pick(false),
            (Dir::Min, s) if s.is_nonpos() => pick(true),
            _ => None,
        };
        if let Some(bound) = chosen {
            if bound.mentions_var(v) {
                return None;
            }
            return p.subst_var(v, bound);
        }
        // Non-monotone: fall back to endpoint evaluation when the leading
        // coefficient makes the extremum land on an interval endpoint
        // (convex for Max, concave for Min).
        let parts = p.by_powers_of(v)?;
        let lead = parts.last()?;
        let lead_sign = sign_at(lead, env, depth - 1);
        let endpoint_ok = match dir {
            Dir::Max => lead_sign.is_nonneg(),
            Dir::Min => lead_sign.is_nonpos(),
        };
        if !endpoint_ok {
            return None;
        }
        let (lo, hi) = (range.lo.as_ref()?, range.hi.as_ref()?);
        if lo.mentions_var(v) || hi.mentions_var(v) {
            return None;
        }
        let at_lo = p.subst_var(v, lo)?;
        let at_hi = p.subst_var(v, hi)?;
        let diff = at_hi.checked_sub(&at_lo)?;
        let s = sign_at(&diff, env, depth - 1);
        return match dir {
            Dir::Max if s.is_nonneg() => Some(at_hi),
            Dir::Max if s.is_nonpos() => Some(at_lo),
            Dir::Min if s.is_nonneg() => Some(at_lo),
            Dir::Min if s.is_nonpos() => Some(at_hi),
            _ => None,
        };
    }
    // Opaque atom: only linear occurrences can be bounded.
    let parts = p.by_powers_of_atom(atom);
    if parts.len() != 2 {
        return None;
    }
    let coeff = &parts[1];
    let cs = sign_at(coeff, env, depth - 1);
    let want_hi = match (dir, cs) {
        (Dir::Max, s) if s.is_nonneg() => true,
        (Dir::Max, s) if s.is_nonpos() => false,
        (Dir::Min, s) if s.is_nonneg() => false,
        (Dir::Min, s) if s.is_nonpos() => true,
        _ => return None,
    };
    let bound = if want_hi { range.hi.as_ref()? } else { range.lo.as_ref()? };
    parts[0].checked_add(&coeff.checked_mul(bound)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::DivPolicy;


    fn p(src: &str) -> Poly {
        let full = format!("program t\nx = {src}\nend\n");
        let prog = polaris_ir::parse(&full).unwrap();
        match &prog.units[0].body.0[0].kind {
            polaris_ir::StmtKind::Assign { rhs, .. } => {
                Poly::from_expr(rhs, DivPolicy::Exact).unwrap()
            }
            _ => unreachable!(),
        }
    }

    fn env_n_ge_1() -> RangeEnv {
        let mut env = RangeEnv::new();
        env.set("N", Range::at_least(Poly::int(1)));
        env
    }

    #[test]
    fn constant_signs() {
        let env = RangeEnv::new();
        assert_eq!(sign(&p("3"), &env), Sign::Pos);
        assert_eq!(sign(&p("-2"), &env), Sign::Neg);
        assert_eq!(sign(&p("0"), &env), Sign::Zero);
        assert_eq!(sign(&p("n"), &env), Sign::Unknown);
    }

    #[test]
    fn linear_with_range() {
        let env = env_n_ge_1();
        assert_eq!(sign(&p("n"), &env), Sign::Pos);
        assert_eq!(sign(&p("n + 1"), &env), Sign::Pos);
        assert_eq!(sign(&p("n - 1"), &env), Sign::NonNeg);
        assert_eq!(sign(&p("-n"), &env), Sign::Neg);
        assert_eq!(sign(&p("n - 2"), &env), Sign::Unknown);
    }

    #[test]
    fn paper_example_n_squared_plus_n() {
        // §3.3.1: "we needed to test whether j > 0 or n^2 + n > 0"
        let env = env_n_ge_1();
        assert_eq!(sign(&p("n**2 + n"), &env), Sign::Pos);
    }

    #[test]
    fn paper_example_trfd_carried_difference() {
        // b2(i+1) - a2(i) = n + 1 > 0 given n >= 1
        let env = env_n_ge_1();
        let a2 = p("(i*(n**2+n) + n**2 - n)/2");
        let b2 = p("(i*(n**2+n))/2 + 1");
        let b2_next = b2.subst_var("I", &p("i + 1")).unwrap();
        let diff = b2_next.checked_sub(&a2).unwrap();
        assert_eq!(diff, p("n + 1"));
        assert!(sign(&diff, &env).is_pos());
        // and b2 is monotonically non-decreasing in i
        assert!(sign(&b2.forward_diff("I").unwrap(), &env).is_nonneg());
    }

    #[test]
    fn min_max_of_triangular_subscript() {
        // f(i,j,k) over k in [0, j-1], j in [0, n-1]:
        // the paper's a2/b2 bounds for TRFD
        let mut env = RangeEnv::new();
        env.set("N", Range::at_least(Poly::int(1)));
        env.set("J", Range::new(Some(Poly::int(0)), Some(p("n - 1"))));
        env.set(
            "K",
            Range::new(Some(Poly::int(0)), Some(p("j - 1"))),
        );
        let f = p("(i*(n**2+n) + j**2 - j)/2 + k + 1");
        let atoms = [Atom::var("K"), Atom::var("J")];
        let (min, max) = min_max_over(&f, &atoms, &env);
        assert_eq!(min.unwrap(), p("(i*(n**2+n))/2 + 1"), "b2 from the paper");
        assert_eq!(max.unwrap(), p("(i*(n**2+n) + n**2 - n)/2"), "a2 from the paper");
    }

    #[test]
    fn quadratic_nonmonotone_endpoint_fallback() {
        // p = i*i - 4i over i in [0, 10]: max at endpoint i=10 (convex)
        let mut env = RangeEnv::new();
        env.set("I", Range::consts(0, 10));
        let f = p("i*i - 4*i");
        let (_, max) = min_max_over(&f, &[Atom::var("I")], &env);
        assert_eq!(max.unwrap(), Poly::int(60));
        // min of a convex parabola is NOT at an endpoint — must refuse
        let (min, _) = min_max_over(&f, &[Atom::var("I")], &env);
        assert!(min.is_none());
    }

    #[test]
    fn prove_relations() {
        let mut env = RangeEnv::new();
        env.set("M", Range::at_least(Poly::int(2)));
        env.set("P", Range::at_least(Poly::int(1)));
        // m*p >= p  given m >= 2, p >= 1
        assert!(prove_ge(&p("m*p"), &p("p"), &env));
        assert!(prove_le(&p("p"), &p("m*p"), &env));
        // and the unprovable direction stays unproven
        assert!(!prove_ge(&p("p"), &p("m*p"), &env));
    }

    #[test]
    fn mod_atom_bounded() {
        let env = RangeEnv::new();
        let f = p("mod(k, 8) - 8");
        assert_eq!(sign(&f, &env), Sign::Neg);
        let g = p("mod(k, 8)");
        assert!(sign(&g, &env).is_nonneg());
    }

    #[test]
    fn array_value_atom_bounded() {
        // IND(L) in [1, I-1]  ⇒  IND(L) - I < 0  given nothing else.
        // IND must be a declared array so the reference parses as Index.
        let parse_with_ind = |src: &str| -> Poly {
            let full = format!("program t\ninteger ind(100)\nx = {src}\nend\n");
            let prog = polaris_ir::parse(&full).unwrap();
            match &prog.units[0].body.0[0].kind {
                polaris_ir::StmtKind::Assign { rhs, .. } => {
                    Poly::from_expr(rhs, DivPolicy::Exact).unwrap()
                }
                _ => unreachable!(),
            }
        };
        let mut env = RangeEnv::new();
        env.set_array_values("IND", Range::new(Some(Poly::int(1)), Some(p("i - 1"))));
        let f = parse_with_ind("ind(l) - i");
        assert_eq!(sign(&f, &env), Sign::Neg);
        let g = parse_with_ind("ind(l)");
        assert_eq!(sign(&g, &env), Sign::Pos);
    }

    #[test]
    fn ocean_ftrvmt_permuted_bounds() {
        // Figure 3: A(258*X*J + 129*K + I + 1) with I in [0,128],
        // J in [0, ZK], K in [0, X-1]. For fixed J (outer after permute),
        // eliminating I and K gives bounds linear in J.
        let mut env = RangeEnv::new();
        env.set("X", Range::at_least(Poly::int(1)));
        env.set("ZK", Range::at_least(Poly::int(0)));
        env.set("K", Range::new(Some(Poly::int(0)), Some(p("x - 1"))));
        env.set("I", Range::consts(0, 128));
        let f = p("258*x*j + 129*k + i + 1");
        let atoms = [Atom::var("I"), Atom::var("K")];
        let (min, max) = min_max_over(&f, &atoms, &env);
        assert_eq!(min.unwrap(), p("258*x*j + 1"));
        assert_eq!(max.unwrap(), p("258*x*j + 129*(x-1) + 129"));
        // gap to next j iteration: min(j+1) - max(j) = 258x - 129x = 129x > 0
        let gap = p("258*x*(j+1) + 1").checked_sub(&p("258*x*j + 129*x")).unwrap();
        assert!(sign(&gap, &env).is_pos());
    }

    #[test]
    fn unknown_variable_blocks_elimination() {
        let mut env = RangeEnv::new();
        env.set("I", Range::consts(0, 10));
        // q has no range: min over I exists but q remains symbolic
        let f = p("i + q");
        let (min, max) = min_max_over(&f, &[Atom::var("I")], &env);
        assert_eq!(min.unwrap(), p("q"));
        assert_eq!(max.unwrap(), p("q + 10"));
        assert_eq!(sign(&f, &env), Sign::Unknown);
    }

    #[test]
    fn hidden_variable_in_opaque_is_rejected() {
        let mut env = RangeEnv::new();
        env.set("K", Range::consts(1, 5));
        // K occurs both openly and inside Z(K): bounding by substituting
        // K alone would be wrong.
        let f = p("k + z(k)");
        let (min, max) = min_max_over(&f, &[Atom::var("K")], &env);
        assert!(min.is_none());
        assert!(max.is_none());
    }

    #[test]
    fn decreasing_function_bounds_swap() {
        let mut env = RangeEnv::new();
        env.set("I", Range::consts(1, 9));
        let f = p("10 - i");
        let (min, max) = min_max_over(&f, &[Atom::var("I")], &env);
        assert_eq!(min.unwrap(), Poly::int(1));
        assert_eq!(max.unwrap(), Poly::int(9));
    }
}

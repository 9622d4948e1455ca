//! Canonical multivariate polynomials over program variables.
//!
//! A [`Poly`] is a sum of monomials with [`Rat`] coefficients. Monomial
//! factors are [`Atom`]s: either scalar program variables or *opaque*
//! subexpressions (array references, intrinsic calls, inexact divisions)
//! that the polynomial layer treats as indivisible symbols. Two opaque
//! atoms are the same symbol iff their expressions are structurally
//! equal, which is exactly the "structural equality" service the Polaris
//! `Expression` class provided to its symbolic passes.
//!
//! All arithmetic is overflow-checked; `None` means "too big to reason
//! about", which callers must treat as *unknown* (never as zero).

use crate::rat::Rat;
use polaris_ir::expr::{BinOp, Expr, UnOp};
use polaris_ir::printer::format_expr;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How to treat integer division when converting an [`Expr`] to a
/// [`Poly`]. See the crate docs for the soundness discussion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivPolicy {
    /// Fold `e / c` (integer constant `c`) into rational coefficients.
    /// Valid when the division is known exact — in particular for the
    /// closed forms produced by induction-variable substitution.
    Exact,
    /// Keep every division as an opaque atom (conservative).
    Opaque,
}

/// An indivisible factor of a monomial.
#[derive(Debug, Clone)]
pub enum Atom {
    /// A scalar program variable.
    Var(String),
    /// An opaque subexpression, keyed by its canonical printed form.
    Opaque { key: String, expr: Box<Expr> },
}

impl Atom {
    pub fn var(name: impl Into<String>) -> Atom {
        Atom::Var(name.into().to_ascii_uppercase())
    }

    pub fn opaque(expr: Expr) -> Atom {
        Atom::Opaque { key: format_expr(&expr), expr: Box::new(expr) }
    }

    fn sort_key(&self) -> (u8, &str) {
        match self {
            Atom::Var(n) => (0, n.as_str()),
            Atom::Opaque { key, .. } => (1, key.as_str()),
        }
    }

    /// The expression this atom denotes.
    pub fn to_expr(&self) -> Expr {
        match self {
            Atom::Var(n) => Expr::Var(n.clone()),
            Atom::Opaque { expr, .. } => expr.as_ref().clone(),
        }
    }

    /// Does the atom's expression reference `var` (for opaque atoms this
    /// looks inside the wrapped expression)?
    pub fn mentions_var(&self, var: &str) -> bool {
        match self {
            Atom::Var(n) => n == var,
            Atom::Opaque { expr, .. } => expr.references_var(var) || expr.references(var),
        }
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}
impl Eq for Atom {}
impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Atom {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

/// A product of atoms raised to positive powers; the empty monomial is 1.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Monomial(pub BTreeMap<Atom, u32>);

impl Monomial {
    pub fn one() -> Monomial {
        Monomial::default()
    }

    pub fn var(name: impl Into<String>) -> Monomial {
        let mut m = BTreeMap::new();
        m.insert(Atom::var(name), 1);
        Monomial(m)
    }

    pub fn is_one(&self) -> bool {
        self.0.is_empty()
    }

    pub fn degree_in(&self, var: &str) -> u32 {
        self.0.get(&Atom::var(var)).copied().unwrap_or(0)
    }

    fn mul(&self, other: &Monomial) -> Monomial {
        let mut out = self.0.clone();
        for (a, p) in &other.0 {
            *out.entry(a.clone()).or_insert(0) += p;
        }
        Monomial(out)
    }

    /// Remove `var^pow` from the monomial.
    fn without_var(&self, var: &str) -> Monomial {
        let mut out = self.0.clone();
        out.remove(&Atom::var(var));
        Monomial(out)
    }

    /// Any atom (including opaque internals) mentioning `var`?
    pub fn mentions_var(&self, var: &str) -> bool {
        self.0.keys().any(|a| a.mentions_var(var))
    }
}

/// A canonical sum of monomials. The zero polynomial has no terms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    terms: BTreeMap<Monomial, Rat>,
}

impl Poly {
    // ----- constructors ---------------------------------------------------

    pub fn zero() -> Poly {
        Poly::default()
    }

    pub fn constant(c: Rat) -> Poly {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(Monomial::one(), c);
        }
        Poly { terms }
    }

    pub fn int(v: i128) -> Poly {
        Poly::constant(Rat::int(v))
    }

    pub fn var(name: impl Into<String>) -> Poly {
        let mut terms = BTreeMap::new();
        terms.insert(Monomial::var(name), Rat::ONE);
        Poly { terms }
    }

    pub fn opaque(expr: Expr) -> Poly {
        let mut m = BTreeMap::new();
        m.insert(Atom::opaque(expr), 1);
        let mut terms = BTreeMap::new();
        terms.insert(Monomial(m), Rat::ONE);
        Poly { terms }
    }

    // ----- queries ---------------------------------------------------------

    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value if the polynomial has no variable part.
    pub fn as_constant(&self) -> Option<Rat> {
        match self.terms.len() {
            0 => Some(Rat::ZERO),
            1 => {
                let (m, c) = self.terms.iter().next().unwrap();
                if m.is_one() {
                    Some(*c)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    pub fn terms(&self) -> impl Iterator<Item = (&Monomial, &Rat)> {
        self.terms.iter()
    }

    /// All scalar-variable atoms appearing at top level.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for m in self.terms.keys() {
            for a in m.0.keys() {
                if let Atom::Var(n) = a {
                    out.insert(n.clone());
                }
            }
        }
        out
    }

    /// All atoms (variables and opaques).
    pub fn atoms(&self) -> BTreeSet<Atom> {
        self.terms.keys().flat_map(|m| m.0.keys().cloned()).collect()
    }

    /// Does any term mention `var`, either as a top-level atom or inside
    /// an opaque expression?
    pub fn mentions_var(&self, var: &str) -> bool {
        let var = var.to_ascii_uppercase();
        self.terms.keys().any(|m| m.mentions_var(&var))
    }

    /// Highest power of `var` as a top-level atom.
    pub fn degree_in(&self, var: &str) -> u32 {
        let var = var.to_ascii_uppercase();
        self.terms.keys().map(|m| m.degree_in(&var)).max().unwrap_or(0)
    }

    /// Is `self / c` an integer for *every* integer assignment of this
    /// polynomial's atoms?
    ///
    /// Decided by finite enumeration, not a heuristic: with `D` the lcm
    /// of the coefficient denominators, `D*self` has integer
    /// coefficients, so `self`'s value modulo `c` is periodic in each
    /// atom with period `D*|c|` — checking the full residue grid is
    /// exhaustive. Returns `false` (the caller must stay conservative)
    /// when `c` is not a nonzero integer or the grid is too large to
    /// enumerate.
    pub fn exactly_divisible_by(&self, c: Rat) -> bool {
        let Some(c) = c.as_integer() else { return false };
        if c == 0 {
            return false;
        }
        let c = c.abs();
        // lcm of coefficient denominators.
        let mut d: i128 = 1;
        for coeff in self.terms.values() {
            let g = crate::rat::gcd(d, coeff.den());
            match (d / g).checked_mul(coeff.den()) {
                Some(v) => d = v,
                None => return false,
            }
        }
        if c == 1 && d == 1 {
            return true; // integer coefficients, dividing by one
        }
        let period = match d.checked_mul(c) {
            Some(p) => p,
            None => return false,
        };
        let atoms: Vec<Atom> = self.atoms().into_iter().collect();
        let mut grid: i128 = 1;
        for _ in &atoms {
            grid = grid.saturating_mul(period);
            if grid > 4096 {
                return false;
            }
        }
        let mut point = vec![0i128; atoms.len()];
        loop {
            match self.eval_at(&atoms, &point) {
                Some(v) if v.is_integer() && v.num() % c == 0 => {}
                _ => return false,
            }
            // Odometer over the residue grid.
            let mut carry = true;
            for digit in point.iter_mut() {
                *digit += 1;
                if *digit < period {
                    carry = false;
                    break;
                }
                *digit = 0;
            }
            if carry {
                return true;
            }
        }
    }

    /// Evaluate at an integer point (`point[i]` is the value of
    /// `atoms[i]`); `None` on overflow or an atom missing from `atoms`.
    fn eval_at(&self, atoms: &[Atom], point: &[i128]) -> Option<Rat> {
        let mut acc = Rat::ZERO;
        for (mon, coeff) in &self.terms {
            let mut term = *coeff;
            for (a, pow) in &mon.0 {
                let idx = atoms.iter().position(|x| x == a)?;
                let mut p: i128 = 1;
                for _ in 0..*pow {
                    p = p.checked_mul(point[idx])?;
                }
                term = term.checked_mul(Rat::int(p))?;
            }
            acc = acc.checked_add(term)?;
        }
        Some(acc)
    }

    /// Does the polynomial contain opaque atoms mentioning `var`? Such
    /// occurrences cannot be reasoned about by substitution.
    pub fn var_hidden_in_opaque(&self, var: &str) -> bool {
        let var = var.to_ascii_uppercase();
        self.terms.keys().any(|m| {
            m.0.keys()
                .any(|a| matches!(a, Atom::Opaque { .. }) && a.mentions_var(&var))
        })
    }

    // ----- arithmetic -------------------------------------------------------

    pub fn checked_add(&self, other: &Poly) -> Option<Poly> {
        let mut out = self.terms.clone();
        for (m, c) in &other.terms {
            match out.get(m) {
                Some(prev) => {
                    let sum = prev.checked_add(*c)?;
                    if sum.is_zero() {
                        out.remove(m);
                    } else {
                        out.insert(m.clone(), sum);
                    }
                }
                None => {
                    out.insert(m.clone(), *c);
                }
            }
        }
        Some(Poly { terms: out })
    }

    pub fn checked_sub(&self, other: &Poly) -> Option<Poly> {
        self.checked_add(&other.checked_neg()?)
    }

    pub fn checked_neg(&self) -> Option<Poly> {
        let mut out = BTreeMap::new();
        for (m, c) in &self.terms {
            out.insert(m.clone(), c.checked_neg()?);
        }
        Some(Poly { terms: out })
    }

    pub fn checked_mul(&self, other: &Poly) -> Option<Poly> {
        let mut out = Poly::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                let m = ma.mul(mb);
                let c = ca.checked_mul(*cb)?;
                let mut t = BTreeMap::new();
                t.insert(m, c);
                out = out.checked_add(&Poly { terms: t })?;
            }
        }
        Some(out)
    }

    pub fn checked_scale(&self, k: Rat) -> Option<Poly> {
        if k.is_zero() {
            return Some(Poly::zero());
        }
        let mut out = BTreeMap::new();
        for (m, c) in &self.terms {
            out.insert(m.clone(), c.checked_mul(k)?);
        }
        Some(Poly { terms: out })
    }

    pub fn checked_pow(&self, exp: u32) -> Option<Poly> {
        let mut acc = Poly::int(1);
        for _ in 0..exp {
            acc = acc.checked_mul(self)?;
        }
        Some(acc)
    }

    // ----- substitution and differences -------------------------------------

    /// Replace top-level occurrences of `var` with `value`. Returns
    /// `None` on arithmetic overflow or if `var` is hidden inside an
    /// opaque atom (substitution there would be unsound to skip).
    pub fn subst_var(&self, var: &str, value: &Poly) -> Option<Poly> {
        let var = var.to_ascii_uppercase();
        if self.var_hidden_in_opaque(&var) {
            return None;
        }
        let mut out = Poly::zero();
        for (m, c) in &self.terms {
            let pow = m.degree_in(&var);
            let rest = m.without_var(&var);
            let mut term = Poly { terms: BTreeMap::from([(rest, *c)]) };
            if pow > 0 {
                term = term.checked_mul(&value.checked_pow(pow)?)?;
            }
            out = out.checked_add(&term)?;
        }
        Some(out)
    }

    /// Forward difference `p[var := var+1] - p` — the monotonicity probe
    /// of the range test (§3.3.1).
    pub fn forward_diff(&self, var: &str) -> Option<Poly> {
        let vp1 = Poly::var(var).checked_add(&Poly::int(1))?;
        let shifted = self.subst_var(var, &vp1)?;
        shifted.checked_sub(self)
    }

    /// Split into `(coefficient polynomials by power of var, rest)`:
    /// `p = Σ_k coeff[k] * var^k`. Entry 0 is the var-free part. Returns
    /// `None` if `var` hides inside an opaque atom.
    pub fn by_powers_of(&self, var: &str) -> Option<Vec<Poly>> {
        let var = var.to_ascii_uppercase();
        if self.var_hidden_in_opaque(&var) {
            return None;
        }
        let deg = self.degree_in(&var) as usize;
        let mut out = vec![Poly::zero(); deg + 1];
        for (m, c) in &self.terms {
            let pow = m.degree_in(&var) as usize;
            let rest = m.without_var(&var);
            let add = Poly { terms: BTreeMap::from([(rest, *c)]) };
            out[pow] = out[pow].checked_add(&add)?;
        }
        Some(out)
    }

    /// Split into coefficient polynomials by power of an arbitrary
    /// [`Atom`] (variable *or* opaque): `p = Σ_k coeff[k] * atom^k`.
    /// Unlike [`Poly::by_powers_of`] this never fails: an opaque atom is
    /// indivisible, so it cannot "hide" inside another atom. (A variable
    /// hidden inside a *different* opaque atom is fine here because the
    /// caller is eliminating the atom itself, not the variable.)
    pub fn by_powers_of_atom(&self, atom: &Atom) -> Vec<Poly> {
        let deg = self
            .terms
            .keys()
            .map(|m| m.0.get(atom).copied().unwrap_or(0))
            .max()
            .unwrap_or(0) as usize;
        let mut out = vec![Poly::zero(); deg + 1];
        for (m, c) in &self.terms {
            let pow = m.0.get(atom).copied().unwrap_or(0) as usize;
            let mut rest = m.0.clone();
            rest.remove(atom);
            let add = Poly { terms: BTreeMap::from([(Monomial(rest), *c)]) };
            // coefficients stay small here; treat overflow as impossible
            // by saturating to the original term on failure
            out[pow] = out[pow].checked_add(&add).unwrap_or_else(|| add.clone());
        }
        out
    }

    /// Highest power of `atom` in any term.
    pub fn degree_in_atom(&self, atom: &Atom) -> u32 {
        self.terms.keys().map(|m| m.0.get(atom).copied().unwrap_or(0)).max().unwrap_or(0)
    }

    /// Linear decomposition over `vars`: `p = rest + Σ coeff_i * vars_i`
    /// with every `coeff_i` constant and `rest` free of `vars`. Returns
    /// `None` if `p` is nonlinear in the `vars` or a coefficient is
    /// symbolic — exactly the applicability condition of the classic
    /// (Banerjee/GCD) tests the paper contrasts the range test against.
    pub fn linear_in(&self, vars: &[String]) -> Option<(Poly, Vec<Rat>)> {
        let mut coeffs = vec![Rat::ZERO; vars.len()];
        let mut rest = Poly::zero();
        for (m, c) in &self.terms {
            // Which of the vars appear in this monomial?
            let mut hit: Option<usize> = None;
            let mut bad = false;
            for (i, v) in vars.iter().enumerate() {
                let d = m.degree_in(v);
                if d > 1 {
                    bad = true;
                }
                if d >= 1 {
                    if hit.is_some() || d > 1 {
                        bad = true;
                    } else {
                        hit = Some(i);
                    }
                }
                // var hidden inside opaque atom of this monomial?
                if m.0.keys().any(|a| matches!(a, Atom::Opaque { .. }) && a.mentions_var(v)) {
                    bad = true;
                }
            }
            if bad {
                return None;
            }
            match hit {
                Some(i) => {
                    // coefficient must be constant: monomial minus var must be 1
                    let stripped = m.without_var(&vars[i]);
                    if !stripped.is_one() {
                        return None;
                    }
                    coeffs[i] = coeffs[i].checked_add(*c)?;
                }
                None => {
                    let add = Poly { terms: BTreeMap::from([(m.clone(), *c)]) };
                    rest = rest.checked_add(&add)?;
                }
            }
        }
        Some((rest, coeffs))
    }

    /// Evaluate with an assignment of rationals to variables; opaque
    /// atoms make evaluation fail. (Test oracle.)
    pub fn eval(&self, env: &BTreeMap<String, Rat>) -> Option<Rat> {
        let mut total = Rat::ZERO;
        for (m, c) in &self.terms {
            let mut acc = *c;
            for (a, p) in &m.0 {
                let base = match a {
                    Atom::Var(n) => *env.get(n)?,
                    Atom::Opaque { .. } => return None,
                };
                acc = acc.checked_mul(base.checked_pow(*p)?)?;
            }
            total = total.checked_add(acc)?;
        }
        Some(total)
    }

    // ----- conversion ---------------------------------------------------------

    /// Convert an expression to a polynomial. Non-polynomial structure
    /// (per `policy`) becomes opaque atoms, so conversion always succeeds
    /// structurally; `None` only on arithmetic overflow.
    pub fn from_expr(e: &Expr, policy: DivPolicy) -> Option<Poly> {
        Some(match e {
            Expr::Int(v) => Poly::int(*v as i128),
            Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => Poly::opaque(e.clone()),
            Expr::Var(n) => Poly::var(n.clone()),
            Expr::Index { .. } | Expr::Call { .. } | Expr::Wildcard(_) => Poly::opaque(e.clone()),
            Expr::Un { op: UnOp::Neg, arg } => {
                Poly::from_expr(arg, policy)?.checked_neg()?
            }
            Expr::Un { op: UnOp::Not, .. } => Poly::opaque(e.clone()),
            Expr::Bin { op, lhs, rhs } => {
                let l = || Poly::from_expr(lhs, policy);
                let r = || Poly::from_expr(rhs, policy);
                match op {
                    BinOp::Add => l()?.checked_add(&r()?)?,
                    BinOp::Sub => l()?.checked_sub(&r()?)?,
                    BinOp::Mul => l()?.checked_mul(&r()?)?,
                    BinOp::Div => {
                        let rp = r()?;
                        match (policy, rp.as_constant()) {
                            (DivPolicy::Exact, Some(c)) if !c.is_zero() => {
                                // F-Mini `/` on integers truncates, so folding
                                // into rational coefficients is only sound when
                                // the division is exact for EVERY integer value
                                // of the operands — `(v*v - v)/2` qualifies,
                                // `(n - 1)/2` does not. Unverifiable divisions
                                // stay opaque (a plain integer unknown), which
                                // downstream analyses handle conservatively.
                                let lp = l()?;
                                if lp.exactly_divisible_by(c) {
                                    let inv = Rat::new(c.den(), c.num())?;
                                    lp.checked_scale(inv)?
                                } else {
                                    Poly::opaque(e.clone())
                                }
                            }
                            _ => Poly::opaque(e.clone()),
                        }
                    }
                    BinOp::Pow => {
                        let rp = r()?;
                        match rp.as_constant().and_then(|c| c.as_integer()) {
                            Some(k) if (0..=8).contains(&k) => l()?.checked_pow(k as u32)?,
                            _ => Poly::opaque(e.clone()),
                        }
                    }
                    _ => Poly::opaque(e.clone()),
                }
            }
        })
    }

    /// Convert back to an expression. Rational coefficients are printed
    /// as `(numerator-sum)/lcm-denominator`, which is exact because the
    /// polynomial is integer-valued by construction (see crate docs).
    pub fn to_expr(&self) -> Expr {
        if self.is_zero() {
            return Expr::Int(0);
        }
        // Common denominator.
        let mut den: i128 = 1;
        for c in self.terms.values() {
            let g = crate::rat::gcd(den, c.den());
            den = den / g * c.den();
        }
        let numerator = self.build_sum(den);
        if den == 1 {
            numerator
        } else {
            Expr::div(numerator, Expr::Int(den as i64))
        }
    }

    fn build_sum(&self, den: i128) -> Expr {
        let mut acc: Option<Expr> = None;
        for (m, c) in &self.terms {
            let scaled = c.num() * (den / c.den());
            let (abs, neg) = (scaled.unsigned_abs() as i64, scaled < 0);
            let mut factors: Vec<Expr> = Vec::new();
            if abs != 1 || m.is_one() {
                factors.push(Expr::Int(abs));
            }
            for (a, p) in &m.0 {
                let base = a.to_expr();
                if *p == 1 {
                    factors.push(base);
                } else {
                    factors.push(Expr::bin(BinOp::Pow, base, Expr::Int(*p as i64)));
                }
            }
            let term = factors
                .into_iter()
                .reduce(Expr::mul)
                .unwrap_or(Expr::Int(1));
            acc = Some(match acc {
                None => {
                    if neg {
                        Expr::neg(term)
                    } else {
                        term
                    }
                }
                Some(prev) => {
                    if neg {
                        Expr::sub(prev, term)
                    } else {
                        Expr::add(prev, term)
                    }
                }
            });
        }
        acc.unwrap_or(Expr::Int(0)).simplified()
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_expr(&self.to_expr()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    #[test]
    fn canonical_form_merges_terms() {
        assert_eq!(p("i + i"), p("2*i"));
        assert_eq!(p("(i+1)*(i-1)"), p("i*i - 1"));
        assert_eq!(p("i - i"), Poly::zero());
        assert_eq!(p("2*(n+3) - 6"), p("2*n"));
    }

    #[test]
    fn exact_division_folds() {
        // (n*n + n)/2 symbolically equals n*(n+1)/2
        assert_eq!(p("(n*n + n)/2"), p("n*(n+1)/2"));
    }

    #[test]
    fn trfd_subscript_normalizes() {
        // the paper's TRFD closed form
        let a = p("k + 1 + (i*(n**2+n) + j**2 - j)/2");
        let b = p("(2*k + 2 + i*n**2 + i*n + j*j - j)/2");
        assert_eq!(a, b);
    }

    #[test]
    fn opaque_atoms_compare_structurally() {
        let a = p("z(k) * 2");
        let b = p("z(k) + z(k)");
        assert_eq!(a, b);
        let c = p("z(k+1) * 2");
        assert_ne!(a, c);
    }

    #[test]
    fn opaque_division_policy() {
        let full = "program t\nx = n/m\nend\n";
        let prog = polaris_ir::parse(full).unwrap();
        let rhs = match &prog.units[0].body.0[0].kind {
            polaris_ir::StmtKind::Assign { rhs, .. } => rhs.clone(),
            _ => unreachable!(),
        };
        // n/m with symbolic denominator is opaque under either policy
        let exact = Poly::from_expr(&rhs, DivPolicy::Exact).unwrap();
        assert_eq!(exact.atoms().len(), 1);
        assert!(matches!(exact.atoms().iter().next().unwrap(), Atom::Opaque { .. }));
        // n/2 truncates for odd n, so it must stay opaque even under
        // Exact (Exact only folds divisions provable exact for every
        // integer assignment).
        let by2 = polaris_ir::Expr::div(polaris_ir::Expr::var("N"), polaris_ir::Expr::int(2));
        let e = Poly::from_expr(&by2, DivPolicy::Exact).unwrap();
        assert!(e.atoms().iter().any(|a| matches!(a, Atom::Opaque { .. })));
        let o = Poly::from_expr(&by2, DivPolicy::Opaque).unwrap();
        assert!(o.atoms().iter().any(|a| matches!(a, Atom::Opaque { .. })));
        // (n*n + n)/2 is always even-over-two: folds under Exact.
        let tri = polaris_ir::Expr::div(
            polaris_ir::Expr::add(
                polaris_ir::Expr::mul(polaris_ir::Expr::var("N"), polaris_ir::Expr::var("N")),
                polaris_ir::Expr::var("N"),
            ),
            polaris_ir::Expr::int(2),
        );
        let t = Poly::from_expr(&tri, DivPolicy::Exact).unwrap();
        assert!(t.atoms().iter().all(|a| matches!(a, Atom::Var(_))));
    }

    #[test]
    fn exact_divisibility_is_verified_not_assumed() {
        // Exhaustive residue check: (v*v - v)/2 is integer for all v…
        assert!(p("v**2 - v").exactly_divisible_by(Rat::int(2)));
        // …but (v - 1)/2 and v/2 are not.
        assert!(!p("v - 1").exactly_divisible_by(Rat::int(2)));
        assert!(!p("v").exactly_divisible_by(Rat::int(2)));
        // Multivariate: n*(n+1) + j*(j-1) is even for all n, j.
        assert!(p("n*(n+1) + j*(j-1)").exactly_divisible_by(Rat::int(2)));
        assert!(!p("n*(n+1) + j").exactly_divisible_by(Rat::int(2)));
        // Constants.
        assert!(p("6").exactly_divisible_by(Rat::int(3)));
        assert!(!p("7").exactly_divisible_by(Rat::int(3)));
        // Division by zero is never exact.
        assert!(!p("6").exactly_divisible_by(Rat::ZERO));
    }

    #[test]
    fn forward_diff_examples_from_paper() {
        // f = (i*(n^2+n)+j^2-j)/2 + k + 1 ; df/dk = 1
        let f = p("(i*(n**2+n) + j**2 - j)/2 + k + 1");
        assert_eq!(f.forward_diff("K").unwrap(), Poly::int(1));
        // a1 = f at k = j-1 : difference in j is j+1
        let a1 = p("(i*(n**2+n) + j**2 - j)/2 + j");
        assert_eq!(a1.forward_diff("J").unwrap(), p("j + 1"));
        // b1 = f at k=0 : difference in j is j
        let b1 = p("(i*(n**2+n) + j**2 - j)/2 + 1");
        assert_eq!(b1.forward_diff("J").unwrap(), p("j"));
    }

    #[test]
    fn subst_var_composes() {
        let f = p("i*i + 2*i");
        let g = f.subst_var("I", &p("j + 1")).unwrap();
        assert_eq!(g, p("j*j + 4*j + 3"));
    }

    #[test]
    fn subst_fails_when_var_hidden_in_opaque() {
        let f = p("z(i) + i");
        assert!(f.subst_var("I", &Poly::int(3)).is_none());
    }

    #[test]
    fn by_powers_decomposition() {
        let f = p("a*i*i + b*i + c");
        let parts = f.by_powers_of("I").unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], p("c"));
        assert_eq!(parts[1], p("b"));
        assert_eq!(parts[2], p("a"));
    }

    #[test]
    fn linear_in_accepts_affine_rejects_symbolic_coeff() {
        let f = p("2*i + 3*j + n + 7");
        let (rest, coeffs) =
            f.linear_in(&["I".to_string(), "J".to_string()]).unwrap();
        assert_eq!(coeffs, vec![Rat::int(2), Rat::int(3)]);
        assert_eq!(rest, p("n + 7"));
        // n*i has symbolic coefficient: not linear for Banerjee/GCD
        let g = p("n*i + 1");
        assert!(g.linear_in(&["I".to_string()]).is_none());
        // i*i nonlinear
        let h = p("i*i");
        assert!(h.linear_in(&["I".to_string()]).is_none());
    }

    #[test]
    fn to_expr_roundtrips_through_from_expr() {
        for src in ["i + 1", "(n*n+n)/2", "2*i - 3*j + 7", "i**3 - i", "k"] {
            let original = p(src);
            let back = Poly::from_expr(&original.to_expr(), DivPolicy::Exact).unwrap();
            assert_eq!(original, back, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn eval_matches_structure() {
        let f = p("i*i + 2*j - 5");
        let env = BTreeMap::from([
            ("I".to_string(), Rat::int(4)),
            ("J".to_string(), Rat::int(3)),
        ]);
        assert_eq!(f.eval(&env), Some(Rat::int(17)));
        // missing variable → None
        assert_eq!(f.eval(&BTreeMap::new()), None);
    }

    #[test]
    fn mentions_var_sees_into_opaques() {
        let f = p("z(k) + 1");
        assert!(f.mentions_var("K"));
        assert!(f.var_hidden_in_opaque("K"));
        assert!(!f.mentions_var("J"));
    }

    proptest! {
        #[test]
        fn prop_add_is_commutative(a in -20i64..20, b in -20i64..20, c in -20i64..20, d in -20i64..20) {
            let x = Poly::var("I").checked_scale(Rat::int(a as i128)).unwrap()
                .checked_add(&Poly::int(b as i128)).unwrap();
            let y = Poly::var("J").checked_scale(Rat::int(c as i128)).unwrap()
                .checked_add(&Poly::int(d as i128)).unwrap();
            prop_assert_eq!(x.checked_add(&y), y.checked_add(&x));
        }

        #[test]
        fn prop_eval_homomorphism(ci in -5i128..5, cj in -5i128..5, k in -5i128..5,
                                  vi in -10i128..10, vj in -10i128..10) {
            // (ci*I + k) * (cj*J + k) evaluated = product of evaluations
            let x = Poly::var("I").checked_scale(Rat::int(ci)).unwrap()
                .checked_add(&Poly::int(k)).unwrap();
            let y = Poly::var("J").checked_scale(Rat::int(cj)).unwrap()
                .checked_add(&Poly::int(k)).unwrap();
            let prod = x.checked_mul(&y).unwrap();
            let env = BTreeMap::from([
                ("I".to_string(), Rat::int(vi)),
                ("J".to_string(), Rat::int(vj)),
            ]);
            let lhs = prod.eval(&env).unwrap();
            let rhs = x.eval(&env).unwrap().checked_mul(y.eval(&env).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_forward_diff_of_linear_is_coefficient(a in -30i128..30, b in -30i128..30) {
            let f = Poly::var("I").checked_scale(Rat::int(a)).unwrap()
                .checked_add(&Poly::int(b)).unwrap();
            let d = f.forward_diff("I").unwrap();
            prop_assert_eq!(d, Poly::int(a));
        }

        #[test]
        fn prop_to_expr_from_expr_identity(a in -9i128..9, b in -9i128..9, c in -9i128..9) {
            let f = Poly::var("I").checked_pow(2).unwrap()
                .checked_scale(Rat::int(a)).unwrap()
                .checked_add(&Poly::var("J").checked_scale(Rat::int(b)).unwrap()).unwrap()
                .checked_add(&Poly::int(c)).unwrap();
            let back = Poly::from_expr(&f.to_expr(), DivPolicy::Exact).unwrap();
            prop_assert_eq!(f, back);
        }
    }
}

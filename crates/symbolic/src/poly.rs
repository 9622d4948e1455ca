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
//! ## The flat canonical form
//!
//! A polynomial is one `Vec<(Monomial, Rat)>` sorted by monomial, with
//! no zero coefficient and no monomial twice; a monomial is one
//! `Vec<(Atom, u32)>` sorted by atom, with no zero power and no atom
//! twice. Two polynomials are equal iff their vectors are.
//!
//! **The order is by name and it is observable.** Atoms compare as
//! variables before opaques, then by upper-cased name (or an opaque's
//! printed key); monomials compare as their `(atom, power)` runs,
//! lexicographically; and [`Poly::to_expr`] emits terms and factors in
//! exactly that order. Restructured subscripts are printed through it,
//! so the order reaches every snapshot under `tests/golden/` — which is
//! why atoms are not interned to numbers here: an interner would have to
//! reproduce name order anyway. `crates/symbolic/tests/canonical_form.rs`
//! pins the printed forms.
//!
//! **Atoms share their names.** A variable atom holds the IR's own shared
//! [`Name`], an opaque atom its key as an `Arc<str>` and its tree as an
//! `Arc<Expr>`, so converting a variable and every merge, product and split
//! bump a reference count instead of copying a string or a tree. Order
//! and equality are still by the name (or key), so no printed form moves.
//!
//! **Arithmetic builds, then normalises once.** `+` and `−` are one
//! merge of two sorted runs; `×`, powers, substitution and the
//! coefficient splits push raw terms into one buffer and
//! `Poly::normalized` sorts it (stably, so equal monomials sum in the
//! order they were produced) and folds neighbours. Nothing re-copies a
//! partial result per term.
//!
//! All arithmetic is overflow-checked; `None` means "too big to reason
//! about", which callers must treat as *unknown* (never as zero, never
//! as a partial sum).

use crate::rat::Rat;
use polaris_ir::expr::{BinOp, Expr, Name, UnOp};
use polaris_ir::printer::format_expr;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// `name` upper-cased — borrowed when it already is, which is every name
/// the analyses pass around after parsing.
pub(crate) fn upper(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(name.to_ascii_uppercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// One merge of two runs sorted by distinct keys. A key in both runs
/// gets `both(left, right)` — `Some(None)` drops it, `None` fails the
/// whole merge — and a key in `b` alone gets `right(value)`.
fn merge_sorted<K: Ord + Clone, V: Copy>(
    a: &[(K, V)],
    b: &[(K, V)],
    both: impl Fn(V, V) -> Option<Option<V>>,
    right: impl Fn(V) -> Option<V>,
) -> Option<Vec<(K, V)>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push((b[j].0.clone(), right(b[j].1)?));
                j += 1;
            }
            Ordering::Equal => {
                if let Some(v) = both(a[i].1, b[j].1)? {
                    out.push((a[i].0.clone(), v));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    for (k, v) in &b[j..] {
        out.push((k.clone(), right(*v)?));
    }
    Some(out)
}

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

/// An indivisible factor of a monomial. Names are shared: copying an
/// atom — which every merge, product and split of monomials does — bumps
/// a reference count instead of copying a string or a tree.
#[derive(Debug, Clone)]
pub enum Atom {
    /// A scalar program variable: the IR's own name, shared.
    Var(Name),
    /// An opaque subexpression, keyed by its canonical printed form.
    Opaque { key: Arc<str>, expr: Arc<Expr> },
}

impl Atom {
    pub fn var(name: impl Into<Name>) -> Atom {
        Atom::Var(name.into())
    }

    pub fn opaque(expr: Expr) -> Atom {
        Atom::Opaque { key: Arc::from(format_expr(&expr)), expr: Arc::new(expr) }
    }

    fn sort_key(&self) -> (u8, &str) {
        match self {
            Atom::Var(n) => (0, n),
            Atom::Opaque { key, .. } => (1, key),
        }
    }

    /// Is this the variable `var` (upper-case)?
    fn is_var(&self, var: &str) -> bool {
        matches!(self, Atom::Var(n) if **n == *var)
    }

    /// The expression this atom denotes.
    pub(crate) fn to_expr(&self) -> Expr {
        match self {
            Atom::Var(n) => Expr::Var(n.clone()),
            Atom::Opaque { expr, .. } => expr.as_ref().clone(),
        }
    }

    /// Is this an opaque atom whose expression references `var`?
    fn hides_var(&self, var: &str) -> bool {
        matches!(self, Atom::Opaque { .. }) && self.mentions_any(&|n| n == var)
    }

    /// Does the atom name something `hit` accepts: the variable itself,
    /// or any variable, array or function an opaque expression names? One
    /// walk of the expression, however many names `hit` stands for.
    pub(crate) fn mentions_any(&self, hit: &dyn Fn(&str) -> bool) -> bool {
        match self {
            Atom::Var(n) => hit(n),
            Atom::Opaque { expr, .. } => {
                let mut found = false;
                expr.for_each(&mut |e| match e {
                    Expr::Var(n) | Expr::Index { array: n, .. } | Expr::Call { name: n, .. } => {
                        found = found || hit(n);
                    }
                    _ => {}
                });
                found
            }
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
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Atom {
    fn cmp(&self, other: &Self) -> Ordering {
        self.sort_key().cmp(&other.sort_key())
    }
}

/// A product of atoms raised to positive powers, as one run sorted by
/// atom; the empty monomial is 1.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub(crate) struct Monomial(Vec<(Atom, u32)>);

impl Monomial {
    pub(crate) fn one() -> Monomial {
        Monomial::default()
    }

    pub(crate) fn var(name: impl Into<Name>) -> Monomial {
        Monomial(vec![(Atom::var(name), 1)])
    }

    pub(crate) fn is_one(&self) -> bool {
        self.0.is_empty()
    }

    /// Power of the variable `var` (upper-case).
    pub(crate) fn degree_in(&self, var: &str) -> u32 {
        self.0.iter().find(|(a, _)| a.is_var(var)).map_or(0, |(_, p)| *p)
    }

    fn degree_in_atom(&self, atom: &Atom) -> u32 {
        self.0.iter().find(|(a, _)| a == atom).map_or(0, |(_, p)| *p)
    }

    /// The product: one merge of the two runs, powers of a shared atom added.
    fn mul(&self, other: &Monomial) -> Monomial {
        let factors = merge_sorted(&self.0, &other.0, |p, q| Some(Some(p + q)), Some);
        Monomial(factors.expect("a monomial product drops nothing and cannot fail"))
    }

    /// `(power of the chosen factor, the monomial without it)`; the
    /// monomial itself at power 0 when no factor is chosen.
    fn split(&self, chosen: impl Fn(&Atom) -> bool) -> (u32, Monomial) {
        match self.0.iter().position(|(a, _)| chosen(a)) {
            None => (0, self.clone()),
            Some(at) => {
                let mut rest = Vec::with_capacity(self.0.len() - 1);
                rest.extend_from_slice(&self.0[..at]);
                rest.extend_from_slice(&self.0[at + 1..]);
                (self.0[at].1, Monomial(rest))
            }
        }
    }
}

/// A canonical sum of monomials: terms sorted by monomial, none zero,
/// none repeated. The zero polynomial has no terms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    terms: Vec<(Monomial, Rat)>,
}

impl Poly {
    // ----- constructors ---------------------------------------------------

    pub fn zero() -> Poly {
        Poly::default()
    }

    pub(crate) fn constant(c: Rat) -> Poly {
        if c.is_zero() {
            Poly::zero()
        } else {
            Poly { terms: vec![(Monomial::one(), c)] }
        }
    }

    pub fn int(v: i128) -> Poly {
        Poly::constant(Rat::int(v))
    }

    pub fn var(name: impl Into<Name>) -> Poly {
        Poly { terms: vec![(Monomial::var(name), Rat::ONE)] }
    }

    pub fn opaque(expr: Expr) -> Poly {
        Poly { terms: vec![(Monomial(vec![(Atom::opaque(expr), 1)]), Rat::ONE)] }
    }

    /// Canonical form of raw terms in any order, with repeats: one stable
    /// sort, then equal monomials (now neighbours) are summed in the
    /// order they were produced and zero sums dropped.
    fn normalized(mut terms: Vec<(Monomial, Rat)>) -> Option<Poly> {
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut overflow = false;
        terms.dedup_by(|later, kept| {
            if later.0 != kept.0 {
                return false;
            }
            match kept.1.checked_add(later.1) {
                Some(sum) => kept.1 = sum,
                None => overflow = true,
            }
            true
        });
        if overflow {
            return None;
        }
        terms.retain(|(_, c)| !c.is_zero());
        Some(Poly { terms })
    }

    /// Canonical form of nonzero terms whose monomials are all distinct:
    /// a sort, and no arithmetic that could fail.
    fn from_distinct(mut terms: Vec<(Monomial, Rat)>) -> Poly {
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "repeated monomial");
        Poly { terms }
    }

    // ----- queries ---------------------------------------------------------

    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value if the polynomial has no variable part.
    pub fn as_constant(&self) -> Option<Rat> {
        match self.terms.as_slice() {
            [] => Some(Rat::ZERO),
            [(m, c)] if m.is_one() => Some(*c),
            _ => None,
        }
    }

    /// Every atom occurrence, term by term (with repeats).
    pub(crate) fn atom_refs(&self) -> impl Iterator<Item = &Atom> {
        self.terms.iter().flat_map(|(m, _)| m.0.iter().map(|(a, _)| a))
    }

    /// All scalar-variable atoms appearing at top level.
    pub fn vars(&self) -> BTreeSet<Name> {
        let name = |a: &Atom| if let Atom::Var(n) = a { Some(n.clone()) } else { None };
        self.atom_refs().filter_map(name).collect()
    }

    /// All atoms (variables and opaques).
    pub fn atoms(&self) -> BTreeSet<Atom> {
        self.atom_refs().cloned().collect()
    }

    /// Does any term mention `var`, either as a top-level atom or inside
    /// an opaque expression?
    pub fn mentions_var(&self, var: &str) -> bool {
        let var = upper(var);
        self.mentions_any(&|n| *n == *var)
    }

    /// Does any term mention a name `hit` accepts (see
    /// [`Atom::mentions_any`])?
    pub(crate) fn mentions_any(&self, hit: &dyn Fn(&str) -> bool) -> bool {
        self.atom_refs().any(|a| a.mentions_any(hit))
    }

    /// Highest power of `var` as a top-level atom.
    pub fn degree_in(&self, var: &str) -> u32 {
        let var = upper(var);
        self.terms.iter().map(|(m, _)| m.degree_in(&var)).max().unwrap_or(0)
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
    pub(crate) fn exactly_divisible_by(&self, c: Rat) -> bool {
        let Some(c) = c.as_integer() else { return false };
        if c == 0 {
            return false;
        }
        let c = c.abs();
        // lcm of coefficient denominators.
        let mut d: i128 = 1;
        for (_, coeff) in &self.terms {
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
        let var = upper(var);
        self.atom_refs().any(|a| a.hides_var(&var))
    }

    // ----- arithmetic -------------------------------------------------------

    pub fn checked_add(&self, other: &Poly) -> Option<Poly> {
        self.merged(other, Some)
    }

    pub fn checked_sub(&self, other: &Poly) -> Option<Poly> {
        self.merged(other, Rat::checked_neg)
    }

    /// `self + Σ sign(c)·m` over `other`'s terms: one merge of the two
    /// sorted runs.
    fn merged(&self, other: &Poly, sign: impl Fn(Rat) -> Option<Rat>) -> Option<Poly> {
        let sum = |c: Rat, d: Rat| Some(Some(c.checked_add(sign(d)?)?).filter(|s| !s.is_zero()));
        Some(Poly { terms: merge_sorted(&self.terms, &other.terms, sum, &sign)? })
    }

    pub(crate) fn checked_neg(&self) -> Option<Poly> {
        self.map_coeffs(Rat::checked_neg)
    }

    /// The same monomials under new nonzero coefficients.
    fn map_coeffs(&self, f: impl Fn(Rat) -> Option<Rat>) -> Option<Poly> {
        let mut terms = Vec::with_capacity(self.terms.len());
        for (m, c) in &self.terms {
            terms.push((m.clone(), f(*c)?));
        }
        Some(Poly { terms })
    }

    pub fn checked_mul(&self, other: &Poly) -> Option<Poly> {
        let mut raw = Vec::with_capacity(self.terms.len() * other.terms.len());
        for (ma, ca) in &self.terms {
            for (mb, cb) in &other.terms {
                raw.push((ma.mul(mb), ca.checked_mul(*cb)?));
            }
        }
        Poly::normalized(raw)
    }

    pub fn checked_scale(&self, k: Rat) -> Option<Poly> {
        if k.is_zero() {
            return Some(Poly::zero());
        }
        self.map_coeffs(|c| c.checked_mul(k))
    }

    pub(crate) fn checked_pow(&self, exp: u32) -> Option<Poly> {
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
        let var = upper(var);
        if self.var_hidden_in_opaque(&var) {
            return None;
        }
        // powers[k] = value^(k+1), each computed once.
        let mut powers: Vec<Poly> = Vec::new();
        for _ in 0..self.degree_in(&var) {
            let next = match powers.last() {
                None => value.clone(),
                Some(top) => top.checked_mul(value)?,
            };
            powers.push(next);
        }
        let mut raw = Vec::with_capacity(self.terms.len());
        for (m, c) in &self.terms {
            let (pow, rest) = m.split(|a| a.is_var(&var));
            if pow == 0 {
                raw.push((rest, *c));
                continue;
            }
            for (vm, vc) in &powers[pow as usize - 1].terms {
                raw.push((rest.mul(vm), c.checked_mul(*vc)?));
            }
        }
        Poly::normalized(raw)
    }

    /// Forward difference `p[var := var+1] - p` — the monotonicity probe
    /// of the range test (§3.3.1). Term by term:
    /// `c·r·((v+1)^k − v^k) = c·r·Σ_{j<k} C(k,j)·v^j`, so a term without
    /// `var` contributes nothing and nothing is built to be cancelled.
    pub fn forward_diff(&self, var: &str) -> Option<Poly> {
        let var = upper(var);
        if self.var_hidden_in_opaque(&var) {
            return None;
        }
        let mut raw = Vec::new();
        for (m, c) in &self.terms {
            let Some(at) = m.0.iter().position(|(a, _)| a.is_var(&var)) else { continue };
            let k = m.0[at].1;
            let mut binomial: i128 = 1; // C(k, 0)
            for j in 0..k {
                let mut lower = m.clone();
                if j == 0 {
                    lower.0.remove(at);
                } else {
                    lower.0[at].1 = j;
                }
                raw.push((lower, c.checked_mul(Rat::int(binomial))?));
                // C(k, j+1) = C(k, j)·(k−j)/(j+1), exactly.
                binomial = binomial.checked_mul((k - j) as i128)? / (j as i128 + 1);
            }
        }
        Poly::normalized(raw)
    }

    /// Split into `(coefficient polynomials by power of var, rest)`:
    /// `p = Σ_k coeff[k] * var^k`. Entry 0 is the var-free part. Returns
    /// `None` if `var` hides inside an opaque atom.
    pub fn by_powers_of(&self, var: &str) -> Option<Vec<Poly>> {
        let var = upper(var);
        if self.var_hidden_in_opaque(&var) {
            return None;
        }
        Some(self.coefficients_of(|a| a.is_var(&var)))
    }

    /// Split into coefficient polynomials by power of an arbitrary
    /// [`Atom`] (variable *or* opaque): `p = Σ_k coeff[k] * atom^k`.
    /// Unlike [`Poly::by_powers_of`] this never fails: an opaque atom is
    /// indivisible, so it cannot "hide" inside another atom. (A variable
    /// hidden inside a *different* opaque atom is fine here because the
    /// caller is eliminating the atom itself, not the variable.)
    pub fn by_powers_of_atom(&self, atom: &Atom) -> Vec<Poly> {
        self.coefficients_of(|a| a == atom)
    }

    /// `coeff[k]` with `self = Σ_k coeff[k] * chosen^k`. A bucket is
    /// filled by push and never summed: two terms with the same power of
    /// the chosen atom differ in what remains, so no coefficient
    /// arithmetic happens here and none can overflow.
    fn coefficients_of(&self, chosen: impl Fn(&Atom) -> bool) -> Vec<Poly> {
        let mut buckets: Vec<Vec<(Monomial, Rat)>> = vec![Vec::new()];
        for (m, c) in &self.terms {
            let (pow, rest) = m.split(&chosen);
            if buckets.len() <= pow as usize {
                buckets.resize_with(pow as usize + 1, Vec::new);
            }
            buckets[pow as usize].push((rest, *c));
        }
        // Dropping a factor can reorder what remains (`I*J` sorts before
        // `J`, their `J`-coefficients `I` and `1` the other way round).
        buckets.into_iter().map(Poly::from_distinct).collect()
    }

    /// Highest power of `atom` in any term.
    pub(crate) fn degree_in_atom(&self, atom: &Atom) -> u32 {
        self.terms.iter().map(|(m, _)| m.degree_in_atom(atom)).max().unwrap_or(0)
    }

    /// Linear decomposition over `vars`: `p = rest + Σ coeff_i * vars_i`
    /// with every `coeff_i` constant and `rest` free of `vars`. Returns
    /// `None` if `p` is nonlinear in the `vars` or a coefficient is
    /// symbolic — exactly the applicability condition of the classic
    /// (Banerjee/GCD) tests the paper contrasts the range test against.
    pub fn linear_in(&self, vars: &[Name]) -> Option<(Poly, Vec<Rat>)> {
        let mut coeffs = vec![Rat::ZERO; vars.len()];
        // A subsequence of `self.terms`, so already canonical.
        let mut rest = Vec::new();
        for (m, c) in &self.terms {
            // Which of the vars appear in this monomial?
            let mut hit: Option<usize> = None;
            for (i, v) in vars.iter().enumerate() {
                let v = upper(v);
                let d = m.degree_in(&v);
                // Nonlinear, a product of two of the vars, or a var
                // hidden inside an opaque atom of this monomial.
                if d > 1 || (d == 1 && hit.is_some()) || m.0.iter().any(|(a, _)| a.hides_var(&v)) {
                    return None;
                }
                if d == 1 {
                    hit = Some(i);
                }
            }
            match hit {
                // The coefficient must be constant: the monomial is the
                // var, and a canonical form has that monomial once.
                Some(_) if m.0.len() != 1 => return None,
                Some(i) => coeffs[i] = *c,
                None => rest.push((m.clone(), *c)),
            }
        }
        Some((Poly { terms: rest }, coeffs))
    }

    /// Evaluate with an assignment of rationals to variables; opaque
    /// atoms make evaluation fail. (Test oracle.)
    #[cfg(test)]
    pub(crate) fn eval(&self, env: &std::collections::BTreeMap<String, Rat>) -> Option<Rat> {
        let mut total = Rat::ZERO;
        for (m, c) in &self.terms {
            let mut acc = *c;
            for (a, p) in &m.0 {
                let base = match a {
                    Atom::Var(n) => *env.get(&**n)?,
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
        for (_, c) in &self.terms {
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
    use std::collections::BTreeMap;

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
            f.linear_in(&["I".into(), "J".into()]).unwrap();
        assert_eq!(coeffs, vec![Rat::int(2), Rat::int(3)]);
        assert_eq!(rest, p("n + 7"));
        // n*i has symbolic coefficient: not linear for Banerjee/GCD
        let g = p("n*i + 1");
        assert!(g.linear_in(&["I".into()]).is_none());
        // i*i nonlinear
        let h = p("i*i");
        assert!(h.linear_in(&["I".into()]).is_none());
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

    // ----- the flat form: invariant, ring laws, evaluation -----------------

    /// Sorted strictly by monomial (so none repeats), no zero coefficient;
    /// every monomial sorted strictly by atom, no zero power.
    fn assert_canonical(q: &Poly) {
        assert!(q.terms.windows(2).all(|w| w[0].0 < w[1].0), "terms out of order: {q:?}");
        for (m, c) in &q.terms {
            assert!(!c.is_zero(), "zero coefficient: {q:?}");
            assert!(m.0.windows(2).all(|w| w[0].0 < w[1].0), "factors out of order: {q:?}");
            assert!(m.0.iter().all(|(_, pow)| *pow > 0), "zero power: {q:?}");
        }
    }

    fn opaque_atom() -> Atom {
        Atom::opaque(Expr::index("Z", vec![Expr::var("K")]))
    }

    /// A polynomial in I, J, N and the opaque `Z(K)`: up to five terms of
    /// total degree at most 3, coefficients `num/den`.
    fn arb_poly() -> impl Strategy<Value = Poly> {
        let term = (-6i128..7, 1i128..4, 0u32..4, 0u32..3, 0u32..2, 0u32..2);
        proptest::collection::vec(term, 0..6).prop_map(|terms| {
            let mut raw = Vec::new();
            for (num, den, pi, pj, pn, pz) in terms {
                let factors = [(Atom::var("I"), pi), (Atom::var("J"), pj), (Atom::var("N"), pn), (opaque_atom(), pz)];
                let kept: Vec<_> = factors.into_iter().filter(|(_, pow)| *pow > 0).collect();
                if kept.iter().map(|(_, pow)| pow).sum::<u32>() <= 3 {
                    raw.push((Monomial(kept), Rat::new(num, den).unwrap()));
                }
            }
            Poly::normalized(raw).unwrap()
        })
    }

    /// A point: values for I, J, N and for the opaque atom.
    fn arb_point() -> impl Strategy<Value = [Rat; 4]> {
        (-4i128..5, -4i128..5, -4i128..5, -4i128..5)
            .prop_map(|(i, j, n, z)| [Rat::int(i), Rat::int(j), Rat::int(n), Rat::int(z)])
    }

    /// [`Poly::eval`] with a value for the opaque atom too.
    fn eval_at_point(q: &Poly, at: &[Rat; 4]) -> Rat {
        let mut total = Rat::ZERO;
        for (m, c) in &q.terms {
            let mut acc = *c;
            for (a, pow) in &m.0 {
                let base = match a {
                    Atom::Var(n) => at[["I", "J", "N"].iter().position(|v| **v == **n).unwrap()],
                    Atom::Opaque { .. } => at[3],
                };
                acc = acc.checked_mul(base.checked_pow(*pow).unwrap()).unwrap();
            }
            total = total.checked_add(acc).unwrap();
        }
        total
    }

    #[test]
    fn coefficient_buckets_are_re_sorted() {
        // `I*J` sorts before `J`, their J-coefficients `I` and `1` do not.
        let parts = p("i*j + j + 2").by_powers_of("J").unwrap();
        assert_eq!(parts, vec![p("2"), p("1 + i")]);
        parts.iter().for_each(assert_canonical);
    }

    #[test]
    fn overflow_is_none_never_a_partial_sum() {
        let max = Poly::int(i128::MAX);
        let i_max = Poly::var("I").checked_scale(Rat::int(i128::MAX)).unwrap();
        // add: the J terms could be summed, the I terms cannot — no result.
        let a = i_max.checked_add(&Poly::var("J")).unwrap();
        assert_eq!(a.checked_add(&p("i + j")), None);
        assert_eq!(a.checked_sub(&p("j - i")), None);
        assert_eq!(max.checked_add(&Poly::int(1)), None);
        // negation of the one value without a negative
        assert_eq!(Poly::int(i128::MIN).checked_neg(), None);
        assert_eq!(Poly::zero().checked_sub(&Poly::int(i128::MIN)), None);
        // mul: in a coefficient product, and in the fold of equal monomials
        assert_eq!(i_max.checked_mul(&p("2*j")), None);
        let half = Poly::var("I").checked_scale(Rat::int(i128::MAX / 2 + 1)).unwrap();
        let both = half.checked_add(&Poly::var("J").checked_scale(Rat::int(i128::MAX / 2 + 1)).unwrap());
        assert_eq!(both.unwrap().checked_mul(&p("i + j")), None, "the I*J coefficients sum past i128");
        // pow, scale, subst
        assert_eq!(Poly::int(1 << 100).checked_pow(2), None);
        assert_eq!(p("i + 1").checked_scale(Rat::int(i128::MAX)).and_then(|q| q.checked_pow(2)), None);
        assert_eq!(max.checked_scale(Rat::int(2)), None);
        assert_eq!(i_max.subst_var("I", &p("2*j")), None);
        assert_eq!(i_max.checked_add(&p("j")).unwrap().subst_var("I", &p("j + 1")), None);
        assert_eq!(i_max.forward_diff("I"), Some(max));
    }

    proptest! {
        #[test]
        fn prop_ring_laws_hold_in_canonical_form(a in arb_poly(), b in arb_poly(), c in arb_poly()) {
            let add = |x: &Poly, y: &Poly| x.checked_add(y).unwrap();
            let mul = |x: &Poly, y: &Poly| x.checked_mul(y).unwrap();
            prop_assert_eq!(add(&a, &b), add(&b, &a));
            prop_assert_eq!(add(&add(&a, &b), &c), add(&a, &add(&b, &c)));
            prop_assert_eq!(mul(&a, &b), mul(&b, &a));
            prop_assert_eq!(mul(&mul(&a, &b), &c), mul(&a, &mul(&b, &c)));
            prop_assert_eq!(mul(&a, &add(&b, &c)), add(&mul(&a, &b), &mul(&a, &c)));
            prop_assert_eq!(add(&a, &Poly::zero()), a.clone());
            prop_assert_eq!(mul(&a, &Poly::int(1)), a.clone());
            prop_assert_eq!(mul(&a, &Poly::zero()), Poly::zero());
            prop_assert_eq!(a.checked_sub(&a).unwrap(), Poly::zero());
            prop_assert_eq!(a.checked_sub(&b).unwrap(), add(&a, &b.checked_neg().unwrap()));
            prop_assert_eq!(a.checked_pow(2).unwrap(), mul(&a, &a));
            for q in [add(&a, &b), a.checked_sub(&b).unwrap(), mul(&a, &b), mul(&mul(&a, &b), &c)] {
                assert_canonical(&q);
            }
        }

        #[test]
        fn prop_evaluation_is_a_homomorphism(a in arb_poly(), b in arb_poly(), at in arb_point()) {
            let (va, vb) = (eval_at_point(&a, &at), eval_at_point(&b, &at));
            prop_assert_eq!(eval_at_point(&a.checked_add(&b).unwrap(), &at), va.checked_add(vb).unwrap());
            prop_assert_eq!(eval_at_point(&a.checked_sub(&b).unwrap(), &at), va.checked_sub(vb).unwrap());
            prop_assert_eq!(eval_at_point(&a.checked_mul(&b).unwrap(), &at), va.checked_mul(vb).unwrap());
            // a[I := b] at the point = a at the point with I := b's value there.
            let substituted = a.subst_var("I", &b).unwrap();
            assert_canonical(&substituted);
            let moved = [vb, at[1], at[2], at[3]];
            prop_assert_eq!(eval_at_point(&substituted, &at), eval_at_point(&a, &moved));
            // Δ_I a at the point = a(I + 1) − a(I).
            let diff = a.forward_diff("I").unwrap();
            assert_canonical(&diff);
            let stepped = [at[0].checked_add(Rat::ONE).unwrap(), at[1], at[2], at[3]];
            prop_assert_eq!(eval_at_point(&diff, &at), eval_at_point(&a, &stepped).checked_sub(va).unwrap());
        }

        #[test]
        fn prop_coefficient_splits_recompose(a in arb_poly()) {
            let recomposed = |parts: &[Poly], base: &Poly| {
                let mut sum = Poly::zero();
                for (k, part) in parts.iter().enumerate() {
                    parts[k..].iter().for_each(assert_canonical);
                    let shifted = part.checked_mul(&base.checked_pow(k as u32).unwrap()).unwrap();
                    sum = sum.checked_add(&shifted).unwrap();
                }
                sum
            };
            for v in ["I", "J", "N"] {
                let parts = a.by_powers_of(v).unwrap();
                prop_assert_eq!(parts.len() as u32, a.degree_in(v) + 1);
                prop_assert!(parts.iter().all(|part| part.degree_in(v) == 0));
                prop_assert_eq!(recomposed(&parts, &Poly::var(v)), a.clone());
            }
            let z = opaque_atom();
            let parts = a.by_powers_of_atom(&z);
            prop_assert_eq!(parts.len() as u32, a.degree_in_atom(&z) + 1);
            prop_assert_eq!(recomposed(&parts, &Poly::opaque(z.to_expr())), a.clone());
            // Linear decomposition, when it applies, recomposes too.
            let vars: [Name; 2] = ["I".into(), "J".into()];
            if let Some((rest, coeffs)) = a.linear_in(&vars) {
                assert_canonical(&rest);
                let mut sum = rest;
                for (v, c) in vars.iter().zip(coeffs) {
                    sum = sum.checked_add(&Poly::var(v.clone()).checked_scale(c).unwrap()).unwrap();
                }
                prop_assert_eq!(sum, a.clone());
            }
        }

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

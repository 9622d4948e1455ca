//! Expressions: the recursive tree at the heart of the IR.
//!
//! Mirrors the Polaris `Expression` class hierarchy: a small closed set of
//! node kinds with rich member functions — type/rank queries, structural
//! equality, substitution, traversal, constant folding — plus the
//! `Wildcard` node used by the pattern-matching layer (see
//! [`crate::pattern`], the analogue of Polaris' "Forbol").

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical negation `.NOT. e`.
    Not,
}

/// Binary operators, both arithmetic and logical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    /// Exponentiation `**`.
    Pow,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// True for `< <= > >= == /=`.
    pub fn is_relational(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }

    /// True for `+ - * / **`.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow)
    }

    /// The Fortran spelling used by the unparser.
    pub(crate) fn fortran(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "**",
            BinOp::Lt => ".LT.",
            BinOp::Le => ".LE.",
            BinOp::Gt => ".GT.",
            BinOp::Ge => ".GE.",
            BinOp::Eq => ".EQ.",
            BinOp::Ne => ".NE.",
            BinOp::And => ".AND.",
            BinOp::Or => ".OR.",
        }
    }

    /// Logical negation of a relational operator.
    pub fn negate(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            _ => return None,
        })
    }
}

/// Reduction operators recognized by the idiom-recognition pass (§3.2).
///
/// `+` and `*` cover the paper's additive/multiplicative recurrences; `MAX`
/// and `MIN` cover the intrinsic-call form (`X = MAX(X, e)`) which occurs
/// in time-step computations (e.g. HYDRO2D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOp {
    Sum,
    Product,
    Max,
    Min,
}

impl RedOp {
    pub fn fortran(self) -> &'static str {
        match self {
            RedOp::Sum => "+",
            RedOp::Product => "*",
            RedOp::Max => "MAX",
            RedOp::Min => "MIN",
        }
    }
}

/// An identifier the IR stores, upper-cased when it is made (Fortran is
/// case-insensitive). A clone shares the text, so cloning an expression
/// allocates only its nodes. Not an interned number: it orders, hashes,
/// compares and prints (`Debug`, `Display`) exactly as its string does.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl<S: AsRef<str>> From<S> for Name {
    fn from(s: S) -> Name {
        let s = s.as_ref();
        match s.bytes().any(|b| b.is_ascii_lowercase()) {
            true => Name(Arc::from(s.to_ascii_uppercase())),
            false => Name(Arc::from(s)),
        }
    }
}

impl<S: AsRef<str> + ?Sized> PartialEq<S> for Name {
    fn eq(&self, other: &S) -> bool {
        *self.0 == *other.as_ref()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

/// An expression tree node.
///
/// Names are shared [`Name`]s, upper-cased (Fortran is case-insensitive).
/// Structural equality is `PartialEq`; pattern matching with wildcards
/// lives in [`crate::pattern`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `.TRUE.` / `.FALSE.`.
    Logical(bool),
    /// Character literal (only meaningful inside `PRINT`).
    Str(String),
    /// Scalar variable reference.
    Var(Name),
    /// Array element reference `A(i, j, ...)`.
    Index { array: Name, subs: Vec<Expr> },
    /// Function or intrinsic call `F(args...)`.
    Call { name: Name, args: Vec<Expr> },
    /// Unary operation.
    Un { op: UnOp, arg: Box<Expr> },
    /// Binary operation.
    Bin { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Pattern-matching wildcard (never appears in a program; see
    /// [`crate::pattern`]). The id distinguishes multiple wildcards within
    /// one pattern; equal ids must bind structurally equal subtrees.
    Wildcard(u32),
}

impl Expr {
    // ----- constructors -------------------------------------------------

    pub fn var(name: impl Into<Name>) -> Expr {
        Expr::Var(name.into())
    }

    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    pub fn index(array: impl Into<Name>, subs: Vec<Expr>) -> Expr {
        Expr::Index { array: array.into(), subs }
    }

    pub fn call(name: impl Into<Name>, args: Vec<Expr>) -> Expr {
        Expr::Call { name: name.into(), args }
    }

    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }

    pub fn un(op: UnOp, arg: Expr) -> Expr {
        Expr::Un { op, arg: Box::new(arg) }
    }

    // Static builder shorthands, deliberately named after the operators
    // they build (they take two operands, not `self`, so the std ops
    // traits do not apply).
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, lhs, rhs)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, lhs, rhs)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn div(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, lhs, rhs)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn neg(arg: Expr) -> Expr {
        Expr::un(UnOp::Neg, arg)
    }

    // ----- queries ------------------------------------------------------

    /// True if this is an integer or real literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_))
    }

    /// Returns the integer value if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            Expr::Un { op: UnOp::Neg, arg } => arg.as_int().map(|v| -v),
            _ => None,
        }
    }

    /// Does the expression reference variable or array `name` anywhere
    /// (as a scalar, an array base, or a call target)?
    pub fn references(&self, name: &str) -> bool {
        let mut found = false;
        self.for_each(&mut |e| match e {
            Expr::Var(n) | Expr::Index { array: n, .. } | Expr::Call { name: n, .. }
                if n == name => {
                    found = true;
                }
            _ => {}
        });
        found
    }

    /// Does the expression reference scalar variable `name`?
    pub fn references_var(&self, name: &str) -> bool {
        let mut found = false;
        self.for_each(&mut |e| {
            if let Expr::Var(n) = e {
                if n == name {
                    found = true;
                }
            }
        });
        found
    }

    /// All scalar variable names referenced, in sorted order.
    pub fn variables(&self) -> BTreeSet<Name> {
        let mut set = BTreeSet::new();
        self.for_each(&mut |e| {
            if let Expr::Var(n) = e {
                set.insert(n.clone());
            }
        });
        set
    }

    /// All array names indexed anywhere in the expression.
    pub fn arrays(&self) -> BTreeSet<Name> {
        let mut set = BTreeSet::new();
        self.for_each(&mut |e| {
            if let Expr::Index { array, .. } = e {
                set.insert(array.clone());
            }
        });
        set
    }

    // ----- traversal ----------------------------------------------------

    /// Pre-order traversal over every node, including `self`.
    pub fn for_each<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Index { subs, .. } => subs.iter().for_each(|s| s.for_each(f)),
            Expr::Call { args, .. } => args.iter().for_each(|a| a.for_each(f)),
            Expr::Un { arg, .. } => arg.for_each(f),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.for_each(f);
                rhs.for_each(f);
            }
            _ => {}
        }
    }

    /// Bottom-up rewriting in place: children are rewritten first, then
    /// the node is moved through `f` and replaced by what it returns.
    /// Nothing is rebuilt that `f` does not rebuild, and `f` sees each
    /// node of the original tree once, post-order; a subtree `f` returns
    /// is not walked again. `f` applies a node-level rule: calling a
    /// whole-tree rewrite inside it re-walks every subtree at every node.
    pub fn rewrite(&mut self, f: &mut dyn FnMut(Expr) -> Expr) {
        match self {
            Expr::Index { subs: kids, .. } | Expr::Call { args: kids, .. } => {
                kids.iter_mut().for_each(|k| k.rewrite(f))
            }
            Expr::Un { arg, .. } => arg.rewrite(f),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.rewrite(f);
                rhs.rewrite(f);
            }
            _ => {}
        }
        let node = std::mem::replace(self, Expr::Int(0));
        *self = f(node);
    }

    /// [`Expr::rewrite`] of a copy: the workhorse behind substitution and
    /// simplification when the original must stay.
    pub fn map(&self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
        let mut out = self.clone();
        out.rewrite(f);
        out
    }

    /// Replace every occurrence of scalar variable `name` with `value`.
    pub fn substitute_var(&self, name: &str, value: &Expr) -> Expr {
        self.map(&mut |e| match &e {
            Expr::Var(n) if n == name => value.clone(),
            _ => e,
        })
    }

    // ----- simplification -----------------------------------------------

    /// Light algebraic simplification: constant folding plus the identity
    /// rules `0+x`, `x*1`, `x*0`, `x-0`, `x**1`, double negation. Deep
    /// canonical simplification lives in `polaris-symbolic`; this is the
    /// "structural cleanup" Polaris performed inside the IR layer.
    pub fn simplified(&self) -> Expr {
        self.map(&mut Expr::simplify_node)
    }

    /// The node rule of [`Expr::simplified`]: one rule applied to one
    /// node whose children are already simplified. A tree rewritten
    /// bottom-up by it is a fixed point of `simplified`.
    pub fn simplify_node(e: Expr) -> Expr {
        match e {
            Expr::Un { op, mut arg } => match (op, arg.as_mut()) {
                (UnOp::Neg, Expr::Int(v)) => Expr::Int(-*v),
                (UnOp::Neg, Expr::Real(v)) => Expr::Real(-*v),
                (UnOp::Neg, Expr::Un { op: UnOp::Neg, arg: inner }) => {
                    std::mem::replace(inner.as_mut(), Expr::Int(0))
                }
                (UnOp::Not, Expr::Logical(b)) => Expr::Logical(!*b),
                _ => Expr::Un { op, arg },
            },
            Expr::Bin { op, lhs, rhs } => match fold_bin(op, &lhs, &rhs) {
                Some(Folded::To(value)) => value,
                Some(Folded::Lhs) => *lhs,
                Some(Folded::Rhs) => *rhs,
                None => Expr::Bin { op, lhs, rhs },
            },
            other => other,
        }
    }
}

/// What a binary node folds to: a new value, or one of its operands
/// (moved out, not copied).
enum Folded {
    To(Expr),
    Lhs,
    Rhs,
}

fn fold_bin(op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<Folded> {
    use BinOp::*;
    use Folded::*;
    // Integer constant folding.
    if let (Expr::Int(a), Expr::Int(b)) = (lhs, rhs) {
        let (a, b) = (*a, *b);
        let v = match op {
            Add => a.checked_add(b),
            Sub => a.checked_sub(b),
            Mul => a.checked_mul(b),
            Div if b != 0 => Some(a.wrapping_div(b)),
            Pow if (0..=62).contains(&b) => a.checked_pow(b as u32),
            Lt => return Some(To(Expr::Logical(a < b))),
            Le => return Some(To(Expr::Logical(a <= b))),
            Gt => return Some(To(Expr::Logical(a > b))),
            Ge => return Some(To(Expr::Logical(a >= b))),
            Eq => return Some(To(Expr::Logical(a == b))),
            Ne => return Some(To(Expr::Logical(a != b))),
            _ => None,
        };
        if let Some(v) = v {
            return Some(To(Expr::Int(v)));
        }
    }
    // Real constant folding (only for exact operations; comparisons are
    // folded since literal comparison is deterministic).
    if let (Expr::Real(a), Expr::Real(b)) = (lhs, rhs) {
        let (a, b) = (*a, *b);
        return Some(To(match op {
            Add => Expr::Real(a + b),
            Sub => Expr::Real(a - b),
            Mul => Expr::Real(a * b),
            Div if b != 0.0 => Expr::Real(a / b),
            Lt => Expr::Logical(a < b),
            Le => Expr::Logical(a <= b),
            Gt => Expr::Logical(a > b),
            Ge => Expr::Logical(a >= b),
            Eq => Expr::Logical(a == b),
            Ne => Expr::Logical(a != b),
            _ => return None,
        }));
    }
    // Identities.
    match (op, lhs, rhs) {
        (Add, Expr::Int(0), _) => Some(Rhs),
        (Add, _, Expr::Int(0)) => Some(Lhs),
        (Sub, _, Expr::Int(0)) => Some(Lhs),
        (Mul, Expr::Int(1), _) => Some(Rhs),
        (Mul, _, Expr::Int(1)) => Some(Lhs),
        (Mul, Expr::Int(0), _) | (Mul, _, Expr::Int(0)) => Some(To(Expr::Int(0))),
        (Div, _, Expr::Int(1)) => Some(Lhs),
        (Pow, _, Expr::Int(1)) => Some(Lhs),
        (Pow, _, Expr::Int(0)) => Some(To(Expr::Int(1))),
        (And, Expr::Logical(true), _) => Some(Rhs),
        (And, _, Expr::Logical(true)) => Some(Lhs),
        (And, Expr::Logical(false), _) | (And, _, Expr::Logical(false)) => {
            Some(To(Expr::Logical(false)))
        }
        (Or, Expr::Logical(false), _) => Some(Rhs),
        (Or, _, Expr::Logical(false)) => Some(Lhs),
        (Or, Expr::Logical(true), _) | (Or, _, Expr::Logical(true)) => Some(To(Expr::Logical(true))),
        _ => None,
    }
}

/// True if `name` is a recognized F-Mini intrinsic.
pub fn is_intrinsic(name: &str) -> bool {
    matches!(
        name,
        "MOD"
            | "MAX"
            | "MIN"
            | "MAX0"
            | "MIN0"
            | "AMAX1"
            | "AMIN1"
            | "DMAX1"
            | "DMIN1"
            | "ABS"
            | "IABS"
            | "SIGN"
            | "SQRT"
            | "SIN"
            | "COS"
            | "TAN"
            | "EXP"
            | "LOG"
            | "ATAN"
            | "INT"
            | "NINT"
            | "REAL"
            | "DBLE"
            | "FLOAT"
    )
}

/// The left-hand side of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar assignment target.
    Var(Name),
    /// Array element assignment target.
    Index { array: Name, subs: Vec<Expr> },
}

impl LValue {
    /// The variable or array name being assigned.
    pub fn name(&self) -> &Name {
        match self {
            LValue::Var(n) => n,
            LValue::Index { array, .. } => array,
        }
    }

    /// The subscripts, empty for a scalar target.
    pub fn subs(&self) -> &[Expr] {
        match self {
            LValue::Var(_) => &[],
            LValue::Index { subs, .. } => subs,
        }
    }

    /// View the target as an [`Expr`] (useful for uniform analysis of
    /// reads and writes).
    pub fn as_expr(&self) -> Expr {
        match self {
            LValue::Var(n) => Expr::Var(n.clone()),
            LValue::Index { array, subs } => {
                Expr::Index { array: array.clone(), subs: subs.clone() }
            }
        }
    }

    /// [`Expr::rewrite`] every subscript in place.
    pub fn rewrite_subs(&mut self, f: &mut dyn FnMut(Expr) -> Expr) {
        if let LValue::Index { subs, .. } = self {
            subs.iter_mut().for_each(|s| s.rewrite(f));
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::format_expr(self))
    }
}

impl fmt::Display for LValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::format_expr(&self.as_expr()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeSet, HashSet};
    use std::hash::{Hash, Hasher};

    fn n(s: &str) -> Expr {
        Expr::var(s)
    }

    #[test]
    fn structural_equality() {
        let a = Expr::add(n("I"), Expr::int(1));
        let b = Expr::add(n("I"), Expr::int(1));
        let c = Expr::add(Expr::int(1), n("I"));
        assert_eq!(a, b);
        assert_ne!(a, c, "structural equality is not commutative-aware");
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        // K + A(K) + F(K)  with K := I+1
        let e = Expr::add(
            Expr::add(n("K"), Expr::index("A", vec![n("K")])),
            Expr::call("F", vec![n("K")]),
        );
        let s = e.substitute_var("K", &Expr::add(n("I"), Expr::int(1)));
        assert!(!s.references_var("K"));
        assert!(s.references_var("I"));
        assert_eq!(s.variables().len(), 1);
    }

    #[test]
    fn simplify_folds_constants_and_identities() {
        let e = Expr::add(Expr::mul(Expr::int(0), n("X")), Expr::mul(n("Y"), Expr::int(1)));
        assert_eq!(e.simplified(), n("Y"));
        let e = Expr::bin(BinOp::Pow, Expr::int(2), Expr::int(10));
        assert_eq!(e.simplified(), Expr::Int(1024));
        let e = Expr::neg(Expr::neg(n("Z")));
        assert_eq!(e.simplified(), n("Z"));
        let e = Expr::bin(BinOp::Lt, Expr::int(3), Expr::int(4));
        assert_eq!(e.simplified(), Expr::Logical(true));
    }

    #[test]
    fn simplify_does_not_fold_overflow() {
        let e = Expr::mul(Expr::int(i64::MAX), Expr::int(2));
        // must not panic, must stay a Mul node
        assert!(matches!(e.simplified(), Expr::Bin { op: BinOp::Mul, .. }));
    }

    #[test]
    fn variables_and_arrays_are_separated() {
        let e = Expr::add(Expr::index("A", vec![n("I")]), n("J"));
        assert_eq!(e.variables().into_iter().collect::<Vec<_>>(), vec!["I", "J"]);
        assert_eq!(e.arrays().into_iter().collect::<Vec<_>>(), vec!["A"]);
    }

    #[test]
    fn as_int_handles_negation() {
        assert_eq!(Expr::neg(Expr::int(5)).as_int(), Some(-5));
        assert_eq!(n("I").as_int(), None);
    }

    #[test]
    fn lvalue_roundtrip() {
        let lv = LValue::Index { array: "A".into(), subs: vec![n("I")] };
        assert_eq!(lv.name(), "A");
        assert_eq!(lv.subs().len(), 1);
        assert_eq!(lv.as_expr(), Expr::index("A", vec![n("I")]));
    }


    const SPELLINGS: [&str; 7] = ["I", "A1", "A10", "A2", "B_1", "", "ZZ"];

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_name_sorts_hashes_compares_and_prints_as_its_string() {
        for a in SPELLINGS {
            let (na, sa) = (Name::from(a), a.to_string());
            assert_eq!(hash_of(&na), hash_of(&sa), "{a}");
            assert_eq!(format!("{na:?}"), format!("{sa:?}"));
            assert_eq!(format!("{na}|{na:>5}|{na:<4}"), format!("{sa}|{sa:>5}|{sa:<4}"));
            assert!(na == a && na == sa && na == *sa);
            for b in SPELLINGS {
                let (nb, sb) = (Name::from(b), b.to_string());
                assert_eq!(na.cmp(&nb), sa.cmp(&sb), "{a} vs {b}");
                assert_eq!(na == nb, sa == sb, "{a} vs {b}");
            }
        }
        let names: BTreeSet<Name> = SPELLINGS.iter().map(|&s| Name::from(s)).collect();
        let strings: BTreeSet<String> = SPELLINGS.iter().map(|&s| s.to_string()).collect();
        assert!(names.iter().map(|n| &**n).eq(strings.iter().map(String::as_str)));
        assert_eq!(format!("{names:?}"), format!("{strings:?}"));
    }

    #[test]
    fn sets_of_names_answer_lookups_by_str_and_clones_share_the_text() {
        let set: HashSet<Name> = SPELLINGS.iter().map(|&s| Name::from(s)).collect();
        assert!(SPELLINGS.iter().all(|s| set.contains(*s)) && !set.contains("A3"));
        let n = Name::from("WORK");
        assert!(std::ptr::eq(n.as_ptr(), n.clone().as_ptr()));
    }
}

//! Expressions: the recursive tree at the heart of the IR.
//!
//! Mirrors the Polaris `Expression` class hierarchy: a small closed set of
//! node kinds with rich member functions — type/rank queries, structural
//! equality, substitution, traversal, constant folding — plus the
//! `Wildcard` node used by the pattern-matching layer (see
//! [`crate::pattern`], the analogue of Polaris' "Forbol").

use std::collections::BTreeSet;
use std::fmt;

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

/// An expression tree node.
///
/// Names are stored upper-cased (Fortran is case-insensitive); the parser
/// normalizes. Structural equality is `PartialEq`; pattern matching with
/// wildcards lives in [`crate::pattern`].
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
    Var(String),
    /// Array element reference `A(i, j, ...)`.
    Index { array: String, subs: Vec<Expr> },
    /// Function or intrinsic call `F(args...)`.
    Call { name: String, args: Vec<Expr> },
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

    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into().to_ascii_uppercase())
    }

    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    pub fn index(array: impl Into<String>, subs: Vec<Expr>) -> Expr {
        Expr::Index { array: array.into().to_ascii_uppercase(), subs }
    }

    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call { name: name.into().to_ascii_uppercase(), args }
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
    pub fn variables(&self) -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        self.for_each(&mut |e| {
            if let Expr::Var(n) = e {
                set.insert(n.clone());
            }
        });
        set
    }

    /// All array names indexed anywhere in the expression.
    pub fn arrays(&self) -> BTreeSet<String> {
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
    pub fn for_each(&self, f: &mut dyn FnMut(&Expr)) {
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

    /// Bottom-up rewriting: children are rewritten first, then `f` is
    /// applied to the rebuilt node. This is the workhorse behind
    /// substitution and simplification.
    pub fn map(&self, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Index { array, subs } => Expr::Index {
                array: array.clone(),
                subs: subs.iter().map(|s| s.map(f)).collect(),
            },
            Expr::Call { name, args } => Expr::Call {
                name: name.clone(),
                args: args.iter().map(|a| a.map(f)).collect(),
            },
            Expr::Un { op, arg } => Expr::Un { op: *op, arg: Box::new(arg.map(f)) },
            Expr::Bin { op, lhs, rhs } => Expr::Bin {
                op: *op,
                lhs: Box::new(lhs.map(f)),
                rhs: Box::new(rhs.map(f)),
            },
            other => other.clone(),
        };
        f(rebuilt)
    }

    /// Replace every occurrence of scalar variable `name` with `value`.
    pub fn substitute_var(&self, name: &str, value: &Expr) -> Expr {
        self.map(&mut |e| match &e {
            Expr::Var(n) if n == name => value.clone(),
            _ => e,
        })
    }

    /// Rename a scalar variable, an array base name and a call target in
    /// one sweep (used by the inliner's site-independent renaming).
    pub fn rename_symbol(&self, from: &str, to: &str) -> Expr {
        self.map(&mut |e| match e {
            Expr::Var(ref n) if n == from => Expr::Var(to.to_string()),
            Expr::Index { ref array, ref subs } if array == from => {
                Expr::Index { array: to.to_string(), subs: subs.clone() }
            }
            Expr::Call { ref name, ref args } if name == from => {
                Expr::Call { name: to.to_string(), args: args.clone() }
            }
            other => other,
        })
    }

    // ----- simplification -----------------------------------------------

    /// Light algebraic simplification: constant folding plus the identity
    /// rules `0+x`, `x*1`, `x*0`, `x-0`, `x**1`, double negation. Deep
    /// canonical simplification lives in `polaris-symbolic`; this is the
    /// "structural cleanup" Polaris performed inside the IR layer.
    pub fn simplified(&self) -> Expr {
        self.map(&mut simplify_node)
    }
}

fn simplify_node(e: Expr) -> Expr {
    match e {
        Expr::Un { op: UnOp::Neg, ref arg } => match arg.as_ref() {
            Expr::Int(v) => Expr::Int(-v),
            Expr::Real(v) => Expr::Real(-v),
            Expr::Un { op: UnOp::Neg, arg: inner } => inner.as_ref().clone(),
            _ => e,
        },
        Expr::Un { op: UnOp::Not, ref arg } => match arg.as_ref() {
            Expr::Logical(b) => Expr::Logical(!b),
            _ => e,
        },
        Expr::Bin { op, ref lhs, ref rhs } => simplify_bin(op, lhs, rhs).unwrap_or(e),
        other => other,
    }
}

fn simplify_bin(op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<Expr> {
    use BinOp::*;
    // Integer constant folding.
    if let (Expr::Int(a), Expr::Int(b)) = (lhs, rhs) {
        let (a, b) = (*a, *b);
        let v = match op {
            Add => a.checked_add(b),
            Sub => a.checked_sub(b),
            Mul => a.checked_mul(b),
            Div if b != 0 => Some(a.wrapping_div(b)),
            Pow if (0..=62).contains(&b) => a.checked_pow(b as u32),
            Lt => return Some(Expr::Logical(a < b)),
            Le => return Some(Expr::Logical(a <= b)),
            Gt => return Some(Expr::Logical(a > b)),
            Ge => return Some(Expr::Logical(a >= b)),
            Eq => return Some(Expr::Logical(a == b)),
            Ne => return Some(Expr::Logical(a != b)),
            _ => None,
        };
        if let Some(v) = v {
            return Some(Expr::Int(v));
        }
    }
    // Real constant folding (only for exact operations; comparisons are
    // folded since literal comparison is deterministic).
    if let (Expr::Real(a), Expr::Real(b)) = (lhs, rhs) {
        let (a, b) = (*a, *b);
        return Some(match op {
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
        });
    }
    // Identities.
    match (op, lhs, rhs) {
        (Add, Expr::Int(0), x) | (Add, x, Expr::Int(0)) => Some(x.clone()),
        (Sub, x, Expr::Int(0)) => Some(x.clone()),
        (Mul, Expr::Int(1), x) | (Mul, x, Expr::Int(1)) => Some(x.clone()),
        (Mul, Expr::Int(0), _) | (Mul, _, Expr::Int(0)) => Some(Expr::Int(0)),
        (Div, x, Expr::Int(1)) => Some(x.clone()),
        (Pow, x, Expr::Int(1)) => Some(x.clone()),
        (Pow, _, Expr::Int(0)) => Some(Expr::Int(1)),
        (And, Expr::Logical(true), x) | (And, x, Expr::Logical(true)) => Some(x.clone()),
        (And, Expr::Logical(false), _) | (And, _, Expr::Logical(false)) => {
            Some(Expr::Logical(false))
        }
        (Or, Expr::Logical(false), x) | (Or, x, Expr::Logical(false)) => Some(x.clone()),
        (Or, Expr::Logical(true), _) | (Or, _, Expr::Logical(true)) => Some(Expr::Logical(true)),
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
    Var(String),
    /// Array element assignment target.
    Index { array: String, subs: Vec<Expr> },
}

impl LValue {
    /// The variable or array name being assigned.
    pub fn name(&self) -> &str {
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

    /// Apply an expression rewrite to every subscript.
    pub fn map_subs(&self, f: &mut dyn FnMut(Expr) -> Expr) -> LValue {
        match self {
            LValue::Var(n) => LValue::Var(n.clone()),
            LValue::Index { array, subs } => LValue::Index {
                array: array.clone(),
                subs: subs.iter().map(|s| s.map(f)).collect(),
            },
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
    fn rename_symbol_hits_arrays_and_calls() {
        let e = Expr::add(Expr::index("A", vec![n("I")]), Expr::call("A", vec![n("J")]));
        let r = e.rename_symbol("A", "A_1");
        assert!(!r.references("A"));
        assert!(r.references("A_1"));
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
}

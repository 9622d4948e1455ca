//! Wildcard pattern matching over expressions — the analogue of the
//! Polaris `Wildcard` class and the "Forbol" pattern-matching layer.
//!
//! A *pattern* is an ordinary [`Expr`] that may contain
//! [`Expr::Wildcard`] nodes. Matching a pattern against a ground
//! expression either fails or produces [`Bindings`] from wildcard ids to
//! the matched subtrees; equal ids must bind structurally equal subtrees
//! (non-linear patterns), which is exactly what reduction recognition
//! needs for `A(σ) = A(σ) + β`.

use crate::expr::Expr;
use std::collections::BTreeMap;

/// Wildcard-id → matched subtree.
pub type Bindings = BTreeMap<u32, Expr>;

/// Match `pattern` against `expr`, extending `bindings` on success.
///
/// Returns `true` iff the whole of `expr` matches. On failure the
/// bindings may contain partial entries; callers should treat them as
/// garbage (use [`match_expr`] for a fresh map).
pub(crate) fn match_into(pattern: &Expr, expr: &Expr, bindings: &mut Bindings) -> bool {
    match (pattern, expr) {
        (Expr::Wildcard(id), e) => match bindings.get(id) {
            Some(prev) => prev == e,
            None => {
                bindings.insert(*id, e.clone());
                true
            }
        },
        (Expr::Int(a), Expr::Int(b)) => a == b,
        (Expr::Real(a), Expr::Real(b)) => a == b,
        (Expr::Logical(a), Expr::Logical(b)) => a == b,
        (Expr::Str(a), Expr::Str(b)) => a == b,
        (Expr::Var(a), Expr::Var(b)) => a == b,
        (Expr::Index { array: a, subs: sa }, Expr::Index { array: b, subs: sb }) => {
            a == b && sa.len() == sb.len() && zip_all(sa, sb, bindings)
        }
        (Expr::Call { name: a, args: aa }, Expr::Call { name: b, args: ab }) => {
            a == b && aa.len() == ab.len() && zip_all(aa, ab, bindings)
        }
        (Expr::Un { op: oa, arg: pa }, Expr::Un { op: ob, arg: ea }) => {
            oa == ob && match_into(pa, ea, bindings)
        }
        (Expr::Bin { op: oa, lhs: pl, rhs: pr }, Expr::Bin { op: ob, lhs: el, rhs: er }) => {
            oa == ob && match_into(pl, el, bindings) && match_into(pr, er, bindings)
        }
        _ => false,
    }
}

fn zip_all(pats: &[Expr], exprs: &[Expr], bindings: &mut Bindings) -> bool {
    pats.iter().zip(exprs).all(|(p, e)| match_into(p, e, bindings))
}

/// Match at the root; returns the bindings on success.
pub fn match_expr(pattern: &Expr, expr: &Expr) -> Option<Bindings> {
    let mut b = Bindings::new();
    if match_into(pattern, expr, &mut b) {
        Some(b)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn w(id: u32) -> Expr {
        Expr::Wildcard(id)
    }

    #[test]
    fn simple_binding() {
        // pattern: _0 + 1   expr: K + 1
        let pat = Expr::add(w(0), Expr::int(1));
        let e = Expr::add(Expr::var("K"), Expr::int(1));
        let b = match_expr(&pat, &e).unwrap();
        assert_eq!(b[&0], Expr::var("K"));
    }

    #[test]
    fn nonlinear_pattern_requires_equal_subtrees() {
        // pattern: _0 = _0 + _1 models a reduction RHS shape _0 + _1
        let pat = Expr::add(w(0), w(0));
        assert!(match_expr(&pat, &Expr::add(Expr::var("X"), Expr::var("X"))).is_some());
        assert!(match_expr(&pat, &Expr::add(Expr::var("X"), Expr::var("Y"))).is_none());
    }

    #[test]
    fn reduction_shape_with_array_subscripts() {
        // A(_0) + _1 matched against A(2*I) + B(I)
        let pat = Expr::add(Expr::index("A", vec![w(0)]), w(1));
        let e = Expr::add(
            Expr::index("A", vec![Expr::mul(Expr::int(2), Expr::var("I"))]),
            Expr::index("B", vec![Expr::var("I")]),
        );
        let b = match_expr(&pat, &e).unwrap();
        assert_eq!(b[&0], Expr::mul(Expr::int(2), Expr::var("I")));
    }

    #[test]
    fn mismatched_operator_fails() {
        let pat = Expr::add(w(0), w(1));
        assert!(match_expr(&pat, &Expr::sub(Expr::var("A"), Expr::var("B"))).is_none());
    }
}

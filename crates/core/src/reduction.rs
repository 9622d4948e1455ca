//! Reduction recognition (§3.2).
//!
//! Polaris "initially recognizes candidate reductions ... using the
//! Wildcard class", i.e. statements of the form
//!
//! ```fortran
//! A(a1, ..., an) = A(a1, ..., an) + b
//! ```
//!
//! where `b` and the subscripts do not reference `A`, `n` may be zero
//! (scalar reduction), and `+` generalizes to `*`, `-` (a sum with
//! negated operand) and the `MAX`/`MIN` intrinsic form. The pass *flags*
//! candidate statements; per-loop validation ("A is not referenced
//! elsewhere in the loop outside of other reduction statements") happens
//! when a specific loop is analyzed, and classification into
//! *single-address* vs *histogram* reductions depends on whether the
//! updated element varies across the loop's iterations.

use crate::iterview::IterView;
use polaris_ir::expr::{Expr, LValue, RedOp};
use polaris_ir::pattern::{match_expr, Bindings};
use polaris_ir::stmt::{Reduction, StmtKind};
use polaris_ir::{Program, ProgramUnit};

/// Flag every reduction-shaped assignment in the program. Returns the
/// number of statements flagged.
pub fn flag_reductions(program: &mut Program) -> usize {
    program.units.iter_mut().map(flag_unit).sum()
}

/// [`flag_reductions`] on one unit.
pub(crate) fn flag_unit(unit: &mut ProgramUnit) -> usize {
    let mut count = 0usize;
    unit.body.walk_mut(&mut |stmt| {
        if let StmtKind::Assign { lhs, rhs, reduction } = &mut stmt.kind {
            if let Some(op) = recognize(lhs, rhs) {
                *reduction = Some(op);
                count += 1;
            }
        }
    });
    count
}

/// Recognize the reduction operator of `lhs = rhs`, if any.
///
/// Uses the wildcard pattern machinery: the pattern `σ <op> _0` is
/// matched against the RHS with `σ` the LHS reference itself (a
/// non-linear pattern in the Polaris sense).
pub(crate) fn recognize(lhs: &LValue, rhs: &Expr) -> Option<RedOp> {
    let target = lhs.as_expr();
    let name = lhs.name();
    // Subscripts must not reference the reduction variable itself.
    if lhs.subs().iter().any(|s| s.references(name)) {
        return None;
    }
    let beta_ok = |b: &Expr| !b.references(name);

    // σ + _0  and  _0 + σ
    for pat in [
        Expr::add(target.clone(), Expr::Wildcard(0)),
        Expr::add(Expr::Wildcard(0), target.clone()),
    ] {
        if let Some(b) = match_expr(&pat, rhs) {
            if beta_ok(&b[&0]) {
                return Some(RedOp::Sum);
            }
        }
    }
    // σ - _0 : a sum reduction of the negated operand
    if let Some(b) = match_expr(&Expr::sub(target.clone(), Expr::Wildcard(0)), rhs) {
        if beta_ok(&b[&0]) {
            return Some(RedOp::Sum);
        }
    }
    // σ * _0  and  _0 * σ
    for pat in [
        Expr::mul(target.clone(), Expr::Wildcard(0)),
        Expr::mul(Expr::Wildcard(0), target.clone()),
    ] {
        if let Some(b) = match_expr(&pat, rhs) {
            if beta_ok(&b[&0]) {
                return Some(RedOp::Product);
            }
        }
    }
    // MAX(σ, _0) / MAX(_0, σ) / MIN(...)
    if let Expr::Call { name: f, args } = rhs {
        let op = match f.as_str() {
            "MAX" | "AMAX1" | "DMAX1" | "MAX0" => Some(RedOp::Max),
            "MIN" | "AMIN1" | "DMIN1" | "MIN0" => Some(RedOp::Min),
            _ => None,
        };
        if let Some(op) = op {
            if args.len() == 2 {
                let b: Option<Bindings> = if args[0] == target {
                    Some(Bindings::from([(0, args[1].clone())]))
                } else if args[1] == target {
                    Some(Bindings::from([(0, args[0].clone())]))
                } else {
                    None
                };
                if let Some(b) = b {
                    if beta_ok(&b[&0]) {
                        return Some(op);
                    }
                }
            }
        }
    }
    None
}

/// Validate the flagged reductions of one loop, given the view of its
/// body and its variable: for each variable with flagged updates inside
/// the loop, every access to that variable in the loop must come from a
/// flagged statement with the same operator. Returns the per-loop
/// reduction descriptors (empty if none validate).
pub(crate) fn validated_reductions(view: &IterView, loop_var: &str) -> Vec<Reduction> {
    let accesses = &view.refs;
    // Gather candidate (var, op) pairs from flagged writes. Only σ's write
    // and σ's read carry the flag: a read of the variable inside another
    // reduction's operand is a reference "elsewhere in the loop".
    let mut candidates: Vec<(String, RedOp)> = Vec::new();
    for a in accesses {
        if let Some(op) = a.reduction {
            if a.is_write && !candidates.iter().any(|(n, _)| n == &a.name) {
                candidates.push((a.name.clone(), op));
            }
        }
    }
    let mut out = Vec::new();
    'cand: for (name, op) in candidates {
        let mut histogram = false;
        for a in accesses {
            if a.name != name {
                continue;
            }
            match a.reduction {
                Some(o) if o == op => {
                    // Histogram when the updated element can differ across
                    // iterations of `d` or its inner loops: any subscript
                    // mentioning the loop variable or an inner loop
                    // variable (or another array — subscripted subscripts).
                    if !a.subs.is_empty() {
                        let varies = a.subs.iter().any(|s| {
                            s.references_var(loop_var)
                                || a.ctx.iter().any(|c| s.references_var(&c.var))
                                || !s.arrays().is_empty()
                        });
                        if varies {
                            histogram = true;
                        }
                    }
                }
                _ => continue 'cand, // touched outside a matching reduction
            }
        }
        out.push(Reduction { var: name, op, histogram });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::stmt::{DoLoop, StmtKind};

    fn validated_reductions(d: &DoLoop) -> Vec<Reduction> {
        super::validated_reductions(&IterView::of(&d.body), &d.var)
    }

    fn unit_of(src: &str) -> polaris_ir::ProgramUnit {
        let full = format!("program t\n{src}\nend\n");
        let mut p = polaris_ir::parse(&full).unwrap();
        flag_reductions(&mut p);
        p.units.remove(0)
    }

    fn first_loop(u: &polaris_ir::ProgramUnit) -> &DoLoop {
        u.body.loops()[0]
    }

    #[test]
    fn scalar_sum_recognized() {
        let u = unit_of("do i = 1, n\n  s = s + a(i)\nend do");
        let reds = validated_reductions(first_loop(&u));
        assert_eq!(reds.len(), 1);
        assert_eq!(reds[0].var, "S");
        assert_eq!(reds[0].op, RedOp::Sum);
        assert!(!reds[0].histogram);
    }

    #[test]
    fn subtraction_is_sum_reduction() {
        let u = unit_of("do i = 1, n\n  s = s - a(i)\nend do");
        assert_eq!(validated_reductions(first_loop(&u))[0].op, RedOp::Sum);
    }

    #[test]
    fn commuted_and_product_forms() {
        let u = unit_of("do i = 1, n\n  s = a(i) + s\n  p = p * b(i)\nend do");
        let reds = validated_reductions(first_loop(&u));
        assert_eq!(reds.len(), 2);
        assert!(reds.iter().any(|r| r.var == "S" && r.op == RedOp::Sum));
        assert!(reds.iter().any(|r| r.var == "P" && r.op == RedOp::Product));
    }

    #[test]
    fn max_intrinsic_form() {
        let u = unit_of("do i = 1, n\n  t = max(t, abs(a(i)))\nend do");
        let reds = validated_reductions(first_loop(&u));
        assert_eq!(reds[0].op, RedOp::Max);
    }

    #[test]
    fn histogram_reduction_classified() {
        let u = unit_of(
            "real h(100)\ninteger bin(1000)\ndo i = 1, n\n  h(bin(i)) = h(bin(i)) + 1.0\nend do",
        );
        let reds = validated_reductions(first_loop(&u));
        assert_eq!(reds.len(), 1);
        assert_eq!(reds[0].var, "H");
        assert!(reds[0].histogram);
    }

    #[test]
    fn single_address_array_reduction() {
        // Summing into A(K) with K loop-invariant: single-address.
        let u = unit_of("real a(10)\ndo i = 1, n\n  a(k) = a(k) + b(i)\nend do");
        let reds = validated_reductions(first_loop(&u));
        assert_eq!(reds.len(), 1);
        assert!(!reds[0].histogram);
    }

    #[test]
    fn other_reference_invalidates() {
        // S read outside the reduction statement: not a reduction.
        let u = unit_of("do i = 1, n\n  s = s + a(i)\n  b(i) = s\nend do");
        assert!(validated_reductions(first_loop(&u)).is_empty());
    }

    #[test]
    fn read_in_another_reductions_operand_invalidates() {
        // Each statement is reduction-shaped, but V is read in C's operand
        // and C in V's: both are referenced "elsewhere in the loop".
        let u = unit_of("real c(20)\ndo i = 1, n\n  v = v + c(i)\n  c(14) = c(14) + v\nend do");
        assert!(validated_reductions(first_loop(&u)).is_empty());
        // An operand that reads neither target leaves both valid.
        let u = unit_of("real c(20)\ndo i = 1, n\n  v = v + b(i)\n  c(14) = c(14) + b(i)\nend do");
        assert_eq!(validated_reductions(first_loop(&u)).len(), 2);
    }

    #[test]
    fn subscript_referencing_array_rejected() {
        // A(A(I)) = A(A(I)) + 1 : subscript references A itself
        let u = unit_of("integer a(10)\ndo i = 1, n\n  a(a(i)) = a(a(i)) + 1\nend do");
        let mut flagged = 0;
        u.body.walk(&mut |s| {
            if let StmtKind::Assign { reduction: Some(_), .. } = s.kind {
                flagged += 1;
            }
        });
        assert_eq!(flagged, 0);
    }

    #[test]
    fn rhs_referencing_var_elsewhere_rejected() {
        // S = S + S is not a (simple) reduction
        let u = unit_of("do i = 1, n\n  s = s + s\nend do");
        assert!(validated_reductions(first_loop(&u)).is_empty());
    }

    #[test]
    fn mixed_operators_invalidate() {
        let u = unit_of("do i = 1, n\n  s = s + a(i)\n  s = s * b(i)\nend do");
        assert!(validated_reductions(first_loop(&u)).is_empty());
    }

    #[test]
    fn nested_loop_subscript_is_histogram() {
        let u = unit_of(
            "real f(100)\ndo i = 1, n\n  do j = 1, m\n    f(j) = f(j) + g(i, j)\n  end do\nend do",
        );
        // For the outer I loop: F(J) varies with inner loop var J.
        let reds = validated_reductions(first_loop(&u));
        assert_eq!(reds.len(), 1);
        assert!(reds[0].histogram);
        // For the inner J loop: F(J) is a fixed element per iteration...
        // but it *does* mention J (the loop var) so it is histogram there
        // too — which is the correct conservative classification, since
        // different iterations update different elements.
        let inner = u.body.loops()[1];
        let reds_inner = validated_reductions(inner);
        assert_eq!(reds_inner.len(), 1);
    }
}

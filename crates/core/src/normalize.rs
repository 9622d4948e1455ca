//! Loop normalization.
//!
//! The paper notes that "interprocedural constant propagation and loop
//! normalization were needed" to bring the OCEAN nest into analyzable
//! form. This pass rewrites every `DO` loop with a constant step `s`
//! (|s| ≠ 1) into a unit-step loop over a fresh index:
//!
//! ```fortran
//! DO I = L, U, S          DO I__N = 0, (U - L)/S
//!   body(I)        ==>      I = L + I__N*S
//! END DO                    body(I)
//!                         END DO
//!                         I = L + ((U - L)/S + 1)*S   ! F77 exit value
//! ```
//!
//! `(U - L)/S` uses Fortran's truncating division, which equals the
//! floor for the non-negative quotient of a non-empty loop, so the trip
//! count is exact; for an empty loop the new header's `0, negative`
//! bounds produce zero iterations just the same.
//!
//! Normalization runs before induction substitution, which requires
//! unit steps, and turns strided subscripts (`A(I)` with `I = L + 2k`)
//! into affine functions of the new index that the dependence tests
//! understand.

use polaris_ir::builder;
use polaris_ir::expr::Expr;
use polaris_ir::stmt::{Stmt, StmtKind, StmtList};
use polaris_ir::symbol::Symbol;
use polaris_ir::types::DataType;
use polaris_ir::ProgramUnit;

/// Statistics for reports/tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    pub loops_normalized: usize,
}

/// Run on one unit.
pub fn run_unit(unit: &mut ProgramUnit) -> NormalizeStats {
    let mut stats = NormalizeStats::default();
    let mut body = std::mem::take(&mut unit.body);
    normalize_list(&mut body, unit, &mut stats);
    unit.body = body;
    stats
}

fn normalize_list(list: &mut StmtList, unit: &mut ProgramUnit, stats: &mut NormalizeStats) {
    let mut i = 0usize;
    while i < list.0.len() {
        // recurse first so inner loops are normalized too
        match &mut list.0[i].kind {
            StmtKind::Do(d) => {
                let mut inner = std::mem::take(&mut d.body);
                normalize_list(&mut inner, unit, stats);
                let d = match &mut list.0[i].kind {
                    StmtKind::Do(d) => d,
                    _ => unreachable!(),
                };
                d.body = inner;
            }
            StmtKind::IfBlock { .. } => {
                if let StmtKind::IfBlock { arms, else_body } = &mut list.0[i].kind {
                    let mut arms_t = std::mem::take(arms);
                    let mut else_t = std::mem::take(else_body);
                    for arm in arms_t.iter_mut() {
                        normalize_list(&mut arm.body, unit, stats);
                    }
                    normalize_list(&mut else_t, unit, stats);
                    if let StmtKind::IfBlock { arms, else_body } = &mut list.0[i].kind {
                        *arms = arms_t;
                        *else_body = else_t;
                    }
                }
            }
            _ => {}
        }
        // then rewrite this loop if it is strided
        let needs = match &list.0[i].kind {
            StmtKind::Do(d) => {
                matches!(d.step_expr().simplified().as_int(), Some(s) if s.abs() != 1 && s != 0)
            }
            _ => false,
        };
        if needs {
            let (pre, post) = rewrite_loop(&mut list.0[i], unit, stats);
            let npre = pre.len();
            for (k, s) in pre.into_iter().enumerate() {
                list.0.insert(i + k, s);
            }
            let loop_pos = i + npre;
            let npost = post.len();
            for (k, s) in post.into_iter().enumerate() {
                list.0.insert(loop_pos + 1 + k, s);
            }
            i = loop_pos + npost;
        }
        i += 1;
    }
}

/// Rewrite one strided loop in place; returns statements to insert
/// before it (`old = L`, F77 sets the variable before the trip test) and
/// after it (the guarded exhausted-value assignment).
fn rewrite_loop(
    stmt: &mut Stmt,
    unit: &mut ProgramUnit,
    stats: &mut NormalizeStats,
) -> (Vec<Stmt>, Vec<Stmt>) {
    let d = match &mut stmt.kind {
        StmtKind::Do(d) => d,
        _ => unreachable!(),
    };
    let step = d.step_expr().simplified().as_int().expect("checked const");
    let old_var = d.var.clone();
    let new_var = unit.symbols.unique_name(&format!("{old_var}__N"));
    unit.symbols.insert(Symbol::scalar(new_var.clone(), DataType::Integer));

    let lo = d.init.clone();
    let hi = d.limit.clone();
    // trip-count-minus-one: (U - L)/S with Fortran truncation
    let span = Expr::sub(hi.clone(), lo.clone()).simplified();
    let tm1 = Expr::div(span, Expr::Int(step)).simplified();

    // header: DO new = 0, (U-L)/S
    d.var = new_var.clone();
    d.init = Expr::Int(0);
    d.limit = tm1.clone();
    d.step = None;

    // body: old = L + new*S  (prepended)
    let recon = builder::assign_var(
        unit,
        &old_var,
        Expr::add(lo.clone(), Expr::mul(Expr::var(&new_var), Expr::Int(step))).simplified(),
    );
    d.body.0.insert(0, recon);

    // After the loop: old = L + ((U-L)/S + 1)*S, matching F77's exhausted
    // value for a non-empty loop; guarded by "the loop ran at least
    // once", i.e. the new unit-step header's limit (U-L)/S >= 0.
    let exit_val = Expr::add(
        lo,
        Expr::mul(Expr::add(tm1, Expr::Int(1)), Expr::Int(step)),
    )
    .simplified();
    let assign = builder::assign_var(unit, &old_var, exit_val);
    let guard_cond = Expr::bin(polaris_ir::BinOp::Ge, d.limit.clone(), Expr::Int(0));
    let guarded = builder::if_then(unit, guard_cond, vec![assign]);
    // F77 assigns the DO variable its initial value before testing the
    // trip count, so a zero-trip loop still leaves `old = L`.
    let pre = builder::assign_var(unit, &old_var, d_init_for_pre(&d.body));

    stats.loops_normalized += 1;
    (vec![pre], vec![guarded])
}

/// The reconstruction statement's `L` operand: the first body statement
/// is `old = L + new*S`; recover `L` by substituting `new = 0`... in
/// practice we kept `lo` cloned above, but the borrow on `d` makes it
/// simpler to re-derive from the reconstruction assignment.
fn d_init_for_pre(body: &StmtList) -> Expr {
    if let Some(Stmt { kind: StmtKind::Assign { rhs, .. }, .. }) = body.0.first() {
        // rhs = L + new*S ; with new := 0 this simplifies to L
        if let Expr::Bin { op: polaris_ir::BinOp::Add, lhs, .. } = rhs {
            return (**lhs).clone();
        }
        return rhs.clone();
    }
    Expr::Int(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normalized(src: &str) -> (polaris_ir::Program, NormalizeStats) {
        let mut p = polaris_ir::parse(src).unwrap();
        let stats = run_unit(&mut p.units[0]);
        polaris_ir::validate::validate_program(&p)
            .unwrap_or_else(|e| panic!("{e}\n{}", polaris_ir::printer::print_program(&p)));
        (p, stats)
    }

    #[test]
    fn positive_stride_rewritten() {
        let src = "program t\nreal a(20)\ndo i = 2, 19, 3\n  a(i) = i*1.0\nend do\nprint *, i\nend\n";
        let (p, stats) = normalized(src);
        assert_eq!(stats.loops_normalized, 1);
        assert!(
            crate::rangeprop::assigned_vars(&p.units[0].body).contains("I"),
            "reconstruction assignment expected"
        );
        let d = p.units[0].body.loops()[0];
        assert!(d.step.is_none());
        assert_eq!(d.init, Expr::Int(0));
        assert!(d.var.starts_with("I__N"));
    }

    #[test]
    fn unit_steps_untouched() {
        let src = "program t\nreal a(9)\ndo i = 1, 9\n  a(i) = 1.0\nend do\ndo i = 9, 1, -1\n  a(i) = a(i) + 1.0\nend do\nend\n";
        let (_, stats) = normalized(src);
        assert_eq!(stats.loops_normalized, 0);
    }

    #[test]
    fn nested_strided_loops_counted() {
        let src = "program t\nreal a(30,30)\ndo i = 1, 29, 2\n  do j = 30, 3, -4\n    a(i, j) = i*1.0 + j\n  end do\nend do\nend\n";
        let (_, stats) = normalized(src);
        assert_eq!(stats.loops_normalized, 2);
    }

    #[test]
    fn enables_dependence_analysis_on_strided_writes() {
        // A(I) with I = 1,3,5,... : after normalization the subscript is
        // 1 + 2*I__N — range test proves the loop parallel.
        let src = "program t\nreal a(100)\ndo i = 1, 99, 2\n  a(i) = i*1.0\nend do\nprint *, a(1)\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        run_unit(&mut p.units[0]);
        let stats = crate::DdStats::new();
        let reports = crate::deps::analyze_unit(&mut p.units[0], &crate::PassOptions::polaris(), &stats);
        assert!(reports[0].parallel, "{reports:?}");
    }
}

//! Ergonomic construction helpers for IR used by passes and tests.
//!
//! Polaris passes created statements through the class constructors; these
//! free functions play the same role while keeping statement-id discipline
//! (ids come from the owning [`ProgramUnit`]).

use crate::expr::{Expr, LValue};
use crate::program::ProgramUnit;
use crate::stmt::{IfArm, Stmt, StmtKind, StmtList};

/// Build an assignment statement with a fresh id.
pub(crate) fn assign(unit: &mut ProgramUnit, lhs: LValue, rhs: Expr) -> Stmt {
    Stmt::new(unit.fresh_stmt_id(), 0, StmtKind::Assign { lhs, rhs, reduction: None })
}

/// Build a scalar assignment `name = rhs`.
pub fn assign_var(unit: &mut ProgramUnit, name: &str, rhs: Expr) -> Stmt {
    assign(unit, LValue::Var(name.into()), rhs)
}

/// Build a single-arm `IF (cond) THEN ... END IF`.
pub fn if_then(unit: &mut ProgramUnit, cond: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::new(
        unit.fresh_stmt_id(),
        0,
        StmtKind::IfBlock {
            arms: vec![IfArm { cond, body: StmtList(body) }],
            else_body: StmtList::new(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::UnitKind;

    #[test]
    fn builders_use_fresh_ids() {
        let mut u = ProgramUnit::new("T", UnitKind::Program);
        let a = assign_var(&mut u, "x", Expr::int(1));
        let b = assign_var(&mut u, "y", Expr::int(2));
        assert_ne!(a.id, b.id);
    }

    #[test]
    fn if_then_builds_single_arm() {
        let mut u = ProgramUnit::new("T", UnitKind::Program);
        let body = vec![assign_var(&mut u, "x", Expr::int(1))];
        let s = if_then(&mut u, Expr::Logical(true), body);
        match s.kind {
            StmtKind::IfBlock { arms, else_body } => {
                assert_eq!(arms.len(), 1);
                assert!(else_body.is_empty());
            }
            _ => panic!(),
        }
    }
}

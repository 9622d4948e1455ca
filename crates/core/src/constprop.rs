//! Constant propagation.
//!
//! The paper relies on "interprocedural constant propagation and loop
//! normalization" to bring the OCEAN nest of Figure 3 into analyzable
//! form. Because Polaris' interprocedural story at this stage is full
//! inlining (§3.1), constant propagation here is intraprocedural but runs
//! after the inliner, which gives it the same reach.
//!
//! Two transformations are applied per unit:
//!
//! 1. `PARAMETER` substitution — named constants are folded everywhere.
//! 2. Forward propagation of scalar constants along the structured
//!    control flow: an assignment `K = <literal>` reaches every use until
//!    a statement (or a conditionally-executed region, loop body, or CALL)
//!    may redefine `K`.

use polaris_ir::expr::Expr;
use polaris_ir::stmt::{Stmt, StmtKind, StmtList};
use polaris_ir::symbol::SymKind;
use polaris_ir::{Name, ProgramUnit};
use std::collections::BTreeMap;

/// Statistics returned by the pass (used in reports and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstPropStats {
    pub(crate) parameters_folded: usize,
    pub(crate) constants_propagated: usize,
}

impl ConstPropStats {
    pub(crate) fn absorb(&mut self, more: ConstPropStats) {
        self.parameters_folded += more.parameters_folded;
        self.constants_propagated += more.constants_propagated;
    }
}

/// Run constant propagation on one unit.
pub fn run_unit(unit: &mut ProgramUnit) -> ConstPropStats {
    let mut stats = ConstPropStats::default();

    // Phase 1: PARAMETER substitution. Parameters may reference other
    // parameters; resolve to literals first (bounded iteration).
    let mut params: BTreeMap<Name, Expr> = BTreeMap::new();
    for sym in unit.symbols.iter() {
        if let SymKind::Parameter(v) = &sym.kind {
            params.insert(sym.name.clone(), v.clone());
        }
    }
    for _ in 0..8 {
        let snapshot = params.clone();
        let mut changed = false;
        for value in params.values_mut() {
            let new = substitute_map(value, &snapshot).simplified();
            if new != *value {
                *value = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Write resolved values back into the symbol table so later passes
    // (and the unparser) see the folded form.
    for (name, value) in &params {
        if let Some(sym) = unit.symbols.get_mut(name) {
            sym.kind = SymKind::Parameter(value.clone());
        }
    }
    unit.body.map_exprs(&mut |e| match &e {
        Expr::Var(n) => match params.get(n) {
            Some(v) => {
                stats.parameters_folded += 1;
                v.clone()
            }
            None => e,
        },
        _ => e,
    });
    // Array dimension declarations also see parameters.
    let dims_params = params.clone();
    for name in unit.symbols.iter().map(|s| s.name.clone()).collect::<Vec<_>>() {
        if let Some(sym) = unit.symbols.get_mut(&name) {
            if let SymKind::Array(dims) = &mut sym.kind {
                for d in dims {
                    d.lo = substitute_map(&d.lo, &dims_params).simplified();
                    d.hi = substitute_map(&d.hi, &dims_params).simplified();
                }
            }
        }
    }

    // Phase 2: forward propagation of literal scalar assignments.
    let mut consts: BTreeMap<Name, Expr> = BTreeMap::new();
    propagate(&mut unit.body, &mut consts, &mut stats);

    // Re-simplify everything once.
    unit.body.map_exprs(&mut Expr::simplify_node);
    stats
}

fn substitute_map(e: &Expr, map: &BTreeMap<Name, Expr>) -> Expr {
    e.map(&mut |node| match &node {
        Expr::Var(n) => map.get(n).cloned().unwrap_or(node),
        _ => node,
    })
}

/// Forward-propagate literal constants through a statement list.
/// `consts` is the set of known variable → literal facts on entry and is
/// updated to the facts on exit.
fn propagate(
    list: &mut StmtList,
    consts: &mut BTreeMap<Name, Expr>,
    stats: &mut ConstPropStats,
) {
    for stmt in list.iter_mut() {
        propagate_stmt(stmt, consts, stats);
    }
}

/// Substitute the known constants into `e` and simplify, in one
/// bottom-up pass: the constants are literals, so each node is folded
/// right after its leaves took their values.
fn rewrite_uses(e: &mut Expr, consts: &BTreeMap<Name, Expr>, stats: &mut ConstPropStats) {
    e.rewrite(&mut |node| {
        Expr::simplify_node(match &node {
            Expr::Var(n) => match consts.get(n) {
                Some(v) => {
                    stats.constants_propagated += 1;
                    v.clone()
                }
                None => node,
            },
            _ => node,
        })
    });
}

fn propagate_stmt(
    stmt: &mut Stmt,
    consts: &mut BTreeMap<Name, Expr>,
    stats: &mut ConstPropStats,
) {
    match &mut stmt.kind {
        StmtKind::Assign { lhs, rhs, .. } => {
            rewrite_uses(rhs, consts, stats);
            if let polaris_ir::LValue::Index { subs, .. } = lhs {
                subs.iter_mut().for_each(|s| rewrite_uses(s, consts, stats));
            }
            match lhs {
                polaris_ir::LValue::Var(name) => {
                    if rhs.is_literal() {
                        consts.insert(name.clone(), rhs.clone());
                    } else {
                        consts.remove(name);
                    }
                }
                polaris_ir::LValue::Index { .. } => {}
            }
        }
        StmtKind::Do(d) => {
            rewrite_uses(&mut d.init, consts, stats);
            rewrite_uses(&mut d.limit, consts, stats);
            if let Some(step) = &mut d.step {
                rewrite_uses(step, consts, stats);
            }
            // The body may execute many times: kill facts for everything
            // it assigns, then propagate within using the surviving set.
            for v in crate::rangeprop::assigned_vars(&d.body) {
                consts.remove(&v);
            }
            consts.remove(&d.var);
            let mut inner = consts.clone();
            propagate(&mut d.body, &mut inner, stats);
            // After the loop nothing new is known (zero-trip possible):
            // facts already killed above.
        }
        StmtKind::IfBlock { arms, else_body } => {
            let entry = consts.clone();
            let mut killed: Vec<Name> = Vec::new();
            for arm in arms.iter_mut() {
                rewrite_uses(&mut arm.cond, &entry, stats);
                let mut branch = entry.clone();
                propagate(&mut arm.body, &mut branch, stats);
                killed.extend(crate::rangeprop::assigned_vars(&arm.body));
            }
            propagate(else_body, &mut entry.clone(), stats);
            killed.extend(crate::rangeprop::assigned_vars(else_body));
            for k in killed {
                consts.remove(&k);
            }
        }
        StmtKind::Call { args, .. } => {
            // Fortran passes by reference: a bare variable argument is a
            // potential out-argument and must stay a variable; only
            // interior expressions may be folded.
            for a in args.iter_mut() {
                if !matches!(a, Expr::Var(_)) {
                    rewrite_uses(a, consts, stats);
                }
            }
            for a in args.iter() {
                if let Expr::Var(n) = a {
                    consts.remove(n);
                }
            }
        }
        StmtKind::Print { items } => {
            for a in items.iter_mut() {
                rewrite_uses(a, consts, stats);
            }
        }
        StmtKind::Assert { cond } => {
            rewrite_uses(cond, consts, stats);
        }
        StmtKind::Return | StmtKind::Stop | StmtKind::Continue => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::printer::print_program;

    fn run_src(src: &str) -> String {
        let mut p = polaris_ir::parse(src).unwrap();
        run_unit(&mut p.units[0]);
        polaris_ir::validate::validate_program(&p).unwrap();
        print_program(&p)
    }

    #[test]
    fn parameters_fold_into_bounds() {
        let out = run_src(
            "program t\ninteger n, m\nparameter (n = 8, m = 2*n)\nreal a(m)\ndo i = 1, m\n  a(i) = i\nend do\nend\n",
        );
        assert!(out.contains("DO I = 1, 16"), "{out}");
        assert!(out.contains("A(16)"), "{out}");
    }

    #[test]
    fn literal_assignment_propagates_forward() {
        let out = run_src("program t\nk = 3\nx = k + 1\nend\n");
        assert!(out.contains("X = 4"), "{out}");
    }

    #[test]
    fn redefinition_stops_propagation() {
        let out = run_src("program t\nk = 3\nk = m\nx = k + 1\nend\n");
        assert!(out.contains("X = K+1"), "{out}");
    }

    #[test]
    fn loop_kills_facts_for_assigned_vars() {
        let out =
            run_src("program t\nk = 3\ndo i = 1, 10\n  k = k + 1\nend do\nx = k\nend\n");
        // K is not 3 after the loop
        assert!(out.contains("X = K"), "{out}");
        // and inside the loop K+1 must not fold to 4
        assert!(out.contains("K = K+1"), "{out}");
    }

    #[test]
    fn conditional_assignment_kills_fact_after_join() {
        let out = run_src(
            "program t\nk = 3\nif (x > 0.0) then\n  k = 5\nend if\ny = k\nend\n",
        );
        assert!(out.contains("Y = K"), "{out}");
    }

    #[test]
    fn facts_flow_into_branches() {
        let out = run_src("program t\nk = 3\nif (x > 0.0) then\n  y = k\nend if\nend\n");
        assert!(out.contains("Y = 3"), "{out}");
    }

    #[test]
    fn chained_parameters_resolve() {
        let out = run_src(
            "program t\ninteger a, b, c\nparameter (a = 2, b = a*3, c = b + a)\nx = c\nend\n",
        );
        assert!(out.contains("X = 8"), "{out}");
    }

    #[test]
    fn call_kills_scalar_facts() {
        let out = run_src("program t\nk = 3\ncall f(k)\nx = k\nend\n");
        assert!(out.contains("X = K"), "{out}");
    }

    #[test]
    fn stats_count_work() {
        let mut p = polaris_ir::parse(
            "program t\ninteger n\nparameter (n = 4)\nk = 2\nx = n + k\ny = n\nend\n",
        )
        .unwrap();
        let stats = run_unit(&mut p.units[0]);
        assert_eq!(stats.parameters_folded, 2);
        assert!(stats.constants_propagated >= 1);
    }
}

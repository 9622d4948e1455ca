//! `Expr::rewrite` and the in-place `map_stmt_exprs`, against the
//! rebuilding walker both replaced.
//!
//! `Expr::map` used to rebuild every node of the tree it walked, and
//! `map_stmt_exprs` assigned each rebuilt tree back. Both now move the
//! nodes through the rewrite in place (`Expr::map` is a copy, then
//! `Expr::rewrite`). The old walker is kept here, verbatim, as the
//! oracle: over every expression and statement of the 26 kernels, the
//! multi-unit program and fuzz seeds `0..256`, under three node rules —
//! identity, simplification, and a substitution whose value mentions
//! the substituted name (so a walker that re-entered what `f` returned
//! would loop) — the result must be the same tree, and `f` must be
//! handed the same nodes in the same order.

mod common;

use polaris::fuzz::generate_program;
use polaris::ir::expr::{Expr, LValue};
use polaris::ir::stmt::{map_stmt_exprs, Stmt, StmtKind, StmtList};
use polaris::ir::Program;

/// `Expr::map` before in-place rewriting.
fn map_reference(e: &Expr, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Index { array, subs } => Expr::Index {
            array: array.clone(),
            subs: subs.iter().map(|s| map_reference(s, f)).collect(),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| map_reference(a, f)).collect(),
        },
        Expr::Un { op, arg } => Expr::Un { op: *op, arg: Box::new(map_reference(arg, f)) },
        Expr::Bin { op, lhs, rhs } => Expr::Bin {
            op: *op,
            lhs: Box::new(map_reference(lhs, f)),
            rhs: Box::new(map_reference(rhs, f)),
        },
        other => other.clone(),
    };
    f(rebuilt)
}

/// `LValue::map_subs` before in-place rewriting.
fn map_subs_reference(lhs: &LValue, f: &mut dyn FnMut(Expr) -> Expr) -> LValue {
    match lhs {
        LValue::Var(n) => LValue::Var(n.clone()),
        LValue::Index { array, subs } => LValue::Index {
            array: array.clone(),
            subs: subs.iter().map(|s| map_reference(s, f)).collect(),
        },
    }
}

fn map_list_reference(list: &mut StmtList, f: &mut dyn FnMut(Expr) -> Expr) {
    for s in &mut list.0 {
        map_stmt_reference(s, f);
    }
}

/// `map_stmt_exprs` before in-place rewriting.
fn map_stmt_reference(s: &mut Stmt, f: &mut dyn FnMut(Expr) -> Expr) {
    match &mut s.kind {
        StmtKind::Assign { lhs, rhs, .. } => {
            *lhs = map_subs_reference(lhs, f);
            *rhs = map_reference(rhs, f);
        }
        StmtKind::Do(d) => {
            d.init = map_reference(&d.init, f);
            d.limit = map_reference(&d.limit, f);
            if let Some(step) = &mut d.step {
                *step = map_reference(step, f);
            }
            map_list_reference(&mut d.body, f);
        }
        StmtKind::IfBlock { arms, else_body } => {
            for arm in arms {
                arm.cond = map_reference(&arm.cond, f);
                map_list_reference(&mut arm.body, f);
            }
            map_list_reference(else_body, f);
        }
        StmtKind::Call { args, .. } => {
            for a in args.iter_mut() {
                *a = map_reference(a, f);
            }
        }
        StmtKind::Print { items } => {
            for a in items.iter_mut() {
                *a = map_reference(a, f);
            }
        }
        StmtKind::Assert { cond } => *cond = map_reference(cond, f),
        StmtKind::Return | StmtKind::Stop | StmtKind::Continue => {}
    }
}

const RULES: usize = 3;

/// Node rule `k`: identity, the simplifier's, or `I` ↦ `I+1` for every
/// scalar whose name starts with `I`.
fn rule(k: usize, e: Expr) -> Expr {
    match (k, e) {
        (0, e) => e,
        (1, e) => Expr::simplify_node(e),
        (_, Expr::Var(n)) if n.starts_with('I') => Expr::add(Expr::Var(n), Expr::int(1)),
        (_, e) => e,
    }
}

/// `(result, nodes handed to f)` of one walker under rule `k`.
fn logged<T>(k: usize, walk: impl FnOnce(&mut dyn FnMut(Expr) -> Expr) -> T) -> (T, Vec<Expr>) {
    let mut seen = Vec::new();
    let out = walk(&mut |e| {
        seen.push(e.clone());
        rule(k, e)
    });
    (out, seen)
}

/// Every statement of `program`: its own expressions through `map` and
/// `rewrite`, and each top-level statement through `map_stmt_exprs`,
/// against the reference walker.
fn check_program(program: &Program, what: &str) -> usize {
    let mut checked = 0;
    for unit in &program.units {
        for k in 0..RULES {
            unit.body.walk(&mut |s| {
                s.for_each_own_expr(&mut |e| {
                    let old = logged(k, |f| map_reference(e, f));
                    let mapped = logged(k, |f| e.map(f));
                    let rewritten = logged(k, |f| {
                        let mut t = e.clone();
                        t.rewrite(f);
                        t
                    });
                    assert_eq!(mapped, old, "{what}: `{e}` under rule {k}: map");
                    assert_eq!(rewritten, old, "{what}: `{e}` under rule {k}: rewrite");
                    checked += 1;
                });
            });
            for s in &unit.body.0 {
                let old = logged(k, |f| {
                    let mut t = s.clone();
                    map_stmt_reference(&mut t, f);
                    t
                });
                let new = logged(k, |f| {
                    let mut t = s.clone();
                    map_stmt_exprs(&mut t, f);
                    t
                });
                assert_eq!(new, old, "{what}: statement {} under rule {k}", s.id);
            }
        }
    }
    checked
}

#[test]
fn rewrite_in_place_equals_the_rebuilding_walk_on_kernels_and_the_multi_unit_program() {
    let mut checked = 0;
    for k in common::kernels() {
        checked += check_program(&polaris::ir::parse(k.source).unwrap(), k.name);
    }
    checked += check_program(&polaris::ir::parse(common::MULTI_UNIT).unwrap(), "MULTI_UNIT");
    assert!(checked > 2000, "only {checked} expressions checked");
}

#[test]
fn rewrite_in_place_equals_the_rebuilding_walk_on_fuzz_programs() {
    let mut checked = 0;
    for seed in 0..256 {
        let program = polaris::ir::parse(&generate_program(seed)).expect("fuzz programs parse");
        checked += check_program(&program, &format!("fuzz seed {seed}"));
    }
    assert!(checked > 10_000, "only {checked} expressions checked");
}

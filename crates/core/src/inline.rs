//! Inline expansion (§3.1).
//!
//! Polaris' interprocedural story at this stage is *full inlining*: "the
//! driver repeatedly expands subroutine and function calls in the
//! top-level program unit". The implementation follows the paper's
//! template scheme: the first time a subprogram is expanded, a
//! **template** is created and all *site-independent* transformations
//! (local-variable renaming, common-block mapping) are applied to it;
//! each call site then copies the template into a **work object** and
//! applies the *site-specific* transformations (formal→actual remapping,
//! statement re-numbering, loop re-labelling) before splicing it in.
//!
//! Formal/actual mappings supported (everything the evaluation suite
//! needs; anything else is a transform error, not silent wrong code):
//!
//! * scalar formal ← scalar variable: renamed (by-reference aliasing),
//! * scalar formal ← expression or array element: substituted; if the
//!   formal is written, an array-element actual is substituted on the
//!   left-hand side too (by-reference store-through), while a general
//!   expression actual must be read-only,
//! * array formal ← conforming whole array: renamed,
//! * array formal ← rank-1 whole array: references are **linearized**
//!   column-major, the case the paper notes "the range test has been
//!   able to overcome the potential loss of dependence accuracy caused
//!   by linearization",
//! * user `FUNCTION`s whose body is a single assignment are expanded at
//!   expression level.

use polaris_ir::error::{CompileError, Result};
use polaris_ir::expr::{Expr, LValue};
use polaris_ir::stmt::{Stmt, StmtKind, StmtList};
use polaris_ir::symbol::{Dim, SymKind, Symbol};
use polaris_ir::{Program, ProgramUnit, UnitKind};
use std::collections::BTreeMap;

/// Statistics for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    pub call_sites_expanded: usize,
    pub function_calls_expanded: usize,
    pub(crate) templates_built: usize,
}

const MAX_ROUNDS: usize = 32;

/// Fully inline every CALL (and supported function call) in the main
/// program unit. Callee units are left in place (Polaris kept them for
/// selective code generation); the main unit becomes call-free.
pub fn inline_all(program: &mut Program) -> Result<InlineStats> {
    let mut stats = InlineStats::default();
    let mut templates: BTreeMap<String, Template> = BTreeMap::new();
    let callees: BTreeMap<String, ProgramUnit> = program
        .units
        .iter()
        .filter(|u| !u.is_main())
        .map(|u| (u.name.clone(), u.clone()))
        .collect();
    let main_idx = program
        .units
        .iter()
        .position(|u| u.is_main())
        .ok_or_else(|| CompileError::transform("inline expansion requires a PROGRAM unit"))?;
    let main = &mut program.units[main_idx];

    for _round in 0..MAX_ROUNDS {
        let mut any = false;
        // Subroutine calls.
        let mut body = std::mem::take(&mut main.body);
        expand_calls(&mut body, main, &callees, &mut templates, &mut stats, &mut any)?;
        main.body = body;
        // Single-assignment function calls in expressions.
        let fexpanded = expand_functions(main, &callees, &mut stats)?;
        if !any && !fexpanded {
            return Ok(stats);
        }
    }
    Err(CompileError::transform(format!(
        "inline expansion did not converge after {MAX_ROUNDS} rounds (recursive calls?)"
    )))
}

/// A prepared callee: site-independent transformations already applied.
#[derive(Debug, Clone)]
struct Template {
    unit: ProgramUnit,
    /// Renamed local (non-formal) symbols: original → template name.
    locals: BTreeMap<String, String>,
}

/// Build the template for `callee`: rename every non-formal local to
/// `<CALLEE>__<NAME>`; COMMON variables keep their names (COMMON is a
/// global namespace, so the caller's declaration aliases naturally —
/// the validity check that the caller declares the same block layout
/// happens at instantiation).
fn build_template(callee: &ProgramUnit, stats: &mut InlineStats) -> Result<Template> {
    if matches!(callee.kind, UnitKind::Function(_)) {
        return Err(CompileError::transform(format!(
            "CALL of FUNCTION `{}`",
            callee.name
        )));
    }
    let mut unit = callee.clone();
    let mut locals = BTreeMap::new();
    let names: Vec<String> = unit.symbols.iter().map(|s| s.name.clone()).collect();
    for name in names {
        let sym = unit.symbols.get(&name).unwrap().clone();
        if sym.is_arg || sym.common.is_some() || matches!(sym.kind, SymKind::External) {
            continue;
        }
        let new_name = format!("{}__{}", unit.name, name);
        locals.insert(name.clone(), new_name.clone());
    }
    // Apply the renaming to body and symbol table.
    for (old, new) in &locals {
        rename_everywhere(&mut unit, old, new);
    }
    stats.templates_built += 1;
    Ok(Template { unit, locals })
}

fn rename_everywhere(unit: &mut ProgramUnit, old: &str, new: &str) {
    unit.body.map_exprs(&mut |e| e.rename_symbol(old, new));
    unit.body.walk_mut(&mut |s| match &mut s.kind {
        StmtKind::Assign { lhs, .. } => rename_lvalue(lhs, old, new),
        StmtKind::Do(d)
            if d.var == old => {
                d.var = new.to_string();
            }
        _ => {}
    });
    if let Some(mut sym) = unit.symbols.remove(old) {
        sym.name = new.to_string();
        // dimension expressions may reference renamed symbols — handled
        // by the sweep below.
        unit.symbols.insert(sym);
    }
    // Rename inside every array declaration's bounds.
    let names: Vec<String> = unit.symbols.iter().map(|s| s.name.clone()).collect();
    for n in names {
        if let Some(sym) = unit.symbols.get_mut(&n) {
            if let SymKind::Array(dims) = &mut sym.kind {
                for d in dims {
                    d.lo = d.lo.rename_symbol(old, new);
                    d.hi = d.hi.rename_symbol(old, new);
                }
            }
        }
    }
}

fn rename_lvalue(lhs: &mut LValue, old: &str, new: &str) {
    match lhs {
        LValue::Var(n) if n == old => *n = new.to_string(),
        LValue::Index { array, .. } if array == old => *array = new.to_string(),
        _ => {}
    }
}

/// Walk `list`, replacing CALL statements by inlined bodies.
fn expand_calls(
    list: &mut StmtList,
    caller: &mut ProgramUnit,
    callees: &BTreeMap<String, ProgramUnit>,
    templates: &mut BTreeMap<String, Template>,
    stats: &mut InlineStats,
    any: &mut bool,
) -> Result<()> {
    let mut i = 0usize;
    while i < list.0.len() {
        match &mut list.0[i].kind {
            StmtKind::Call { name, args } => {
                let name = name.clone();
                let args = args.clone();
                let Some(callee) = callees.get(&name) else {
                    return Err(CompileError::transform(format!(
                        "CALL to unknown subroutine `{name}`"
                    ))
                    .with_line(list.0[i].line));
                };
                if !templates.contains_key(&name) {
                    templates.insert(name.clone(), build_template(callee, stats)?);
                }
                let template = templates.get(&name).unwrap().clone();
                let inlined = instantiate(&template, &args, caller)?;
                let n = inlined.0.len();
                list.0.splice(i..=i, inlined.0);
                stats.call_sites_expanded += 1;
                *any = true;
                // Skip over the spliced statements: calls the inlined body
                // contains are handled by the next round, which bounds
                // recursive chains by MAX_ROUNDS instead of looping here.
                i += n;
            }
            StmtKind::Do(d) => {
                let mut body = std::mem::take(&mut d.body);
                expand_calls(&mut body, caller, callees, templates, stats, any)?;
                let d = match &mut list.0[i].kind {
                    StmtKind::Do(d) => d,
                    _ => unreachable!(),
                };
                d.body = body;
                i += 1;
            }
            StmtKind::IfBlock { .. } => {
                if let StmtKind::IfBlock { arms, else_body } = &mut list.0[i].kind {
                    let mut arms_t = std::mem::take(arms);
                    let mut else_t = std::mem::take(else_body);
                    for arm in arms_t.iter_mut() {
                        expand_calls(&mut arm.body, caller, callees, templates, stats, any)?;
                    }
                    expand_calls(&mut else_t, caller, callees, templates, stats, any)?;
                    if let StmtKind::IfBlock { arms, else_body } = &mut list.0[i].kind {
                        *arms = arms_t;
                        *else_body = else_t;
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    Ok(())
}

/// Copy a template into a work object, apply site-specific transforms,
/// and return the statements to splice in.
fn instantiate(
    template: &Template,
    actuals: &[Expr],
    caller: &mut ProgramUnit,
) -> Result<StmtList> {
    let callee = &template.unit;
    if actuals.len() != callee.args.len() {
        return Err(CompileError::transform(format!(
            "call to `{}`: {} actuals for {} formals",
            callee.name,
            actuals.len(),
            callee.args.len()
        )));
    }
    let mut work = callee.clone();

    // RETURN handling: allowed only as the final executable statement.
    strip_trailing_return(&mut work.body)?;
    let mut has_return = false;
    work.body.walk(&mut |s| {
        if matches!(s.kind, StmtKind::Return) {
            has_return = true;
        }
    });
    if has_return {
        return Err(CompileError::transform(format!(
            "cannot inline `{}`: RETURN not in tail position",
            callee.name
        )));
    }

    // Formal → actual remapping.
    for (formal, actual) in callee.args.iter().zip(actuals) {
        let fsym = work
            .symbols
            .get(formal)
            .cloned()
            .ok_or_else(|| CompileError::transform(format!("formal `{formal}` undeclared")))?;
        match (&fsym.kind, actual) {
            (SymKind::Scalar, Expr::Var(act)) => {
                rename_everywhere(&mut work, formal, act);
                ensure_symbol(caller, act, Symbol::scalar(act.clone(), fsym.ty));
            }
            (SymKind::Scalar, act) => {
                // Expression or array-element actual: substitution. If the
                // formal is written, only an array element can serve as a
                // by-reference store-through target.
                let written = writes_to(&work.body, formal);
                match act {
                    Expr::Index { array, subs } if written => {
                        // The element's subscripts must be invariant in the
                        // callee (they are caller expressions; the callee
                        // must not modify what they reference).
                        for sub in subs {
                            for v in sub.variables() {
                                if writes_to(&work.body, &v) {
                                    return Err(CompileError::transform(format!(
                                        "call to `{}`: array-element actual subscript `{v}` is modified by the callee",
                                        callee.name
                                    )));
                                }
                            }
                        }
                        substitute_symbol(&mut work, formal, act);
                        let _ = array;
                    }
                    _ if written => {
                        return Err(CompileError::transform(format!(
                            "call to `{}`: formal `{formal}` is written but actual is not a variable",
                            callee.name
                        )));
                    }
                    _ => substitute_symbol(&mut work, formal, act),
                }
            }
            (SymKind::Array(fdims), Expr::Var(act)) => {
                // whole-array actual
                let caller_sym = caller.symbols.get(act).cloned();
                let Some(caller_sym) = caller_sym else {
                    return Err(CompileError::transform(format!(
                        "call to `{}`: actual array `{act}` undeclared in caller",
                        callee.name
                    )));
                };
                let adims = match &caller_sym.kind {
                    SymKind::Array(d) => d.clone(),
                    _ => {
                        return Err(CompileError::transform(format!(
                            "call to `{}`: array formal `{formal}` bound to scalar `{act}`",
                            callee.name
                        )))
                    }
                };
                if fdims.len() == adims.len() {
                    // conforming (or assumed-size trailing dim): rename
                    rename_everywhere(&mut work, formal, act);
                } else if adims.len() == 1 {
                    // linearize column-major into the rank-1 actual
                    linearize_refs(&mut work, formal, act, fdims)?;
                } else {
                    return Err(CompileError::transform(format!(
                        "call to `{}`: cannot map rank-{} formal `{formal}` onto rank-{} actual `{act}`",
                        callee.name,
                        fdims.len(),
                        adims.len()
                    )));
                }
            }
            (SymKind::Array(_), other) => {
                return Err(CompileError::transform(format!(
                    "call to `{}`: array formal `{formal}` needs a whole-array actual, got `{other}`",
                    callee.name
                )));
            }
            (SymKind::Parameter(_) | SymKind::External, _) => {
                return Err(CompileError::transform(format!(
                    "call to `{}`: formal `{formal}` has unsupported kind",
                    callee.name
                )));
            }
        }
    }

    // Import the callee's renamed locals into the caller's symbol table,
    // uniquifying against existing caller names.
    let mut final_rename: BTreeMap<String, String> = BTreeMap::new();
    for tmpl_name in template.locals.values() {
        if let Some(sym) = work.symbols.get(tmpl_name).cloned() {
            let target = caller.symbols.unique_name(tmpl_name);
            if target != *tmpl_name {
                final_rename.insert(tmpl_name.clone(), target.clone());
            }
            let mut s = sym;
            s.name = target.clone();
            s.is_arg = false;
            caller.symbols.insert(s);
        }
    }
    for (old, new) in &final_rename {
        rename_everywhere(&mut work, old, new);
    }
    // COMMON blocks: the caller must declare every block the callee uses
    // with the same member list (F-Mini's conformance requirement).
    for cb in &work.commons {
        let matching = caller.commons.iter().find(|c| c.name == cb.name);
        match matching {
            Some(c) if c.vars == cb.vars => {}
            Some(_) => {
                return Err(CompileError::transform(format!(
                    "call to `{}`: COMMON /{}/ layout differs between caller and callee",
                    callee.name, cb.name
                )));
            }
            None => {
                return Err(CompileError::transform(format!(
                    "call to `{}`: caller does not declare COMMON /{}/",
                    callee.name, cb.name
                )));
            }
        }
    }

    // Fresh statement ids, loop labels, and loop provenance ids for the
    // spliced statements: a callee loop expanded at two call sites yields
    // two distinct loops, so each copy needs its own LoopId (the per-unit
    // uniqueness invariant `loop-id-provenance` enforces).
    let site = caller.stmt_id_watermark();
    let mut body = work.body;
    body.walk_mut(&mut |s| {
        s.id = caller.fresh_stmt_id();
        if let StmtKind::Do(d) = &mut s.kind {
            d.label = format!("{}@{}", d.label, site);
            d.loop_id = polaris_ir::stmt::LoopId(s.id.0);
        }
    });
    Ok(body)
}

/// Remove a RETURN if it is the last executable statement.
fn strip_trailing_return(body: &mut StmtList) -> Result<()> {
    if matches!(body.0.last().map(|s| &s.kind), Some(StmtKind::Return)) {
        body.0.pop();
    }
    Ok(())
}

/// Does the body write scalar-or-array `name`?
fn writes_to(body: &StmtList, name: &str) -> bool {
    crate::rangeprop::assigned_vars(body).contains(name)
}

/// Replace reads *and writes* of symbol `name` with expression `value`
/// (for writes, `value` must itself be an array-element reference).
fn substitute_symbol(unit: &mut ProgramUnit, name: &str, value: &Expr) {
    unit.body.map_exprs(&mut |e| match &e {
        Expr::Var(n) if n == name => value.clone(),
        _ => e,
    });
    unit.body.walk_mut(&mut |s| {
        if let StmtKind::Assign { lhs, .. } = &mut s.kind {
            if lhs.name() == name && lhs.subs().is_empty() {
                if let Expr::Index { array, subs } = value {
                    *lhs = LValue::Index { array: array.clone(), subs: subs.clone() };
                }
            }
        }
    });
    unit.symbols.remove(name);
}

/// Rewrite references `F(i1, …, ik)` into `ACT(linear)` with the
/// column-major linearization of the formal's declared dimensions.
fn linearize_refs(
    unit: &mut ProgramUnit,
    formal: &str,
    actual: &str,
    fdims: &[Dim],
) -> Result<()> {
    let dims = fdims.to_vec();
    let lin = |subs: &[Expr]| -> Expr {
        // offset = Σ (s_k - lo_k) * Π_{m<k} extent_m   (0-based), +1
        let mut offset: Option<Expr> = None;
        let mut stride: Option<Expr> = None;
        for (k, s) in subs.iter().enumerate() {
            let zero_based = Expr::sub(s.clone(), dims[k].lo.clone()).simplified();
            let term = match &stride {
                None => zero_based,
                Some(st) => Expr::mul(zero_based, st.clone()).simplified(),
            };
            offset = Some(match offset {
                None => term,
                Some(o) => Expr::add(o, term).simplified(),
            });
            let extent = Expr::add(
                Expr::sub(dims[k].hi.clone(), dims[k].lo.clone()),
                Expr::Int(1),
            )
            .simplified();
            stride = Some(match stride {
                None => extent,
                Some(st) => Expr::mul(st, extent).simplified(),
            });
        }
        Expr::add(offset.unwrap_or(Expr::Int(0)), Expr::Int(1)).simplified()
    };
    unit.body.map_exprs(&mut |e| match &e {
        Expr::Index { array, subs } if array == formal => {
            Expr::Index { array: actual.to_string(), subs: vec![lin(subs)] }
        }
        _ => e,
    });
    unit.body.walk_mut(&mut |s| {
        if let StmtKind::Assign { lhs, .. } = &mut s.kind {
            if lhs.name() == formal {
                let subs = lhs.subs().to_vec();
                *lhs = LValue::Index { array: actual.to_string(), subs: vec![lin(&subs)] };
            }
        }
    });
    unit.symbols.remove(formal);
    Ok(())
}

fn ensure_symbol(unit: &mut ProgramUnit, name: &str, default: Symbol) {
    if !unit.symbols.contains(name) {
        unit.symbols.insert(default);
    }
}

/// Expand calls to single-assignment user FUNCTIONs inside expressions.
/// Returns true if anything changed.
fn expand_functions(
    unit: &mut ProgramUnit,
    callees: &BTreeMap<String, ProgramUnit>,
    stats: &mut InlineStats,
) -> Result<bool> {
    // Gather single-assignment functions: body = [ F = expr ] (+RETURN).
    let mut simple: BTreeMap<String, (Vec<String>, Expr)> = BTreeMap::new();
    for (name, u) in callees {
        if !matches!(u.kind, UnitKind::Function(_)) {
            continue;
        }
        let mut body: Vec<&Stmt> = u.body.0.iter().collect();
        if matches!(body.last().map(|s| &s.kind), Some(StmtKind::Return)) {
            body.pop();
        }
        if body.len() != 1 {
            continue;
        }
        if let StmtKind::Assign { lhs: LValue::Var(res), rhs, .. } = &body[0].kind {
            if *res == u.name {
                simple.insert(name.clone(), (u.args.clone(), rhs.clone()));
            }
        }
    }
    let mut changed = false;
    let mut err: Option<CompileError> = None;
    unit.body.map_exprs(&mut |e| match &e {
        Expr::Call { name, args } if simple.contains_key(name) => {
            let (formals, bodyexpr) = &simple[name];
            if formals.len() != args.len() {
                err = Some(CompileError::transform(format!(
                    "function `{name}`: arity mismatch"
                )));
                return e;
            }
            let mut out = bodyexpr.clone();
            for (f, a) in formals.iter().zip(args) {
                out = match a {
                    // variable actual: alias both scalar and array uses
                    Expr::Var(n) => out.rename_symbol(f, n),
                    _ => out.substitute_var(f, a),
                };
            }
            changed = true;
            stats.function_calls_expanded += 1;
            out
        }
        _ => e,
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::printer::print_program;

    fn inline_src(src: &str) -> (Program, InlineStats) {
        let mut p = polaris_ir::parse(src).unwrap();
        let stats = inline_all(&mut p).unwrap_or_else(|e| panic!("{e}\n{}", print_program(&p)));
        polaris_ir::validate::validate_program(&p)
            .unwrap_or_else(|e| panic!("invalid after inline: {e}\n{}", print_program(&p)));
        (p, stats)
    }

    fn main_text(p: &Program) -> String {
        let mut s = String::new();
        polaris_ir::printer::print_unit(p.main().unwrap(), &mut s);
        s
    }

    #[test]
    fn simple_subroutine_inlines() {
        let src = "program t\nreal a(10)\ncall init(a, 10)\nprint *, a(1)\nend\n\
                   subroutine init(v, n)\nreal v(n)\ninteger n\ndo i = 1, n\n  v(i) = 0.0\nend do\nreturn\nend\n";
        let (p, stats) = inline_src(src);
        assert_eq!(stats.call_sites_expanded, 1);
        let out = main_text(&p);
        assert!(!out.contains("CALL"), "{out}");
        assert!(out.contains("A(I) = 0.0") || out.contains("A(INIT__I) = 0.0"), "{out}");
    }

    #[test]
    fn locals_are_renamed_and_do_not_collide() {
        // caller has its own TMP; callee's TMP must not capture it.
        let src = "program t\nreal tmp\ntmp = 5.0\ncall f(x)\nprint *, tmp, x\nend\n\
                   subroutine f(y)\nreal y, tmp\ntmp = 1.0\ny = tmp + 1.0\nend\n";
        let (p, _) = inline_src(src);
        let out = main_text(&p);
        assert!(out.contains("F__TMP = 1.0"), "{out}");
        assert!(out.contains("TMP = 5.0"), "{out}");
    }

    #[test]
    fn scalar_expression_actual_substituted() {
        let src = "program t\ncall g(2 + 3)\nend\n\
                   subroutine g(k)\ninteger k\nreal b(10)\nb(1) = k * 2\nend\n";
        let (p, _) = inline_src(src);
        let out = main_text(&p);
        assert!(out.contains("(2+3)*2") || out.contains("(2+3)*2"), "{out}");
    }

    #[test]
    fn written_expression_actual_rejected() {
        let src = "program t\ncall g(2 + 3)\nend\n\
                   subroutine g(k)\ninteger k\nk = 1\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        assert!(inline_all(&mut p).is_err());
    }

    #[test]
    fn array_element_actual_with_write() {
        let src = "program t\nreal v(10)\ncall bump(v(3))\nend\n\
                   subroutine bump(x)\nreal x\nx = x + 1.0\nend\n";
        let (p, _) = inline_src(src);
        let out = main_text(&p);
        assert!(out.contains("V(3) = V(3)+1.0"), "{out}");
    }

    #[test]
    fn nested_calls_expand_transitively() {
        let src = "program t\ncall outer\nend\n\
                   subroutine outer\ncall inner\nend\n\
                   subroutine inner\nreal c(5)\nc(1) = 1.0\nend\n";
        let (p, stats) = inline_src(src);
        assert_eq!(stats.call_sites_expanded, 2);
        assert!(!main_text(&p).contains("CALL"));
    }

    #[test]
    fn recursion_detected() {
        let src = "program t\ncall a\nend\n\
                   subroutine a\ncall b\nend\n\
                   subroutine b\ncall a\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        assert!(inline_all(&mut p).is_err());
    }

    #[test]
    fn linearization_of_2d_formal_onto_1d_actual() {
        // the paper's redimensioning case: REAL V(100) passed to M(10,10)
        let src = "program t\nreal v(100)\ncall fill(v)\nend\n\
                   subroutine fill(m)\nreal m(10, 10)\ndo j = 1, 10\n  do i = 1, 10\n    m(i, j) = 1.0\n  end do\nend do\nend\n";
        let (p, _) = inline_src(src);
        let out = main_text(&p);
        // column-major: V(i-1 + (j-1)*10 + 1)
        assert!(out.contains("V(") && !out.contains("M("), "{out}");
        assert!(out.contains("10") && out.contains("+1)"), "{out}");
    }

    #[test]
    fn common_blocks_must_conform() {
        let bad = "program t\nreal u(10)\ncommon /blk/ u, other\ncall s\nend\n\
                   subroutine s\nreal u(10)\ncommon /blk/ u\nu(1) = 2.0\nend\n";
        let mut p = polaris_ir::parse(bad).unwrap();
        assert!(inline_all(&mut p).is_err());
        let good = "program t\nreal u(10)\ncommon /blk/ u\ncall s\nend\n\
                    subroutine s\nreal u(10)\ncommon /blk/ u\nu(1) = 2.0\nend\n";
        let (p2, _) = inline_src(good);
        assert!(main_text(&p2).contains("U(1) = 2.0"));
    }

    #[test]
    fn single_assignment_function_expands() {
        let src = "program t\nx = sq(3.0) + sq(4.0)\nend\n\
                   real function sq(v)\nreal v\nsq = v * v\nreturn\nend\n";
        let (p, stats) = inline_src(src);
        assert_eq!(stats.function_calls_expanded, 2);
        let out = main_text(&p);
        assert!(out.contains("3.0*3.0"), "{out}");
    }

    #[test]
    fn statement_ids_stay_unique_after_inlining() {
        let src = "program t\ncall z\ncall z\nend\n\
                   subroutine z\nreal w(3)\ndo i = 1, 3\n  w(i) = i\nend do\nend\n";
        let (p, _) = inline_src(src);
        // validate_program (called in inline_src) enforces id uniqueness;
        // also loop labels must differ between the two expansions.
        let main = p.main().unwrap();
        let labels: Vec<String> = main.body.loops().iter().map(|d| d.label.clone()).collect();
        assert_eq!(labels.len(), 2);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn mid_body_return_rejected() {
        let src = "program t\ncall r(x)\nend\n\
                   subroutine r(v)\nreal v\nif (v > 0.0) then\n  return\nend if\nv = 1.0\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        assert!(inline_all(&mut p).is_err());
    }

    #[test]
    fn templates_are_reused_across_sites() {
        let src = "program t\ncall z\ncall z\ncall z\nend\n\
                   subroutine z\ny = 1.0\nend\n";
        let (_, stats) = inline_src(src);
        assert_eq!(stats.call_sites_expanded, 3);
        assert_eq!(stats.templates_built, 1);
    }
}

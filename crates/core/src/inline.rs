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
use polaris_ir::symbol::{Dim, SymKind, Symbol, SymbolTable};
use polaris_ir::{Name, Program, ProgramUnit, UnitKind};
use std::cell::OnceCell;
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
/// selective code generation); the main unit becomes call-free. Every
/// later pipeline stage restructures main alone and carries the callees
/// through as parsed (`pipeline::restructured`), and `analyze` answers
/// main's liveness questions from one numbering of it
/// (`privatize::Liveness`).
pub fn inline_all(program: &mut Program) -> Result<InlineStats> {
    let mut stats = InlineStats::default();
    let mut templates: BTreeMap<Name, Template> = BTreeMap::new();
    let main_idx = program
        .units
        .iter()
        .position(|u| u.is_main())
        .ok_or_else(|| CompileError::transform("inline expansion requires a PROGRAM unit"))?;
    let (before, rest) = program.units.split_at_mut(main_idx);
    let (main, after) = rest.split_first_mut().expect("main_idx is in range");
    let callees: BTreeMap<&str, &ProgramUnit> = before
        .iter()
        .chain(after.iter())
        .filter(|u| !u.is_main())
        .map(|u| (u.name.as_str(), u))
        .collect();

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
#[derive(Debug)]
struct Template {
    unit: ProgramUnit,
    /// Renamed local (non-formal) symbols: original → template name.
    locals: BTreeMap<Name, Name>,
}

/// What a callee name stands for at one expansion. All of a site's
/// bindings are applied in one simultaneous pass ([`bind_body`]), so no
/// binding rewrites what another one put in: `CALL S(Q, P)` against
/// `S(P, Q)` swaps the two, and an actual that mentions a formal's name
/// keeps meaning the caller's variable.
#[derive(Debug)]
enum Bind {
    /// Renamed: a scalar or whole array passed by name, or a local.
    Name(Name),
    /// A scalar formal bound to an expression: reads take the value; a
    /// write stores through (the value is then an array element).
    Value(Expr),
    /// An array formal over a rank-1 whole array: references are
    /// linearized column-major over the formal's (bound) dimensions.
    Linear { actual: Name, dims: Vec<Dim> },
}

type Binds<'a> = BTreeMap<&'a str, Bind>;

/// The node rule of a binding, for [`Expr::rewrite`]: renames a bound
/// scalar, array base or call target, substitutes a bound value and
/// linearizes a reference to a bound array.
fn bind_node(e: Expr, binds: &Binds) -> Expr {
    match e {
        Expr::Var(n) => match binds.get(&*n) {
            Some(Bind::Name(to)) => Expr::Var(to.clone()),
            Some(Bind::Value(v)) => v.clone(),
            _ => Expr::Var(n),
        },
        Expr::Index { array, subs } => match binds.get(&*array) {
            Some(Bind::Name(to)) => Expr::Index { array: to.clone(), subs },
            Some(Bind::Linear { actual, dims }) => {
                Expr::Index { array: actual.clone(), subs: vec![linearized(subs, dims)] }
            }
            _ => Expr::Index { array, subs },
        },
        Expr::Call { name, args } => match binds.get(&*name) {
            Some(Bind::Name(to)) => Expr::Call { name: to.clone(), args },
            _ => Expr::Call { name, args },
        },
        other => other,
    }
}

/// Apply `binds` to every expression, assignment target and `DO`
/// variable of `body`, in one pass over each tree.
fn bind_body(body: &mut StmtList, binds: &Binds) {
    body.map_exprs(&mut |e| bind_node(e, binds));
    body.walk_mut(&mut |s| match &mut s.kind {
        StmtKind::Assign { lhs, .. } => bind_lvalue(lhs, binds),
        StmtKind::Do(d) => {
            if let Some(Bind::Name(to)) = binds.get(&*d.var) {
                d.var = to.clone();
            }
        }
        _ => {}
    });
}

/// An assignment target under `binds` (its subscripts are already bound).
fn bind_lvalue(lhs: &mut LValue, binds: &Binds) {
    let Some(bind) = binds.get(&**lhs.name()) else { return };
    match (bind, lhs) {
        (Bind::Name(to), LValue::Var(n) | LValue::Index { array: n, .. }) => *n = to.clone(),
        (Bind::Value(Expr::Index { array, subs }), lhs @ LValue::Var(_)) => {
            *lhs = LValue::Index { array: array.clone(), subs: subs.clone() };
        }
        (Bind::Linear { actual, dims }, LValue::Index { array, subs }) => {
            *subs = vec![linearized(std::mem::take(subs), dims)];
            *array = actual.clone();
        }
        _ => {}
    }
}

/// Declared array bounds under `binds`.
fn bind_dims(dims: &mut [Dim], binds: &Binds) {
    for d in dims {
        d.lo.rewrite(&mut |e| bind_node(e, binds));
        d.hi.rewrite(&mut |e| bind_node(e, binds));
    }
}

/// Build the template for `callee`: rename every non-formal local to
/// `<CALLEE>__<NAME>`; COMMON variables keep their names (COMMON is a
/// global namespace, so the caller's declaration aliases naturally —
/// the validity check that the caller declares the same block layout
/// happens at instantiation). A trailing RETURN is dropped here, once.
fn build_template(callee: &ProgramUnit, stats: &mut InlineStats) -> Result<Template> {
    if matches!(callee.kind, UnitKind::Function(_)) {
        return Err(CompileError::transform(format!(
            "CALL of FUNCTION `{}`",
            callee.name
        )));
    }
    let mut unit = callee.clone();
    strip_trailing_return(&mut unit.body);
    let locals: BTreeMap<Name, Name> = unit
        .symbols
        .iter()
        .filter(|s| !(s.is_arg || s.common.is_some() || matches!(s.kind, SymKind::External)))
        .map(|sym| (sym.name.clone(), format!("{}__{}", unit.name, sym.name).into()))
        .collect();
    let binds: Binds =
        locals.iter().map(|(old, new)| (&**old, Bind::Name(new.clone()))).collect();
    bind_body(&mut unit.body, &binds);
    let mut symbols = SymbolTable::default();
    for sym in unit.symbols.iter() {
        let mut sym = sym.clone();
        if let Some(Bind::Name(to)) = binds.get(&*sym.name) {
            sym.name = to.clone();
        }
        if let SymKind::Array(dims) = &mut sym.kind {
            bind_dims(dims, &binds);
        }
        symbols.insert(sym);
    }
    unit.symbols = symbols;
    stats.templates_built += 1;
    Ok(Template { unit, locals })
}

/// Walk `list`, replacing CALL statements by inlined bodies.
fn expand_calls(
    list: &mut StmtList,
    caller: &mut ProgramUnit,
    callees: &BTreeMap<&str, &ProgramUnit>,
    templates: &mut BTreeMap<Name, Template>,
    stats: &mut InlineStats,
    any: &mut bool,
) -> Result<()> {
    let mut i = 0usize;
    while i < list.0.len() {
        match &mut list.0[i].kind {
            StmtKind::Call { name, args } => {
                let Some(callee) = callees.get(&**name) else {
                    return Err(CompileError::transform(format!(
                        "CALL to unknown subroutine `{name}`"
                    ))
                    .with_line(list.0[i].line));
                };
                if !templates.contains_key(&**name) {
                    templates.insert(name.clone(), build_template(callee, stats)?);
                }
                let inlined = instantiate(&templates[&**name], args, caller)?;
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
                expand_calls(&mut d.body, caller, callees, templates, stats, any)?;
                i += 1;
            }
            StmtKind::IfBlock { arms, else_body } => {
                for arm in arms.iter_mut() {
                    expand_calls(&mut arm.body, caller, callees, templates, stats, any)?;
                }
                expand_calls(else_body, caller, callees, templates, stats, any)?;
                i += 1;
            }
            _ => i += 1,
        }
    }
    Ok(())
}

/// Copy a template's body into a work object, apply the site-specific
/// transforms, and return the statements to splice in.
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

    // RETURN handling: allowed only as the final executable statement
    // (the template already dropped that one).
    let mut has_return = false;
    callee.body.walk(&mut |s| {
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

    // Formal → actual bindings, judged on the template (every formal
    // still under its own name).
    let written = OnceCell::new();
    let writes = |name: &str| {
        written.get_or_init(|| crate::rangeprop::assigned_vars(&callee.body)).contains(name)
    };
    let mut binds = Binds::new();
    let mut stored_through: Vec<&Expr> = Vec::new();
    // Linearized formals wait for the other bindings: their bounds may
    // read other formals.
    let mut linear: Vec<(&str, &str, &[Dim])> = Vec::new();
    for (formal, actual) in callee.args.iter().zip(actuals) {
        let fsym = callee
            .symbols
            .get(formal)
            .ok_or_else(|| CompileError::transform(format!("formal `{formal}` undeclared")))?;
        let bind = match (&fsym.kind, actual) {
            (SymKind::Scalar, Expr::Var(act)) => {
                ensure_symbol(caller, act, Symbol::scalar(act.clone(), fsym.ty));
                Bind::Name(act.clone())
            }
            // Expression or array-element actual: substitution. If the
            // formal is written, only an array element can serve as a
            // by-reference store-through target.
            (SymKind::Scalar, act @ Expr::Index { .. }) if writes(formal) => {
                stored_through.push(act);
                Bind::Value(act.clone())
            }
            (SymKind::Scalar, _) if writes(formal) => {
                return Err(CompileError::transform(format!(
                    "call to `{}`: formal `{formal}` is written but actual is not a variable",
                    callee.name
                )));
            }
            (SymKind::Scalar, act) => Bind::Value(act.clone()),
            (SymKind::Array(fdims), Expr::Var(act)) => {
                // whole-array actual
                let Some(caller_sym) = caller.symbols.get(act) else {
                    return Err(CompileError::transform(format!(
                        "call to `{}`: actual array `{act}` undeclared in caller",
                        callee.name
                    )));
                };
                let SymKind::Array(adims) = &caller_sym.kind else {
                    return Err(CompileError::transform(format!(
                        "call to `{}`: array formal `{formal}` bound to scalar `{act}`",
                        callee.name
                    )));
                };
                if fdims.len() == adims.len() {
                    // conforming (or assumed-size trailing dim): rename
                    Bind::Name(act.clone())
                } else if adims.len() == 1 {
                    // linearize column-major into the rank-1 actual
                    linear.push((formal, act, fdims));
                    continue;
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
        };
        binds.insert(formal, bind);
    }

    // Import the callee's renamed locals into the caller's symbol table,
    // uniquifying against existing caller names.
    let mut imported = Vec::new();
    for tmpl_name in template.locals.values() {
        if let Some(sym) = callee.symbols.get(tmpl_name) {
            let target = caller.symbols.unique_name(tmpl_name);
            let mut s = sym.clone();
            s.name = target.clone();
            s.is_arg = false;
            caller.symbols.insert(s);
            if target != *tmpl_name {
                binds.insert(tmpl_name, Bind::Name(target.clone()));
            }
            imported.push(target);
        }
    }
    // Declared bounds are read at the site too: a linearized formal's
    // dimensions and an imported local's are bound like the body.
    for (formal, actual, fdims) in linear {
        let mut dims = fdims.to_vec();
        bind_dims(&mut dims, &binds);
        binds.insert(formal, Bind::Linear { actual: actual.into(), dims });
    }
    for name in &imported {
        if let Some(SymKind::Array(dims)) = caller.symbols.get_mut(name).map(|s| &mut s.kind) {
            bind_dims(dims, &binds);
        }
    }
    // COMMON blocks: the caller must declare every block the callee uses
    // with the same member list (F-Mini's conformance requirement).
    for cb in &callee.commons {
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

    let mut body = callee.body.clone();
    bind_body(&mut body, &binds);
    // A store-through element's subscripts are caller expressions: the
    // inlined body must not modify what they read.
    if !stored_through.is_empty() {
        let assigned = crate::rangeprop::assigned_vars(&body);
        for v in stored_through.iter().flat_map(|act| act.variables()) {
            if assigned.contains(&v) {
                return Err(CompileError::transform(format!(
                    "call to `{}`: array-element actual subscript `{v}` is modified by the callee",
                    callee.name
                )));
            }
        }
    }

    // Fresh statement ids, loop labels, and loop provenance ids for the
    // spliced statements: a callee loop expanded at two call sites yields
    // two distinct loops, so each copy needs its own LoopId (the per-unit
    // uniqueness invariant `loop-id-provenance` enforces).
    let site = caller.stmt_id_watermark();
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
fn strip_trailing_return(body: &mut StmtList) {
    if matches!(body.0.last().map(|s| &s.kind), Some(StmtKind::Return)) {
        body.0.pop();
    }
}

/// Column-major linearization `(s_1 - lo_1) + (s_2 - lo_2)*extent_1 + … + 1`
/// of the subscripts `subs` over the dimensions `dims`.
fn linearized(subs: Vec<Expr>, dims: &[Dim]) -> Expr {
    // offset = Σ (s_k - lo_k) * Π_{m<k} extent_m   (0-based), +1
    let mut offset: Option<Expr> = None;
    let mut stride: Option<Expr> = None;
    for (k, s) in subs.into_iter().enumerate() {
        let zero_based = Expr::sub(s, dims[k].lo.clone()).simplified();
        let term = match &stride {
            None => zero_based,
            Some(st) => Expr::mul(zero_based, st.clone()).simplified(),
        };
        offset = Some(match offset {
            None => term,
            Some(o) => Expr::add(o, term).simplified(),
        });
        let extent =
            Expr::add(Expr::sub(dims[k].hi.clone(), dims[k].lo.clone()), Expr::Int(1)).simplified();
        stride = Some(match stride {
            None => extent,
            Some(st) => Expr::mul(st, extent).simplified(),
        });
    }
    Expr::add(offset.unwrap_or(Expr::Int(0)), Expr::Int(1)).simplified()
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
    callees: &BTreeMap<&str, &ProgramUnit>,
    stats: &mut InlineStats,
) -> Result<bool> {
    // Gather single-assignment functions: body = [ F = expr ] (+RETURN).
    let mut simple: BTreeMap<&str, (&[Name], &Expr)> = BTreeMap::new();
    for (&name, u) in callees {
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
                simple.insert(name, (&u.args, rhs));
            }
        }
    }
    if simple.is_empty() {
        return Ok(false);
    }
    let mut changed = false;
    let mut err: Option<CompileError> = None;
    unit.body.map_exprs(&mut |e| match e {
        Expr::Call { name, args } if simple.contains_key(&*name) => {
            let (formals, bodyexpr) = simple[&*name];
            if formals.len() != args.len() {
                err = Some(CompileError::transform(format!(
                    "function `{name}`: arity mismatch"
                )));
                return Expr::Call { name, args };
            }
            // A variable actual aliases both scalar and array uses.
            let binds: Binds = formals
                .iter()
                .zip(args)
                .map(|(f, a)| match a {
                    Expr::Var(n) => (&**f, Bind::Name(n)),
                    a => (&**f, Bind::Value(a)),
                })
                .collect();
            changed = true;
            stats.function_calls_expanded += 1;
            let mut out = bodyexpr.clone();
            out.rewrite(&mut |e| bind_node(e, &binds));
            out
        }
        other => other,
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
    fn a_linearized_formals_bounds_see_the_other_formals_actuals() {
        // The leading dimension is a formal bound to a literal: the stride
        // is that literal, whatever order the formals come in.
        for (call, header) in [("fill(10, v)", "fill(ld, m)"), ("fill(v, 10)", "fill(m, ld)")] {
            let src = format!(
                "program t\nreal v(100)\ncall {call}\nend\n\
                 subroutine {header}\ninteger ld\nreal m(ld, ld)\ndo j = 1, ld\n  do i = 1, ld\n    \
                 m(i, j) = 1.0\n  end do\nend do\nend\n"
            );
            let (p, _) = inline_src(&src);
            let out = main_text(&p);
            assert!(!out.contains("LD") && out.contains("V(") && !out.contains("M("), "{call}: {out}");
        }
    }

    #[test]
    fn a_store_through_subscript_written_through_another_formal_is_rejected() {
        // X stores through to V(K), and the callee also increments K
        // through N: in either formal order the element moves under the
        // store, so the call cannot be inlined.
        for (call, header) in [("s(v(k), k)", "s(x, n)"), ("s(k, v(k))", "s(n, x)")] {
            let src = format!(
                "program t\nreal v(10)\ninteger k\nk = 1\ncall {call}\nend\n\
                 subroutine {header}\nreal x\ninteger n\nn = n + 1\nx = 1.0\nend\n"
            );
            let mut p = polaris_ir::parse(&src).unwrap();
            let err = inline_all(&mut p).expect_err(call).to_string();
            assert!(err.contains("subscript `K` is modified by the callee"), "{call}: {err}");
        }
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

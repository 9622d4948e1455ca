//! F-Mini lint suite (`polarisc --lint`).
//!
//! Six static lints over the *parsed, untransformed* program — problems
//! worth reporting to the programmer whether or not the restructurer can
//! work around them:
//!
//! | lint                    | severity | what it catches                         |
//! |-------------------------|----------|-----------------------------------------|
//! | `use-before-def`        | warning  | scalar read before any assignment       |
//! | `const-subscript-bounds`| error    | constant subscript outside declared dims|
//! | `common-mismatch`       | error    | COMMON member shape/type disagreement   |
//! | `dead-store`            | warning  | scalar stored twice with no read between|
//! | `induction-recurrence`  | warning  | loop-carried scalar recurrence outside  |
//! |                         |          | the induction-substitutable forms and   |
//! |                         |          | not a flagged reduction update          |
//! | `nest-locality`         | warning  | rectangular loop nest whose innermost   |
//! |                         |          | stride is non-unit while a legal        |
//! |                         |          | interchange with better estimated       |
//! |                         |          | locality exists                         |
//!
//! Findings carry `line:col` spans (col re-derived from the source text,
//! since the IR keeps only lines) and render to a machine-readable JSON
//! document, schema `polaris-verify/lint/v1`.

use polaris_ir::expr::{Expr, LValue};
use polaris_ir::stmt::{StmtKind, StmtList};
use polaris_ir::symbol::{Dim, SymKind};
use polaris_ir::{Program, ProgramUnit};
use polaris_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Lint severity: `Error` findings are exit-code violations, `Warning`
/// findings merely degrade the exit code (see the CLI contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint finding with a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub lint: &'static str,
    pub severity: Severity,
    pub unit: String,
    /// 1-based source line (1 when the statement was synthesized).
    pub line: u32,
    /// 1-based column of the offending identifier in that line (1 when
    /// it cannot be located).
    pub col: u32,
    pub message: String,
}

/// All findings over one program, sorted by (line, col, lint).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
}

impl LintReport {
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    pub fn warnings(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Warning).count()
    }

    /// Machine-readable JSON document, schema `polaris-verify/lint/v1`.
    pub fn to_json(&self) -> String {
        let findings = self.findings.iter().map(|f| {
            Json::Inline(Box::new(Json::Obj(vec![
                ("lint".into(), Json::Str(f.lint.into())),
                ("severity".into(), Json::Str(f.severity.as_str().into())),
                ("unit".into(), Json::Str(f.unit.clone())),
                ("line".into(), Json::Int(f.line.into())),
                ("col".into(), Json::Int(f.col.into())),
                ("message".into(), Json::Str(f.message.clone())),
            ])))
        });
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("polaris-verify/lint/v1".into())),
            ("errors".into(), Json::Int(self.errors() as u64)),
            ("warnings".into(), Json::Int(self.warnings() as u64)),
            ("findings".into(), Json::Arr(findings.collect())),
        ]);
        format!("{doc}\n")
    }
}

/// Run every lint over `program`. `source` is the original text the
/// program was parsed from, used to recover column positions.
pub fn lint_program(program: &Program, source: &str) -> LintReport {
    let lines: Vec<&str> = source.lines().collect();
    let mut sink = Sink { lines: &lines, findings: Vec::new() };
    for unit in &program.units {
        lint_use_before_def(unit, &mut sink);
        lint_const_subscript_bounds(unit, &mut sink);
        lint_dead_store(unit, &mut sink);
    }
    // The recurrence and locality lints need reduction flags (a flagged
    // update may be reordered; relaxable rows) to judge a loop the way
    // the compiler will; flag a throwaway clone so linting stays
    // side-effect free.
    let mut flagged = program.clone();
    polaris_core::reduction::flag_reductions(&mut flagged);
    for unit in &flagged.units {
        lint_induction_recurrence(unit, &mut sink);
        lint_nest_locality(unit, &mut sink);
    }
    lint_common_mismatch(program, &mut sink);
    let mut findings = sink.findings;
    findings.sort_by(|a, b| {
        (a.line, a.col, a.lint, &a.message).cmp(&(b.line, b.col, b.lint, &b.message))
    });
    LintReport { findings }
}

struct Sink<'a> {
    lines: &'a [&'a str],
    findings: Vec<Finding>,
}

impl Sink<'_> {
    fn push(
        &mut self,
        lint: &'static str,
        severity: Severity,
        unit: &str,
        line: u32,
        ident: &str,
        message: String,
    ) {
        let line = line.max(1);
        self.findings.push(Finding {
            lint,
            severity,
            unit: unit.to_string(),
            line,
            col: col_of(self.lines, line, ident),
            message,
        });
    }
}

/// 1-based column of `ident` (as a whole word, case-insensitive) in the
/// given 1-based source line; 1 when not found.
fn col_of(lines: &[&str], line: u32, ident: &str) -> u32 {
    let Some(text) = lines.get(line as usize - 1) else { return 1 };
    let hay = text.to_ascii_uppercase();
    let needle = ident.to_ascii_uppercase();
    if needle.is_empty() {
        return 1;
    }
    let bytes = hay.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(pos) = hay[start..].find(&needle) {
        let p = start + pos;
        let end = p + needle.len();
        let before_ok = p == 0 || !is_ident(bytes[p - 1]);
        let after_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return (p + 1) as u32;
        }
        start = p + 1;
    }
    1
}

/// Hand `f` each scalar variable name read by `e`, subscripts included.
fn scalar_reads(e: &Expr, unit: &ProgramUnit, f: &mut dyn FnMut(&str)) {
    e.for_each(&mut |n| {
        if let Expr::Var(v) = n {
            if unit.symbols.get(v).map(|s| matches!(s.kind, SymKind::Scalar)).unwrap_or(true) {
                f(v);
            }
        }
    });
}

// ---------------------------------------------------------------- lints

/// `use-before-def`: a scalar read before any assignment to it on every
/// path the linear walk has seen. Dummy arguments, COMMON members and
/// PARAMETERs arrive defined; a DO header defines its variable.
fn lint_use_before_def(unit: &ProgramUnit, sink: &mut Sink) {
    let mut defined: BTreeSet<String> = BTreeSet::new();
    for sym in unit.symbols.iter() {
        let externally_set = sym.is_arg
            || sym.common.is_some()
            || matches!(sym.kind, SymKind::Parameter(_) | SymKind::External);
        if externally_set {
            defined.insert(sym.name.clone());
        }
    }
    let mut reported: BTreeSet<String> = BTreeSet::new();
    walk_ubd(&unit.body, unit, &mut defined, &mut reported, sink);
}

fn walk_ubd(
    list: &StmtList,
    unit: &ProgramUnit,
    defined: &mut BTreeSet<String>,
    reported: &mut BTreeSet<String>,
    sink: &mut Sink,
) {
    for s in list.iter() {
        if let StmtKind::Assert { cond } = &s.kind {
            // An assertion states a fact about a value; it does not
            // read it at run time. Treat named variables as defined
            // from here on (the user vouches for them).
            scalar_reads(cond, unit, &mut |name| {
                defined.insert(name.to_string());
            });
            continue;
        }
        s.for_each_own_expr(&mut |e| {
            scalar_reads(e, unit, &mut |name| {
                if !defined.contains(name) && reported.insert(name.to_string()) {
                    sink.push(
                        "use-before-def",
                        Severity::Warning,
                        &unit.name,
                        s.line,
                        name,
                        format!("scalar `{name}` is read before any assignment defines it"),
                    );
                }
            })
        });
        match &s.kind {
            StmtKind::Assign { lhs: LValue::Var(n), .. } => {
                defined.insert(n.clone());
            }
            StmtKind::Do(d) => {
                defined.insert(d.var.clone());
                walk_ubd(&d.body, unit, defined, reported, sink);
            }
            StmtKind::IfBlock { arms, else_body } => {
                // Conservative join: anything any branch defines counts
                // as defined afterwards (a false "defined" only silences
                // a warning, never invents one).
                for arm in arms {
                    walk_ubd(&arm.body, unit, defined, reported, sink);
                }
                walk_ubd(else_body, unit, defined, reported, sink);
            }
            StmtKind::Call { args, .. } => {
                // A callee may define any variable passed by reference.
                for a in args {
                    if let Expr::Var(n) | Expr::Index { array: n, .. } = a {
                        defined.insert(n.clone());
                    }
                }
            }
            _ => {}
        }
    }
}

/// `const-subscript-bounds`: a constant subscript provably outside the
/// declared (constant) bounds of its dimension.
fn lint_const_subscript_bounds(unit: &ProgramUnit, sink: &mut Sink) {
    let check_index = |array: &str, subs: &[Expr], line: u32, sink: &mut Sink| {
        let Some(sym) = unit.symbols.get(array) else { return };
        let dims: &[Dim] = sym.dims();
        for (d, sub) in dims.iter().zip(subs.iter()) {
            let (Some(v), Some(lo), Some(hi)) = (
                sub.simplified().as_int(),
                d.lo.simplified().as_int(),
                d.hi.simplified().as_int(),
            ) else {
                continue;
            };
            if v < lo || v > hi {
                sink.push(
                    "const-subscript-bounds",
                    Severity::Error,
                    &unit.name,
                    line,
                    array,
                    format!("subscript {v} of `{array}` is outside its declared bounds {lo}:{hi}"),
                );
            }
        }
    };
    unit.body.walk(&mut |s| {
        let line = s.line;
        if let StmtKind::Assign { lhs: LValue::Index { array, subs }, .. } = &s.kind {
            check_index(array, subs, line, sink);
        }
        s.for_each_own_expr(&mut |root| {
            root.for_each(&mut |e| {
                if let Expr::Index { array, subs } = e {
                    check_index(array, subs, line, sink);
                }
            })
        });
    });
}

/// `common-mismatch`: a COMMON member declared with a different type or
/// shape in different units (storage association goes wrong silently),
/// or the same name placed in *different* COMMON blocks.
/// One COMMON declaration site: (block, unit, type keyword, extents).
type CommonDecl = (String, String, String, Vec<Option<i64>>);

fn lint_common_mismatch(program: &Program, sink: &mut Sink) {
    let mut decls: BTreeMap<String, Vec<CommonDecl>> = BTreeMap::new();
    for unit in &program.units {
        for sym in unit.symbols.iter() {
            if let Some(block) = &sym.common {
                let extents: Vec<Option<i64>> =
                    sym.dims().iter().map(|d| d.const_extent()).collect();
                decls.entry(sym.name.clone()).or_default().push((
                    block.clone(),
                    unit.name.clone(),
                    sym.ty.keyword().to_string(),
                    extents,
                ));
            }
        }
    }
    for (name, sites) in &decls {
        let (block0, unit0, ty0, ext0) = &sites[0];
        for (block, unit, ty, ext) in &sites[1..] {
            if block != block0 {
                sink.push(
                    "common-mismatch",
                    Severity::Warning,
                    unit,
                    1,
                    name,
                    format!(
                        "`{name}` lives in COMMON /{block}/ here but in /{block0}/ in \
                         unit {unit0} (same name, different storage)"
                    ),
                );
            } else if ty != ty0 || ext != ext0 {
                sink.push(
                    "common-mismatch",
                    Severity::Error,
                    unit,
                    1,
                    name,
                    format!(
                        "COMMON /{block}/ member `{name}` is {} here but {} in unit \
                         {unit0} (storage association mismatch)",
                        shape_str(ty, ext),
                        shape_str(ty0, ext0),
                    ),
                );
            }
        }
    }
}

fn shape_str(ty: &str, ext: &[Option<i64>]) -> String {
    if ext.is_empty() {
        ty.to_string()
    } else {
        let dims: Vec<String> = ext
            .iter()
            .map(|e| e.map(|v| v.to_string()).unwrap_or_else(|| "*".into()))
            .collect();
        format!("{ty}({})", dims.join(","))
    }
}

/// `dead-store`: two assignments to the same scalar in one straight-line
/// statement list with no intervening read (the first store can never be
/// observed). Control flow, CALLs and list boundaries conservatively
/// clear the tracking.
fn lint_dead_store(unit: &ProgramUnit, sink: &mut Sink) {
    walk_dead(&unit.body, unit, sink);
}

fn walk_dead(list: &StmtList, unit: &ProgramUnit, sink: &mut Sink) {
    // scalar name -> line of the pending (not-yet-read) store
    let mut pending: BTreeMap<String, u32> = BTreeMap::new();
    for s in list.iter() {
        let mut reads = Vec::new();
        s.for_each_own_expr(&mut |e| scalar_reads(e, unit, &mut |n| reads.push(n.to_string())));
        match &s.kind {
            StmtKind::Assign { lhs, .. } => {
                for r in &reads {
                    pending.remove(r);
                }
                if let LValue::Var(n) = lhs {
                    if let Some(prev) = pending.insert(n.clone(), s.line) {
                        sink.push(
                            "dead-store",
                            Severity::Warning,
                            &unit.name,
                            prev,
                            n,
                            format!(
                                "value stored to `{n}` is overwritten at line {} before \
                                 being read",
                                s.line
                            ),
                        );
                    }
                }
            }
            StmtKind::Do(d) => {
                for r in &reads {
                    pending.remove(r);
                }
                pending.clear();
                walk_dead(&d.body, unit, sink);
            }
            StmtKind::IfBlock { arms, else_body } => {
                for r in &reads {
                    pending.remove(r);
                }
                pending.clear();
                for arm in arms {
                    walk_dead(&arm.body, unit, sink);
                }
                walk_dead(else_body, unit, sink);
            }
            _ => {
                for r in &reads {
                    pending.remove(r);
                }
                if matches!(&s.kind, StmtKind::Call { .. }) {
                    pending.clear();
                }
            }
        }
    }
}

/// `induction-recurrence`: inside a DO body, `x = f(x)` that core's
/// reduction recognizer did not flag — neither `x op e` / `e op x` for
/// `+`, `*` (and `x - e`) nor `MAX`/`MIN(x, e)`, with `e` free of `x`.
/// Induction substitution rewrites the additive and multiplicative
/// forms and a flagged update may be reordered; any other recurrence
/// serializes the loop. Runs over the reduction-flagged program.
fn lint_induction_recurrence(unit: &ProgramUnit, sink: &mut Sink) {
    unit.body.walk(&mut |s| {
        if let StmtKind::Do(d) = &s.kind {
            // direct statements of this body only: nested loops get their
            // own visit, so each recurrence is reported once.
            for b in d.body.iter() {
                if let StmtKind::Assign { lhs: LValue::Var(x), rhs, reduction: None } = &b.kind {
                    if rhs.references_var(x) {
                        sink.push(
                            "induction-recurrence",
                            Severity::Warning,
                            &unit.name,
                            b.line,
                            x,
                            format!(
                                "scalar `{x}` carries the recurrence {x} = {}, outside \
                                 the induction-substitutable forms; it serializes `{}`",
                                polaris_ir::printer::format_expr(rhs),
                                d.label
                            ),
                        );
                    }
                }
            }
        }
    });
}

/// `nest-locality`: a rectangular loop nest runs with a worse memory
/// order than a *legal* alternative — the column-major stride model
/// scores a different permutation strictly cheaper and the dependence
/// matrix permits it. This is the interchange stage's own selection, so
/// the restructurer performs the interchange itself when its nest stages
/// are enabled; the lint surfaces the same fact to the programmer (who
/// may be compiling with `--no-nest-opts` or a baseline configuration).
fn lint_nest_locality(unit: &ProgramUnit, sink: &mut Sink) {
    use polaris_core::nestdeps::{better_legal_order, for_each_nest_root, NestReport};
    let stats = polaris_core::DdStats::new();
    for_each_nest_root(&unit.body, &mut |d, line| {
        let better = better_legal_order(&unit.name, d, &stats, false, &mut NestReport::default());
        if let Some((perm, summary, from, to)) = better {
            let vars = summary.vars();
            let order: Vec<&str> = perm.iter().map(|&i| vars[i].as_str()).collect();
            sink.push(
                "nest-locality",
                Severity::Warning,
                &unit.name,
                line,
                &d.var,
                format!(
                    "loop nest over ({}) has non-optimal memory order; \
                     the legal order ({}) scores {to} vs {from} in the \
                     column-major stride model",
                    vars.join(", "),
                    order.join(", ")
                ),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints(src: &str) -> LintReport {
        let p = polaris_ir::parse(src).unwrap();
        lint_program(&p, src)
    }

    fn has(report: &LintReport, lint: &str, frag: &str) -> bool {
        report.findings.iter().any(|f| f.lint == lint && f.message.contains(frag))
    }

    #[test]
    fn use_before_def_flagged_with_span() {
        let src = "program t\nreal a(10)\na(1) = x + 1.0\nx = 2.0\nend\n";
        let r = lints(src);
        assert!(has(&r, "use-before-def", "`X`"), "{:?}", r.findings);
        let f = r.findings.iter().find(|f| f.lint == "use-before-def").unwrap();
        assert_eq!(f.line, 3);
        assert_eq!(f.col, 8, "col of X in `a(1) = x + 1.0`");
        assert_eq!(f.severity, Severity::Warning);
    }

    #[test]
    fn defined_names_do_not_warn() {
        // args, parameters, DO variables, assert-vouched symbolics
        let src = "program t\ninteger n\nparameter (n = 10)\nreal a(10)\n!$assert (m >= 1)\ndo i = 1, n\n  a(i) = i * 1.0\nend do\nk = m\nprint *, a(1), k\nend\n";
        let r = lints(src);
        assert!(
            !r.findings.iter().any(|f| f.lint == "use-before-def"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn const_subscript_out_of_bounds_is_an_error() {
        let src = "program t\nreal a(10)\na(11) = 0.0\nx = a(0)\nend\n";
        let r = lints(src);
        assert_eq!(
            r.findings.iter().filter(|f| f.lint == "const-subscript-bounds").count(),
            2,
            "{:?}",
            r.findings
        );
        assert!(has(&r, "const-subscript-bounds", "subscript 11"));
        assert!(has(&r, "const-subscript-bounds", "subscript 0"));
        assert_eq!(r.errors(), 2);
    }

    #[test]
    fn in_bounds_and_symbolic_subscripts_are_silent() {
        let src = "program t\nreal a(10)\ndo i = 1, 10\n  a(i) = 0.0\nend do\na(10) = 1.0\nend\n";
        let r = lints(src);
        assert!(!r.findings.iter().any(|f| f.lint == "const-subscript-bounds"));
    }

    #[test]
    fn common_shape_mismatch_across_units() {
        let src = "program t\nreal x(10)\ncommon /blk/ x\ncall f()\nend\n\
                   subroutine f()\nreal x(20)\ncommon /blk/ x\nx(1) = 0.0\nend\n";
        let r = lints(src);
        assert!(has(&r, "common-mismatch", "`X`"), "{:?}", r.findings);
        assert_eq!(r.errors(), 1);
    }

    #[test]
    fn dead_store_in_straight_line_code() {
        let src = "program t\nx = 1.0\nx = 2.0\nprint *, x\nend\n";
        let r = lints(src);
        let f = r.findings.iter().find(|f| f.lint == "dead-store").unwrap();
        assert_eq!(f.line, 2, "{:?}", r.findings);
        assert!(f.message.contains("line 3"), "{}", f.message);
    }

    #[test]
    fn read_or_branch_between_stores_suppresses_dead_store() {
        let src = "program t\nx = 1.0\ny = x\nx = 2.0\nprint *, x, y\nend\n";
        assert!(!lints(src).findings.iter().any(|f| f.lint == "dead-store"));
        let src2 = "program t\nx = 1.0\nif (k > 0) then\n  print *, x\nend if\nx = 2.0\nprint *, x\nend\n";
        assert!(!lints(src2).findings.iter().any(|f| f.lint == "dead-store"));
    }

    #[test]
    fn nonlinear_recurrence_flagged_linear_forms_silent() {
        let src = "program t\ns = 1.0\nk = 0\ndo i = 1, 10\n  k = k + 1\n  s = s * s\nend do\nprint *, s, k\nend\n";
        let r = lints(src);
        assert!(has(&r, "induction-recurrence", "`S`"), "{:?}", r.findings);
        assert!(!has(&r, "induction-recurrence", "`K`"), "{:?}", r.findings);
    }

    #[test]
    fn max_and_min_reduction_updates_are_silent() {
        // The forms core's reduction recognizer flags: the compiler runs
        // such a loop PARALLEL, so the lint must not call it serialized.
        let src = "program t\nreal a(10)\nx = 0.0\ny = 0.0\ndo i = 1, 10\n  x = max(x, a(i))\n  y = min(a(i), y)\nend do\nprint *, x, y\nend\n";
        let r = lints(src);
        assert!(!r.findings.iter().any(|f| f.lint == "induction-recurrence"), "{:?}", r.findings);
    }

    #[test]
    fn json_document_shape() {
        let src = "program t\nreal a(10)\na(11) = 0.0\nend\n";
        let j = lints(src).to_json();
        assert!(j.contains("\"schema\": \"polaris-verify/lint/v1\""), "{j}");
        assert!(j.contains("\"errors\": 1"), "{j}");
        assert!(j.contains("\"line\": 3"), "{j}");
        assert!(j.contains("\"col\":"), "{j}");
        let doc = Json::parse(&j).unwrap();
        assert_eq!(doc.get("findings").map(|f| matches!(f, Json::Arr(v) if v.len() == 1)), Some(true));
    }

    #[test]
    fn nest_locality_flags_column_crossing_inner_loop() {
        // Inner loop J walks the second subscript: stride 34 in the
        // column-major layout. Swapping to I-inner is legal and cheaper.
        let r = lints(
            "program t\nreal a(34,34), b(34,34)\n\
             do i = 2, 33\n  do j = 2, 33\n\
             \x20   b(i,j) = a(i,j) + a(i-1,j)\n\
             end do\nend do\nprint *, b(2,2)\nend\n",
        );
        assert!(has(&r, "nest-locality", "legal order (J, I)"), "{:?}", r.findings);
    }

    #[test]
    fn nest_locality_stays_silent_when_interchange_is_illegal() {
        // The profitable J-inner... wait: the (<, >) dependence forbids
        // the only cheaper order, so no finding may be emitted.
        let r = lints(
            "program t\nreal a(64,64)\n\
             do i = 2, 63\n  do j = 2, 63\n\
             \x20   a(i,j) = a(i+1,j-1) + 1.0\n\
             end do\nend do\nprint *, a(2,2)\nend\n",
        );
        assert!(!has(&r, "nest-locality", ""), "{:?}", r.findings);
    }

    #[test]
    fn nest_locality_stays_silent_on_a_triangular_nest() {
        // Permuting these headers verbatim would read I outside its
        // loop: the compiler does not interchange it, so neither may the
        // lint suggest it.
        let r = lints(
            "program t\nreal a(64,64)\n\
             do i = 1, 64\n  do j = 1, i\n    a(i,j) = 1.0\n  end do\nend do\n\
             print *, a(2,1)\nend\n",
        );
        assert!(!has(&r, "nest-locality", ""), "{:?}", r.findings);
    }

    #[test]
    fn nest_locality_stays_silent_on_optimal_order() {
        let r = lints(
            "program t\nreal a(34,34), b(34,34)\n\
             do j = 2, 33\n  do i = 2, 33\n\
             \x20   b(i,j) = a(i,j) + a(i-1,j)\n\
             end do\nend do\nprint *, b(2,2)\nend\n",
        );
        assert!(!has(&r, "nest-locality", ""), "{:?}", r.findings);
    }
}

//! Unparser: regenerate F-Mini source from the IR.
//!
//! Polaris was a source-to-source restructurer; its final product was
//! annotated Fortran for the target machine's compiler (Cray T3D, SGI
//! Challenge). This module plays that role: it prints declarations and
//! executable statements, and renders [`crate::stmt::ParallelInfo`] as
//! `!$POLARIS DOALL ...` directives that [`crate::parser`] can read back
//! (round-trip tested).

use crate::expr::{BinOp, Expr, UnOp};
use crate::program::{Program, ProgramUnit, UnitKind};
use crate::stmt::{DoLoop, Stmt, StmtKind, StmtList};
use crate::symbol::SymKind;
use std::fmt::Write as _;

/// Pretty-print a whole program.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, unit) in program.units.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_unit(unit, &mut out);
    }
    out
}

/// Pretty-print a single program unit.
pub fn print_unit(unit: &ProgramUnit, out: &mut String) {
    match &unit.kind {
        UnitKind::Program => {
            let _ = writeln!(out, "      PROGRAM {}", unit.name);
        }
        UnitKind::Subroutine => {
            let _ = writeln!(out, "      SUBROUTINE {}({})", unit.name, unit.args.join(", "));
        }
        UnitKind::Function(ty) => {
            let _ = writeln!(
                out,
                "      {} FUNCTION {}({})",
                ty.keyword(),
                unit.name,
                unit.args.join(", ")
            );
        }
    }
    print_declarations(unit, out);
    print_stmts(&unit.body, out, 1);
    let _ = writeln!(out, "      END");
}

fn print_declarations(unit: &ProgramUnit, out: &mut String) {
    // Parameters must print after type declarations of the same names;
    // group as: type decls (scalars+arrays), PARAMETER, COMMON.
    let mut params = Vec::new();
    for sym in unit.symbols.iter() {
        match &sym.kind {
            SymKind::Scalar => {
                // Skip implicitly-typed scalars to keep output compact —
                // they re-enter the table identically on re-parse.
                if sym.ty != crate::types::DataType::implicit_for(&sym.name) || sym.is_arg {
                    let _ = writeln!(out, "      {} {}", sym.ty.keyword(), sym.name);
                }
            }
            SymKind::Array(dims) => {
                let dims: Vec<String> = dims
                    .iter()
                    .map(|d| {
                        if d.lo == Expr::Int(1) {
                            format_expr(&d.hi)
                        } else {
                            format!("{}:{}", format_expr(&d.lo), format_expr(&d.hi))
                        }
                    })
                    .collect();
                let _ =
                    writeln!(out, "      {} {}({})", sym.ty.keyword(), sym.name, dims.join(", "));
            }
            SymKind::Parameter(value) => {
                let _ = writeln!(out, "      {} {}", sym.ty.keyword(), sym.name);
                params.push(format!("{} = {}", sym.name, format_expr(value)));
            }
            SymKind::External => {}
        }
    }
    for p in params {
        let _ = writeln!(out, "      PARAMETER ({p})");
    }
    for c in &unit.commons {
        let _ = writeln!(out, "      COMMON /{}/ {}", c.name, c.vars.join(", "));
    }
}

fn indent(out: &mut String, level: usize) {
    out.push_str("      ");
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_stmts(list: &StmtList, out: &mut String, level: usize) {
    for stmt in list {
        print_stmt(stmt, out, level);
    }
}

fn print_stmt(stmt: &Stmt, out: &mut String, level: usize) {
    match &stmt.kind {
        StmtKind::Assign { lhs, rhs, .. } => {
            indent(out, level);
            let _ = writeln!(out, "{} = {}", format_expr(&lhs.as_expr()), format_expr(rhs));
        }
        StmtKind::Do(d) => {
            print_doall_directive(d, out);
            indent(out, level);
            match &d.step {
                Some(step) => {
                    let _ = writeln!(
                        out,
                        "DO {} = {}, {}, {}",
                        d.var,
                        format_expr(&d.init),
                        format_expr(&d.limit),
                        format_expr(step)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "DO {} = {}, {}",
                        d.var,
                        format_expr(&d.init),
                        format_expr(&d.limit)
                    );
                }
            }
            print_stmts(&d.body, out, level + 1);
            indent(out, level);
            out.push_str("END DO\n");
        }
        StmtKind::IfBlock { arms, else_body } => {
            for (i, arm) in arms.iter().enumerate() {
                indent(out, level);
                if i == 0 {
                    let _ = writeln!(out, "IF ({}) THEN", format_expr(&arm.cond));
                } else {
                    let _ = writeln!(out, "ELSE IF ({}) THEN", format_expr(&arm.cond));
                }
                print_stmts(&arm.body, out, level + 1);
            }
            if !else_body.is_empty() {
                indent(out, level);
                out.push_str("ELSE\n");
                print_stmts(else_body, out, level + 1);
            }
            indent(out, level);
            out.push_str("END IF\n");
        }
        StmtKind::Call { name, args } => {
            indent(out, level);
            let args: Vec<String> = args.iter().map(format_expr).collect();
            let _ = writeln!(out, "CALL {name}({})", args.join(", "));
        }
        StmtKind::Print { items } => {
            indent(out, level);
            let items: Vec<String> = items.iter().map(format_expr).collect();
            let _ = writeln!(out, "PRINT *, {}", items.join(", "));
        }
        StmtKind::Return => {
            indent(out, level);
            out.push_str("RETURN\n");
        }
        StmtKind::Stop => {
            indent(out, level);
            out.push_str("STOP\n");
        }
        StmtKind::Continue => {
            indent(out, level);
            out.push_str("CONTINUE\n");
        }
        StmtKind::Assert { cond } => {
            let _ = writeln!(out, "!$ASSERT ({})", format_expr(cond));
        }
    }
}

fn print_doall_directive(d: &DoLoop, out: &mut String) {
    let par = &d.par;
    if !par.parallel && par.speculative.is_none() {
        return;
    }
    let mut line = String::from("!$POLARIS DOALL");
    if let Some(spec) = &par.speculative {
        let mut items = Vec::new();
        for t in &spec.tracked {
            if spec.privatized.contains(t) {
                items.push(format!("{t}*"));
            } else {
                items.push(t.clone());
            }
        }
        let _ = write!(line, " SPECULATIVE({})", items.join(", "));
    }
    if !par.private.is_empty() {
        let _ = write!(line, " PRIVATE({})", par.private.join(", "));
    }
    if !par.reductions.is_empty() {
        let items: Vec<String> = par
            .reductions
            .iter()
            .map(|r| {
                if r.histogram {
                    format!("{}:{}[]", r.op.fortran(), r.var)
                } else {
                    format!("{}:{}", r.op.fortran(), r.var)
                }
            })
            .collect();
        let _ = write!(line, " REDUCTION({})", items.join(", "));
    }
    if !par.copy_out.is_empty() {
        let _ = write!(line, " LASTPRIVATE({})", par.copy_out.join(", "));
    }
    if !par.lastvalue.is_empty() {
        let items: Vec<String> =
            par.lastvalue.iter().map(|(n, e)| format!("{n} = {}", format_expr(e))).collect();
        let _ = write!(line, " LASTVALUE({})", items.join(", "));
    }
    out.push_str(&line);
    out.push('\n');
}

/// Format a single expression as Fortran text with minimal parentheses.
pub fn format_expr(e: &Expr) -> String {
    let mut s = String::new();
    fmt_expr(e, 0, &mut s);
    s
}

/// Precedence levels: higher binds tighter.
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Bin { op, .. } => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div => 6,
            BinOp::Pow => 7,
        },
        Expr::Un { op: UnOp::Not, .. } => 3,
        Expr::Un { op: UnOp::Neg, .. } => 5,
        // Negative literals print with a leading `-`, which re-parses as
        // unary minus; give them the same precedence so parentheses are
        // inserted where the sign would otherwise re-bind (e.g. the left
        // operand of `**`).
        Expr::Int(v) if *v < 0 => 5,
        Expr::Real(v) if *v < 0.0 => 5,
        _ => 10,
    }
}

fn fmt_expr(e: &Expr, parent_prec: u8, out: &mut String) {
    let my_prec = prec(e);
    let need_parens = my_prec < parent_prec;
    if need_parens {
        out.push('(');
    }
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Real(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Expr::Logical(b) => out.push_str(if *b { ".TRUE." } else { ".FALSE." }),
        Expr::Str(s) => {
            let _ = write!(out, "'{}'", s.replace('\'', "''"));
        }
        Expr::Var(n) => out.push_str(n),
        Expr::Index { array, subs } => {
            out.push_str(array);
            out.push('(');
            for (i, s) in subs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_expr(s, 0, out);
            }
            out.push(')');
        }
        Expr::Call { name, args } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                fmt_expr(a, 0, out);
            }
            out.push(')');
        }
        Expr::Un { op, arg } => {
            match op {
                UnOp::Neg => out.push('-'),
                UnOp::Not => out.push_str(".NOT. "),
            }
            // Negation of a sum needs parens: -(a+b); same precedence
            // forces them via `my_prec + 1`.
            fmt_expr(arg, my_prec + 1, out);
        }
        Expr::Bin { op, lhs, rhs } => {
            // `**` is right-associative: its left child needs parens at
            // equal precedence. Every other operator is left-associative:
            // its right child needs parens at equal precedence — kept
            // even for `+`/`*` so the re-parsed tree is structurally
            // identical (exact round-trip, relied on by the tests).
            let lp = if matches!(op, BinOp::Pow) { my_prec + 1 } else { my_prec };
            let rp = if matches!(op, BinOp::Pow) { my_prec } else { my_prec + 1 };
            fmt_expr(lhs, lp, out);
            match op {
                BinOp::Pow => out.push_str("**"),
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                    out.push_str(op.fortran());
                }
                _ => {
                    out.push(' ');
                    out.push_str(op.fortran());
                    out.push(' ');
                }
            }
            fmt_expr(rhs, rp, out);
        }
        Expr::Wildcard(id) => {
            let _ = write!(out, "_W{id}");
        }
    }
    if need_parens {
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn roundtrip(src: &str) -> (Program, Program) {
        let p1 = crate::parse(src).unwrap();
        let text = print_program(&p1);
        let p2 = crate::parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- printed ---\n{text}"));
        (p1, p2)
    }

    #[test]
    fn expr_formatting_minimal_parens() {
        let e = Expr::mul(Expr::add(Expr::var("A"), Expr::var("B")), Expr::var("C"));
        assert_eq!(format_expr(&e), "(A+B)*C");
        let e = Expr::add(Expr::var("A"), Expr::mul(Expr::var("B"), Expr::var("C")));
        assert_eq!(format_expr(&e), "A+B*C");
        let e = Expr::sub(Expr::var("A"), Expr::sub(Expr::var("B"), Expr::var("C")));
        assert_eq!(format_expr(&e), "A-(B-C)");
        let e = Expr::sub(Expr::sub(Expr::var("A"), Expr::var("B")), Expr::var("C"));
        assert_eq!(format_expr(&e), "A-B-C");
        let e = Expr::neg(Expr::add(Expr::var("A"), Expr::var("B")));
        assert_eq!(format_expr(&e), "-(A+B)");
    }

    #[test]
    fn pow_right_assoc_print() {
        let e = Expr::bin(
            BinOp::Pow,
            Expr::var("A"),
            Expr::bin(BinOp::Pow, Expr::var("B"), Expr::var("C")),
        );
        assert_eq!(format_expr(&e), "A**B**C");
        let e = Expr::bin(
            BinOp::Pow,
            Expr::bin(BinOp::Pow, Expr::var("A"), Expr::var("B")),
            Expr::var("C"),
        );
        assert_eq!(format_expr(&e), "(A**B)**C");
    }

    #[test]
    fn roundtrip_simple_program() {
        let src = "program t\ninteger n\nparameter (n = 8)\nreal a(n)\ndo i = 1, n\n  a(i) = i*2\nend do\nprint *, a(1)\nend\n";
        let (p1, p2) = roundtrip(src);
        // Compare structurally modulo statement ids/lines.
        assert_eq!(p1.units[0].body.loops().len(), p2.units[0].body.loops().len());
        assert_eq!(
            format_expr(&p1.units[0].body.loops()[0].limit),
            format_expr(&p2.units[0].body.loops()[0].limit)
        );
    }

    #[test]
    fn roundtrip_preserves_doall_directive() {
        let src = "program t\nreal s\n!$polaris doall private(X) reduction(+:S)\ndo i = 1, 10\n  s = s + 1.0\nend do\nend\n";
        let (p1, p2) = roundtrip(src);
        let d1 = &p1.units[0].body.loops()[0].par;
        let d2 = &p2.units[0].body.loops()[0].par;
        assert_eq!(d1.parallel, d2.parallel);
        assert_eq!(d1.private, d2.private);
        assert_eq!(d1.reductions, d2.reductions);
    }

    #[test]
    fn roundtrip_if_else() {
        let src = "program t\nif (x > 0) then\n  y = 1\nelse\n  y = 2\nend if\nend\n";
        let (p1, p2) = roundtrip(src);
        assert_eq!(p1.units[0].body.len(), p2.units[0].body.len());
    }

    #[test]
    fn string_literal_escaping() {
        let e = Expr::Str("it's".into());
        assert_eq!(format_expr(&e), "'it''s'");
    }
}

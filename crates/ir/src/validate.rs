//! Program well-formedness validation — the `p_assert` layer, organized
//! as a *named invariant set*.
//!
//! Polaris ran "extensive error checking throughout the system through the
//! liberal use of assertions" and refused to let a transformation leave
//! the IR "in a state that does not correspond to proper Fortran syntax".
//! This module is the single shared checker behind that discipline: the
//! parser-time entry point ([`validate_program`]) and the pass pipeline's
//! post-stage verifier (`polaris-core`, via [`check_program`]) run the
//! *same* invariants, so a rule added here is enforced at parse time and
//! after every transformation alike.
//!
//! Each rule belongs to a named [`Invariant`]; [`check_program`] returns
//! structured [`InvariantViolation`]s (at most one per invariant per
//! unit, so output stays bounded on badly corrupted IR), and
//! [`validate_program`] is the thin compatibility wrapper that turns the
//! first violation into a [`CompileError`].

use crate::error::{CompileError, Result};
use crate::expr::{is_intrinsic, BinOp, Expr, UnOp};
use crate::program::{Program, ProgramUnit, UnitKind};
use crate::stmt::{Stmt, StmtId, StmtKind};
use crate::symbol::{SymKind, Symbol};
use crate::types::DataType;
use std::collections::BTreeSet;

/// The invariant classes the checker enforces. The set is deliberately
/// small and named: a violation report (and the pipeline's rollback
/// diagnostics) cite the class, so a failure reads as "invariant
/// `loop-id-provenance` violated after `inline`" rather than an opaque
/// assertion message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// Unit-list shape: at least one unit, unique unit names, a single
    /// PROGRAM unit, declared dummy arguments, no arguments on PROGRAM.
    UnitStructure,
    /// Statement ids are unique within a unit and below the fresh-id
    /// watermark.
    StmtIdDiscipline,
    /// `LoopId`s are unique per unit — the provenance join key between
    /// compile-time verdicts, lowered plans, and oracle observations.
    LoopIdProvenance,
    /// Symbol-table/use consistency: assignment targets declared and
    /// writable, subscript rank agreement, no subscripted scalars, no
    /// escaped pattern wildcards, referenced arrays declared.
    SymbolUse,
    /// Type agreement: DO variables INTEGER, no LOGICAL/arithmetic
    /// punning in assignments or operators, IF conditions LOGICAL.
    TypeAgreement,
    /// DO-loop form: scalar loop variable, non-zero constant step, no
    /// assignment to an active DO variable.
    LoopForm,
    /// No dangling calls in multi-unit programs: every CALL target is an
    /// intrinsic or an existing unit (a pass that deletes or renames an
    /// inlined unit must also rewrite its call sites).
    UnitLinkage,
}

/// Every invariant class, in checking order.
pub const INVARIANTS: [Invariant; 7] = [
    Invariant::UnitStructure,
    Invariant::StmtIdDiscipline,
    Invariant::LoopIdProvenance,
    Invariant::SymbolUse,
    Invariant::TypeAgreement,
    Invariant::LoopForm,
    Invariant::UnitLinkage,
];

impl Invariant {
    /// Stable kebab-case name used in diagnostics and JSON documents.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Invariant::UnitStructure => "unit-structure",
            Invariant::StmtIdDiscipline => "stmt-id-discipline",
            Invariant::LoopIdProvenance => "loop-id-provenance",
            Invariant::SymbolUse => "symbol-use",
            Invariant::TypeAgreement => "type-agreement",
            Invariant::LoopForm => "loop-form",
            Invariant::UnitLinkage => "unit-linkage",
        }
    }
}

/// One broken invariant, with enough structure for the pipeline to
/// attribute it and for `--verify` to render it as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    pub(crate) invariant: Invariant,
    /// The unit the violation was found in, when unit-scoped.
    pub(crate) unit: Option<String>,
    /// 1-based source line, when the offending statement carries one.
    pub(crate) line: Option<u32>,
    pub(crate) message: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant `{}`: {}", self.invariant.name(), self.message)
    }
}

/// Check the whole invariant set over `program`, returning every
/// violation found (bounded to one per invariant per unit). An empty
/// vector means the IR is well-formed.
pub fn check_program(program: &Program) -> Vec<InvariantViolation> {
    let mut out = Violations::default();
    check_unit_structure(program, &mut out);
    for unit in &program.units {
        out.begin_unit();
        check_unit_body(unit, &mut out);
    }
    out.begin_unit();
    check_unit_linkage(program, &mut out);
    out.list
}

/// The unit-scoped invariants that read the statement tree.
fn check_unit_body(unit: &ProgramUnit, out: &mut Violations) {
    check_ids(unit, out);
    check_body(unit, out);
}

/// Validate a whole program; the first broken invariant is returned as a
/// [`CompileError`] (the historical parse-time interface).
pub fn validate_program(program: &Program) -> Result<()> {
    match check_program(program).into_iter().next() {
        None => Ok(()),
        Some(v) => {
            let mut err = CompileError::validate(v.to_string());
            if let Some(line) = v.line {
                err = err.with_line(line);
            }
            Err(err)
        }
    }
}

/// Violation accumulator: keeps at most one violation per invariant per
/// unit scope so a badly corrupted program can't produce an unbounded
/// report.
#[derive(Default)]
struct Violations {
    list: Vec<InvariantViolation>,
    seen_in_scope: BTreeSet<Invariant>,
}

impl Violations {
    fn begin_unit(&mut self) {
        self.seen_in_scope.clear();
    }

    fn push(
        &mut self,
        invariant: Invariant,
        unit: Option<&str>,
        line: Option<u32>,
        message: String,
    ) {
        if self.seen_in_scope.insert(invariant) {
            self.list.push(InvariantViolation {
                invariant,
                unit: unit.map(str::to_string),
                line,
                message,
            });
        }
    }
}

// ---------------------------------------------------------------------
// unit-structure
// ---------------------------------------------------------------------

fn check_unit_structure(program: &Program, out: &mut Violations) {
    if program.units.is_empty() {
        out.push(Invariant::UnitStructure, None, None, "program has no units".into());
        return;
    }
    let mains = program.units.iter().filter(|u| u.is_main()).count();
    if mains > 1 {
        out.push(Invariant::UnitStructure, None, None, "more than one PROGRAM unit".into());
    }
    let mut names = BTreeSet::new();
    for unit in &program.units {
        if !names.insert(unit.name.as_str()) {
            out.push(
                Invariant::UnitStructure,
                Some(&unit.name),
                None,
                format!("duplicate unit `{}`", unit.name),
            );
        }
    }
    for unit in &program.units {
        check_unit_args(unit, out);
    }
}

fn check_unit_args(unit: &ProgramUnit, out: &mut Violations) {
    for arg in &unit.args {
        if unit.symbols.get(arg).is_none() {
            out.push(
                Invariant::UnitStructure,
                Some(&unit.name),
                None,
                format!("unit {}: dummy argument `{arg}` is undeclared", unit.name),
            );
        }
    }
    if matches!(unit.kind, UnitKind::Program) && !unit.args.is_empty() {
        out.push(
            Invariant::UnitStructure,
            Some(&unit.name),
            None,
            "PROGRAM unit cannot take arguments".into(),
        );
    }
}

// ---------------------------------------------------------------------
// stmt-id-discipline / loop-id-provenance
// ---------------------------------------------------------------------

/// A set of statement ids: a bitmap for ids below the unit's fresh-id
/// watermark (every id of a well-formed unit), grown to the largest id
/// seen, and an ordered set for the strays at or above it.
struct IdSet {
    watermark: u32,
    dense: Vec<u64>,
    strays: BTreeSet<u32>,
}

impl IdSet {
    fn new(watermark: u32) -> IdSet {
        IdSet { watermark, dense: Vec::new(), strays: BTreeSet::new() }
    }

    /// Add `id`; false when it was already present.
    fn insert(&mut self, id: StmtId) -> bool {
        if id.0 >= self.watermark {
            return self.strays.insert(id.0);
        }
        let (word, bit) = ((id.0 / 64) as usize, 1u64 << (id.0 % 64));
        if word >= self.dense.len() {
            self.dense.resize(word + 1, 0);
        }
        let fresh = self.dense[word] & bit == 0;
        self.dense[word] |= bit;
        fresh
    }
}

fn check_ids(unit: &ProgramUnit, out: &mut Violations) {
    let mut ids = IdSet::new(unit.stmt_id_watermark());
    // Every pass must either keep a loop's `LoopId` or assign a fresh one
    // when it clones the loop (inlining); a duplicate means run-time
    // observations could be attributed to the wrong compile-time verdict
    // — inside the pipeline this rolls the offending stage back.
    let mut loop_ids = BTreeSet::new();
    let mut dup = None;
    let mut dup_loop = None;
    unit.body.walk(&mut |s| {
        if !ids.insert(s.id) && dup.is_none() {
            dup = Some(s.id);
        }
        if let Some(d) = s.as_do() {
            if !loop_ids.insert(d.loop_id) && dup_loop.is_none() {
                dup_loop = Some((d.loop_id, d.label.clone()));
            }
        }
    });
    if let Some(id) = dup {
        out.push(
            Invariant::StmtIdDiscipline,
            Some(&unit.name),
            None,
            format!("unit {}: duplicate statement id {id}", unit.name),
        );
    } else if let Some(&max) = ids.strays.last() {
        out.push(
            Invariant::StmtIdDiscipline,
            Some(&unit.name),
            None,
            format!(
                "unit {}: statement id {max} >= fresh-id watermark {} (id discipline violated)",
                unit.name,
                unit.stmt_id_watermark()
            ),
        );
    }
    if let Some((id, label)) = dup_loop {
        out.push(
            Invariant::LoopIdProvenance,
            Some(&unit.name),
            None,
            format!("unit {}: duplicate loop id {id} (at loop `{label}`)", unit.name),
        );
    }
}

// ---------------------------------------------------------------------
// symbol-use / type-agreement / loop-form (one body traversal)
// ---------------------------------------------------------------------

fn check_body(unit: &ProgramUnit, out: &mut Violations) {
    let mut check = BodyCheck { unit, loop_vars: Vec::new(), nodes: Vec::new(), out };
    check.stmts(&unit.body.0);
}

/// The body traversal's state: the variables of the DO loops open around
/// the current statement, and the side table of the expression under
/// check (see [`BodyCheck::expr`]).
struct BodyCheck<'a, 'o> {
    unit: &'a ProgramUnit,
    loop_vars: Vec<(&'a str, DataType)>,
    nodes: Vec<Node<'a>>,
    out: &'o mut Violations,
}

/// What [`BodyCheck::type_nodes`] records about one expression node.
#[derive(Clone, Copy)]
struct Node<'a> {
    ty: Option<DataType>,
    /// Slot just past this node's subtree — its next sibling's slot.
    end: usize,
    /// The symbol an [`Expr::Index`] node subscripts, if declared.
    base: Option<&'a Symbol>,
}

impl<'a> BodyCheck<'a, '_> {
    fn push(&mut self, invariant: Invariant, s: &Stmt, message: String) {
        self.out.push(invariant, Some(&self.unit.name), Some(s.line), message);
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) {
        let unit = self.unit;
        for s in stmts {
            match &s.kind {
                StmtKind::Assign { lhs, rhs, .. } => {
                    let target = unit.symbols.get(lhs.name());
                    self.lvalue(s, lhs.name(), lhs.subs(), target);
                    let rhs_ty = self.expr(s, rhs);
                    for sub in lhs.subs() {
                        self.expr(s, sub);
                    }
                    let lhs_ty = target.map_or_else(|| DataType::implicit_for(lhs.name()), |t| t.ty);
                    self.assign_types(s, lhs.name(), lhs_ty, rhs_ty);
                    // F77 forbids assigning to an active DO variable.
                    if lhs.subs().is_empty() && self.loop_vars.iter().any(|(v, _)| *v == lhs.name()) {
                        self.push(
                            Invariant::LoopForm,
                            s,
                            format!(
                                "unit {}: assignment to active DO variable `{}`",
                                unit.name,
                                lhs.name()
                            ),
                        );
                    }
                }
                StmtKind::Do(d) => {
                    let var = unit.symbols.get(&d.var);
                    let var_ty = var.map_or_else(|| DataType::implicit_for(&d.var), |v| v.ty);
                    if var_ty != DataType::Integer {
                        self.push(
                            Invariant::TypeAgreement,
                            s,
                            format!("unit {}: DO variable `{}` is not INTEGER", unit.name, d.var),
                        );
                    }
                    if var.is_some_and(Symbol::is_array) {
                        self.push(
                            Invariant::LoopForm,
                            s,
                            format!("unit {}: DO variable `{}` is an array", unit.name, d.var),
                        );
                    }
                    self.expr(s, &d.init);
                    self.expr(s, &d.limit);
                    if let Some(step) = &d.step {
                        self.expr(s, step);
                        if step.simplified().as_int() == Some(0) {
                            self.push(
                                Invariant::LoopForm,
                                s,
                                format!("unit {}: DO loop `{}` has zero step", unit.name, d.label),
                            );
                        }
                    }
                    self.loop_vars.push((&d.var, var_ty));
                    self.stmts(&d.body.0);
                    self.loop_vars.pop();
                }
                StmtKind::IfBlock { arms, else_body } => {
                    for arm in arms {
                        let cond_ty = self.expr(s, &arm.cond);
                        if matches!(cond_ty, Some(DataType::Integer) | Some(DataType::Real)) {
                            self.push(
                                Invariant::TypeAgreement,
                                s,
                                format!("unit {}: IF condition is not LOGICAL", unit.name),
                            );
                        }
                        self.stmts(&arm.body.0);
                    }
                    self.stmts(&else_body.0);
                }
                StmtKind::Call { args: exprs, .. } | StmtKind::Print { items: exprs } => {
                    for e in exprs {
                        self.expr(s, e);
                    }
                }
                StmtKind::Assert { cond } => {
                    self.expr(s, cond);
                }
                StmtKind::Return | StmtKind::Stop | StmtKind::Continue => {}
            }
        }
    }

    fn lvalue(&mut self, s: &Stmt, name: &str, subs: &[Expr], target: Option<&Symbol>) {
        let unit = &self.unit.name;
        let message = match target.map(|sym| &sym.kind) {
            Some(SymKind::Array(_)) if subs.is_empty() => {
                format!("unit {unit}: whole-array assignment to `{name}`")
            }
            Some(SymKind::Array(dims)) if subs.len() != dims.len() => format!(
                "unit {unit}: `{name}` has rank {} but is subscripted with {} indices",
                dims.len(),
                subs.len()
            ),
            Some(SymKind::Parameter(_)) => format!("unit {unit}: assignment to PARAMETER `{name}`"),
            Some(SymKind::Scalar) if !subs.is_empty() => {
                format!("unit {unit}: scalar `{name}` used with subscripts")
            }
            Some(SymKind::External) => format!("unit {unit}: assignment to external `{name}`"),
            Some(SymKind::Array(_) | SymKind::Scalar) => return,
            None => format!(
                "unit {unit}: assignment to undeclared symbol `{name}` (implicit declaration \
                 should have happened at parse time)"
            ),
        };
        self.push(Invariant::SymbolUse, s, message);
    }

    /// Check every node of `e` and return the type of `e` itself. Types
    /// are computed once, bottom-up, into the side table (in pre-order);
    /// the checks then run top-down, parent before children, and read
    /// their operands' types from it.
    fn expr(&mut self, s: &Stmt, e: &'a Expr) -> Option<DataType> {
        self.nodes.clear();
        let ty = self.type_nodes(e);
        self.check_nodes(s, e, 0);
        ty
    }

    /// Conservative expression typing for the type-agreement invariant,
    /// recorded for `e` and every node under it. `None` means "unknown —
    /// don't judge" (intrinsic calls, strings, mixed/unknown operands),
    /// so the check never fires on well-typed programs it cannot fully
    /// analyze.
    fn type_nodes(&mut self, e: &'a Expr) -> Option<DataType> {
        let slot = self.nodes.len();
        self.nodes.push(Node { ty: None, end: 0, base: None });
        let mut base = None;
        let ty = match e {
            Expr::Int(_) => Some(DataType::Integer),
            Expr::Real(_) => Some(DataType::Real),
            Expr::Logical(_) => Some(DataType::Logical),
            Expr::Str(_) | Expr::Wildcard(_) => None,
            // Most variables of a loop body are the loops' own: their type
            // was looked up when the loop was entered.
            Expr::Var(n) => Some(match self.loop_vars.iter().rev().find(|(v, _)| v == n) {
                Some((_, ty)) => *ty,
                None => self.unit.symbols.type_of(n),
            }),
            Expr::Index { array, subs } => {
                for sub in subs {
                    self.type_nodes(sub);
                }
                base = self.unit.symbols.get(array);
                Some(base.map_or_else(|| DataType::implicit_for(array), |b| b.ty))
            }
            Expr::Call { args, .. } => {
                for arg in args {
                    self.type_nodes(arg);
                }
                None
            }
            Expr::Un { op, arg } => {
                let arg_ty = self.type_nodes(arg);
                match op {
                    UnOp::Neg => arg_ty,
                    UnOp::Not => Some(DataType::Logical),
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let operands = (self.type_nodes(lhs), self.type_nodes(rhs));
                if op.is_relational() || matches!(op, BinOp::And | BinOp::Or) {
                    Some(DataType::Logical)
                } else {
                    match operands {
                        (Some(DataType::Logical), _) | (_, Some(DataType::Logical)) => None,
                        (Some(a), Some(b)) => Some(a.promote(b)),
                        _ => None,
                    }
                }
            }
        };
        self.nodes[slot] = Node { ty, end: self.nodes.len(), base };
        ty
    }

    /// The per-node checks over `e`, whose entry in the side table is
    /// `slot`. Children sit in pre-order: the first right after `e`,
    /// each next one where its elder sibling's subtree ends.
    fn check_nodes(&mut self, s: &Stmt, e: &Expr, slot: usize) {
        let unit = &self.unit.name;
        let logical = |nodes: &[Node], slot: usize| nodes[slot].ty == Some(DataType::Logical);
        let mut child = slot + 1;
        match e {
            Expr::Index { array, subs } => {
                match self.nodes[slot].base.map(|sym| &sym.kind) {
                    Some(SymKind::Array(dims)) if subs.len() == dims.len() => {}
                    Some(SymKind::Array(dims)) => self.push(
                        Invariant::SymbolUse,
                        s,
                        format!(
                            "unit {unit}: `{array}` has rank {} but is subscripted with {}",
                            dims.len(),
                            subs.len()
                        ),
                    ),
                    Some(_) => self.push(
                        Invariant::SymbolUse,
                        s,
                        format!("unit {unit}: `{array}` subscripted but not an array"),
                    ),
                    None => self.push(
                        Invariant::SymbolUse,
                        s,
                        format!("unit {unit}: reference to undeclared array `{array}`"),
                    ),
                }
                // Subscripts must be arithmetic.
                let mut sub_slot = child;
                for _ in subs {
                    if logical(&self.nodes, sub_slot) {
                        self.push(
                            Invariant::TypeAgreement,
                            s,
                            format!("unit {unit}: LOGICAL subscript on `{array}`"),
                        );
                    }
                    sub_slot = self.nodes[sub_slot].end;
                }
                for sub in subs {
                    self.check_nodes(s, sub, child);
                    child = self.nodes[child].end;
                }
            }
            Expr::Call { args, .. } => {
                for arg in args {
                    self.check_nodes(s, arg, child);
                    child = self.nodes[child].end;
                }
            }
            Expr::Un { arg, .. } => self.check_nodes(s, arg, child),
            Expr::Bin { op, lhs, rhs } => {
                let rhs_slot = self.nodes[child].end;
                if op.is_arithmetic()
                    && (logical(&self.nodes, child) || logical(&self.nodes, rhs_slot))
                {
                    self.push(
                        Invariant::TypeAgreement,
                        s,
                        format!("unit {unit}: LOGICAL operand of arithmetic `{}`", op.fortran()),
                    );
                }
                self.check_nodes(s, lhs, child);
                self.check_nodes(s, rhs, rhs_slot);
            }
            Expr::Wildcard(id) => self.push(
                Invariant::SymbolUse,
                s,
                format!("unit {unit}: wildcard _W{id} escaped into program text"),
            ),
            Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) | Expr::Var(_) => {}
        }
    }

    fn assign_types(&mut self, s: &Stmt, lhs: &str, lhs_ty: DataType, rhs_ty: Option<DataType>) {
        let Some(rhs_ty) = rhs_ty else { return };
        // Arithmetic types convert freely (F77 assignment conversion); the
        // pun the invariant rejects is LOGICAL on exactly one side.
        if (lhs_ty == DataType::Logical) != (rhs_ty == DataType::Logical) {
            self.push(
                Invariant::TypeAgreement,
                s,
                format!(
                    "unit {}: type-punned assignment to `{lhs}` ({} := {})",
                    self.unit.name,
                    lhs_ty.keyword(),
                    rhs_ty.keyword()
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------
// unit-linkage
// ---------------------------------------------------------------------

fn check_unit_linkage(program: &Program, out: &mut Violations) {
    // Only meaningful on multi-unit programs: a single unit calling an
    // undefined external is a legal F-Mini idiom (the passes treat the
    // call as an opaque kill), but once callee units exist, a CALL that
    // resolves to nothing means a pass dropped or renamed an inlined
    // unit without rewriting its call sites.
    if program.units.len() < 2 {
        return;
    }
    for unit in &program.units {
        let mut dangling: Option<(String, u32)> = None;
        unit.body.walk(&mut |s| {
            if let StmtKind::Call { name, .. } = &s.kind {
                let resolves = is_intrinsic(name)
                    || program.units.iter().any(|u| u.name.eq_ignore_ascii_case(name));
                if !resolves && dangling.is_none() {
                    dangling = Some((name.clone(), s.line));
                }
            }
        });
        if let Some((name, line)) = dangling {
            out.push(
                Invariant::UnitLinkage,
                Some(&unit.name),
                Some(line),
                format!("unit {}: CALL to `{name}` resolves to no unit or intrinsic", unit.name),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Result<()> {
        let p = crate::parse(src)?;
        validate_program(&p)
    }

    #[test]
    fn valid_program_passes() {
        check("program p\ninteger n\nparameter (n=4)\nreal a(n)\ndo i=1,n\na(i)=i\nend do\nend\n")
            .unwrap();
    }

    #[test]
    fn rank_mismatch_rejected() {
        let e = check("program p\nreal a(4,4)\na(1) = 0.0\nend\n").unwrap_err();
        assert!(e.message.contains("rank"), "{e}");
    }

    #[test]
    fn assignment_to_do_variable_rejected() {
        let e = check("program p\ndo i = 1, 4\n  i = 2\nend do\nend\n").unwrap_err();
        assert!(e.message.contains("DO variable"), "{e}");
    }

    #[test]
    fn real_do_variable_rejected() {
        let e = check("program p\nreal x\ndo x = 1, 4\n  y = x\nend do\nend\n").unwrap_err();
        assert!(e.message.contains("not INTEGER"), "{e}");
    }

    #[test]
    fn parameter_assignment_rejected() {
        let e = check("program p\ninteger n\nparameter (n=4)\nn = 5\nend\n").unwrap_err();
        assert!(e.message.contains("PARAMETER"), "{e}");
    }

    #[test]
    fn zero_step_rejected() {
        let e = check("program p\ndo i = 1, 4, 0\n  y = x\nend do\nend\n").unwrap_err();
        assert!(e.message.contains("zero step"), "{e}");
    }

    #[test]
    fn two_program_units_rejected() {
        let src = "program a\nx=1\nend\n";
        let mut p = crate::parse(src).unwrap();
        let mut second = p.units[0].clone();
        second.name = "B".into();
        p.units.push(second);
        let e = validate_program(&p).unwrap_err();
        assert!(e.message.contains("more than one PROGRAM"), "{e}");
    }

    #[test]
    fn scalar_with_subscripts_rejected() {
        let e = check("program p\nreal x\nx(1) = 2.0\nend\n").unwrap_err();
        assert!(e.message.contains("rank") || e.message.contains("scalar"), "{e}");
    }

    #[test]
    fn violations_carry_invariant_names() {
        let p = crate::parse("program p\ndo i = 1, 4, 0\n  y = x\nend do\nend\n").unwrap();
        let vs = check_program(&p);
        assert!(
            vs.iter().any(|v| v.invariant == Invariant::LoopForm),
            "{vs:?}"
        );
        let e = validate_program(&p).unwrap_err();
        assert!(e.message.contains("loop-form"), "{e}");
    }

    #[test]
    fn type_punned_assignment_rejected() {
        let src = "program p\ninteger k\nk = 1\nend\n";
        let mut p = crate::parse(src).unwrap();
        // Corrupt the symbol table behind the assignment's back.
        p.units[0].symbols.get_mut("K").unwrap().ty = DataType::Logical;
        let vs = check_program(&p);
        assert!(
            vs.iter().any(|v| v.invariant == Invariant::TypeAgreement),
            "{vs:?}"
        );
        assert!(vs[0].message.contains("type-punned"), "{vs:?}");
    }

    #[test]
    fn undeclared_array_reference_rejected() {
        let src = "program p\nreal a(4)\nx = a(1)\nend\n";
        let mut p = crate::parse(src).unwrap();
        p.units[0].symbols.remove("A");
        let vs = check_program(&p);
        assert!(
            vs.iter().any(|v| v.invariant == Invariant::SymbolUse),
            "{vs:?}"
        );
    }

    #[test]
    fn duplicate_loop_id_names_provenance_invariant() {
        let src = "program p\nreal a(4)\ndo i = 1, 4\n  a(i) = 0.0\nend do\n\
                   do j = 1, 4\n  a(j) = 1.0\nend do\nend\n";
        let mut p = crate::parse(src).unwrap();
        let first = p.units[0].body.loops()[0].loop_id;
        let mut n = 0;
        p.units[0].body.walk_mut(&mut |s| {
            if let StmtKind::Do(d) = &mut s.kind {
                n += 1;
                if n == 2 {
                    d.loop_id = first;
                }
            }
        });
        let vs = check_program(&p);
        assert!(
            vs.iter().any(|v| v.invariant == Invariant::LoopIdProvenance),
            "{vs:?}"
        );
    }

    #[test]
    fn dangling_call_in_multi_unit_program_rejected() {
        let src = "program p\ncall fill\nend\nsubroutine fill\nx = 1.0\nend\n";
        let mut p = crate::parse(src).unwrap();
        validate_program(&p).unwrap();
        p.units[0].body.walk_mut(&mut |s| {
            if let StmtKind::Call { name, .. } = &mut s.kind {
                *name = "GONE".into();
            }
        });
        let vs = check_program(&p);
        assert!(
            vs.iter().any(|v| v.invariant == Invariant::UnitLinkage),
            "{vs:?}"
        );
        // A single-unit program calling an undefined external is legal.
        let single = crate::parse("program p\nk = 3\ncall f(k)\nx = k\nend\n").unwrap();
        assert!(check_program(&single).is_empty());
    }

    /// Two violations of one invariant class in one statement: only the
    /// first is kept, so *which* comes first is part of the verdict. The
    /// expected messages are what the checker reported before it typed
    /// each expression once (recorded from a run of that version).
    #[test]
    fn first_violation_of_a_class_is_the_one_the_pre_order_walk_meets_first() {
        let first = |p: &Program| {
            let vs = check_program(p);
            assert_eq!(vs.len(), 1, "{vs:?}");
            vs[0].to_string()
        };

        // LOGICAL operands and subscripts, typed behind the parser's back.
        for (stmt, expected) in [
            ("x = a(ip) + iq", "LOGICAL operand of arithmetic `+`"),
            ("x = iq + a(ip)", "LOGICAL operand of arithmetic `+`"),
            ("x = a(ip + iq)", "LOGICAL operand of arithmetic `+`"),
            ("x = a(ib(ip)) * 2.0 + a(iq)", "LOGICAL subscript on `IB`"),
            ("x = -iq + a(ip)", "LOGICAL operand of arithmetic `+`"),
            ("x = max(a(ip), iq + 1)", "LOGICAL subscript on `A`"),
            ("if (a(ip) + iq > 0.0) x = 1.0", "LOGICAL operand of arithmetic `+`"),
        ] {
            let src = format!("program p\nreal a(8)\ninteger ib(8)\ninteger ip, iq\n{stmt}\nend\n");
            let mut p = crate::parse(&src).unwrap();
            for name in ["IP", "IQ"] {
                p.units[0].symbols.get_mut(name).unwrap().ty = DataType::Logical;
            }
            assert_eq!(first(&p), format!("invariant `type-agreement`: unit P: {expected}"), "{stmt}");
        }

        // A rank mismatch, a subscripted scalar and an undeclared array.
        let decls = crate::parse("program q\nreal a(4, 4, 4), s\nend\n").unwrap();
        for (stmt, expected) in [
            ("x = a(1, 1) + zz(1, 2)", "`A` has rank 3 but is subscripted with 2"),
            ("x = zz(1, 2) + a(1, 1)", "reference to undeclared array `ZZ`"),
            ("x = s(1) + a(1, 1)", "`S` subscripted but not an array"),
            ("a(1, 1) = zz(1, 2)", "`A` has rank 3 but is subscripted with 2 indices"),
        ] {
            let src = format!("program p\nreal a(4, 4), zz(4, 4), s(3)\n{stmt}\nend\n");
            let mut p = crate::parse(&src).unwrap();
            p.units[0].symbols.remove("ZZ");
            for name in ["A", "S"] {
                p.units[0].symbols.insert(decls.units[0].symbols.get(name).unwrap().clone());
            }
            assert_eq!(first(&p), format!("invariant `symbol-use`: unit P: {expected}"), "{stmt}");
        }

        // Statement ids: the n-th statement (pre-order, from 1) gets the id
        // given as an offset from the unit's watermark, 7.
        let src = "program p\nreal a(4)\nx = 1.0\ny = 2.0\ndo i = 1, 4\n  a(i) = x\n  z = y\nend do\n\
                   print *, a(1), z\nend\n";
        for (renumber, expected) in [
            (&[(2, -7), (4, 7)][..], "duplicate statement id s0"),
            (&[(4, 7)][..], "statement id 14 >= fresh-id watermark 7 (id discipline violated)"),
            (&[(2, 3), (5, 0)][..], "statement id 10 >= fresh-id watermark 7 (id discipline violated)"),
            (&[(2, 1), (5, 1)][..], "duplicate statement id s8"),
        ] {
            let mut p = crate::parse(src).unwrap();
            let watermark = p.units[0].stmt_id_watermark() as i64;
            assert_eq!(watermark, 7);
            let mut n = 0;
            p.units[0].body.walk_mut(&mut |s| {
                n += 1;
                if let Some((_, offset)) = renumber.iter().find(|(nth, _)| *nth == n) {
                    s.id = StmtId((watermark + offset) as u32);
                }
            });
            assert_eq!(
                first(&p),
                format!("invariant `stmt-id-discipline`: unit P: {expected}"),
                "{renumber:?}"
            );
        }
    }

    /// A unit that breaks the id discipline still gets its loop ids
    /// checked (same walk), in that order.
    #[test]
    fn duplicate_statement_and_loop_ids_are_both_reported() {
        let src = "program p\nreal a(4)\ndo i = 1, 4\n  a(i) = 0.0\nend do\n\
                   do j = 1, 4\n  a(j) = 1.0\nend do\nend\n";
        let mut p = crate::parse(src).unwrap();
        let first = p.units[0].body.loops()[0].loop_id;
        p.units[0].body.walk_mut(&mut |s| {
            s.id = StmtId(1);
            if let StmtKind::Do(d) = &mut s.kind {
                d.loop_id = first;
            }
        });
        let messages: Vec<String> = check_program(&p).iter().map(|v| v.to_string()).collect();
        assert_eq!(
            messages,
            [
                "invariant `stmt-id-discipline`: unit P: duplicate statement id s1",
                "invariant `loop-id-provenance`: unit P: duplicate loop id L1 (at loop `P_do6`)",
            ]
        );
    }

    /// The one way an owned statement tree can hold "the same statement
    /// twice" is a copied subtree, and the copy keeps its ids: that is one
    /// violation, of the id discipline, whatever the subtree's size.
    #[test]
    fn a_duplicated_subtree_is_reported_once_by_the_id_discipline() {
        let src = "program p\nreal a(4)\nif (a(1) > 0.0) then\n  a(2) = 1.0\n  a(3) = 2.0\nend if\n\
                   print *, a(2)\nend\n";
        let mut p = crate::parse(src).unwrap();
        let copy = p.units[0].body.0[0].clone();
        p.units[0].body.0.push(copy);
        let messages: Vec<String> = check_program(&p).iter().map(|v| v.to_string()).collect();
        assert_eq!(messages, ["invariant `stmt-id-discipline`: unit P: duplicate statement id s2"]);
    }

    #[test]
    fn check_program_bounds_violations_per_invariant() {
        // Many broken statements of the same class still yield one
        // violation for that class per unit.
        let src = "program p\nreal a(4,4)\na(1) = 0.0\na(2) = 0.0\na(3) = 0.0\nend\n";
        let p = crate::parse(src).unwrap();
        let n = check_program(&p)
            .iter()
            .filter(|v| v.invariant == Invariant::SymbolUse)
            .count();
        assert_eq!(n, 1);
    }
}

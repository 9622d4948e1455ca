//! Statements and statement lists.
//!
//! Polaris kept statements in a flat `StmtList` with multi-block
//! well-formedness checks (a `DoStmt` must have its `EndDoStmt`, etc.).
//! F-Mini has no `GOTO`, so the IR can afford a *structured* representation:
//! `DO` and block-`IF` own their bodies. The `StmtList` wrapper supplies the
//! high-level member functions the paper describes — iterators over
//! selected statement kinds, well-formed sublist manipulation — and
//! well-formedness is guaranteed by construction rather than by run-time
//! checks on block boundaries.

use crate::expr::{Expr, LValue, RedOp};
use std::fmt;

/// Unique statement identity within a [`crate::ProgramUnit`].
///
/// Passes use ids to refer to statements across analyses (e.g. the
/// dependence graph); ids are assigned by the parser and by
/// [`crate::ProgramUnit::fresh_stmt_id`] for synthesized statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Stable provenance identity of a `DO` loop within a
/// [`crate::ProgramUnit`].
///
/// Unlike the human-readable [`DoLoop::label`], which passes may rewrite
/// (inlining suffixes the expansion site), a `LoopId` is assigned once —
/// at parse time or when a pass synthesizes/splices a loop — and then
/// survives every transformation untouched. It is the join key between
/// compile-time verdicts ([`ParallelInfo`], `LoopReport`) and run-time
/// observations (the machine's dependence oracle), so the invariants are
/// strict: ids are unique per unit (enforced by
/// [`crate::validate::check_program`]) and a transformed loop keeps the
/// id of the source loop it descends from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A statement: id + source line + kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    pub id: StmtId,
    /// 1-based source line (0 for synthesized statements).
    pub line: u32,
    pub kind: StmtKind,
}

impl Stmt {
    pub fn new(id: StmtId, line: u32, kind: StmtKind) -> Stmt {
        Stmt { id, line, kind }
    }

    /// Is this a `DO` loop?
    pub fn as_do(&self) -> Option<&DoLoop> {
        match &self.kind {
            StmtKind::Do(d) => Some(d),
            _ => None,
        }
    }

    pub fn as_do_mut(&mut self) -> Option<&mut DoLoop> {
        match &mut self.kind {
            StmtKind::Do(d) => Some(d),
            _ => None,
        }
    }

    /// Visit the root of every expression this statement evaluates
    /// itself, not those of the statements nested in it: LHS subscripts
    /// then RHS, DO bounds, IF conditions, CALL/PRINT arguments, the
    /// ASSERT condition.
    pub fn for_each_own_expr<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Assign { lhs, rhs, .. } => {
                lhs.subs().iter().for_each(&mut *f);
                f(rhs);
            }
            StmtKind::Do(d) => {
                f(&d.init);
                f(&d.limit);
                d.step.iter().for_each(f);
            }
            StmtKind::IfBlock { arms, .. } => arms.iter().for_each(|arm| f(&arm.cond)),
            StmtKind::Call { args: exprs, .. } | StmtKind::Print { items: exprs } => {
                exprs.iter().for_each(f)
            }
            StmtKind::Assert { cond } => f(cond),
            StmtKind::Return | StmtKind::Stop | StmtKind::Continue => {}
        }
    }

    /// Pre-order walk over this statement and the statements nested in it.
    fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::Do(d) => d.body.walk(f),
            StmtKind::IfBlock { arms, else_body } => {
                arms.iter().for_each(|arm| arm.body.walk(f));
                else_body.walk(f);
            }
            _ => {}
        }
    }
}

/// An `IF`/`ELSE IF` arm of a block `IF`.
#[derive(Debug, Clone, PartialEq)]
pub struct IfArm {
    pub cond: Expr,
    pub body: StmtList,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `lhs = rhs`. `reduction` is set by the reduction-recognition pass
    /// when the statement is a validated reduction update (§3.2); the
    /// code generator and the machine model treat such statements
    /// specially inside parallel loops.
    Assign { lhs: LValue, rhs: Expr, reduction: Option<RedOp> },
    /// A `DO` loop (boxed: `DoLoop` is large).
    Do(Box<DoLoop>),
    /// Block `IF` with zero or more `ELSE IF` arms and an optional `ELSE`.
    /// A logical `IF (c) stmt` is desugared to a single-arm block.
    IfBlock { arms: Vec<IfArm>, else_body: StmtList },
    /// `CALL name(args)`.
    Call { name: String, args: Vec<Expr> },
    /// `PRINT *, items`.
    Print { items: Vec<Expr> },
    Return,
    Stop,
    Continue,
    /// `!$ASSERT <relation>` — a user assertion consumed by range
    /// propagation (Polaris had equivalent command-line assertion
    /// facilities for symbolic analysis).
    Assert { cond: Expr },
}

/// Reduction descriptor attached to a parallel loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// Scalar or array name being reduced into.
    pub var: String,
    pub op: RedOp,
    /// True for *histogram* reductions (different iterations may update
    /// different elements of an array); false for single-address
    /// reductions (§3.2).
    pub histogram: bool,
}

/// Run-time (speculative) parallelization request attached to a loop by
/// the compile-time analysis when it cannot prove independence (§3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecInfo {
    /// Arrays whose accesses must be shadow-tracked by the PD test.
    pub tracked: Vec<String>,
    /// Arrays among `tracked` that are speculatively privatized.
    pub privatized: Vec<String>,
}

/// Parallelization annotations attached to a `DO` loop by the passes;
/// rendered as `!$POLARIS DOALL ...` directives by the unparser.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParallelInfo {
    /// Proven parallel (a DOALL).
    pub parallel: bool,
    /// Variables/arrays given per-iteration private copies (§3.4).
    pub private: Vec<String>,
    /// Scalar last-value assignments `(name, closed-form at loop exit)`
    /// required because a privatized scalar is live after the loop.
    pub lastvalue: Vec<(String, Expr)>,
    /// Privatized variables whose value from the *last* iteration must
    /// survive the loop (OpenMP "lastprivate"); used when no closed form
    /// exists but the final write is unconditional.
    pub copy_out: Vec<String>,
    /// Validated reductions (§3.2).
    pub reductions: Vec<Reduction>,
    /// Speculative run-time parallelization (§3.5); mutually exclusive
    /// with `parallel`.
    pub speculative: Option<SpecInfo>,
    /// Why the loop was left serial (diagnostics; mirrors Polaris'
    /// listing output).
    pub serial_reason: Option<String>,
}

/// A `DO var = init, limit [, step]` loop and its body.
#[derive(Debug, Clone, PartialEq)]
pub struct DoLoop {
    pub var: String,
    pub init: Expr,
    pub limit: Expr,
    /// `None` means step 1.
    pub step: Option<Expr>,
    pub body: StmtList,
    /// Parallelization annotations (the "assertions" Polaris attached).
    pub par: ParallelInfo,
    /// Stable human-readable label, e.g. `OLDA_do100`; assigned by the
    /// parser (`<unit>_do<line>`) and preserved by transformations so the
    /// evaluation harness can report per-loop results like the paper's
    /// `NLFILT/300` notation.
    pub label: String,
    /// Stable provenance id (see [`LoopId`]): the join key between this
    /// loop's compile-time verdict and run-time observations of it.
    pub loop_id: LoopId,
}

impl DoLoop {
    /// The step expression, defaulting to 1.
    pub fn step_expr(&self) -> Expr {
        self.step.clone().unwrap_or(Expr::Int(1))
    }

    /// True if the step is a known positive constant.
    pub fn step_is_positive_const(&self) -> bool {
        self.step_expr().simplified().as_int().map(|s| s > 0).unwrap_or(false)
    }
}

/// An owned, ordered list of statements with high-level member functions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StmtList(pub Vec<Stmt>);

impl StmtList {
    pub fn new() -> StmtList {
        StmtList(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub(crate) fn push(&mut self, stmt: Stmt) {
        self.0.push(stmt);
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Stmt> {
        self.0.iter()
    }

    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Stmt> {
        self.0.iter_mut()
    }

    /// Pre-order walk over every statement, descending into loop and IF
    /// bodies. This is the analogue of the Polaris statement iterator
    /// "over selected parts of the statement list".
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        self.0.iter().for_each(|s| s.walk(f));
    }

    /// Mutable pre-order walk.
    pub fn walk_mut(&mut self, f: &mut dyn FnMut(&mut Stmt)) {
        for s in &mut self.0 {
            f(s);
            match &mut s.kind {
                StmtKind::Do(d) => d.body.walk_mut(f),
                StmtKind::IfBlock { arms, else_body } => {
                    for arm in arms {
                        arm.body.walk_mut(f);
                    }
                    else_body.walk_mut(f);
                }
                _ => {}
            }
        }
    }

    /// All `DO` loops, outermost first (pre-order).
    pub fn loops(&self) -> Vec<&DoLoop> {
        let mut out = Vec::new();
        self.walk(&mut |s| out.extend(s.as_do()));
        out
    }

    /// Drop, at every depth, the statements `keep` answers false for.
    /// Bottom-up: a compound statement is judged after its bodies were
    /// filtered, so `keep` sees what is left of them.
    pub fn retain(&mut self, keep: &mut dyn FnMut(&Stmt) -> bool) {
        self.0.retain_mut(|s| {
            match &mut s.kind {
                StmtKind::Do(d) => d.body.retain(keep),
                StmtKind::IfBlock { arms, else_body } => {
                    arms.iter_mut().for_each(|arm| arm.body.retain(keep));
                    else_body.retain(keep);
                }
                _ => {}
            }
            keep(s)
        });
    }

    /// Find (a clone of) a statement by id anywhere in the list. Callers
    /// needing in-place access use `walk_mut`.
    pub fn find_stmt(&self, id: StmtId) -> Option<Stmt> {
        let mut found = None;
        self.walk(&mut |s| {
            if s.id == id && found.is_none() {
                found = Some(s.clone());
            }
        });
        found
    }

    /// Apply an expression rewrite to every expression in every statement
    /// (assignment RHS/LHS subscripts, loop bounds, conditions, call and
    /// print arguments). The rewrite runs bottom-up within each tree.
    pub fn map_exprs(&mut self, f: &mut dyn FnMut(Expr) -> Expr) {
        for s in &mut self.0 {
            map_stmt_exprs(s, f);
        }
    }

    /// Iterate over every expression in every statement (read-only),
    /// mirroring the Polaris "iterator which traverses all of the
    /// expressions contained in the statement".
    pub(crate) fn for_each_expr<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        self.walk(&mut |s| s.for_each_own_expr(&mut |e| e.for_each(f)));
    }
}

/// Apply an expression rewrite to all expressions of a single statement,
/// recursing into nested bodies. Each tree is rewritten in place
/// ([`Expr::rewrite`]): its nodes move through `f`, nothing is copied.
pub fn map_stmt_exprs(s: &mut Stmt, f: &mut dyn FnMut(Expr) -> Expr) {
    match &mut s.kind {
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.rewrite_subs(f);
            rhs.rewrite(f);
        }
        StmtKind::Do(d) => {
            d.init.rewrite(f);
            d.limit.rewrite(f);
            if let Some(step) = &mut d.step {
                step.rewrite(f);
            }
            d.body.map_exprs(f);
        }
        StmtKind::IfBlock { arms, else_body } => {
            for arm in arms {
                arm.cond.rewrite(f);
                arm.body.map_exprs(f);
            }
            else_body.map_exprs(f);
        }
        StmtKind::Call { args: exprs, .. } | StmtKind::Print { items: exprs } => {
            exprs.iter_mut().for_each(|e| e.rewrite(f))
        }
        StmtKind::Assert { cond } => cond.rewrite(f),
        StmtKind::Return | StmtKind::Stop | StmtKind::Continue => {}
    }
}

/// Visit every node of every expression of a single statement and of the
/// statements nested in it: a statement's own expressions
/// ([`Stmt::for_each_own_expr`]) before its bodies', in pre-order.
pub fn for_each_stmt_expr<'a>(s: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    s.walk(&mut |t| t.for_each_own_expr(&mut |e| e.for_each(f)));
}

impl<'a> IntoIterator for &'a StmtList {
    type Item = &'a Stmt;
    type IntoIter = std::slice::Iter<'a, Stmt>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl FromIterator<Stmt> for StmtList {
    fn from_iter<T: IntoIterator<Item = Stmt>>(iter: T) -> Self {
        StmtList(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn sid(n: u32) -> StmtId {
        StmtId(n)
    }

    fn simple_loop() -> Stmt {
        let body = StmtList(vec![Stmt::new(
            sid(2),
            0,
            StmtKind::Assign {
                lhs: LValue::Index { array: "A".into(), subs: vec![Expr::var("I")] },
                rhs: Expr::var("I"),
                reduction: None,
            },
        )]);
        Stmt::new(
            sid(1),
            1,
            StmtKind::Do(Box::new(DoLoop {
                var: "I".into(),
                init: Expr::int(1),
                limit: Expr::var("N"),
                step: None,
                body,
                par: ParallelInfo::default(),
                label: "T_do1".into(),
                loop_id: LoopId(1),
            })),
        )
    }

    #[test]
    fn walk_descends_into_bodies() {
        let list = StmtList(vec![simple_loop()]);
        let mut ids = Vec::new();
        list.walk(&mut |s| ids.push(s.id.0));
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn loops_returns_preorder() {
        let inner = simple_loop();
        let outer = Stmt::new(
            sid(10),
            1,
            StmtKind::Do(Box::new(DoLoop {
                var: "J".into(),
                init: Expr::int(1),
                limit: Expr::int(10),
                step: None,
                body: StmtList(vec![inner]),
                par: ParallelInfo::default(),
                label: "T_do0".into(),
                loop_id: LoopId(10),
            })),
        );
        let list = StmtList(vec![outer]);
        let labels: Vec<_> = list.loops().iter().map(|d| d.label.clone()).collect();
        assert_eq!(labels, vec!["T_do0", "T_do1"]);
    }

    #[test]
    fn map_exprs_rewrites_bounds_and_subscripts() {
        let mut list = StmtList(vec![simple_loop()]);
        list.map_exprs(&mut |e| match e {
            Expr::Var(ref n) if n == "N" => Expr::int(100),
            other => other,
        });
        let d = list.loops()[0];
        assert_eq!(d.limit, Expr::int(100));
    }

    #[test]
    fn for_each_expr_sees_subscripts() {
        let list = StmtList(vec![simple_loop()]);
        let mut vars = Vec::new();
        list.for_each_expr(&mut |e| {
            if let Expr::Var(n) = e {
                vars.push(n.clone());
            }
        });
        // init=1, limit=N, lhs sub I, rhs I
        assert!(vars.contains(&"N".to_string()));
        assert_eq!(vars.iter().filter(|v| *v == "I").count(), 2);
    }

    #[test]
    fn step_defaults_to_one() {
        let s = simple_loop();
        let d = s.as_do().unwrap();
        assert_eq!(d.step_expr(), Expr::int(1));
        assert!(d.step_is_positive_const());
    }
}

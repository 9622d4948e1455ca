//! Access collection: the memory-reference sets Polaris attached to every
//! statement ("sets of memory references" in the base `Statement` class).
//!
//! Passes ask for the reads and writes performed by a loop iteration,
//! together with the *context* of each access: the stack of loops
//! enclosing it (relative to the collection root) and whether it executes
//! conditionally. This is the raw material for dependence testing (§3.3)
//! and privatization region analysis (§3.4).

use crate::expr::{Expr, Name, RedOp};
use crate::stmt::{DoLoop, Stmt, StmtId, StmtKind, StmtList};
use std::rc::Rc;

/// Description of one loop enclosing an access (innermost last).
#[derive(Debug, Clone, PartialEq)]
pub struct LoopCtx {
    pub var: Name,
    pub init: Expr,
    pub limit: Expr,
    pub step: Expr,
    pub label: String,
}

impl LoopCtx {
    pub(crate) fn of(d: &DoLoop) -> LoopCtx {
        LoopCtx {
            var: d.var.clone(),
            init: d.init.clone(),
            limit: d.limit.clone(),
            step: d.step_expr(),
            label: d.label.clone(),
        }
    }
}

/// One memory access to a scalar or an array element.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// Variable or array name.
    pub name: Name,
    /// Subscripts; empty for scalars.
    pub subs: Vec<Expr>,
    pub is_write: bool,
    /// Statement performing the access.
    pub(crate) stmt: StmtId,
    /// Loops enclosing the access *inside* the collection root,
    /// outermost first. Shared: every access at one nesting point holds
    /// the same slice.
    pub ctx: Rc<[LoopCtx]>,
    /// True if the access is guarded by an IF inside the root.
    pub conditional: bool,
    /// Set on the write and the matching read of the reduction variable in
    /// a flagged reduction statement `σ = σ op β` (such accesses are exempt
    /// from dependence testing, §3.2); reads inside β are ordinary reads.
    pub reduction: Option<RedOp>,
    /// Position index in textual execution order (pre-order).
    pub order: usize,
    /// For a scalar write produced by an assignment statement: the
    /// assigned RHS (lets demand-driven analyses resolve scalar values,
    /// §3.4).
    pub def_rhs: Option<Expr>,
}

impl Access {
    pub fn is_scalar(&self) -> bool {
        self.subs.is_empty()
    }
}

/// Collector state.
struct Collector {
    out: Vec<Access>,
    /// The enclosing loops at each depth entered so far, `ctx[0]` empty:
    /// a loop's slice is built once, on entry, and restored on exit.
    ctx: Vec<Rc<[LoopCtx]>>,
    cond_depth: usize,
    order: usize,
}

impl Collector {
    fn push(
        &mut self,
        name: &Name,
        subs: &[Expr],
        is_write: bool,
        stmt: StmtId,
        reduction: Option<RedOp>,
    ) {
        self.push_full(name, subs, is_write, stmt, reduction, None);
    }

    fn push_full(
        &mut self,
        name: &Name,
        subs: &[Expr],
        is_write: bool,
        stmt: StmtId,
        reduction: Option<RedOp>,
        def_rhs: Option<Expr>,
    ) {
        self.out.push(Access {
            name: name.clone(),
            subs: subs.to_vec(),
            is_write,
            stmt,
            ctx: Rc::clone(self.ctx.last().expect("the root context")),
            conditional: self.cond_depth > 0,
            reduction,
            order: self.order,
            def_rhs,
        });
        self.order += 1;
    }

    /// Record all reads inside an expression (array subscripts included).
    /// `sigma` is the LHS reference of a flagged reduction statement: the
    /// read that *is* it carries the flag, operand reads do not.
    fn reads_in_expr(&mut self, e: &Expr, stmt: StmtId, sigma: Option<(&Expr, RedOp)>) {
        let flag = || sigma.and_then(|(target, op)| (e == target).then_some(op));
        match e {
            Expr::Var(n) => self.push(n, &[], false, stmt, flag()),
            Expr::Index { array, subs } => {
                self.push(array, subs, false, stmt, flag());
                for s in subs {
                    self.reads_in_expr(s, stmt, None);
                }
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.reads_in_expr(a, stmt, sigma);
                }
            }
            Expr::Un { arg, .. } => self.reads_in_expr(arg, stmt, sigma),
            Expr::Bin { lhs, rhs, .. } => {
                self.reads_in_expr(lhs, stmt, sigma);
                self.reads_in_expr(rhs, stmt, sigma);
            }
            _ => {}
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Assign { lhs, rhs, reduction } => {
                // Subscripts of the LHS are reads; the element is a write.
                for sub in lhs.subs() {
                    self.reads_in_expr(sub, s.id, None);
                }
                let sigma = reduction.map(|op| (lhs.as_expr(), op));
                self.reads_in_expr(rhs, s.id, sigma.as_ref().map(|(target, op)| (target, *op)));
                let def_rhs = lhs.subs().is_empty().then(|| rhs.clone());
                self.push_full(lhs.name(), lhs.subs(), true, s.id, *reduction, def_rhs);
            }
            StmtKind::Do(d) => {
                self.reads_in_expr(&d.init, s.id, None);
                self.reads_in_expr(&d.limit, s.id, None);
                if let Some(step) = &d.step {
                    self.reads_in_expr(step, s.id, None);
                }
                // The loop variable is written by the loop itself.
                self.push(&d.var, &[], true, s.id, None);
                let outer = self.ctx.last().expect("the root context");
                let inner: Rc<[LoopCtx]> = outer.iter().cloned().chain([LoopCtx::of(d)]).collect();
                self.ctx.push(inner);
                for inner in &d.body {
                    self.stmt(inner);
                }
                self.ctx.pop();
            }
            StmtKind::IfBlock { arms, else_body } => {
                for arm in arms {
                    self.reads_in_expr(&arm.cond, s.id, None);
                }
                self.cond_depth += 1;
                for arm in arms {
                    for inner in &arm.body {
                        self.stmt(inner);
                    }
                }
                for inner in else_body {
                    self.stmt(inner);
                }
                self.cond_depth -= 1;
            }
            StmtKind::Call { args, .. } => {
                // Conservatively, every argument is both read and written.
                for a in args {
                    self.reads_in_expr(a, s.id, None);
                    match a {
                        Expr::Var(n) => self.push(n, &[], true, s.id, None),
                        Expr::Index { array, subs } => self.push(array, subs, true, s.id, None),
                        _ => {}
                    }
                }
            }
            StmtKind::Print { items } => {
                for item in items {
                    self.reads_in_expr(item, s.id, None);
                }
            }
            StmtKind::Assert { .. }
            | StmtKind::Return
            | StmtKind::Stop
            | StmtKind::Continue => {}
        }
    }
}

/// Collect the accesses performed by one execution of `list`.
pub fn collect_accesses(list: &StmtList) -> Vec<Access> {
    let mut c = Collector { out: Vec::new(), ctx: vec![Rc::from([])], cond_depth: 0, order: 0 };
    for s in list {
        c.stmt(s);
    }
    c.out
}

/// Does the statement list contain any statement kind that forces a loop
/// to stay serial (I/O, RETURN/STOP, calls to non-intrinsics)?
pub fn find_serializing_stmt(list: &StmtList) -> Option<&'static str> {
    let mut reason = None;
    list.walk(&mut |s| {
        if reason.is_some() {
            return;
        }
        reason = match &s.kind {
            StmtKind::Call { .. } => Some("contains CALL to external subroutine"),
            StmtKind::Print { .. } => Some("contains I/O"),
            StmtKind::Return => Some("contains RETURN"),
            StmtKind::Stop => Some("contains STOP"),
            _ => None,
        };
    });
    reason
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_of(src: &str) -> StmtList {
        let full = format!("program t\n{src}\nend\n");
        crate::parse(&full).unwrap().units.remove(0).body
    }

    #[test]
    fn assignment_yields_reads_then_write() {
        let b = body_of("real a(10)\na(i) = a(i-1) + x");
        let acc = collect_accesses(&b);
        let writes: Vec<_> = acc.iter().filter(|a| a.is_write).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].name, "A");
        // reads: i (lhs sub), a(i-1), i (in sub), x
        let reads: Vec<_> = acc.iter().filter(|a| !a.is_write).map(|a| a.name.clone()).collect();
        assert!(reads.contains(&"X".into()));
        assert!(reads.contains(&"I".into()));
        // write is last in textual order
        assert!(acc.iter().position(|a| a.is_write).unwrap() == acc.len() - 1);
    }

    #[test]
    fn loop_context_is_recorded() {
        let b = body_of("real a(10,10)\ndo i = 1, 10\n  do j = 1, 10\n    a(i,j) = 0.0\n  end do\nend do");
        let acc = collect_accesses(&b);
        let w = acc.iter().find(|a| a.name == "A" && a.is_write).unwrap();
        let vars: Vec<_> = w.ctx.iter().map(|c| c.var.clone()).collect();
        assert_eq!(vars, vec!["I", "J"]);
    }

    #[test]
    fn accesses_at_one_nesting_point_share_one_context_and_sibling_loops_do_not() {
        let b = body_of(
            "real a(10), b(10)\ndo i = 1, 10\n  a(i) = 0.0\n  do j = 1, 2\n    x = j\n  end do\n\
             \x20 b(i) = a(i)\nend do\ndo k = 1, 10\n  a(k) = 1.0\nend do",
        );
        let acc = collect_accesses(&b);
        let under = |var: &str| -> Vec<&Access> {
            acc.iter().filter(|a| a.ctx.len() == 1 && a.ctx[0].var == var).collect()
        };
        let (in_i, in_k) = (under("I"), under("K"));
        // A(I), I, then (after the J loop) A(I), I, B(I), I.
        assert_eq!(in_i.len(), 7);
        let shared = |accs: &[&Access]| accs.iter().all(|a| Rc::ptr_eq(&a.ctx, &accs[0].ctx));
        assert!(shared(&in_i), "one slice before and after the inner loop");
        assert!(!in_k.is_empty() && shared(&in_k));
        assert!(!Rc::ptr_eq(&in_i[0].ctx, &in_k[0].ctx), "sibling loops hold slices of their own");
        let inner = acc.iter().find(|a| a.name == "X").unwrap();
        assert_eq!(inner.ctx.iter().map(|c| &*c.var).collect::<Vec<_>>(), ["I", "J"]);
    }

    #[test]
    fn only_scalar_writes_keep_their_right_hand_side() {
        let acc = collect_accesses(&body_of("real a(10)\nx = 1.0\na(2) = x"));
        let def = |name: &str| {
            acc.iter().find(|a| a.is_write && a.name == name).unwrap().def_rhs.clone()
        };
        assert_eq!(def("X"), Some(Expr::Real(1.0)));
        assert_eq!(def("A"), None);
    }

    #[test]
    fn conditional_flag() {
        let b = body_of("if (x > 0) y = 1.0\nz = 2.0");
        let acc = collect_accesses(&b);
        let y = acc.iter().find(|a| a.name == "Y").unwrap();
        let z = acc.iter().find(|a| a.name == "Z" && a.is_write).unwrap();
        assert!(y.conditional);
        assert!(!z.conditional);
    }

    #[test]
    fn call_args_are_read_write() {
        let b = body_of("real v(5)\ncall sub(v, k)");
        let acc = collect_accesses(&b);
        assert!(acc.iter().any(|a| a.name == "V" && a.is_write));
        assert!(acc.iter().any(|a| a.name == "K" && a.is_write));
        assert!(acc.iter().any(|a| a.name == "K" && !a.is_write));
    }

    #[test]
    fn serializing_statements_detected() {
        assert_eq!(find_serializing_stmt(&body_of("print *, x")), Some("contains I/O"));
        assert_eq!(
            find_serializing_stmt(&body_of("call s(x)")),
            Some("contains CALL to external subroutine")
        );
        assert!(find_serializing_stmt(&body_of("x = 1")).is_none());
        // nested inside an IF still found
        assert!(find_serializing_stmt(&body_of("if (x>0) then\nstop\nend if")).is_some());
    }
}

//! Generalized induction variable substitution (§3.2).
//!
//! Implements the paper's three-step algorithm:
//!
//! 1. **Locate candidates** — scalars incremented (unconditionally) by
//!    loop-invariant expressions, enclosing loop indices, or *other
//!    candidate induction variables* (cascaded inductions).
//! 2. **Compute closed forms** — the per-iteration increment is summed
//!    "across the iteration space of the enclosing loop"; inner loops are
//!    handled by recursive descent, and triangular nests fall out of the
//!    symbolic Faulhaber summation in `polaris-symbolic`.
//! 3. **Substitute** every use with the closed form at the loop header
//!    plus the increments accumulated up to the point of use, then delete
//!    the recurrence statements and assign the *last value* after the
//!    loop (guarded by the loop's non-emptiness when that is not provable).
//!
//! All three steps ask one question — *what does one execution of this
//! statement list add to `K`?* — and `Walk::list` is the only code that
//! answers it: a name is a candidate exactly when its closed form exists.
//!
//! Multiplicative inductions (`K = K * c`) are also removed in the simple
//! single-statement form, producing `K * c**(i - lo)` closed forms, per
//! the paper's note that "multiplicative inductions are solved as well".
//!
//! A zero-or-positive trip count must be provable (via range propagation)
//! before an inner loop's accumulated increment is folded into a closed
//! form; otherwise the candidate is rejected — Faulhaber's formulas
//! extrapolate to negative sums for negative trips, which would be
//! unsound.

use crate::rangeprop::{assigned_vars, enter_if, enter_loop, seed_parameters, step_over};
use polaris_ir::expr::{BinOp, Expr, LValue};
use polaris_ir::stmt::{DoLoop, Stmt, StmtId, StmtKind, StmtList};
use polaris_ir::types::DataType;
use polaris_ir::ProgramUnit;
use polaris_symbolic::poly::{DivPolicy, Poly};
use polaris_symbolic::sum::{prefix_sum, sum_over};
use polaris_symbolic::{prove_ge, RangeEnv};
use std::collections::BTreeSet;

/// Statistics reported by the pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InductionStats {
    /// Additive induction variables removed.
    pub additive_removed: usize,
    /// Multiplicative induction variables removed.
    pub multiplicative_removed: usize,
    /// Last-value assignments inserted after loops.
    pub(crate) lastvalues_inserted: usize,
}

impl InductionStats {
    pub(crate) fn absorb(&mut self, more: InductionStats) {
        self.additive_removed += more.additive_removed;
        self.multiplicative_removed += more.multiplicative_removed;
        self.lastvalues_inserted += more.lastvalues_inserted;
    }
}

/// Run on one unit with an explicit recognition mode.
pub fn run_unit_with(unit: &mut ProgramUnit, mode: InductionMode) -> InductionStats {
    if mode == InductionMode::Off {
        return InductionStats::default();
    }
    let mut body = std::mem::take(&mut unit.body);
    let mut pass =
        Pass { unit, stats: InductionStats::default(), deleted: BTreeSet::new(), mode };
    let mut env = RangeEnv::new();
    seed_parameters(pass.unit, &mut env);
    pass.process_list(&mut body, &mut env);
    body.retain(&mut |s| !pass.deleted.contains(&s.id));
    let stats = pass.stats;
    unit.body = body;
    stats
}

struct Pass<'a> {
    unit: &'a mut ProgramUnit,
    stats: InductionStats,
    deleted: BTreeSet<StmtId>,
    mode: InductionMode,
}

/// How aggressive induction recognition should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InductionMode {
    /// Do nothing.
    Off,
    /// "Current compilers" (per the paper): only constant increments
    /// placed directly in the loop body — no cascaded inductions, no
    /// triangular/inner-loop accumulation. Used by the VFA baseline.
    Simple,
    /// The full §3.2 algorithm.
    Generalized,
}

impl<'a> Pass<'a> {
    /// Walk a statement list, processing every loop found (outermost
    /// first), carrying [`crate::rangeprop`]'s environment for trip-count
    /// proofs.
    fn process_list(&mut self, list: &mut StmtList, env: &mut RangeEnv) {
        let mut i = 0usize;
        while i < list.0.len() {
            let mut lastvalues = Vec::new();
            match &mut list.0[i].kind {
                StmtKind::Do(d) => {
                    let mut body_env = enter_loop(env, d);
                    // The loop's own candidates first, then the
                    // (substituted) body for inner loops with theirs.
                    lastvalues = self.process_loop(d, &body_env, env);
                    self.process_list(&mut d.body, &mut body_env);
                }
                StmtKind::IfBlock { arms, else_body } => {
                    let envs = enter_if(env, arms, else_body);
                    let bodies = arms.iter_mut().map(|arm| &mut arm.body).chain([else_body]);
                    for (body, mut env) in bodies.zip(envs) {
                        self.process_list(body, &mut env);
                    }
                }
                _ => {
                    step_over(env, &list.0[i]);
                }
            }
            // Last-value statements go after the loop and are not revisited.
            let next = i + 1 + lastvalues.len();
            list.0.splice(i + 1..i + 1, lastvalues);
            i = next;
        }
    }

    /// Process the candidates of one loop; returns last-value statements
    /// to insert after it. `body_env` holds inside the body, `outer_env`
    /// just after the loop.
    fn process_loop(
        &mut self,
        d: &mut DoLoop,
        body_env: &RangeEnv,
        outer_env: &RangeEnv,
    ) -> Vec<Stmt> {
        // Only unit-step loops are substituted (normalization could relax
        // this; the evaluation suite does not need it).
        if d.step_expr().simplified().as_int() != Some(1) {
            return Vec::new();
        }
        // Closed forms and last values are written in terms of the
        // bounds, which F77 evaluates once at entry: a body that
        // reassigns them changes what they read afterwards.
        let mut varying = assigned_vars(&d.body);
        if varying.iter().any(|v| d.init.references(v) || d.limit.references(v)) {
            return Vec::new();
        }

        // Step 1 is steps 2 and 3 succeeding: a name is a candidate exactly
        // when its closed form exists. A cascaded induction's base stops
        // varying once it is substituted, which is what lets its dependants
        // through on this or the next round; a dependant of a rejected
        // base is rejected with it.
        let mut lastvalues: Vec<(String, Stmt)> = Vec::new();
        let mut pending: Vec<String> = varying
            .iter()
            .rev()
            .filter(|n| {
                self.unit.symbols.type_of(n) == DataType::Integer && !self.unit.symbols.is_array(n)
            })
            .cloned()
            .collect();
        loop {
            let before = pending.len();
            pending.retain(|k| {
                let done =
                    self.process_additive(d, k, &varying, body_env, outer_env, &mut lastvalues);
                if done.is_some() {
                    varying.remove(k);
                }
                done.is_none()
            });
            if pending.len() == before {
                break;
            }
        }
        let mut lastvalues: Vec<Stmt> = lastvalues.into_iter().map(|(_, s)| s).collect();
        if self.mode == InductionMode::Generalized {
            lastvalues.extend(self.process_multiplicative(d));
        }
        d.body.retain(&mut |s| !self.deleted.contains(&s.id));
        lastvalues
    }

    /// Steps 1–3 for one scalar `k` assigned in the body of `d`: `None`
    /// (and nothing changed) unless `k` is an additive induction variable
    /// with a closed form. `varying` names what the body still assigns.
    fn process_additive(
        &mut self,
        d: &mut DoLoop,
        k: &str,
        varying: &BTreeSet<String>,
        env: &RangeEnv,
        outer_env: &RangeEnv,
        lastvalues: &mut Vec<(String, Stmt)>,
    ) -> Option<()> {
        let lo = Poly::from_expr(&d.init, DivPolicy::Exact)?;
        let hi = Poly::from_expr(&d.limit, DivPolicy::Exact)?;
        let walk = Walk { name: k, varying, simple: self.mode == InductionMode::Simple };
        // Per-iteration increment as a function of the loop variable.
        let inc = walk.list(&mut d.body, None, &mut self.deleted, env, true)?;
        if walk.varies(&inc) {
            return None;
        }
        // Value at the top of iteration v: K0 + Σ_{v'=lo}^{v-1} inc(v').
        let header_val =
            Poly::var(k).checked_add(&prefix_sum(&inc, &d.var, &lo, &Poly::var(&d.var))?)?;
        let total = sum_over(&inc, &d.var, &lo, &hi)?;
        let lo_m1 = lo.checked_sub(&Poly::int(1))?;
        // Rewrite a clone so a mid-way failure (coefficient overflow)
        // cannot leave the loop half-transformed.
        let mut trial = d.body.clone();
        let mut trial_deleted = self.deleted.clone();
        walk.list(&mut trial, Some(&header_val), &mut trial_deleted, env, true)?;
        debug_assert!(trial_deleted.len() > self.deleted.len(), "candidate had no increments?");
        d.body = trial;
        self.deleted = trial_deleted;
        self.stats.additive_removed += 1;

        // Last value after the loop: K = K + Σ_{v=lo}^{hi} inc(v),
        // guarded when the loop may be empty.
        let assign = Stmt::new(
            self.unit.fresh_stmt_id(),
            0,
            StmtKind::Assign {
                lhs: LValue::Var(k.to_string()),
                rhs: Expr::add(Expr::var(k), total.to_expr().simplified()).simplified(),
                reduction: None,
            },
        );
        self.stats.lastvalues_inserted += 1;
        let stmt = if prove_ge(&hi, &lo_m1, outer_env) {
            assign
        } else {
            self.guarded_by_nonempty(d, assign)
        };
        // `total` reads its bases' *pre-loop* values, so it must be
        // assigned before any of them is brought up to date.
        let at = lastvalues
            .iter()
            .position(|(base, _)| total.mentions_var(base))
            .unwrap_or(lastvalues.len());
        lastvalues.insert(at, (k.to_string(), stmt));
        Some(())
    }

    /// `IF (init <= limit) assign`.
    fn guarded_by_nonempty(&mut self, d: &DoLoop, assign: Stmt) -> Stmt {
        Stmt::new(
            self.unit.fresh_stmt_id(),
            0,
            StmtKind::IfBlock {
                arms: vec![polaris_ir::stmt::IfArm {
                    cond: Expr::bin(BinOp::Le, d.init.clone(), d.limit.clone()),
                    body: StmtList(vec![assign]),
                }],
                else_body: StmtList::new(),
            },
        )
    }

    /// Simple multiplicative inductions: a single unconditional
    /// `K = K * c` (constant `c`) directly in the loop body.
    fn process_multiplicative(&mut self, d: &mut DoLoop) -> Option<Stmt> {
        // Find the candidate.
        let mut target: Option<(usize, String, Expr)> = None;
        for (idx, s) in d.body.0.iter().enumerate() {
            if let StmtKind::Assign { lhs: LValue::Var(name), rhs, .. } = &s.kind {
                let pats = [
                    Expr::mul(Expr::var(name.clone()), Expr::Wildcard(0)),
                    Expr::mul(Expr::Wildcard(0), Expr::var(name.clone())),
                ];
                for pat in pats {
                    if let Some(b) = polaris_ir::pattern::match_expr(&pat, rhs) {
                        let c = &b[&0];
                        if c.as_int().is_some() && !c.references(name) {
                            if target.is_some() {
                                return None; // only the single-statement form
                            }
                            target = Some((idx, name.clone(), c.clone()));
                        }
                    }
                }
            }
        }
        let (idx, name, c) = target?;
        if self.unit.symbols.type_of(&name) != DataType::Integer {
            return None;
        }
        // Any other assignment to the variable disqualifies it, as does a
        // DO loop or IF containing an assignment to it.
        let mut writes = 0usize;
        d.body.walk(&mut |s| {
            if let StmtKind::Assign { lhs, .. } = &s.kind {
                if lhs.name() == name {
                    writes += 1;
                }
            }
        });
        if writes != 1 {
            return None;
        }
        // exponent before the statement: (v - lo); after: (v - lo + 1)
        let lo = d.init.clone();
        let expo_before = Expr::sub(Expr::var(&d.var), lo.clone()).simplified();
        let expo_after =
            Expr::add(Expr::sub(Expr::var(&d.var), lo.clone()), Expr::int(1)).simplified();
        let value_at = |expo: &Expr| {
            Expr::mul(Expr::var(&name), Expr::bin(BinOp::Pow, c.clone(), expo.clone())).simplified()
        };
        let before = value_at(&expo_before);
        let after = value_at(&expo_after);
        for (i, s) in d.body.0.iter_mut().enumerate() {
            let replacement = if i <= idx { &before } else { &after };
            // Uses in the increment statement itself are deleted with it.
            if i == idx {
                continue;
            }
            polaris_ir::stmt::map_stmt_exprs(s, &mut |e| match &e {
                Expr::Var(n) if *n == name => replacement.clone(),
                _ => e,
            });
        }
        let del_id = d.body.0[idx].id;
        self.deleted.insert(del_id);
        self.stats.multiplicative_removed += 1;
        // Last value: K = K * c ** trip, guarded by non-emptiness.
        let trip = Expr::add(
            Expr::sub(d.limit.clone(), d.init.clone()),
            Expr::int(1),
        )
        .simplified();
        let assign = Stmt::new(
            self.unit.fresh_stmt_id(),
            0,
            StmtKind::Assign {
                lhs: LValue::Var(name.clone()),
                rhs: Expr::mul(Expr::var(&name), Expr::bin(BinOp::Pow, c, trip)).simplified(),
                reduction: None,
            },
        );
        self.stats.lastvalues_inserted += 1;
        Some(self.guarded_by_nonempty(d, assign))
    }
}

/// The one answer to *what does one execution of this statement list add
/// to `name`?* — candidate filter, closed form and rewrite all ask it here.
struct Walk<'a> {
    name: &'a str,
    /// Everything the processed loop's body still assigns: `name` itself,
    /// inner-loop indices, arrays, inductions not (yet) substituted. An
    /// increment mentioning one of these has no single per-iteration value.
    varying: &'a BTreeSet<String>,
    /// [`InductionMode::Simple`]: constant increments directly in the body.
    simple: bool,
}

impl Walk<'_> {
    fn varies(&self, p: &Poly) -> bool {
        self.varying.iter().any(|v| p.mentions_var(v))
    }

    /// Can `s`, at any depth, change `name`: an assignment, a `CALL`
    /// argument, a `DO` index?
    fn touches(&self, s: &Stmt) -> bool {
        match &s.kind {
            StmtKind::Assign { lhs, .. } => matches!(lhs, LValue::Var(n) if n == self.name),
            StmtKind::Call { args, .. } => args.iter().any(|a| a.references(self.name)),
            StmtKind::Do(d) => d.var == self.name || d.body.0.iter().any(|s| self.touches(s)),
            StmtKind::IfBlock { arms, else_body } => {
                arms.iter().flat_map(|arm| &arm.body.0).chain(&else_body.0).any(|s| self.touches(s))
            }
            _ => false,
        }
    }

    /// The increment of `name` over `list` as a polynomial, `None` if
    /// `name` is not an induction variable of it: a conditional or
    /// non-increment assignment, a `CALL` or inner `DO` header that may
    /// write it, an increment that is not a polynomial of invariants, or
    /// an inner loop whose contribution cannot be folded. Given the value
    /// of `name` at `entry`, also replaces every use by the value reaching
    /// it and marks the increment statements `deleted`; with `None`
    /// nothing is changed. `top_level`: `list` is the processed loop's own
    /// body, not an inner loop's.
    fn list(
        &self,
        list: &mut StmtList,
        entry: Option<&Poly>,
        deleted: &mut BTreeSet<StmtId>,
        env: &RangeEnv,
        top_level: bool,
    ) -> Option<Poly> {
        let name = self.name;
        let mut inc = Poly::zero();
        for s in list.0.iter_mut() {
            if deleted.contains(&s.id) {
                continue;
            }
            let here = match entry {
                Some(entry) => Some(entry.checked_add(&inc)?),
                None => None,
            };
            let subst = |value: &Poly| {
                let value = value.to_expr();
                move |e: Expr| match &e {
                    Expr::Var(n) if n == name => value.clone(),
                    _ => e,
                }
            };
            if !self.touches(s) {
                if let Some(here) = &here {
                    polaris_ir::stmt::map_stmt_exprs(s, &mut subst(here));
                }
                continue;
            }
            match &mut s.kind {
                StmtKind::Assign { rhs, .. } => {
                    let e = recognize_increment(name, rhs)?;
                    if self.simple && !(top_level && e.simplified().as_int().is_some()) {
                        return None;
                    }
                    let e = Poly::from_expr(&e, DivPolicy::Exact)?;
                    if self.varies(&e) {
                        return None;
                    }
                    inc = inc.checked_add(&e)?;
                    // The statement goes whole: uses inside it die with it.
                    if entry.is_some() {
                        deleted.insert(s.id);
                    }
                }
                StmtKind::Do(d) if d.var != name => {
                    let mut at_loop = env.clone();
                    let inner_env = enter_loop(&mut at_loop, d);
                    let delta = self.list(&mut d.body, None, deleted, &inner_env, false)?;
                    let mut prefix = Poly::zero();
                    if !delta.is_zero() {
                        if d.step_expr().simplified().as_int() != Some(1) {
                            return None;
                        }
                        let lo = Poly::from_expr(&d.init, DivPolicy::Exact)?;
                        let hi = Poly::from_expr(&d.limit, DivPolicy::Exact)?;
                        // Faulhaber extrapolates a negative trip count to a
                        // negative sum: the loop must provably not be one.
                        let lo_m1 = lo.checked_sub(&Poly::int(1))?;
                        if !prove_ge(&hi, &lo_m1, &at_loop) {
                            return None;
                        }
                        inc = inc.checked_add(&sum_over(&delta, &d.var, &lo, &hi)?)?;
                        prefix = prefix_sum(&delta, &d.var, &lo, &Poly::var(&d.var))?;
                    }
                    if let Some(here) = &here {
                        // Bounds see the value at loop entry, the body the
                        // value at the top of inner iteration j.
                        let mut f = subst(here);
                        d.init.rewrite(&mut f);
                        d.limit.rewrite(&mut f);
                        if let Some(step) = &mut d.step {
                            step.rewrite(&mut f);
                        }
                        let at_j = here.checked_add(&prefix)?;
                        self.list(&mut d.body, Some(&at_j), deleted, &inner_env, false)?;
                    }
                }
                // Under an IF, passed to a CALL, or the index of a DO.
                _ => return None,
            }
        }
        Some(inc)
    }
}

/// Recognize `K = K + e` / `K = e + K` / `K = K - e`; returns `e` with
/// subtraction folded into a negation.
fn recognize_increment(name: &str, rhs: &Expr) -> Option<Expr> {
    use polaris_ir::pattern::match_expr;
    let k = Expr::var(name);
    if let Some(b) = match_expr(&Expr::add(k.clone(), Expr::Wildcard(0)), rhs) {
        return Some(b[&0].clone());
    }
    if let Some(b) = match_expr(&Expr::add(Expr::Wildcard(0), k.clone()), rhs) {
        return Some(b[&0].clone());
    }
    if let Some(b) = match_expr(&Expr::sub(k, Expr::Wildcard(0)), rhs) {
        return Some(Expr::neg(b[&0].clone()).simplified());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::printer::print_program;

    fn transform(src: &str) -> (polaris_ir::Program, InductionStats) {
        let mut p = polaris_ir::parse(src).unwrap();
        let mut stats = InductionStats::default();
        for unit in &mut p.units {
            crate::constprop::run_unit(unit);
            stats.absorb(run_unit_with(unit, InductionMode::Generalized));
            // The driver re-runs constant propagation after induction so
            // entry values (K = 0) fold into the closed forms.
            crate::constprop::run_unit(unit);
        }
        polaris_ir::validate::validate_program(&p)
            .unwrap_or_else(|e| panic!("invalid after induction: {e}\n{}", print_program(&p)));
        (p, stats)
    }

    fn body_text(p: &polaris_ir::Program) -> String {
        print_program(p)
    }

    #[test]
    fn simple_induction_removed() {
        let src = "program t\nreal a(100)\nk = 0\ndo i = 1, n\n  k = k + 1\n  a(k) = 1.0\nend do\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        assert_eq!(stats.additive_removed, 1);
        // K=K+1 deleted; use replaced by K + I - 1 => with K=0 folded: I (constprop ran first: K=0 propagated)
        assert!(!out.contains("K = K+1"), "{out}");
        assert!(out.contains("A(I)") || out.contains("A(0+I)") || out.contains("A(I-1+1)"), "{out}");
        // last value after loop
        assert!(out.contains("K = "), "{out}");
    }

    #[test]
    fn figure2_trfd_form() {
        // The paper's TRFD/OLDA nest (0-based as in Figure 2).
        let src = "program t\nreal a(100000)\ninteger x, x0\nx0 = 0\ndo i = 0, m - 1\n  x = x0\n  do j = 0, n - 1\n    do k = 0, j - 1\n      x = x + 1\n      a(x) = 1.0\n    end do\n  end do\n  x0 = x0 + (n**2 + n)/2\nend do\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        // X0's recurrence and X's recurrence both removed.
        assert!(stats.additive_removed >= 2, "{stats:?}\n{out}");
        assert!(!out.contains("X = X+1"), "{out}");
        assert!(!out.contains("X0 = X0+"), "{out}");
        // Subscript contains the triangular closed form j^2 - j over 2
        // plus k (modulo formatting).
        assert!(out.contains("J**2-J") || out.contains("J*J-J") || out.contains("J**2"), "{out}");
    }

    #[test]
    fn cascaded_inductions() {
        // K2 incremented by K1, K1 by 1 (Figure 1 flavor).
        let src = "program t\nreal b(10000)\ninteger k1, k2\nk1 = 0\nk2 = 0\ndo i = 1, n\n  k1 = k1 + 1\n  k2 = k2 + k1\n  b(k2) = 1.0\nend do\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        assert_eq!(stats.additive_removed, 2, "{out}");
        assert!(!out.contains("K2 = K2+"), "{out}");
        // closed form of k2 at iteration i is (i^2+i)/2 (k1=k2=0 entry)
        assert!(out.contains("I**2") || out.contains("I*I"), "{out}");
    }

    #[test]
    fn triangular_inner_loop() {
        let src = "program t\nreal a(10000)\ninteger x\nx = 0\ndo j = 1, n\n  do k = 1, j\n    x = x + 1\n    a(x) = 2.0\n  end do\nend do\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        assert_eq!(stats.additive_removed, 1);
        // prefix over j of trip j = (j^2-j)/2; plus (k - 1) + 1 = k
        assert!(out.contains("(-J+J**2+2*K)/2"), "{out}");
        assert!(!out.contains("X = X+1"), "{out}");
    }

    #[test]
    fn conditional_increment_rejected() {
        let full = "program t\nreal a(100)\ninteger k\nk = 0\ndo i = 1, n\n  if (i > 3) then\n    k = k + 1\n  end if\n  a(i) = k\nend do\nend\n";
        let (p, stats) = transform(full);
        assert_eq!(stats.additive_removed, 0);
        let out = body_text(&p);
        assert!(out.contains("K = K+1"), "{out}");
    }

    #[test]
    fn non_increment_assignment_rejected() {
        let src = "program t\nreal a(100)\ninteger k\ndo i = 1, n\n  k = i * 2\n  k = k + 1\n  a(i) = k\nend do\nend\n";
        let (_, stats) = transform(src);
        assert_eq!(stats.additive_removed, 0);
    }

    #[test]
    fn increment_by_mutated_scalar_rejected() {
        // K incremented by M, but M changes inside the loop (not a candidate
        // itself because its own assignment is not an increment).
        let src = "program t\nreal a(100)\ninteger k, m\nk = 0\ndo i = 1, n\n  m = i * i - m\n  k = k + m\n  a(i) = k\nend do\nend\n";
        let (_, stats) = transform(src);
        assert_eq!(stats.additive_removed, 0);
    }

    #[test]
    fn lastvalue_guarded_when_trip_unknown() {
        // n unknown: trip could be zero → guarded last value.
        let src = "program t\nreal a(100)\ninteger k\nk = 0\ndo i = 1, n\n  k = k + 2\n  a(i) = k\nend do\nm = k\nend\n";
        let (p, stats) = transform(src);
        assert_eq!(stats.lastvalues_inserted, 1);
        let out = body_text(&p);
        assert!(out.contains("IF (1 .LE. N) THEN"), "{out}");
        assert!(out.contains("K = K+2*N") || out.contains("K = 2*N"), "{out}");
    }

    #[test]
    fn lastvalue_unguarded_when_trip_provable() {
        let src = "program t\nreal a(100)\ninteger n, k\nparameter (n = 10)\nk = 0\ndo i = 1, n\n  k = k + 2\n  a(i) = k\nend do\nm = k\nend\n";
        let (p, _) = transform(src);
        let out = body_text(&p);
        assert!(!out.contains("IF (1 .LE."), "{out}");
        // k = 0 folded by constprop, last value = 0 + 2*10
        assert!(out.contains("K = K+20") || out.contains("K = 20"), "{out}");
    }

    #[test]
    fn multiplicative_induction() {
        let src = "program t\nreal a(100)\ninteger k\nk = 1\ndo i = 1, 8\n  a(i) = k\n  k = k * 2\nend do\nend\n";
        let (p, stats) = transform(src);
        assert_eq!(stats.multiplicative_removed, 1);
        let out = body_text(&p);
        assert!(!out.contains("K = K*2"), "{out}");
        assert!(out.contains("2**"), "{out}");
    }

    #[test]
    fn use_before_and_after_increment_offsets() {
        let src = "program t\nreal a(100), b(100)\ninteger k\nk = 0\ndo i = 1, 10\n  a(i) = k\n  k = k + 1\n  b(i) = k\nend do\nend\n";
        let (p, _) = transform(src);
        let out = body_text(&p);
        // before the increment: K + (i-1) [=i-1 with k0=0]; after: K + i [=i]
        assert!(out.contains("A(I) = I-1") || out.contains("A(I) = -1+I"), "{out}");
        assert!(out.contains("B(I) = I"), "{out}");
    }

    #[test]
    fn induction_in_inner_loop_only() {
        // K re-initialized each outer iteration: candidate of the inner
        // loop (after recursion), not the outer.
        let src = "program t\nreal a(10,10)\ninteger k\ndo i = 1, 10\n  k = 0\n  do j = 1, 10\n    k = k + 1\n    a(i, k) = 1.0\n  end do\nend do\nend\n";
        let (p, stats) = transform(src);
        assert_eq!(stats.additive_removed, 1);
        let out = body_text(&p);
        assert!(out.contains("A(I, K+J)") || out.contains("A(I, J)"), "{out}");
    }

    #[test]
    fn loop_bounds_using_induction_var() {
        let src = "program t\nreal a(100)\ninteger k\nk = 0\ndo i = 1, 5\n  k = k + 2\n  do j = 1, k\n    a(j) = 1.0\n  end do\nend do\nend\n";
        // K's use in the inner bound must be substituted with the value
        // *after* the increment (2*i with k0=0).
        let (p, stats) = transform(src);
        assert_eq!(stats.additive_removed, 1);
        let out = body_text(&p);
        assert!(out.contains("DO J = 1, 2*I") || out.contains("DO J = 1, K+2*I"), "{out}");
    }

    #[test]
    fn prior_fact_about_reassigned_bound_proves_no_trip_count() {
        // `N = 5` holds on entry to the I loop only; its body stores a
        // possibly negative N, so the J trip count is not provably
        // non-negative and K has no closed form over I. K is still an
        // induction of the J loop alone.
        let src = "program t\ninteger n, k, ia(3)\nn = 5\nk = 0\ndo i = 1, 3\n  do j = 1, n\n    k = k + 1\n  end do\n  n = ia(i)\nend do\nprint *, k, n\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        assert!(!out.contains("3*N"), "{out}");
        assert_eq!(stats.additive_removed, 1, "{out}");
        let after_i_loop = out.rsplit("END DO").next().unwrap();
        assert!(!after_i_loop.contains("K ="), "{out}");
    }

    #[test]
    fn dependant_of_a_rejected_base_is_rejected_with_it() {
        // M has no closed form over I (its inner loop runs downwards), so
        // L = L + M must stay a recurrence: M is not an invariant.
        let src = "program t\ninteger l, m\nl = 1\nm = 2\ndo i = 1, 4\n  l = l + m\n  do j = 3, 1, -1\n    m = m + 5\n  end do\nend do\nprint *, l, m\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        assert!(out.contains("L = L+M"), "{out}");
        assert!(!out.contains("4*M"), "{out}");
        assert_eq!(stats.additive_removed, 0, "{out}");
    }

    #[test]
    fn last_values_are_assigned_dependants_first() {
        // M's closed form reads L's value from before the loop.
        let src = "program t\ninteger l, m\ndo i = 1, 4\n  m = m + l\n  l = l + 3\nend do\nprint *, l, m\nend\n";
        let (p, stats) = transform(src);
        let out = body_text(&p);
        assert_eq!(stats.additive_removed, 2, "{out}");
        let (m_at, l_at) = (out.find("M = M+").unwrap(), out.find("L = L+12").unwrap());
        assert!(m_at < l_at, "{out}");
        assert!(out.contains("M = M+(18+4*L)"), "{out}");
    }

    #[test]
    fn inner_loop_index_assigned_outside_its_loop_is_no_induction() {
        // K is the J-loop's own exit value: `K = K + 1` is not the only
        // thing that changes it.
        let src = "program t\ninteger k\nreal a(100)\ndo i = 1, 4\n  do k = 1, 3\n    a(k) = 1.0\n  end do\n  k = k + 1\n  a(k) = 2.0\nend do\nend\n";
        let (_, stats) = transform(src);
        assert_eq!(stats.additive_removed, 0);
    }

    #[test]
    fn loop_that_reassigns_its_own_bound_is_left_alone() {
        let src = "program t\ninteger n, k\nk = 0\ndo i = 1, n\n  k = k + 1\n  n = 7\nend do\nprint *, k, n\nend\n";
        let (_, stats) = transform(src);
        assert_eq!(stats.additive_removed, 0);
    }
}

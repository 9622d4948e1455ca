//! Scalar and array privatization (§3.4).
//!
//! "To prove that a variable is privatizable, every use of that variable
//! must be dominated by a definition of the variable in the same loop
//! iteration." Scalars use a structured def-before-use walk. Arrays
//! require region analysis: the region read by each use must be covered
//! by an unconditional, textually preceding defined region within the
//! iteration, with symbolic region comparisons performed by
//! `polaris-symbolic` (Figure 4's `MP >= M*P` proof arrives through the
//! flow-sensitive range environment, standing in for the paper's
//! GSA-based demand-driven backward substitution).
//!
//! The module also implements the **compaction idiom recognizer** needed
//! for BDNA (Figure 5): a counter `P` starting at 0 and incremented
//! under a condition, with `IND(P) = <loop var>` stores, proves that
//! `IND(1:P)` holds values within the scan loop's index range — which
//! then bounds uses like `A(IND(L))` through the array-value ranges of
//! [`polaris_symbolic::RangeEnv`].

use crate::iterview::{IterView, Ref};
use polaris_ir::expr::{Expr, LValue};
use polaris_ir::stmt::{DoLoop, Stmt, StmtId, StmtKind, StmtList};
use polaris_ir::visit::Access;
use polaris_ir::ProgramUnit;
use polaris_symbolic::bounds::min_max_over;
use polaris_symbolic::poly::{Atom, DivPolicy, Poly};
use polaris_symbolic::{prove_ge, prove_le, Range, RangeEnv};

/// Why privatization failed (diagnostics for the listing / tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PrivatizeFailure {
    ConditionalDefinition(String),
    RegionNotCovered(String),
    NotAnalyzable(String),
}

// ---------------------------------------------------------------------
// Scalar privatization
// ---------------------------------------------------------------------

/// Definedness state of a scalar during the structured walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defined {
    No,
    Maybe,
    Yes,
}

impl Defined {
    fn join(self, other: Defined) -> Defined {
        use Defined::*;
        match (self, other) {
            (Yes, Yes) => Yes,
            (No, No) => No,
            _ => Maybe,
        }
    }
}

/// Is scalar `name` privatizable in one iteration of `d`'s body: every
/// read of `name` preceded (on every path) by a write in the same
/// iteration?
pub(crate) fn scalar_privatizable(d: &DoLoop, name: &str) -> bool {
    fn walk(list: &StmtList, name: &str, mut state: Defined) -> Option<Defined> {
        for s in list {
            // Reads first: an assertion states a fact, it reads nothing.
            let mut reads = false;
            if !matches!(s.kind, StmtKind::Assert { .. }) {
                s.for_each_own_expr(&mut |e| reads |= e.references_var(name));
            }
            if reads && state != Defined::Yes {
                return None;
            }
            match &s.kind {
                StmtKind::Assign { lhs, .. } if lhs.name() == name && lhs.subs().is_empty() => {
                    state = Defined::Yes
                }
                StmtKind::Do(inner) => {
                    if inner.var == name {
                        // the loop defines it (value after loop is the
                        // exhausted index — treat as defined)
                        state = Defined::Yes;
                        walk(&inner.body, name, state)?;
                        continue;
                    }
                    // The body may execute zero times: definitions inside
                    // only "maybe" reach after the loop; reads inside
                    // must still be dominated.
                    let inner_state = walk(&inner.body, name, state)?;
                    state = state.join(inner_state);
                }
                StmtKind::IfBlock { arms, else_body } => {
                    // With no ELSE the fall-through path keeps `state`:
                    // the walk of the empty list returns it.
                    let mut joined = walk(else_body, name, state)?;
                    for arm in arms {
                        joined = joined.join(walk(&arm.body, name, state)?);
                    }
                    state = joined;
                }
                _ => {}
            }
        }
        Some(state)
    }
    walk(&d.body, name, Defined::No).is_some()
}

/// Is the *final* write to scalar `name` in an iteration unconditional
/// (so a last-iteration copy-out is well defined)?
pub(crate) fn scalar_write_unconditional(d: &DoLoop, name: &str) -> bool {
    // the last top-level write must exist and not be under an IF / inner DO
    let mut last_uncond = false;
    for s in &d.body {
        match &s.kind {
            StmtKind::Assign { lhs, .. } if lhs.name() == name && lhs.subs().is_empty() => {
                last_uncond = true;
            }
            StmtKind::IfBlock { arms, else_body } => {
                let writes = arms
                    .iter()
                    .any(|a| crate::rangeprop::assigned_vars(&a.body).contains(name))
                    || crate::rangeprop::assigned_vars(else_body).contains(name);
                if writes {
                    last_uncond = false;
                }
            }
            StmtKind::Do(inner)
                if crate::rangeprop::assigned_vars(&inner.body).contains(name) => {
                    // a write inside an inner loop executes only if the
                    // inner loop runs: conditional
                    last_uncond = false;
                }
            // A DO sets its own variable even when it runs zero times, and
            // leaves the exhausted index in it.
            StmtKind::Do(inner) if inner.var == name => last_uncond = true,
            _ => {}
        }
    }
    last_uncond
}

// Conservative textual liveness. A value stored by statement `t` can be
// read by whatever executes after `t`: every statement that follows it
// in pre-order, and — when `t` sits in a loop — the whole body of its
// outermost enclosing loop, which comes round again on the back edge
// (the bounds of that loop itself are evaluated once, before). In
// pre-order positions that is every read at or after `t`'s *region
// start*, `t`'s own subtree excepted. A statement's position holds the
// expressions it evaluates itself: a DO's bounds, all of an IF's
// conditions.

/// Is `name` visible outside the unit (argument / COMMON)?
fn escapes_unit(unit: &ProgramUnit, name: &str) -> bool {
    unit.symbols.get(name).is_some_and(|sym| sym.is_arg || sym.common.is_some())
}

/// The names `s` itself mentions (variables, array bases, call targets),
/// not those of the statements nested in it.
fn own_mentions<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a str)) {
    s.for_each_own_expr(&mut |root| {
        root.for_each(&mut |e| match e {
            Expr::Var(n) | Expr::Index { array: n, .. } | Expr::Call { name: n, .. } => f(n),
            _ => {}
        })
    });
}

/// Where a statement sits in a unit's pre-order numbering.
#[derive(Clone, Copy)]
struct Slot {
    pos: usize,
    /// The first position past its subtree.
    end: usize,
    /// Where the reads that see its stores start: the body of its
    /// outermost enclosing loop, else its own position.
    region: usize,
}

/// One pre-order numbering of a unit, made in one walk; every liveness
/// question about the unit is answered from it by binary search.
pub(crate) struct Liveness<'a> {
    pub(crate) unit: &'a ProgramUnit,
    /// Every statement's [`Slot`], by id.
    stmts: Vec<(StmtId, Slot)>,
    /// Every read as `(name, position)`, sorted.
    reads: Vec<(&'a str, usize)>,
    /// Every `DO` body as `(variable, (start, end))`, sorted.
    do_bodies: Vec<(&'a str, (usize, usize))>,
}

#[cfg(test)]
thread_local! {
    /// Numberings this thread has made.
    pub(crate) static NUMBERINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl<'a> Liveness<'a> {
    pub(crate) fn of(unit: &'a ProgramUnit) -> Liveness<'a> {
        #[cfg(test)]
        NUMBERINGS.with(|n| n.set(n.get() + 1));
        let mut numbering =
            Liveness { unit, stmts: Vec::new(), reads: Vec::new(), do_bodies: Vec::new() };
        numbering.number(&unit.body, &mut 0, None);
        numbering.stmts.sort_unstable_by_key(|&(id, _)| id);
        numbering.reads.sort_unstable();
        numbering.do_bodies.sort_unstable();
        numbering
    }

    fn number(&mut self, list: &'a StmtList, next: &mut usize, loop_start: Option<usize>) {
        for s in list {
            let pos = *next;
            *next += 1;
            own_mentions(s, &mut |n| self.reads.push((n, pos)));
            match &s.kind {
                StmtKind::Do(d) => self.number(&d.body, next, loop_start.or(Some(pos + 1))),
                StmtKind::IfBlock { arms, else_body } => {
                    for arm in arms {
                        self.number(&arm.body, next, loop_start);
                    }
                    self.number(else_body, next, loop_start);
                }
                _ => {}
            }
            let end = *next;
            if let Some(d) = s.as_do() {
                self.do_bodies.push((&d.var, (pos + 1, end)));
            }
            self.stmts.push((s.id, Slot { pos, end, region: loop_start.unwrap_or(pos) }));
        }
    }

    /// Is `name` (scalar or array) used after the statement with id
    /// `loop_id` (a loop, for the dependence driver) — or is it visible
    /// outside the unit (argument / COMMON)?
    pub(crate) fn live_after(&self, loop_id: StmtId, name: &str) -> bool {
        self.read_after(loop_id, name, false)
    }

    /// [`Liveness::live_after`] for the variable of a `DO` nested in loop
    /// `loop_id`. Loop indices are reused from nest to nest, so here the
    /// reads under another `DO name` are taken for what they are: reads
    /// of that loop's own value.
    pub(crate) fn index_live_after(&self, loop_id: StmtId, name: &str) -> bool {
        self.read_after(loop_id, name, true)
    }

    /// The scalar assignments of the unit whose value nothing can read.
    pub(crate) fn dead_scalar_stores(&self) -> Vec<StmtId> {
        let mut dead = Vec::new();
        self.unit.body.walk(&mut |s| {
            if let StmtKind::Assign { lhs, .. } = &s.kind {
                if lhs.subs().is_empty() && !self.live_after(s.id, lhs.name()) {
                    dead.push(s.id);
                }
            }
        });
        dead
    }

    /// The question behind all three: is a read of `name` at or after the
    /// statement's region start, outside its own subtree? With `index`,
    /// the body of a `DO name` that does not hold the statement is passed
    /// over: its reads see the value that `DO` sets.
    fn read_after(&self, id: StmtId, name: &str, index: bool) -> bool {
        if escapes_unit(self.unit, name) {
            return true;
        }
        let Ok(at) = self.stmts.binary_search_by_key(&id, |&(id, _)| id) else {
            return false;
        };
        let t = self.stmts[at].1;
        let reads = named(&self.reads, name);
        let skipped = if index { named(&self.do_bodies, name) } else { &[] };
        let read_in = |lo: usize, hi: usize| {
            let first = reads.partition_point(|&(_, q)| q < lo);
            reads.get(first).is_some_and(|&(_, q)| q < hi)
        };
        // Reads in `lo..hi` outside the skipped bodies that do not hold
        // the statement. Bodies nest or are disjoint, and none that
        // starts before `lo` reaches into it without holding the statement.
        let outside_skipped = |lo: usize, hi: usize| {
            let mut from = lo;
            for &(_, (start, end)) in &skipped[skipped.partition_point(|&(_, (s, _))| s < lo)..] {
                if start >= hi {
                    break;
                }
                if (start..end).contains(&t.pos) {
                    continue;
                }
                if start >= from && read_in(from, start) {
                    return true;
                }
                from = from.max(end);
            }
            read_in(from, hi)
        };
        outside_skipped(t.region, t.pos) || outside_skipped(t.end, usize::MAX)
    }
}

/// The entries of a sorted `(name, _)` list filed under `name`.
fn named<'s, 'a, T>(list: &'s [(&'a str, T)], name: &str) -> &'s [(&'a str, T)] {
    let lo = list.partition_point(|&(n, _)| n < name);
    let hi = lo + list[lo..].partition_point(|&(n, _)| n == name);
    &list[lo..hi]
}

/// Is `name` used after statement `id` of `unit`, by the rule of
/// [`crate::dce`]'s stores and the dependence driver's loops? Every
/// question asked of the returned function is answered from one
/// numbering of `unit`.
pub fn live_after(unit: &ProgramUnit) -> impl Fn(StmtId, &str) -> bool + '_ {
    let numbering = Liveness::of(unit);
    move |id, name| numbering.live_after(id, name)
}

// ---------------------------------------------------------------------
// Array privatization
// ---------------------------------------------------------------------

/// A rectangular region of an array access, `[lo, hi]` per dimension,
/// computed over the access's inner-loop context.
type RegionBox = Vec<(Poly, Poly)>;

/// Compute the per-iteration region of an access: eliminate the
/// reference's inner-loop variables from each subscript.
fn access_region(a: &Access, env: &RangeEnv) -> Option<RegionBox> {
    let mut env = env.clone();
    for c in a.ctx.iter() {
        let lo = Poly::from_expr(&c.init, DivPolicy::Opaque)?;
        let hi = Poly::from_expr(&c.limit, DivPolicy::Opaque)?;
        let step = c.step.simplified().as_int().unwrap_or(1);
        let range = if step >= 0 {
            Range::new(Some(lo), Some(hi))
        } else {
            Range::new(Some(hi), Some(lo))
        };
        env.set_fresh(c.var.clone(), range);
    }
    let ctx_atoms: Vec<Atom> = a.ctx.iter().rev().map(|c| Atom::var(&c.var)).collect();
    let mut dims = Vec::new();
    for sub in &a.subs {
        let p = Poly::from_expr(sub, DivPolicy::Exact)?;
        // Opaque atoms with registered value ranges (e.g. the compaction
        // idiom's IND(L)) are eliminated first; they typically mention
        // the inner loop variable, which would otherwise block its
        // elimination.
        let mut atoms: Vec<Atom> = p
            .atoms()
            .into_iter()
            .filter(|at| {
                matches!(at, Atom::Opaque { .. }) && !env.atom_range(at).is_unknown()
            })
            .collect();
        atoms.extend(ctx_atoms.iter().cloned());
        let (lo, hi) = min_max_over(&p, &atoms, &env);
        dims.push((lo?, hi?));
    }
    Some(dims)
}

/// Is a write access *dense* — does it actually define every element of
/// its rectangular region? True when each subscript is either invariant
/// in the access's inner loops or affine with coefficient ±1 in exactly
/// one unit-step inner loop.
fn write_is_dense(a: &Access) -> bool {
    for sub in &a.subs {
        let Some(p) = Poly::from_expr(sub, DivPolicy::Exact) else { return false };
        let mut hit_loops = 0usize;
        for c in a.ctx.iter() {
            if p.var_hidden_in_opaque(&c.var) {
                return false;
            }
            let deg = p.degree_in(&c.var);
            if deg == 0 {
                continue;
            }
            if deg > 1 {
                return false;
            }
            let Some(parts) = p.by_powers_of(&c.var) else { return false };
            let Some(coef) = parts[1].as_constant() else { return false };
            let step = c.step.simplified().as_int().unwrap_or(0);
            if !(coef.as_integer() == Some(1) || coef.as_integer() == Some(-1)) {
                return false;
            }
            if step.abs() != 1 {
                return false;
            }
            hit_loops += 1;
        }
        if hit_loops > 1 {
            return false;
        }
    }
    true
}

/// Can array `name` be privatized for the loop whose body `view` shows?
/// Every read of `name` in an iteration must fall within the region of an
/// unconditional, textually preceding, dense write of the same iteration.
/// `env` holds ranges valid inside the loop body (including
/// compaction-idiom array-value facts). Reads/writes flagged as
/// reductions are exempt.
///
/// When the declared dimensions of the array are supplied, a use whose
/// region cannot be computed (opaque subscripts) falls back to the *whole
/// declared region* — sound under Fortran's rule that subscripts stay
/// within declared bounds, and exactly what lets an FFT-style workspace
/// (`copy-in; transform in-place; copy-out`) privatize even though the
/// butterfly indices are symbolic. The fallback only helps when a
/// preceding dense write covers the entire array.
pub(crate) fn array_privatizable(
    view: &IterView,
    name: &str,
    env: &RangeEnv,
    declared: Option<&[(Poly, Poly)]>,
) -> Result<(), PrivatizeFailure> {
    let touching = || view.named(name).filter(|a| a.reduction.is_none());
    let defs: Vec<(&Ref, RegionBox)> = touching()
        .filter(|a| a.is_write && !a.conditional && write_is_dense(a))
        .filter_map(|a| Some((a, access_region(a, env)?)))
        .collect();
    if defs.is_empty() {
        return Err(PrivatizeFailure::ConditionalDefinition(name.to_string()));
    }
    for r in touching().filter(|a| !a.is_write) {
        let use_region = match access_region(r, env) {
            Some(reg) => reg,
            None => match declared {
                // Fall back to the declared bounds (see doc comment).
                Some(dims) => dims.to_vec(),
                None => {
                    return Err(PrivatizeFailure::NotAnalyzable(format!(
                        "{name}: use region not computable"
                    )))
                }
            },
        };
        let covered = defs.iter().any(|(def, region)| {
            def.order < r.order
                && same_values(view, def, region, r, &use_region)
                && region_covers(region, &use_region, env)
        });
        if !covered {
            return Err(PrivatizeFailure::RegionNotCovered(name.to_string()));
        }
    }
    Ok(())
}

/// May the two boxes be compared symbol by symbol? A box stands for every
/// execution of its access in the iteration, so nothing it mentions may be
/// written inside a loop around that access; and a symbol both mention
/// must hold one value from the definition to the use. (Weaker than "the
/// body writes it": BDNA's `IND(1:P)` is bounded by the compaction
/// counter `P` the iteration itself computes.)
fn same_values(view: &IterView, def: &Ref, dbox: &RegionBox, use_: &Ref, ubox: &RegionBox) -> bool {
    let mentions = |b: &RegionBox, w: &str| {
        b.iter().any(|(lo, hi)| lo.mentions_var(w) || hi.mentions_var(w))
    };
    !view.written().any(|w| {
        let (in_def, in_use) = (mentions(dbox, w), mentions(ubox, w));
        (in_def && view.written_around(w, def))
            || (in_use && view.written_around(w, use_))
            || (in_def && in_use && view.written_between(w, def.order, use_.order))
    })
}

/// Does `def` cover `use_`: `def.lo <= use.lo` and `use.hi <= def.hi`
/// in every dimension (symbolically proven)?
fn region_covers(def: &RegionBox, use_: &RegionBox, env: &RangeEnv) -> bool {
    debug_assert_eq!(def.len(), use_.len());
    def.iter().zip(use_).all(|((dlo, dhi), (ulo, uhi))| {
        prove_le(dlo, ulo, env) && prove_ge(dhi, uhi, env)
    })
}

// ---------------------------------------------------------------------
// Compaction idiom (BDNA, Figure 5)
// ---------------------------------------------------------------------

/// A recognized compaction: `P = 0; DO K = lo, hi; IF (c) THEN
/// P = P + 1; IND(P) = K; END IF; END DO`.
#[derive(Debug, Clone)]
pub(crate) struct Compaction {
    /// The counter (`P`).
    pub(crate) counter: String,
    /// The index array (`IND`).
    pub(crate) array: String,
    /// Scan loop bounds: values stored into `array` lie in `[lo, hi]`.
    pub(crate) lo: Expr,
    pub(crate) hi: Expr,
}

/// Scan the *top level* of a loop body for compaction idioms and
/// register their facts in `env`:
/// * the values of `array` lie within the scan range,
/// * the counter `P` is at most the scan trip count and at least 0.
pub(crate) fn recognize_compactions(body: &StmtList, env: &mut RangeEnv) -> Vec<Compaction> {
    let mut found = Vec::new();
    let mut counter_zeroed: Option<String> = None;
    for s in body {
        match &s.kind {
            StmtKind::Assign { lhs: LValue::Var(v), rhs, .. }
                if rhs.simplified().as_int() == Some(0) => {
                    counter_zeroed = Some(v.clone());
                }
            StmtKind::Do(scan) => {
                if let Some(p) = &counter_zeroed {
                    if let Some(c) = match_compaction(scan, p) {
                        // Register facts: IND values ∈ [lo, hi]; P ∈ [0, trip].
                        let lo = Poly::from_expr(&c.lo, DivPolicy::Opaque);
                        let hi = Poly::from_expr(&c.hi, DivPolicy::Opaque);
                        env.set_array_values(c.array.clone(), Range::new(lo.clone(), hi.clone()));
                        let trip = match (lo, hi) {
                            (Some(l), Some(h)) => {
                                h.checked_sub(&l).and_then(|d| d.checked_add(&Poly::int(1)))
                            }
                            _ => None,
                        };
                        env.set_fresh(c.counter.clone(), Range::new(Some(Poly::int(0)), trip));
                        found.push(c);
                    }
                }
                counter_zeroed = None;
            }
            _ => {
                counter_zeroed = None;
            }
        }
    }
    found
}

/// Match the scan loop of the idiom: its body (possibly after other
/// statements) contains exactly one IF whose arm is
/// `P = P + 1; IND(P) = <scan var or affine of it>` and `P`/`IND` are
/// not otherwise assigned in the loop.
fn match_compaction(scan: &DoLoop, counter: &str) -> Option<Compaction> {
    if scan.step_expr().simplified().as_int() != Some(1) {
        return None;
    }
    let mut result: Option<Compaction> = None;
    for s in &scan.body {
        if let StmtKind::IfBlock { arms, else_body } = &s.kind {
            if arms.len() != 1 || !else_body.is_empty() {
                continue;
            }
            let body = &arms[0].body;
            if body.len() != 2 {
                continue;
            }
            // P = P + 1
            let incr_ok = matches!(
                &body.0[0].kind,
                StmtKind::Assign { lhs: LValue::Var(v), rhs, .. }
                    if v == counter
                        && *rhs == Expr::add(Expr::var(counter), Expr::Int(1))
            );
            if !incr_ok {
                continue;
            }
            // IND(P) = <expr involving only the scan variable in [lo,hi]>
            if let StmtKind::Assign { lhs: LValue::Index { array, subs }, rhs, .. } =
                &body.0[1].kind
            {
                if subs.len() == 1
                    && subs[0] == Expr::var(counter)
                    && *rhs == Expr::var(&scan.var)
                {
                    if result.is_some() {
                        return None; // two idioms on one counter: bail
                    }
                    result = Some(Compaction {
                        counter: counter.to_string(),
                        array: array.clone(),
                        lo: scan.init.clone(),
                        hi: scan.limit.clone(),
                    });
                    continue;
                }
            }
            return None;
        }
        // Other assignments to the counter or the array invalidate.
        if let StmtKind::Assign { lhs, .. } = &s.kind {
            if lhs.name() == counter {
                return None;
            }
            if let Some(c) = &result {
                if lhs.name() == c.array {
                    return None;
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_of(src: &str) -> ProgramUnit {
        let full = format!("program t\n{src}\nend\n");
        polaris_ir::parse(&full).unwrap().units.remove(0)
    }

    fn loop_named<'a>(u: &'a ProgramUnit, var: &str) -> &'a DoLoop {
        u.body.loops().into_iter().find(|d| d.var == var).unwrap()
    }

    fn array_privatizable(d: &DoLoop, name: &str, env: &RangeEnv) -> Result<(), PrivatizeFailure> {
        super::array_privatizable(&IterView::of(&d.body), name, env, None)
    }

    // ----- scalar privatization -------------------------------------

    #[test]
    fn def_before_use_is_private() {
        let u = unit_of("do i = 1, n\n  t = a(i) * 2.0\n  b(i) = t + 1.0\nend do");
        assert!(scalar_privatizable(loop_named(&u, "I"), "T"));
    }

    #[test]
    fn upward_exposed_use_fails() {
        let u = unit_of("do i = 1, n\n  b(i) = t\n  t = a(i)\nend do");
        assert!(!scalar_privatizable(loop_named(&u, "I"), "T"));
    }

    #[test]
    fn both_branches_define_then_use_ok() {
        let u = unit_of(
            "do i = 1, n\n  if (a(i) > 0.0) then\n    t = 1.0\n  else\n    t = 2.0\n  end if\n  b(i) = t\nend do",
        );
        assert!(scalar_privatizable(loop_named(&u, "I"), "T"));
    }

    #[test]
    fn one_branch_defines_then_use_fails() {
        let u = unit_of(
            "do i = 1, n\n  if (a(i) > 0.0) then\n    t = 1.0\n  end if\n  b(i) = t\nend do",
        );
        assert!(!scalar_privatizable(loop_named(&u, "I"), "T"));
    }

    #[test]
    fn def_and_use_inside_inner_loop() {
        // BDNA's R: defined and used within the same inner iteration.
        let u = unit_of(
            "real a(100)\ndo i = 2, n\n  do j = 1, i - 1\n    r = a(j) + w\n    if (r < rc) b(j) = r\n  end do\nend do",
        );
        assert!(scalar_privatizable(loop_named(&u, "I"), "R"));
    }

    #[test]
    fn def_in_inner_loop_used_after_fails() {
        // the inner loop may run zero times: T not guaranteed defined
        let u = unit_of(
            "do i = 1, n\n  do j = 1, m\n    t = a(j)\n  end do\n  b(i) = t\nend do",
        );
        assert!(!scalar_privatizable(loop_named(&u, "I"), "T"));
    }

    #[test]
    fn copy_out_requires_unconditional_final_write() {
        let u = unit_of("do i = 1, n\n  t = a(i)\n  b(i) = t\nend do");
        assert!(scalar_write_unconditional(loop_named(&u, "I"), "T"));
        let u2 = unit_of(
            "do i = 1, n\n  t = 0.0\n  if (a(i) > 0.0) then\n    t = a(i)\n  end if\n  b(i) = t\nend do",
        );
        assert!(!scalar_write_unconditional(loop_named(&u2, "I"), "T"));
    }

    // ----- liveness ----------------------------------------------------

    #[test]
    fn live_after_textual() {
        let u = unit_of("do i = 1, n\n  t = a(i)\n  b(i) = t\nend do\nc = t");
        let id = u.body.0[0].id;
        assert!(live_after(&u)(id, "T"));
        let u2 = unit_of("do i = 1, n\n  t = a(i)\n  b(i) = t\nend do\nc = 1.0");
        let id2 = u2.body.0[0].id;
        assert!(!live_after(&u2)(id2, "T"));
    }

    #[test]
    fn args_and_commons_always_live() {
        let src = "subroutine s(t)\nreal t\ndo i = 1, 10\n  t = 1.0\n  b(i) = t\nend do\nend\n";
        let u = polaris_ir::parse(src).unwrap().units.remove(0);
        let id = u.body.0[0].id;
        assert!(live_after(&u)(id, "T"));
    }

    #[test]
    fn read_in_enclosing_loop_before_is_live() {
        // our loop nested in an outer loop; T read earlier in the outer
        // body (previous outer iteration reads it): live.
        let u = unit_of(
            "do k = 1, 3\n  c = t\n  do i = 1, n\n    t = a(i)\n    b(i) = t\n  end do\nend do",
        );
        let mut inner_id = None;
        u.body.walk(&mut |s| {
            if let StmtKind::Do(d) = &s.kind {
                if d.var == "I" {
                    inner_id = Some(s.id);
                }
            }
        });
        assert!(live_after(&u)(inner_id.unwrap(), "T"));
    }

    // ----- array privatization ------------------------------------------

    #[test]
    fn figure4_array_privatization() {
        // Paper Figure 4: A(1:MP) defined, A(1:M*P) used, MP = M*P.
        let src = "mp = m*p\ndo i = 1, 10\n  do j = 1, mp\n    a(j) = b(i, j)\n  end do\n  do k = 1, m*p\n    c(i, k) = a(k)\n  end do\nend do";
        let u = unit_of(&format!(
            "real a(1000), b(10,1000), c(10,1000)\ninteger mp, m, p\n{src}"
        ));
        let d = loop_named(&u, "I");
        // env at the loop: rangeprop provides MP = M*P
        let mut loop_id = None;
        u.body.walk(&mut |s| {
            if let StmtKind::Do(dd) = &s.kind {
                if dd.var == "I" && loop_id.is_none() {
                    loop_id = Some(s.id);
                }
            }
        });
        let mut env = crate::rangeprop::env_in_loop(&u, loop_id.unwrap());
        // analyzing the body assumes the defining J loop is nonempty
        env.assume_cond(&Expr::bin(
            polaris_ir::BinOp::Ge,
            Expr::var("MP"),
            Expr::int(1),
        ));
        assert_eq!(array_privatizable(d, "A", &env), Ok(()));
    }

    #[test]
    fn uncovered_use_fails() {
        // defines A(1:M), uses A(1:M+1)
        let src = "do i = 1, 10\n  do j = 1, m\n    a(j) = b(i, j)\n  end do\n  do k = 1, m + 1\n    c(i, k) = a(k)\n  end do\nend do";
        let u = unit_of(&format!("real a(1000), b(10,1000), c(10,1000)\ninteger m\n{src}"));
        let d = loop_named(&u, "I");
        let env = RangeEnv::new();
        assert!(matches!(
            array_privatizable(d, "A", &env),
            Err(PrivatizeFailure::RegionNotCovered(_))
        ));
    }

    #[test]
    fn conditional_write_not_a_must_def() {
        let src = "do i = 1, 10\n  do j = 1, m\n    if (b(i,j) > 0.0) then\n      a(j) = b(i, j)\n    end if\n  end do\n  do k = 1, m\n    c(i, k) = a(k)\n  end do\nend do";
        let u = unit_of(&format!("real a(1000), b(10,1000), c(10,1000)\ninteger m\n{src}"));
        let d = loop_named(&u, "I");
        let env = RangeEnv::new();
        assert!(array_privatizable(d, "A", &env).is_err());
    }

    #[test]
    fn strided_write_not_dense() {
        let src = "do i = 1, 10\n  do j = 1, m\n    a(2*j) = b(i, j)\n  end do\n  do k = 1, m\n    c(i, k) = a(k)\n  end do\nend do";
        let u = unit_of(&format!("real a(1000), b(10,1000), c(10,1000)\ninteger m\n{src}"));
        let d = loop_named(&u, "I");
        let env = RangeEnv::new();
        assert!(array_privatizable(d, "A", &env).is_err());
    }

    #[test]
    fn use_before_def_order_fails() {
        let src = "do i = 1, 10\n  do k = 1, m\n    c(i, k) = a(k)\n  end do\n  do j = 1, m\n    a(j) = b(i, j)\n  end do\nend do";
        let u = unit_of(&format!("real a(1000), b(10,1000), c(10,1000)\ninteger m\n{src}"));
        let d = loop_named(&u, "I");
        let env = RangeEnv::new();
        assert!(matches!(
            array_privatizable(d, "A", &env),
            Err(PrivatizeFailure::RegionNotCovered(_))
        ));
    }

    #[test]
    fn a_def_does_not_cover_a_use_across_a_reassigned_subscript_scalar() {
        // W(K+1:K+10) is defined, JT moves on by 5, W(K+6:K+15) is read:
        // `[JT+1, JT+10]` on both sides is not the same region.
        let body = |bump: &str| {
            format!(
                "real w(100), r(100)\ninteger ia(4), k, jt\nk = ia(1)\n\
                 do i = 1, 100\n  jt = k\n  do l = 1, 10\n    w(jt + l) = i*1.0\n  end do\n\
                 {bump}  s = 0.0\n  do l = 1, 10\n    s = s + w(jt + l)\n  end do\n\
                 \x20 r(i) = s\nend do"
            )
        };
        let env = RangeEnv::new();
        let u = unit_of(&body("  jt = jt + 5\n"));
        assert_eq!(
            array_privatizable(loop_named(&u, "I"), "W", &env),
            Err(PrivatizeFailure::RegionNotCovered("W".into()))
        );
        let u = unit_of(&body(""));
        assert_eq!(array_privatizable(loop_named(&u, "I"), "W", &env), Ok(()));
    }

    // ----- compaction idiom -----------------------------------------------

    fn bdna_body() -> &'static str {
        "real a(1000), x(100,1000), y(100,1000), z\ninteger ind(1000), p, m\n\
         do i = 2, n\n\
         \x20 do j = 1, i - 1\n\
         \x20   ind(j) = 0\n\
         \x20   a(j) = x(i,j) - y(i,j)\n\
         \x20   r = a(j) + w\n\
         \x20   if (r < rcuts) ind(j) = 1\n\
         \x20 end do\n\
         \x20 p = 0\n\
         \x20 do k = 1, i - 1\n\
         \x20   if (ind(k) /= 0) then\n\
         \x20     p = p + 1\n\
         \x20     ind(p) = k\n\
         \x20   end if\n\
         \x20 end do\n\
         \x20 do l = 1, p\n\
         \x20   m = ind(l)\n\
         \x20   x(i, l) = a(m) + z\n\
         \x20 end do\n\
         end do"
    }

    #[test]
    fn compaction_recognized() {
        let u = unit_of(bdna_body());
        let d = loop_named(&u, "I");
        let mut env = RangeEnv::new();
        let found = recognize_compactions(&d.body, &mut env);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].counter, "P");
        assert_eq!(found[0].array, "IND");
        // facts registered: IND values in [1, I-1]
        let atom = Atom::opaque(Expr::index("IND", vec![Expr::var("L")]));
        let r = env.atom_range(&atom);
        assert!(r.lo.is_some() && r.hi.is_some());
    }

    #[test]
    fn figure5_bdna_array_a_privatizable() {
        // The paper's Figure 5 analysis: A(1:I-1) defined in loop J;
        // uses A(IND(L)) with IND(1:P) ⊆ [1, I-1] — covered.
        let u = unit_of(bdna_body());
        let mut loop_id = None;
        u.body.walk(&mut |s| {
            if let StmtKind::Do(dd) = &s.kind {
                if dd.var == "I" && loop_id.is_none() {
                    loop_id = Some(s.id);
                }
            }
        });
        let d = loop_named(&u, "I");
        let mut env = crate::rangeprop::env_in_loop(&u, loop_id.unwrap());
        recognize_compactions(&d.body, &mut env);
        assert_eq!(array_privatizable(d, "A", &env), Ok(()));
        // IND itself: defined 1:I-1 then compacted 1:P ⊆ [1, I-1];
        // element 0-writes first. The dense first write IND(J)=0 covers
        // reads IND(K) and IND(L).
        assert_eq!(array_privatizable(d, "IND", &env), Ok(()));
        // without the compaction facts A is NOT provably private
        let env2 = crate::rangeprop::env_in_loop(&u, loop_id.unwrap());
        assert!(array_privatizable(d, "A", &env2).is_err());
    }

    #[test]
    fn compaction_with_extra_write_rejected() {
        let src = "integer ind(100), p\nreal q(100)\ndo i = 2, n\n  p = 0\n  do k = 1, i - 1\n    if (q(k) > 0.0) then\n      p = p + 1\n      ind(p) = k\n    end if\n  end do\n  p = p + 1\nend do";
        let u = unit_of(src);
        let d = loop_named(&u, "I");
        let mut env = RangeEnv::new();
        // the trailing p = p + 1 is outside the scan loop: the idiom match
        // itself still fires (facts hold at the point after the scan), but
        // a *second zeroing pattern* is what we guard; here we simply
        // check the recognizer does not crash and registers the scan facts.
        let found = recognize_compactions(&d.body, &mut env);
        assert_eq!(found.len(), 1);
    }
}

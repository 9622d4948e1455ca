//! The iteration view: one collection, one resolution, one notion of
//! what varies (DESIGN.md has the long form).
//!
//! Every analysis of a loop compares subscripts at two points — the
//! range test (§3.3) iteration *i* against *i+1*, the privatizer (§3.4) a
//! use against a definition of the same iteration — and a comparison is
//! only valid over symbols that denote one value at both points. This
//! module is the only code that prepares a body for that: it collects
//! one execution's accesses once; substitutes in-iteration reaching
//! definitions (Figure 5's `M = IND(L)`) into every subscript and every
//! bound of the loops in [`Access::ctx`], under a rule that keeps the
//! value; and knows what the body writes, so it can say whether a symbol
//! is the same in every iteration ([`Ref::opaque`]) and at two accesses
//! of one iteration ([`IterView::written_between`],
//! [`IterView::written_around`]).
//!
//! A subscript dimension that after resolution still reads something the
//! body writes, other than the variables of the access's own loops, is
//! **opaque**: no cross-iteration test may treat it as a function of the
//! iteration. [`Ref::spec`] holds a symbol nothing is known about in its
//! place, `ddtest::affine` yields no problem for it, and `nestdeps` files
//! the pair under the all-`*` row.

use crate::ddtest::range_test::{InnerLoop, RefSpec};
use polaris_ir::expr::Expr;
use polaris_ir::stmt::StmtList;
use polaris_ir::visit::{collect_accesses, Access, LoopCtx};
use polaris_symbolic::poly::{DivPolicy, Poly};
use std::cell::OnceCell;
use std::collections::BTreeSet;

/// One access of the body in analysable form; derefs to the resolved
/// [`Access`].
#[derive(Clone)]
pub(crate) struct Ref {
    access: Access,
    /// Per subscript dimension: the dimension, or a bound of a loop whose
    /// variable it reads, still mentions something the body writes.
    pub(crate) opaque: Vec<bool>,
    spec: OnceCell<Option<RefSpec>>,
}

impl Ref {
    /// The range-test form, built on first use: opaque dimensions are
    /// replaced by a symbol of their own. `None` outside the symbolic
    /// fragment.
    pub(crate) fn spec(&self) -> Option<&RefSpec> {
        self.spec.get_or_init(|| spec_of(&self.access, &self.opaque)).as_ref()
    }
}

impl std::ops::Deref for Ref {
    type Target = Access;
    fn deref(&self) -> &Access {
        &self.access
    }
}

/// One execution of a loop body as the analyses compare it.
pub(crate) struct IterView {
    /// The accesses in execution order (`refs[k].order == k`).
    pub(crate) refs: Vec<Ref>,
    /// Scalars the body writes: assignments and inner `DO` variables.
    pub(crate) written_scalars: BTreeSet<String>,
    pub(crate) written_arrays: BTreeSet<String>,
    /// Variables of the `DO` loops nested in the body.
    pub(crate) loop_vars: BTreeSet<String>,
    /// Orders of the writes, ascending.
    writes: Vec<usize>,
}

impl IterView {
    pub(crate) fn of(body: &StmtList) -> IterView {
        let raw = collect_accesses(body);
        let written = |scalar: bool| -> BTreeSet<String> {
            let of_kind = raw.iter().filter(|a| a.is_write && a.is_scalar() == scalar);
            of_kind.map(|a| a.name.clone()).collect()
        };
        let mut view = IterView {
            written_scalars: written(true),
            written_arrays: written(false),
            loop_vars: body.loops().iter().map(|d| d.var.clone()).collect(),
            writes: raw.iter().filter(|a| a.is_write).map(|a| a.order).collect(),
            refs: raw
                .into_iter()
                .map(|access| Ref { access, opaque: Vec::new(), spec: OnceCell::new() })
                .collect(),
        };
        let resolved = view.resolved();
        for (a, (subs, ctx, opaque)) in view.refs.iter_mut().zip(resolved) {
            (a.access.subs, a.access.ctx, a.opaque) = (subs, ctx, opaque);
        }
        view
    }

    /// The accesses to `name`, in order.
    pub(crate) fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Ref> + 'a {
        self.refs.iter().filter(move |a| a.name == name)
    }

    /// Every name the body writes, scalar or array.
    pub(crate) fn written(&self) -> impl Iterator<Item = &String> {
        self.written_scalars.iter().chain(&self.written_arrays)
    }

    /// Is `name` written after the access of order `after` and before
    /// the one of order `before`?
    pub(crate) fn written_between(&self, name: &str, after: usize, before: usize) -> bool {
        self.writes_of(name).any(|w| after < w.order && w.order < before)
    }

    /// Is `name` written inside a loop of the body that encloses `a`, so
    /// that `a` meets more than one value of it per iteration?
    pub(crate) fn written_around(&self, name: &str, a: &Access) -> bool {
        a.ctx.first().is_some_and(|lp| self.written_inside(name, lp, 0))
    }

    fn writes_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Ref> + 'a {
        self.writes.iter().map(|&o| &self.refs[o]).filter(move |w| w.name == name)
    }

    /// Is `name` written inside `lp`, a loop at nesting depth `depth`?
    /// (Labels are unique per unit; the `DO` statement's own write of its
    /// variable sits outside.)
    fn written_inside(&self, name: &str, lp: &LoopCtx, depth: usize) -> bool {
        self.writes_of(name).any(|w| w.ctx.get(depth).is_some_and(|c| c.label == lp.label))
    }

    /// The right-hand side whose value scalar `v` holds whenever position
    /// `at` under the loops `ctx` is reached: the latest write before it,
    /// provided that write is an unconditional assignment in a loop
    /// context enclosing `at` (so it dominates), does not read `v`, and
    /// neither `v` nor anything it reads is written again before `at` —
    /// textually, or round the back edge of a loop entered since.
    fn reaching_def<'a>(&'a self, v: &'a str, at: usize, ctx: &[LoopCtx]) -> Option<&'a Expr> {
        let def = self.writes_of(v).take_while(|w| w.order < at).last()?;
        let rhs = def.def_rhs.as_ref()?;
        let depth = def.ctx.len();
        let dominates = def.is_scalar()
            && !def.conditional
            && depth <= ctx.len()
            && def.ctx.iter().zip(ctx).all(|(d, c)| d.label == c.label);
        if !dominates || rhs.references_var(v) {
            return None;
        }
        let mut held = rhs.variables();
        held.extend(rhs.arrays());
        held.insert(v.to_string());
        let stale = held.iter().any(|n| {
            self.written_between(n, def.order, at)
                || ctx.get(depth).is_some_and(|lp| self.written_inside(n, lp, depth))
        });
        (!stale).then_some(rhs)
    }

    /// `e` as read at position `at` under `ctx`, reaching definitions
    /// substituted in (two rounds: `M = JT + 1` after `JT = 5 - I`).
    fn resolve(&self, e: &Expr, at: usize, ctx: &[LoopCtx]) -> Expr {
        let mut cur = e.clone();
        for _ in 0..2 {
            let before = cur.clone();
            for v in before.variables() {
                // What the body never assigns has no definition here, and
                // loop variables resolve through their ranges.
                if !self.written_scalars.contains(&v) || ctx.iter().any(|c| c.var == v) {
                    continue;
                }
                if let Some(rhs) = self.reaching_def(&v, at, ctx) {
                    cur = cur.substitute_var(&v, rhs);
                }
            }
            if cur == before {
                break;
            }
        }
        cur
    }

    /// Does `e` read something the body writes, other than the variable
    /// of an enclosing loop in `loops` whose own bounds are clean?
    fn varies(&self, e: &Expr, loops: &[(LoopCtx, bool)]) -> bool {
        let scalar = |v: &String| match loops.iter().rev().find(|(c, _)| c.var == *v) {
            Some((_, clean)) => !clean,
            None => self.written_scalars.contains(v),
        };
        e.variables().iter().any(scalar)
            || e.arrays().iter().any(|n| self.written_arrays.contains(n))
    }

    /// Per access its resolved subscripts, its loops with resolved bounds
    /// (resolved once per loop, where the header executes) and which
    /// dimensions are opaque.
    fn resolved(&self) -> Vec<(Vec<Expr>, Vec<LoopCtx>, Vec<bool>)> {
        let mut loops: Vec<(LoopCtx, bool)> = Vec::new();
        let mut out = Vec::with_capacity(self.refs.len());
        for a in &self.refs {
            // A sibling loop is always announced by the shallower write
            // of its variable, one access before its first inner access.
            loops.truncate(a.ctx.len());
            for (k, c) in a.ctx.iter().enumerate().skip(loops.len()) {
                let (at, enclosing) = (a.order - 1, &a.ctx[..k]);
                let header = LoopCtx {
                    init: self.resolve(&c.init, at, enclosing),
                    limit: self.resolve(&c.limit, at, enclosing),
                    step: self.resolve(&c.step, at, enclosing),
                    ..c.clone()
                };
                let clean = !self.varies(&header.init, &loops) && !self.varies(&header.limit, &loops);
                loops.push((header, clean));
            }
            let subs: Vec<Expr> = a.subs.iter().map(|s| self.resolve(s, a.order, &a.ctx)).collect();
            let opaque = subs.iter().map(|s| self.varies(s, &loops)).collect();
            out.push((subs, loops.iter().map(|(c, _)| c.clone()).collect(), opaque));
        }
        out
    }
}

/// The range-test form of a resolved access. An opaque dimension becomes
/// a symbol private to that access and dimension: a value nothing is
/// known about, which never separates two iterations.
fn spec_of(a: &Access, opaque: &[bool]) -> Option<RefSpec> {
    let mut inner = Vec::with_capacity(a.ctx.len());
    for c in &a.ctx {
        inner.push(InnerLoop {
            var: c.var.clone(),
            lo: Poly::from_expr(&c.init, DivPolicy::Exact)?,
            hi: Poly::from_expr(&c.limit, DivPolicy::Exact)?,
            step: c.step.simplified().as_int()?,
        });
    }
    let mut subs = Vec::with_capacity(a.subs.len());
    for (k, s) in a.subs.iter().enumerate() {
        subs.push(if opaque[k] {
            Poly::var(format!("?{}.{k}", a.order))
        } else {
            Poly::from_expr(s, DivPolicy::Exact)?
        });
    }
    Some(RefSpec { subs, inner })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The view of the first loop's body in `src`, and its first access
    /// to array `A`.
    fn first_a(src: &str) -> (IterView, usize) {
        let full = format!("program t\nreal a(100), x(100,100)\ninteger t, k, p\n{src}\nend\n");
        let p = polaris_ir::parse(&full).unwrap();
        let view = IterView::of(&p.units[0].body.loops()[0].body);
        let at = view.refs.iter().position(|a| a.name == "A").expect("an access to A");
        (view, at)
    }

    fn sub0(src: &str) -> (String, bool) {
        let (view, at) = first_a(src);
        (polaris_ir::printer::format_expr(&view.refs[at].subs[0]), view.refs[at].opaque[0])
    }

    #[test]
    fn a_dominating_definition_is_substituted_and_the_dimension_is_clean() {
        assert_eq!(sub0("do i = 1, n\n  t = 5 - i\n  a(t + 2*i) = 1.0\nend do"), ("5-I+2*I".into(), false));
        // Two rounds: M = T + 1 after T = 5 - I.
        let (s, opaque) = sub0("do i = 1, n\n  t = 5 - i\n  m = t + 1\n  a(m) = 1.0\nend do");
        assert!(!s.contains('T') && !s.contains('M') && !opaque, "{s}");
    }

    #[test]
    fn a_definition_whose_operand_is_rewritten_before_the_use_does_not_reach() {
        // T holds the old K; the K of the subscript would be the new one.
        let (s, opaque) = sub0("do i = 1, n\n  t = k + i\n  k = k + 1\n  a(t) = 1.0\nend do");
        assert_eq!((s.as_str(), opaque), ("T", true));
        // The same with an array element feeding the definition.
        let (s, opaque) =
            sub0("integer ix(4)\ndo i = 1, n\n  t = ix(1)\n  ix(1) = 0\n  a(t) = 1.0\nend do");
        assert_eq!((s.as_str(), opaque), ("T", true));
    }

    #[test]
    fn a_definition_in_one_loop_does_not_reach_a_use_in_its_sibling() {
        let src = "do i = 1, n\n  do j = 1, 4\n    t = j\n  end do\n\
                   \x20 do j = 1, 4\n    a(t + j) = 1.0\n  end do\nend do";
        assert_eq!(sub0(src), ("T+J".into(), true));
    }

    #[test]
    fn a_write_round_the_back_edge_of_a_loop_entered_since_blocks_the_definition() {
        // T is 5 only in the first L iteration.
        let src = "do i = 1, n\n  t = 5\n  do l = 1, 4\n    a(t + l) = 1.0\n    t = t + 1\n  end do\nend do";
        assert_eq!(sub0(src), ("T+L".into(), true));
        // Re-executed inside the loop, the definition does reach.
        let src = "do i = 1, n\n  do l = 1, 4\n    t = 5 + l\n    a(t) = 1.0\n    t = t + 1\n  end do\nend do";
        assert_eq!(sub0(src), ("5+L".into(), false));
    }

    #[test]
    fn loop_bounds_are_resolved_where_the_header_executes() {
        let src = "do jn = 0, 3\n  t = 2 + jn*8\n  do j = t, t + 7\n    a(j) = 1.0\n  end do\n  t = 0\nend do";
        let (view, at) = first_a(src);
        let header = &view.refs[at].ctx[0];
        assert_eq!(polaris_ir::printer::format_expr(&header.init), "2+JN*8");
        assert_eq!(polaris_ir::printer::format_expr(&header.limit), "2+JN*8+7");
        assert!(!view.refs[at].opaque[0]);
    }

    #[test]
    fn a_loop_with_a_varying_bound_makes_only_the_dimensions_that_read_it_opaque() {
        // BDNA's X(I, L) under the compaction counter P.
        let src = "do i = 1, n\n  p = 0\n  do k = 1, i\n    if (a(k) > 0.0) p = p + 1\n  end do\n\
                   \x20 do l = 1, p\n    x(i, l) = 1.0\n  end do\nend do";
        let p = polaris_ir::parse(&format!("program t\nreal a(100), x(100,100)\ninteger p\n{src}\nend\n"))
            .unwrap();
        let view = IterView::of(&p.units[0].body.loops()[0].body);
        let x = view.named("X").next().unwrap();
        assert_eq!(x.opaque, [false, true]);
        let spec = x.spec().expect("still in the symbolic fragment");
        assert_eq!(spec.subs[0], Poly::var("I"));
        let own = spec.subs[1].vars();
        assert!(own.len() == 1 && own.iter().all(|v| v.starts_with('?')), "a symbol of its own: {own:?}");
    }
}

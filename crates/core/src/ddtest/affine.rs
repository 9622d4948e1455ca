//! The affine view of an access pair: the one place that turns
//! [`Access`] subscripts into the inputs of [`gcd`](super::gcd) and
//! [`banerjee`](super::banerjee).
//!
//! An access seen over a variable list is, per subscript dimension, an
//! integer coefficient vector plus a remainder polynomial ([`Dim`]). A
//! *pair* over the loops whose direction is being asked about is, per
//! dimension, the problem `c0 + Σ coupled + Σ free = 0` ([`PairDim`]).
//! A loop bound that is not a known constant is `None` and stays `None`
//! all the way into Banerjee's interval arithmetic: unknown means
//! unbounded, never a stand-in box.

use super::banerjee::{Coupled, Free};
use crate::iterview::Ref;
use polaris_ir::expr::{Expr, Name};
use polaris_symbolic::poly::{DivPolicy, Poly};

/// One subscript as `rest + Σ coeffs[k] * vars[k]`, `rest` free of the
/// variables.
pub(crate) struct Dim {
    pub(crate) coeffs: Vec<i128>,
    pub(crate) rest: Poly,
}

impl Dim {
    /// `None` when `sub` is not linear in `vars` with integer constant
    /// coefficients — outside the classical tests' fragment.
    pub(crate) fn of(sub: &Expr, vars: &[Name]) -> Option<Dim> {
        Dim::of_poly(&Poly::from_expr(sub, DivPolicy::Exact)?, vars)
    }

    fn of_poly(sub: &Poly, vars: &[Name]) -> Option<Dim> {
        let (rest, co) = sub.linear_in(vars)?;
        Some(Dim { coeffs: co.iter().map(|r| r.as_integer()).collect::<Option<_>>()?, rest })
    }

    /// The remainder, when it is an integer constant.
    pub(crate) fn constant(&self) -> Option<i128> {
        self.rest.as_constant()?.as_integer()
    }
}

/// A loop as the classical tests see it: a variable ranging over an
/// integer box with either side possibly unknown.
pub(crate) struct Loop {
    pub(crate) var: Name,
    pub(crate) lo: Option<i128>,
    pub(crate) hi: Option<i128>,
    /// Step is `1` or `-1`; Banerjee's box models nothing else.
    pub(crate) unit_step: bool,
}

impl Loop {
    /// The box of `DO var = init, limit, step` (bounds swapped for a
    /// negative step; `step` is `None` when it is not a constant).
    pub(crate) fn new(var: &Name, init: &Expr, limit: &Expr, step: Option<i64>) -> Loop {
        let constant = |e: &Expr| Poly::from_expr(e, DivPolicy::Exact)?.as_constant()?.as_integer();
        let (lo, hi) = match step {
            Some(s) if s < 0 => (constant(limit), constant(init)),
            _ => (constant(init), constant(limit)),
        };
        Loop { var: var.clone(), lo, hi, unit_step: step.is_some_and(|s| s.abs() == 1) }
    }

    fn coupled(&self, a: i128, b: i128) -> Coupled {
        Coupled { a, b, lo: self.lo, hi: self.hi }
    }
}

/// One subscript dimension of an access pair `f`, `g` as the dependence
/// equation `c0 + Σ (a·i − b·i′) + Σ c·x = 0`.
pub(crate) struct PairDim {
    pub(crate) c0: i128,
    /// The asked-about loops in order, then the context loops both
    /// accesses sit in.
    pub(crate) common: Vec<Coupled>,
    /// Context loops around only one of the accesses.
    pub(crate) free: Vec<Free>,
}

impl PairDim {
    /// Every loop-variable coefficient of the equation (the GCD test's
    /// input).
    pub(crate) fn coefficients(&self) -> impl Iterator<Item = i128> + '_ {
        self.common.iter().flat_map(|t| [t.a, t.b]).chain(self.free.iter().map(|f| f.c))
    }
}

/// The per-dimension problems of the pair over `asked`, the loops whose
/// direction the caller wants (the tested loop, a band, a fused header).
/// The loops in `f.ctx` / `g.ctx` — nested between `asked` and the access
/// — are matched by name: one around both accesses is common (after the
/// asked ones), one around a single access is free. A dimension outside
/// the affine fragment, or opaque in either access, is `None`. The flag
/// beside the dimensions says every context loop has a unit step, so the
/// boxes in `common` and `free` model the iteration space; the
/// coefficients are good either way.
pub(crate) fn pair_dims<'a>(
    f: &'a Ref,
    g: &'a Ref,
    asked: &'a [Loop],
) -> (bool, impl Iterator<Item = Option<PairDim>> + 'a) {
    let ctx = |a: &Ref| -> Vec<Loop> {
        let of = |c: &polaris_ir::visit::LoopCtx| {
            Loop::new(&c.var, &c.init, &c.limit, c.step.simplified().as_int())
        };
        a.ctx.iter().map(of).collect()
    };
    let (fctx, gctx) = (ctx(f), ctx(g));
    let g_only: Vec<usize> = (0..gctx.len())
        .filter(|&k| !fctx.iter().any(|fl| fl.var == gctx[k].var))
        .collect();
    let unit_steps = fctx.iter().chain(g_only.iter().map(|&k| &gctx[k])).all(|l| l.unit_step);
    let vars = |ctx: &[Loop]| -> Vec<Name> {
        asked.iter().chain(ctx).map(|l| l.var.clone()).collect()
    };
    let (fvars, gvars) = (vars(&fctx), vars(&gctx));
    let n = asked.len();
    let dims = f.subs.iter().zip(&g.subs).enumerate().map(move |(k, (fs, gs))| {
        if f.opaque[k] || g.opaque[k] {
            return None;
        }
        let (fd, gd) = (Dim::of(fs, &fvars)?, Dim::of(gs, &gvars)?);
        // The non-index parts must cancel to a constant.
        let c0 = fd.rest.checked_sub(&gd.rest)?.as_constant()?.as_integer()?;
        let mut common: Vec<Coupled> =
            asked.iter().enumerate().map(|(i, l)| l.coupled(fd.coeffs[i], gd.coeffs[i])).collect();
        let mut free = Vec::new();
        for (k, l) in fctx.iter().enumerate() {
            let a = fd.coeffs[n + k];
            match gctx.iter().position(|gl| gl.var == l.var) {
                Some(gi) => common.push(l.coupled(a, gd.coeffs[n + gi])),
                None if a != 0 => free.push(Free { c: a, lo: l.lo, hi: l.hi }),
                None => {}
            }
        }
        for &k in &g_only {
            let (b, l) = (gd.coeffs[n + k], &gctx[k]);
            if b != 0 {
                free.push(Free { c: b.checked_neg()?, lo: l.lo, hi: l.hi });
            }
        }
        Some(PairDim { c0, common, free })
    });
    (unit_steps, dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterview::IterView;
    use polaris_symbolic::Rat;

    /// The outermost loop of `body` as the asked-about loop, and the
    /// write and the first read of `A` under it.
    fn pair(body: &str) -> (Vec<Loop>, Ref, Ref) {
        let src = format!("program t\nreal a(1000)\n{body}end\n");
        let p = polaris_ir::parse(&src).unwrap();
        let d = p.units[0].body.loops()[0];
        let step = d.step_expr().simplified().as_int();
        let acc = IterView::of(&d.body).refs;
        let find = |w: bool| acc.iter().find(|a| a.name == "A" && a.is_write == w).unwrap().clone();
        (vec![Loop::new(&d.var, &d.init, &d.limit, step)], find(true), find(false))
    }

    fn coupled(p: &PairDim) -> Vec<(i128, i128, Option<i128>, Option<i128>)> {
        p.common.iter().map(|t| (t.a, t.b, t.lo, t.hi)).collect()
    }

    fn free(p: &PairDim) -> Vec<(i128, Option<i128>, Option<i128>)> {
        p.free.iter().map(|t| (t.c, t.lo, t.hi)).collect()
    }

    #[test]
    fn rational_coefficients_give_up() {
        // GCD and Banerjee reason over integer coefficients only: I/2 as
        // the exact polynomial ½·I is no problem for either.
        let i: [Name; 1] = ["I".into()];
        let scaled = |num, den| Poly::var("I").checked_scale(Rat::new(num, den).unwrap()).unwrap();
        assert!(Dim::of_poly(&scaled(1, 2), &i).is_none());
        assert_eq!(Dim::of_poly(&scaled(4, 2), &i).unwrap().coeffs, [2]);
    }

    #[test]
    fn truncating_division_subscript_gives_up() {
        // A(I/2) carries a dependence (I = 2 and I = 3 hit the same
        // element). The division is not exact, so it stays an opaque atom
        // hiding I: no dimension, no problem, nothing to "prove".
        let (asked, f, g) = pair("do i = 1, n\n  a(i/2) = a(i/2) + 1.0\nend do\n");
        assert!(Dim::of(&f.subs[0], &["I".into()]).is_none());
        let (_, dims) = pair_dims(&f, &g, &asked);
        assert!(dims.collect::<Vec<_>>().iter().all(Option::is_none));
    }

    #[test]
    fn symbolic_coefficient_or_remainder_gives_up() {
        let (asked, f, g) = pair("do i = 1, n\n  a(m*i) = a(i + m) + 1.0\nend do\n");
        assert!(Dim::of(&f.subs[0], &["I".into()]).is_none());
        // M alone is fine in one access; the pair's remainders must cancel.
        let d = Dim::of(&g.subs[0], &["I".into()]).unwrap();
        assert_eq!((d.constant(), d.coeffs), (None, vec![1]));
        let (_, f, g) = pair("do i = 1, n\n  a(i) = a(i + m) + 1.0\nend do\n");
        assert!(pair_dims(&f, &g, &asked).1.all(|p| p.is_none()));
        let (_, f, g) = pair("do i = 1, n\n  a(i + m) = a(i + m - 3) + 1.0\nend do\n");
        let p = pair_dims(&f, &g, &asked).1.next().unwrap().unwrap();
        assert_eq!(p.c0, 3);
    }

    #[test]
    fn unknown_bounds_stay_unknown_and_negative_steps_swap() {
        let (asked, ..) = pair("do i = 1, n\n  a(i) = a(i) + 1.0\nend do\n");
        assert_eq!((asked[0].lo, asked[0].hi, asked[0].unit_step), (Some(1), None, true));
        let (asked, ..) = pair("do i = n, 2, -1\n  a(i) = a(i) + 1.0\nend do\n");
        assert_eq!((asked[0].lo, asked[0].hi, asked[0].unit_step), (Some(2), None, true));
        let (asked, ..) = pair("do i = 1, 9, 2\n  a(i) = a(i) + 1.0\nend do\n");
        assert!(!asked[0].unit_step);
    }

    #[test]
    fn context_loops_are_matched_by_name_into_common_and_free() {
        // J is around both accesses, K only around the write, L (running
        // downwards) only around the read.
        let body = |lstep: &str| {
            format!(
                "do i = 1, 10\n  do j = 1, 5\n\
                 \x20   do k = 2, 4\n      a(i + 2*j + 3*k) = 0.0\n    end do\n\
                 \x20   do l = {lstep}\n      x = a(i + j + 5*l + 7)\n    end do\n\
                 \x20 end do\nend do\n"
            )
        };
        let (asked, f, g) = pair(&body("9, 3, -1"));
        let (unit_steps, mut dims) = pair_dims(&f, &g, &asked);
        let p = dims.next().unwrap().unwrap();
        assert!(dims.next().is_none());
        assert!(unit_steps);
        assert_eq!(p.c0, -7);
        // The asked loop first, then the shared context loop.
        assert_eq!(coupled(&p), [(1, 1, Some(1), Some(10)), (2, 1, Some(1), Some(5))]);
        // f-only keeps its sign; g-only is negated, its box swapped back
        // to lo <= hi.
        assert_eq!(free(&p), [(3, Some(2), Some(4)), (-5, Some(3), Some(9))]);
        assert_eq!(p.coefficients().collect::<Vec<_>>(), [1, 1, 2, 1, 3, -5]);

        let (asked, f, g) = pair(&body("3, 9, 2"));
        let (unit_steps, mut dims) = pair_dims(&f, &g, &asked);
        assert!(!unit_steps, "a stride-2 context loop is not modelled by its box");
        assert_eq!(dims.next().unwrap().unwrap().c0, -7);
    }

    #[test]
    fn a_context_variable_an_access_does_not_read_is_not_a_free_term() {
        let (asked, f, g) = pair(
            "do i = 1, 10\n  do k = 1, 4\n    a(i) = 0.0\n  end do\n\
             \x20 do l = 1, 4\n    x = a(i + 1)\n  end do\nend do\n",
        );
        let p = pair_dims(&f, &g, &asked).1.next().unwrap().unwrap();
        assert_eq!((p.c0, coupled(&p), free(&p)), (-1, vec![(1, 1, Some(1), Some(10))], vec![]));
    }
}

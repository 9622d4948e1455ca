//! The Range Test (§3.3.1) — symbolic, nonlinear data dependence testing.
//!
//! "We mark a loop as parallel if we can prove that the range of elements
//! accessed by an iteration of that loop does not overlap with the range
//! of elements accessed by other iterations."
//!
//! For a tested loop with index `i` and a pair of references `f`, `g`
//! (at least one a write), the per-dimension access ranges
//! `[f_min(i), f_max(i)]` are computed by eliminating the *inner* loop
//! variables of each reference through the monotonicity machinery of
//! `polaris-symbolic` (forward differences → substitute the bound). The
//! pair carries no dependence at the tested loop if consecutive executed
//! iterations' ranges are separated and the range endpoints move
//! monotonically with the execution order — checked in both ascending
//! and descending orientations.
//!
//! When the direct test fails, the **loop permutation** step of the
//! paper is applied: an inner loop `J` common to both references is
//! "hoisted" above the tested loop (think of it as permuting the
//! direction vectors tested): if `J` itself carries no dependence (with
//! the tested loop eliminated like an inner loop) *and* the tested loop
//! carries none for each fixed `J`, the tested loop is independent.
//! This is exactly what the OCEAN/FTRVMT nest of Figure 3 needs.

use super::DdStats;
use polaris_symbolic::bounds::{min_max_over, sign};
use polaris_symbolic::poly::{Atom, Poly};
use polaris_symbolic::{Range, RangeEnv};
use std::cell::OnceCell;

/// A loop that encloses a reference inside the tested loop.
#[derive(Debug, Clone)]
pub struct InnerLoop {
    pub var: String,
    pub lo: Poly,
    pub hi: Poly,
    pub step: i64,
}

impl InnerLoop {
    /// The iteration range of the loop variable as an interval
    /// (bounds swapped for negative steps).
    fn value_range(&self) -> Range {
        if self.step >= 0 {
            Range::new(Some(self.lo.clone()), Some(self.hi.clone()))
        } else {
            Range::new(Some(self.hi.clone()), Some(self.lo.clone()))
        }
    }
}

/// One array reference: per-dimension subscript polynomials plus the
/// inner loops enclosing it (outermost first).
#[derive(Debug, Clone)]
pub struct RefSpec {
    pub subs: Vec<Poly>,
    pub inner: Vec<InnerLoop>,
}

/// `(min, max)`, either of which elimination may fail to establish.
type Span = (Option<Poly>, Option<Poly>);

/// The loop under test and the facts valid inside it.
struct Tested<'a> {
    var: &'a str,
    step: i64,
    /// The tested loop's own bounds, for when it is eliminated like an
    /// inner loop (a whole-loop footprint, a permutation's demotion).
    self_loop: &'a InnerLoop,
    env: &'a RangeEnv,
}

/// What one reference reaches at the tested loop. Every part depends on
/// this reference alone — not on what it is paired with — and is
/// computed when a pair first asks for it, then kept: a reference in `n`
/// pairs has its inner loops eliminated once, not `n` times.
struct Reach<'a> {
    subs: &'a [Poly],
    /// The inner loops innermost-first (the elimination order), in an
    /// environment that has them in scope.
    inner_atoms: Vec<Atom>,
    inner_env: RangeEnv,
    /// The same with the tested loop itself demoted to an inner loop.
    whole_atoms: Vec<Atom>,
    whole_env: RangeEnv,
    dims: Vec<DimReach>,
}

/// One subscript dimension of a [`Reach`].
#[derive(Default)]
struct DimReach {
    /// Access range in one iteration: the tested variable (and outer
    /// symbols) left symbolic.
    iter: OnceCell<Span>,
    /// Footprint over every iteration of the tested loop.
    whole: OnceCell<Span>,
    /// `iter`'s ends one executed iteration later.
    next_min: OnceCell<Option<Poly>>,
    next_max: OnceCell<Option<Poly>>,
    /// Is `min` non-decreasing, `max` non-increasing, in execution order?
    min_rises: OnceCell<bool>,
    max_falls: OnceCell<bool>,
}

impl<'a> Reach<'a> {
    fn new(t: &Tested<'_>, subs: &'a [Poly], inner: &[&InnerLoop]) -> Reach<'a> {
        let mut inner_env = t.env.clone();
        for il in inner {
            inner_env.set_fresh(&il.var, il.value_range());
        }
        let mut whole_env = inner_env.clone();
        whole_env.set_fresh(&t.self_loop.var, t.self_loop.value_range());
        // Eliminate innermost-first.
        let inner_atoms: Vec<Atom> = inner.iter().rev().map(|il| Atom::var(&*il.var)).collect();
        let whole_atoms =
            std::iter::once(Atom::var(&*t.self_loop.var)).chain(inner_atoms.iter().cloned()).collect();
        let dims = subs.iter().map(|_| DimReach::default()).collect();
        Reach { subs, inner_atoms, inner_env, whole_atoms, whole_env, dims }
    }

    fn iter(&self, dim: usize) -> &Span {
        self.dims[dim]
            .iter
            .get_or_init(|| min_max_over(&self.subs[dim], &self.inner_atoms, &self.inner_env))
    }

    fn whole(&self, dim: usize) -> &Span {
        self.dims[dim]
            .whole
            .get_or_init(|| min_max_over(&self.subs[dim], &self.whole_atoms, &self.whole_env))
    }

    fn next_min(&self, dim: usize, t: &Tested<'_>) -> Option<&Poly> {
        let next = || at_next(self.iter(dim).0.as_ref()?, t.var, t.step);
        self.dims[dim].next_min.get_or_init(next).as_ref()
    }

    fn next_max(&self, dim: usize, t: &Tested<'_>) -> Option<&Poly> {
        let next = || at_next(self.iter(dim).1.as_ref()?, t.var, t.step);
        self.dims[dim].next_max.get_or_init(next).as_ref()
    }

    /// Is `min(i + step) - min(i)` provably `>= 0` (monotone
    /// non-decreasing in execution order)?
    fn min_rises(&self, dim: usize, t: &Tested<'_>) -> bool {
        let rises = || {
            let diff = self.next_min(dim, t)?.checked_sub(self.iter(dim).0.as_ref()?)?;
            Some(sign(&diff, t.env).is_nonneg())
        };
        *self.dims[dim].min_rises.get_or_init(|| rises().unwrap_or(false))
    }

    fn max_falls(&self, dim: usize, t: &Tested<'_>) -> bool {
        let falls = || {
            let diff = self.next_max(dim, t)?.checked_sub(self.iter(dim).1.as_ref()?)?;
            Some(sign(&diff, t.env).is_nonpos())
        };
        *self.dims[dim].max_falls.get_or_init(|| falls().unwrap_or(false))
    }
}

fn at_next(p: &Poly, var: &str, step: i64) -> Option<Poly> {
    let next = Poly::var(var).checked_add(&Poly::int(step as i128))?;
    p.subst_var(var, &next)
}

impl Tested<'_> {
    /// The direct range test, any dimension suffices.
    fn independent(&self, f: &Reach<'_>, g: &Reach<'_>) -> bool {
        (0..f.subs.len()).any(|dim| self.dim_independent(f, g, dim))
    }

    /// The direct test of `f` and `g` as enclosed by the loops `inner`
    /// picks for each; one [`Reach`] serves both sides of an `(f, f)` pair.
    fn independent_within<'r>(
        &self,
        f: &'r RefSpec,
        g: &'r RefSpec,
        inner: impl Fn(&'r RefSpec) -> Vec<&'r InnerLoop>,
    ) -> bool {
        let fr = Reach::new(self, &f.subs, &inner(f));
        if std::ptr::eq(f, g) {
            return self.independent(&fr, &fr);
        }
        self.independent(&fr, &Reach::new(self, &g.subs, &inner(g)))
    }

    /// Direct range test for one dimension: either the two references'
    /// *total* ranges over the whole tested loop are disjoint, or
    /// consecutive executed iterations' ranges are separated with endpoints
    /// moving monotonically.
    fn dim_independent(&self, f: &Reach<'_>, g: &Reach<'_>, dim: usize) -> bool {
        let ((Some(fmin), Some(fmax)), (Some(gmin), Some(gmax))) = (f.iter(dim), g.iter(dim)) else {
            return false;
        };
        let lt = |a: &Poly, b: &Poly| match b.checked_sub(a) {
            Some(d) => sign(&d, self.env).is_pos(),
            None => false,
        };
        // Total disjointness: if f's whole footprint over every iteration of
        // the tested loop lies strictly beside g's, no pair of iterations
        // can conflict (this is what separates OCEAN's two references, whose
        // constant offset exceeds the tested loop's whole span).
        if let ((Some(ftl), Some(fth)), (Some(gtl), Some(gth))) = (f.whole(dim), g.whole(dim)) {
            if lt(fth, gtl) || lt(gth, ftl) {
                return true;
            }
        }
        // Ascending in execution order: each iteration's range lies strictly
        // below the next iteration's.
        let asc = || -> Option<bool> {
            Some(
                lt(fmax, g.next_min(dim, self)?)
                    && lt(gmax, f.next_min(dim, self)?)
                    && g.min_rises(dim, self)
                    && f.min_rises(dim, self),
            )
        };
        // Descending: each iteration's range lies strictly above the next's.
        let desc = || -> Option<bool> {
            Some(
                lt(g.next_max(dim, self)?, fmin)
                    && lt(f.next_max(dim, self)?, gmin)
                    && g.max_falls(dim, self)
                    && f.max_falls(dim, self),
            )
        };
        asc().unwrap_or(false) || desc().unwrap_or(false)
    }
}

/// The range test at one tested loop, for any number of reference pairs.
///
/// * `var`/`step` — the tested loop's index and (constant) step,
/// * `self_loop` — the tested loop's own bounds (needed when a
///   permutation demotes it to inner position),
/// * `env` — ranges valid inside the tested loop (its own variable
///   included), from range propagation,
/// * `allow_permutation` — whether to attempt the §3.3.1 permutation
///   step on failure.
///
/// It keeps what it derived about each reference it has seen (by
/// identity: pass the same `&RefSpec` again and nothing is eliminated
/// twice), so its answers are those of [`no_carried_dependence`] pair by
/// pair, at a cost linear in the references. Whoever builds one owns
/// what it holds: the compiler's and the verifier's are never shared.
pub struct LoopTest<'a> {
    tested: Tested<'a>,
    stats: &'a DdStats,
    allow_permutation: bool,
    seen: Vec<(&'a RefSpec, Reach<'a>)>,
}

impl<'a> LoopTest<'a> {
    pub fn new(
        var: &'a str,
        step: i64,
        self_loop: &'a InnerLoop,
        env: &'a RangeEnv,
        stats: &'a DdStats,
        allow_permutation: bool,
    ) -> LoopTest<'a> {
        let tested = Tested { var, step, self_loop, env };
        LoopTest { tested, stats, allow_permutation, seen: Vec::new() }
    }

    fn reach(&mut self, r: &'a RefSpec) -> usize {
        match self.seen.iter().position(|(known, _)| std::ptr::eq(*known, r)) {
            Some(at) => at,
            None => {
                let inner: Vec<&InnerLoop> = r.inner.iter().collect();
                self.seen.push((r, Reach::new(&self.tested, &r.subs, &inner)));
                self.seen.len() - 1
            }
        }
    }

    /// `true` iff the pair provably carries **no** dependence at the
    /// tested loop.
    pub fn no_carried_dependence(&mut self, f: &'a RefSpec, g: &'a RefSpec) -> bool {
        debug_assert_eq!(f.subs.len(), g.subs.len(), "rank mismatch");
        let Tested { var, step, self_loop, env } = self.tested;
        if step == 0 {
            return false;
        }
        self.stats.range_probes.set(self.stats.range_probes.get() + 1);
        let (fi, gi) = (self.reach(f), self.reach(g));
        if self.tested.independent(&self.seen[fi].1, &self.seen[gi].1) {
            return true;
        }
        if !self.allow_permutation {
            return false;
        }
        // Permutation: hoist a common inner loop J above the tested loop.
        for pivot in f.inner.iter().map(|il| &*il.var) {
            let Some(gj) = g.inner.iter().find(|il| il.var == pivot) else { continue };
            let fj = f.inner.iter().find(|il| il.var == pivot).expect("pivot is one of f's loops");
            if fj.step != gj.step {
                continue;
            }
            let mut pivot_env = env.clone(); // pointers, not bounds
            pivot_env.set_fresh(pivot, fj.value_range());
            let others = |r: &'a RefSpec| r.inner.iter().filter(move |il| il.var != pivot);
            // (a) J carries nothing: demote the tested loop to inner.
            let at_pivot = Tested { var: pivot, step: fj.step, self_loop: fj, env: &pivot_env };
            let demoted = |r| std::iter::once(self_loop).chain(others(r)).collect();
            if !at_pivot.independent_within(f, g, demoted) {
                continue;
            }
            // (b) the tested loop carries nothing for each fixed J.
            let at_fixed_pivot = Tested { var, step, self_loop, env: &pivot_env };
            if at_fixed_pivot.independent_within(f, g, |r| others(r).collect()) {
                self.stats.permutations_used.set(self.stats.permutations_used.get() + 1);
                return true;
            }
        }
        false
    }
}

/// The full range test for one pair of references at the tested loop: a
/// [`LoopTest`] (see there for the arguments) asked one question.
#[allow(clippy::too_many_arguments)]
pub fn no_carried_dependence(
    f: &RefSpec,
    g: &RefSpec,
    var: &str,
    step: i64,
    self_loop: &InnerLoop,
    env: &RangeEnv,
    stats: &DdStats,
    allow_permutation: bool,
) -> bool {
    LoopTest::new(var, step, self_loop, env, stats, allow_permutation).no_carried_dependence(f, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_symbolic::poly::DivPolicy;

    fn p(src: &str) -> Poly {
        let full = format!("program t\ninteger z(1000)\nx = {src}\nend\n");
        let prog = polaris_ir::parse(&full).unwrap();
        match &prog.units[0].body.0[0].kind {
            polaris_ir::StmtKind::Assign { rhs, .. } => {
                Poly::from_expr(rhs, DivPolicy::Exact).unwrap()
            }
            _ => unreachable!(),
        }
    }

    fn il(var: &str, lo: &str, hi: &str) -> InnerLoop {
        InnerLoop { var: var.into(), lo: p(lo), hi: p(hi), step: 1 }
    }

    fn simple_ref(sub: &str, inner: Vec<InnerLoop>) -> RefSpec {
        RefSpec { subs: vec![p(sub)], inner }
    }

    fn stats() -> DdStats {
        DdStats::new()
    }

    #[test]
    fn identity_subscript_is_independent() {
        // A(i) = ... : trivially no carried dependence.
        let f = simple_ref("i", vec![]);
        let env = {
            let mut e = RangeEnv::new();
            e.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
            e
        };
        let sl = il("I", "1", "n");
        assert!(no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn offset_pair_is_dependent() {
        // A(i) vs A(i+1): carried.
        let f = simple_ref("i", vec![]);
        let g = simple_ref("i + 1", vec![]);
        let env = {
            let mut e = RangeEnv::new();
            e.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
            e
        };
        let sl = il("I", "1", "n");
        assert!(!no_carried_dependence(&f, &g, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn symbolic_stride_independent() {
        // A(n*i + j), j in [0, n-1]: blocks of size n, disjoint per i —
        // the symbolic case linear tests cannot do.
        let f = simple_ref("n*i + j", vec![il("J", "0", "n - 1")]);
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(0), &polaris_ir::Expr::var("M"));
        env.assume_cond(&polaris_ir::Expr::bin(
            polaris_ir::BinOp::Ge,
            polaris_ir::Expr::var("N"),
            polaris_ir::Expr::int(1),
        ));
        let sl = il("I", "0", "m");
        assert!(no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), false));
    }

    #[test]
    fn trfd_outer_loop_parallel() {
        // Figure 2 closed form: f = (i*(n^2+n) + j^2 - j)/2 + k + 1,
        // j in [0, n-1], k in [0, j-1]. The outermost I loop carries
        // nothing (the worked example of §3.3.1).
        let f = simple_ref(
            "(i*(n**2+n) + j**2 - j)/2 + k + 1",
            vec![il("J", "0", "n - 1"), il("K", "0", "j - 1")],
        );
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(0), &polaris_ir::Expr::sub(polaris_ir::Expr::var("M"), polaris_ir::Expr::int(1)));
        // analyzing the body assumes the J loop runs: n >= 1
        env.assume_cond(&polaris_ir::Expr::bin(
            polaris_ir::BinOp::Ge,
            polaris_ir::Expr::var("N"),
            polaris_ir::Expr::int(1),
        ));
        let sl = il("I", "0", "m - 1");
        let st = stats();
        assert!(no_carried_dependence(&f, &f, "I", 1, &sl, &env, &st, true));
    }

    #[test]
    fn trfd_middle_and_inner_loops_parallel() {
        // Same subscript, testing J (inner K eliminated, I symbolic) and
        // K (no inner loops, I and J symbolic).
        let env = {
            let mut e = RangeEnv::new();
            e.assume_cond(&polaris_ir::Expr::bin(
                polaris_ir::BinOp::Ge,
                polaris_ir::Expr::var("N"),
                polaris_ir::Expr::int(1),
            ));
            // J's own range while testing J:
            e.set_fresh("J", Range::new(Some(p("0")), Some(p("n - 1"))));
            e
        };
        let fj = simple_ref(
            "(i*(n**2+n) + j**2 - j)/2 + k + 1",
            vec![il("K", "0", "j - 1")],
        );
        let slj = il("J", "0", "n - 1");
        assert!(no_carried_dependence(&fj, &fj, "J", 1, &slj, &env, &stats(), true));

        let mut env_k = env.clone();
        env_k.set_fresh("K", Range::new(Some(p("0")), Some(p("j - 1"))));
        let fk = simple_ref("(i*(n**2+n) + j**2 - j)/2 + k + 1", vec![]);
        let slk = il("K", "0", "j - 1");
        assert!(no_carried_dependence(&fk, &fk, "K", 1, &slk, &env_k, &stats(), true));
    }

    #[test]
    fn ocean_ftrvmt_needs_permutation() {
        // Figure 3: A(258*X*J + 129*K + I + 1) and the +129*X variant,
        // nest K (outer, tested), J, I. Direct test on K fails (the
        // middle loop's stride 258*X interleaves); permuting J above K
        // succeeds.
        let subs = "258*x*j + 129*k + i + 1";
        let inner = vec![il("J", "0", "zk"), il("I", "0", "128")];
        let f = RefSpec { subs: vec![p(subs)], inner: inner.clone() };
        let g = RefSpec { subs: vec![p("258*x*j + 129*k + i + 1 + 129*x")], inner };
        let mut env = RangeEnv::new();
        env.set_fresh("K", Range::new(Some(p("0")), Some(p("x - 1"))));
        env.assume_cond(&polaris_ir::Expr::bin(
            polaris_ir::BinOp::Ge,
            polaris_ir::Expr::var("X"),
            polaris_ir::Expr::int(1),
        ));
        env.assume_cond(&polaris_ir::Expr::bin(
            polaris_ir::BinOp::Ge,
            polaris_ir::Expr::var("ZK"),
            polaris_ir::Expr::int(0),
        ));
        let sl = il("K", "0", "x - 1");
        let st = stats();
        // without permutation: fails
        assert!(!no_carried_dependence(&f, &f, "K", 1, &sl, &env, &st, false));
        assert!(!no_carried_dependence(&f, &g, "K", 1, &sl, &env, &st, false));
        // with permutation: both pairs pass
        assert!(no_carried_dependence(&f, &f, "K", 1, &sl, &env, &st, true));
        assert!(no_carried_dependence(&f, &g, "K", 1, &sl, &env, &st, true));
        assert!(st.permutations_used.get() >= 1);
    }

    #[test]
    fn multidim_one_dimension_suffices_and_invariant_dim_does_not() {
        // B(i, q) with q loop-invariant: dimension 1 proves independence.
        let f = RefSpec { subs: vec![p("i"), p("q")], inner: vec![] };
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        assert!(no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
        // B(q, q): no dimension varies → cannot prove (and indeed every
        // iteration hits the same element).
        let h = RefSpec { subs: vec![p("q"), p("q")], inner: vec![] };
        assert!(!no_carried_dependence(&h, &h, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn negative_step_loop() {
        // DO I = N, 1, -1 writing A(I): independent.
        let f = simple_ref("i", vec![]);
        let mut env = RangeEnv::new();
        env.set_fresh("I", Range::new(Some(p("1")), Some(p("n"))));
        let sl = InnerLoop { var: "I".into(), lo: p("n"), hi: p("1"), step: -1 };
        assert!(no_carried_dependence(&f, &f, "I", -1, &sl, &env, &stats(), true));
        // and A(I) vs A(I+1) still dependent
        let g = simple_ref("i + 1", vec![]);
        assert!(!no_carried_dependence(&f, &g, "I", -1, &sl, &env, &stats(), true));
    }

    #[test]
    fn subscripted_subscript_defeats_the_test() {
        // A(Z(I)): opaque subscript — compile-time analysis cannot prove
        // independence (this is §3.5's motivation).
        let f = simple_ref("z(i)", vec![]);
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        assert!(!no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn strided_write_with_gap() {
        // A(2*i) vs A(2*i - 1): ranges {2i} and {2i-1} — ascending check:
        // fmax(i)=2i < gmin(i+1)=2i+1 ✓ and gmax(i)=2i-1 < fmin(i+1)=2i+2 ✓
        let f = simple_ref("2*i", vec![]);
        let g = simple_ref("2*i - 1", vec![]);
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        assert!(no_carried_dependence(&f, &g, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn overlapping_inner_ranges_dependent() {
        // A(i + j), j in [0, 5]: iteration i covers [i, i+5], overlaps
        // iteration i+1.
        let f = simple_ref("i + j", vec![il("J", "0", "5")]);
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        assert!(!no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn negative_stride_subscripts() {
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        // A(-2*i) vs A(-2*i - 1): the footprints march downward with a
        // gap — the descending orientation must prove independence.
        let f = simple_ref("-2*i", vec![]);
        let g = simple_ref("-2*i - 1", vec![]);
        assert!(no_carried_dependence(&f, &g, "I", 1, &sl, &env, &stats(), true));
        // A(-i) vs A(-i - 1): f(i+1) = g(i) — a real carried dependence;
        // the same machinery must refuse.
        let f = simple_ref("-i", vec![]);
        let g = simple_ref("-i - 1", vec![]);
        assert!(!no_carried_dependence(&f, &g, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn zero_step_is_conservative() {
        // A degenerate zero-step tested loop never separates iterations:
        // even the identity subscript must stay conservative (the
        // interpreter rejects such loops; the test must not pre-bless
        // them as parallel).
        let f = simple_ref("i", vec![]);
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        assert!(!no_carried_dependence(&f, &f, "I", 0, &sl, &env, &stats(), true));
    }

    #[test]
    fn zero_trip_inner_loop() {
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        let sl = il("I", "1", "n");
        // A(i + j) with j in [1, 0]: the inner loop never runs, so the
        // reference touches nothing — vacuous independence is sound and
        // the inverted bounds must not confuse (or crash) the test.
        let f = simple_ref("i + j", vec![il("J", "1", "0")]);
        assert!(no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
        // j in [m, 0] with unconstrained m: the loop may or may not run,
        // and when it runs the footprint [i+m, i] can reach arbitrarily
        // far down — must stay conservative.
        let g = simple_ref("i + j", vec![il("J", "m", "0")]);
        assert!(!no_carried_dependence(&g, &g, "I", 1, &sl, &env, &stats(), true));
    }

    #[test]
    fn symbolic_lower_bound_crossing_zero() {
        // A(6*i + j), j in [m, 5]: iteration i's footprint is
        // [6i+m, 6i+5]. With m unconstrained (it may be negative, and
        // the footprint then reaches into earlier iterations' blocks)
        // the test must stay conservative; once m >= 0 is known the
        // blocks are disjoint and it must prove independence.
        let f = simple_ref("6*i + j", vec![il("J", "m", "5")]);
        let sl = il("I", "1", "n");
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &polaris_ir::Expr::int(1), &polaris_ir::Expr::var("N"));
        assert!(!no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
        env.assume_cond(&polaris_ir::Expr::bin(
            polaris_ir::BinOp::Ge,
            polaris_ir::Expr::var("M"),
            polaris_ir::Expr::int(0),
        ));
        assert!(no_carried_dependence(&f, &f, "I", 1, &sl, &env, &stats(), true));
    }
}

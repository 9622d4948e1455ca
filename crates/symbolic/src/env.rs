//! The range environment: "symbolic lower and upper bounds for each
//! variable at each point of the program" (§3.3.1, *range propagation*).
//!
//! A [`RangeEnv`] is built by walking a unit's structured control flow:
//! `PARAMETER` statements contribute exact values, `DO` headers
//! contribute loop-variable intervals, `IF`/`!$ASSERT` conditions tighten
//! bounds on their true paths. The *elimination order* records nesting:
//! variables added later (inner loops) are eliminated first when
//! computing bounds, so substituted bounds only mention outer variables —
//! the well-founded order that makes the recursion in [`crate::bounds`]
//! terminate.

use crate::poly::{upper, Atom, DivPolicy, Poly};
use crate::range::Range;
use polaris_ir::expr::{BinOp, Expr};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Symbolic variable ranges, ordered for elimination.
///
/// Names and ranges sit behind `Arc`s, so a clone copies pointers and
/// never a bound: a temporary extension (a reference's inner loops, one
/// arm of an `IF`) is a clone that is extended and dropped, and the
/// environment it was cloned from is untouched.
#[derive(Debug, Clone, Default)]
pub struct RangeEnv {
    /// `(name, range)` of each scalar, names upper-case and distinct, in
    /// elimination priority: eliminate from the back (inner scopes first).
    scalars: Vec<(Arc<str>, Arc<Range>)>,
    /// Ranges for the *values stored in* whole arrays, registered by
    /// idiom recognizers (e.g. the BDNA compaction idiom proves
    /// `IND(1:P) ∈ [1, I-1]`). Keyed by array name.
    array_values: BTreeMap<Arc<str>, Arc<Range>>,
}

/// `l op r` normalized to `d >= 0` (or `d == 0`, flagged `exact`) with
/// `d` a difference of the two sides in the direction `op` implies.
/// Strict integer inequalities become non-strict ones, so `0 <= N - 1`
/// yields `N - 1 >= 0`: this derives `N >= 1`, which is how analyzing a
/// loop body lets us assume the loop is non-empty.
fn nonneg_gap(op: BinOp, l: &Poly, r: &Poly) -> Option<(Poly, bool)> {
    let one = Poly::int(1);
    match op {
        BinOp::Ge => Some((l.checked_sub(r)?, false)),
        BinOp::Gt => Some((l.checked_sub(r)?.checked_sub(&one)?, false)),
        BinOp::Le => Some((r.checked_sub(l)?, false)),
        BinOp::Lt => Some((r.checked_sub(l)?.checked_sub(&one)?, false)),
        BinOp::Eq => Some((l.checked_sub(r)?, true)),
        _ => None,
    }
}

impl RangeEnv {
    pub fn new() -> RangeEnv {
        RangeEnv::default()
    }

    /// Store `make(the current range)` for `var`, last in the elimination
    /// order when the variable is new.
    fn put(&mut self, var: &str, make: impl FnOnce(Option<&Range>) -> Range) {
        let var = upper(var);
        match self.scalars.iter_mut().find(|(n, _)| **n == *var) {
            Some((_, slot)) => *slot = Arc::new(make(Some(slot))),
            None => self.scalars.push((Arc::from(&*var), Arc::new(make(None)))),
        }
    }

    /// Set (or refine) the range of a scalar variable.
    pub fn set(&mut self, var: impl AsRef<str>, range: Range) {
        self.put(var.as_ref(), |known| match known {
            Some(existing) => existing.refine(&range),
            None => range,
        });
    }

    /// Replace a variable's range outright (used when entering a new
    /// scope for the same name, e.g. a reused loop index).
    pub fn set_fresh(&mut self, var: impl AsRef<str>, range: Range) {
        self.put(var.as_ref(), |_| range);
    }

    pub fn get(&self, var: &str) -> Option<&Range> {
        let var = upper(var);
        self.scalars.iter().find(|(n, _)| **n == *var).map(|(_, r)| &**r)
    }

    /// Kill every fact that becomes stale when `var` is reassigned:
    /// [`RangeEnv::invalidate_all`] of the one name.
    pub fn invalidate(&mut self, var: &str) {
        let var = upper(var);
        self.kill(|n| *n == *var);
    }

    /// Kill every fact that becomes stale when the variables `names` are
    /// reassigned: each one's own range, any range whose bounds mention
    /// one of them, and any registered array-value range mentioning one.
    /// This is what makes the flow-sensitive range propagation of
    /// `polaris-core` sound. One pass over the environment for the whole
    /// set, leaving what invalidating each name in turn would leave.
    pub fn invalidate_all<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        let mut names: Vec<Cow<'a, str>> = names.into_iter().map(upper).collect();
        if names.is_empty() {
            return;
        }
        names.sort_unstable();
        names.dedup();
        self.kill(|n| names.binary_search_by(|k| (**k).cmp(n)).is_ok());
    }

    /// Drop every scalar and array-value fact that is about a name `hit`
    /// accepts or whose bounds mention one; each bound's atoms are walked
    /// once, whatever `hit` stands for.
    fn kill(&mut self, hit: impl Fn(&str) -> bool) {
        let stale = |n: &str, r: &Range| {
            hit(n) || [&r.lo, &r.hi].into_iter().flatten().any(|p| p.mentions_any(&hit))
        };
        self.scalars.retain(|(n, r)| !stale(n, r));
        self.array_values.retain(|n, r| !stale(n, r));
    }

    /// Elimination order, innermost (latest) last.
    pub(crate) fn order(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.scalars.iter().map(|(n, _)| &**n)
    }

    /// Register value bounds for the elements of `array`.
    pub fn set_array_values(&mut self, array: impl AsRef<str>, range: Range) {
        self.array_values.insert(Arc::from(&*upper(array.as_ref())), Arc::new(range));
    }

    /// Assume both the loop-variable range of `DO var = init, limit` *and*
    /// the fact that the loop body executes (`init <= limit`), which is
    /// the valid assumption when the analysis target lives inside the
    /// body. This is what licenses the paper's `n >= 1` reasoning for a
    /// `DO J = 0, N-1` nest. The caller swaps the bounds for a negative
    /// step. Each bound is converted once, with [`DivPolicy::Opaque`] —
    /// loop bounds in source text cannot be assumed exact divisions.
    pub fn assume_nonempty_loop(&mut self, var: &str, init: &Expr, limit: &Expr) {
        let lo = Poly::from_expr(init, DivPolicy::Opaque);
        let hi = Poly::from_expr(limit, DivPolicy::Opaque);
        let runs = match (&lo, &hi) {
            (Some(lo), Some(hi)) => nonneg_gap(BinOp::Le, lo, hi),
            _ => None,
        };
        self.set_fresh(var, Range::new(lo, hi));
        if let Some((d, exact)) = runs {
            self.assume_nonneg(&d, exact);
        }
    }

    /// Assume a boolean condition holds (the true edge of an IF or an
    /// `!$ASSERT`). Conjunctions recurse; relations where one side is a
    /// bare variable tighten that variable's range; everything else is
    /// ignored (conservative).
    pub fn assume_cond(&mut self, cond: &Expr) {
        match cond {
            Expr::Bin { op: BinOp::And, lhs, rhs } => {
                self.assume_cond(lhs);
                self.assume_cond(rhs);
            }
            Expr::Bin { op, lhs, rhs } if op.is_relational() => {
                self.assume_relation(*op, lhs, rhs);
            }
            _ => {}
        }
    }

    fn assume_relation(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) {
        let (Some(l), Some(r)) =
            (Poly::from_expr(lhs, DivPolicy::Opaque), Poly::from_expr(rhs, DivPolicy::Opaque))
        else {
            return;
        };
        if let Some((d, exact)) = nonneg_gap(op, &l, &r) {
            self.assume_nonneg(&d, exact);
        }
    }

    /// Assume `d >= 0` (and `d <= 0` too, when `exact`): solve for each
    /// variable that occurs linearly with a constant coefficient.
    fn assume_nonneg(&mut self, d: &Poly, exact: bool) {
        for v in d.vars() {
            let Some(parts) = d.by_powers_of(&v) else { continue };
            if parts.len() != 2 {
                continue;
            }
            let Some(c) = parts[1].as_constant() else { continue };
            if c.is_zero() {
                continue;
            }
            // c*v + rest >= 0  ⇒  v >= -rest/c (c>0)  or  v <= -rest/c (c<0)
            let Some(inv) = crate::rat::Rat::new(-c.den(), c.num()) else { continue };
            let Some(bound) = parts[0].checked_scale(inv) else { continue };
            if bound.mentions_var(&v) {
                continue;
            }
            if exact {
                self.set(&v, Range::exact(bound));
            } else if c.signum() > 0 {
                self.set(&v, Range::at_least(bound));
            } else {
                self.set(&v, Range::at_most(bound));
            }
        }
    }

    /// Range of an arbitrary atom: variables use their tracked range;
    /// `MOD(x, c)` with positive constant `c` is `[0, c-1]`; an array
    /// reference uses registered whole-array value bounds; anything else
    /// is unknown.
    pub fn atom_range(&self, atom: &Atom) -> Cow<'_, Range> {
        fn known(r: Option<&Range>) -> Cow<'_, Range> {
            r.map_or(Cow::Owned(Range::unknown()), Cow::Borrowed)
        }
        match atom {
            Atom::Var(n) => known(self.get(n)),
            Atom::Opaque { expr, .. } => match expr.as_ref() {
                Expr::Call { name, args } if name == "MOD" && args.len() == 2 => {
                    match args[1].simplified().as_int() {
                        Some(c) if c > 0 => Cow::Owned(Range::consts(0, (c - 1) as i128)),
                        _ => Cow::Owned(Range::unknown()),
                    }
                }
                Expr::Index { array, .. } => {
                    known(self.array_values.get(array.as_str()).map(|r| &**r))
                }
                _ => Cow::Owned(Range::unknown()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn loop_assumption_sets_bounds_and_nonemptiness() {
        let mut env = RangeEnv::new();
        env.assume_nonempty_loop("I", &Expr::int(1), &Expr::var("N"));
        let r = env.get("I").unwrap();
        assert_eq!(r.lo, Some(Poly::int(1)));
        assert_eq!(r.hi, Some(Poly::var("N")));
        // `1 <= N`, solved for N.
        assert_eq!(env.get("N"), Some(&Range::at_least(Poly::int(1))));
        assert_eq!(env.order().collect::<Vec<_>>(), ["I", "N"]);
    }

    #[test]
    fn conditions_tighten() {
        let mut env = RangeEnv::new();
        // (n >= 1) .and. (n < 100)
        let cond = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Ge, Expr::var("N"), Expr::int(1)),
            Expr::bin(BinOp::Lt, Expr::var("N"), Expr::int(100)),
        );
        env.assume_cond(&cond);
        let r = env.get("N").unwrap();
        assert_eq!(r.lo, Some(Poly::int(1)));
        assert_eq!(r.hi, Some(Poly::int(99)));
    }

    #[test]
    fn swapped_relation_sides() {
        let mut env = RangeEnv::new();
        // 3 <= k   means  k >= 3
        env.assume_cond(&Expr::bin(BinOp::Le, Expr::int(3), Expr::var("K")));
        assert_eq!(env.get("K").unwrap().lo, Some(Poly::int(3)));
    }

    #[test]
    fn equality_gives_exact_range() {
        let mut env = RangeEnv::new();
        env.assume_cond(&Expr::bin(BinOp::Eq, Expr::var("M"), Expr::var("N")));
        assert_eq!(env.get("M").unwrap().as_exact(), Some(&Poly::var("N")));
    }

    #[test]
    fn mod_atom_range() {
        let env = RangeEnv::new();
        let atom = Atom::opaque(Expr::call("MOD", vec![Expr::var("X"), Expr::int(8)]));
        let r = env.atom_range(&atom);
        assert_eq!(r.hi, Some(Poly::int(7)));
    }

    #[test]
    fn array_value_ranges() {
        let mut env = RangeEnv::new();
        env.set_array_values("IND", Range::consts(1, 99));
        let atom = Atom::opaque(Expr::index("IND", vec![Expr::var("L")]));
        assert_eq!(*env.atom_range(&atom), Range::consts(1, 99));
        // unrelated array unknown
        let other = Atom::opaque(Expr::index("FOO", vec![Expr::var("L")]));
        assert!(env.atom_range(&other).is_unknown());
    }

    fn nest() -> RangeEnv {
        let mut env = RangeEnv::new();
        env.set("N", Range::at_least(Poly::int(1)));
        env.set_fresh("I", Range::new(Some(Poly::int(1)), Some(Poly::var("N"))));
        env.set_fresh("J", Range::new(Some(Poly::int(1)), Some(Poly::var("I"))));
        env.set_array_values("IND", Range::new(Some(Poly::int(1)), Some(Poly::var("I"))));
        env
    }

    fn ind() -> Atom {
        Atom::opaque(Expr::index("IND", vec![Expr::var("L")]))
    }

    #[test]
    fn a_clone_is_a_layer_that_shares_every_bound() {
        let base = nest();
        let mut layer = base.clone();
        // Nothing was copied: the layer's ranges are the base's.
        for v in ["N", "I", "J"] {
            assert!(std::ptr::eq(base.get(v).unwrap(), layer.get(v).unwrap()));
        }
        assert!(std::ptr::eq(&*base.atom_range(&ind()), &*layer.atom_range(&ind())));
        // Facts set in the layer — new, replaced or refined — stay in it.
        layer.set_fresh("K", Range::consts(0, 7));
        layer.set_fresh("J", Range::consts(2, 3));
        layer.set("N", Range::at_most(Poly::int(100)));
        assert_eq!(layer.order().collect::<Vec<_>>(), ["N", "I", "J", "K"]);
        assert_eq!(layer.get("N").unwrap().hi, Some(Poly::int(100)));
        drop(layer);
        assert_eq!(base.order().collect::<Vec<_>>(), ["N", "I", "J"]);
        assert!(base.get("K").is_none());
        assert_eq!(base.get("J").unwrap().hi, Some(Poly::var("I")));
        assert_eq!(base.get("N").unwrap().hi, None);
    }

    #[test]
    fn invalidate_through_a_layer_hides_base_facts_in_the_layer_only() {
        let base = nest();
        let mut layer = base.clone();
        layer.invalidate("i");
        // What a deep copy, invalidated, would hold: I itself, J (bounded
        // by I) and IND's values (bounded by I) are gone, N stays.
        assert_eq!(layer.order().collect::<Vec<_>>(), ["N"]);
        assert!(layer.get("I").is_none() && layer.get("J").is_none());
        assert!(layer.atom_range(&ind()).is_unknown());
        assert_eq!(layer.get("N"), base.get("N"));
        // The base still sees all of it, in its order.
        assert_eq!(base.order().collect::<Vec<_>>(), ["N", "I", "J"]);
        assert_eq!(base.get("J").unwrap().hi, Some(Poly::var("I")));
        assert_eq!(*base.atom_range(&ind()), Range::new(Some(Poly::int(1)), Some(Poly::var("I"))));
    }

    #[test]
    fn lookups_fold_case_only_when_they_must() {
        let mut env = nest();
        assert_eq!(env.get("j"), env.get("J"));
        assert!(env.get("j").is_some());
        env.set_fresh("k", Range::consts(0, 1));
        assert_eq!(env.get("K"), Some(&Range::consts(0, 1)));
        env.invalidate("k");
        assert!(env.get("K").is_none());
    }

    const NAMES: [&str; 6] = ["A", "B", "C", "D", "Z", "MOD"];

    /// A bound over `NAMES[v]`: the variable itself, inside an array
    /// element, inside an intrinsic, or as the array's name.
    fn bound(v: usize, shape: usize, k: i64) -> Option<Poly> {
        let var = Expr::var(NAMES[v]);
        let e = match shape {
            0 => Expr::add(var, Expr::int(k)),
            1 => Expr::index("Z", vec![var]),
            2 => Expr::call("MOD", vec![var, Expr::int(k + 1)]),
            3 => Expr::index(NAMES[v], vec![Expr::int(k)]),
            _ => Expr::int(k),
        };
        Poly::from_expr(&e, DivPolicy::Opaque)
    }

    proptest! {
        #[test]
        fn prop_one_kill_per_set_leaves_what_kills_in_turn_leave(
            scalars in vec((0usize..6, 0usize..6, 0usize..5, 0i64..4, any::<bool>()), 0..9),
            arrays in vec((0usize..6, 0usize..6, 0usize..5, 0i64..4), 0..4),
            killed in vec((0usize..7, any::<bool>()), 0..5),
        ) {
            let mut env = RangeEnv::new();
            for (name, v, shape, k, exact) in scalars {
                let b = bound(v, shape, k);
                let lo = if exact { b.clone() } else { Some(Poly::int(0)) };
                env.set_fresh(NAMES[name], Range::new(lo, b));
            }
            for (name, v, shape, k) in arrays {
                env.set_array_values(NAMES[name], Range::new(bound(v, shape, k), None));
            }
            // Index 6 names nothing in the environment; odd ones are
            // spelled in lower case.
            let killed: Vec<String> = killed
                .into_iter()
                .map(|(i, lower)| {
                    let n = NAMES.get(i).copied().unwrap_or("Q");
                    if lower { n.to_ascii_lowercase() } else { n.to_string() }
                })
                .collect();
            let mut in_turn = env.clone();
            for n in &killed {
                in_turn.invalidate(n);
            }
            env.invalidate_all(killed.iter().map(String::as_str));
            prop_assert_eq!(format!("{env:?}"), format!("{in_turn:?}"));
        }
    }
}

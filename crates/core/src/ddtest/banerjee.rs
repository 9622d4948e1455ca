//! Banerjee's inequalities with direction vectors.
//!
//! The representative of the "very accurate and efficient" classical
//! tests the paper describes — and the baseline the range test is
//! compared against: it "require[s] the loop bounds and array subscripts
//! to be represented as a linear (affine) function of loop index
//! variables" with *integer constant* coefficients, and in the
//! directed form "may test as many as O(3^n) direction vectors".
//!
//! The question answered is whether `f(i₁..iₙ) = g(i′₁..i′ₙ)` can hold
//! under a direction constraint per common loop (`<`, `=`, `>` or `*`),
//! by bounding `h = f - g` over the constrained iteration space: if
//! `0 ∉ [min h, max h]` the direction vector carries no dependence.

use super::{DdStats, Dir};
use std::ops::ControlFlow;

/// One common loop of the pair: coefficient of the loop variable in each
/// reference and the loop's integer box. A bound that is not a known
/// constant is `None` — unbounded on that side, never a stand-in value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coupled {
    /// Coefficient in the first (source) reference.
    pub(crate) a: i128,
    /// Coefficient in the second (sink) reference.
    pub(crate) b: i128,
    pub(crate) lo: Option<i128>,
    pub(crate) hi: Option<i128>,
}

/// A loop enclosing only one of the two references (always direction
/// `*`, one free variable).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Free {
    pub(crate) c: i128,
    pub(crate) lo: Option<i128>,
    pub(crate) hi: Option<i128>,
}

/// An endpoint of an interval over the extended integers: `None` is −∞
/// where a minimum is meant and +∞ where a maximum is. Every operation
/// is checked; an overflow widens the endpoint to `None`.
type End = Option<i128>;

fn add(x: End, y: End) -> End {
    x?.checked_add(y?)
}

/// `[lo, hi]` is known to hold no integer.
fn empty(lo: End, hi: End) -> bool {
    matches!((lo, hi), (Some(lo), Some(hi)) if lo > hi)
}

/// Minimum of `c * x` for `x ∈ [lo, hi]`.
fn scaled_min(c: i128, lo: End, hi: End) -> End {
    match c.signum() {
        0 => Some(0),
        1 => c.checked_mul(lo?),
        _ => c.checked_mul(hi?),
    }
}

/// Maximum of `c * x` for `x ∈ [lo, hi]`.
fn scaled_max(c: i128, lo: End, hi: End) -> End {
    scaled_min(c, hi, lo)
}

/// `[min, max]` of `a*i - b*i'` for `i, i' ∈ [lo, hi]` under `dir`.
/// Returns `None` when the constraint is infeasible (e.g. `<` in a
/// single-iteration loop) — an infeasible vector carries no dependence.
fn coupled_bounds(t: &Coupled, dir: Dir) -> Option<(End, End)> {
    let Coupled { a, b, lo, hi } = *t;
    if empty(lo, hi) {
        return None; // empty loop: no iterations at all
    }
    // A coefficient whose negation or difference overflows says nothing.
    const UNBOUNDED: Option<(End, End)> = Some((None, None));
    match dir {
        Dir::Any => {
            let Some(nb) = b.checked_neg() else { return UNBOUNDED };
            Some((
                add(scaled_min(a, lo, hi), scaled_min(nb, lo, hi)),
                add(scaled_max(a, lo, hi), scaled_max(nb, lo, hi)),
            ))
        }
        Dir::Eq => {
            let Some(c) = a.checked_sub(b) else { return UNBOUNDED };
            Some((scaled_min(c, lo, hi), scaled_max(c, lo, hi)))
        }
        Dir::Lt => {
            // i < i' :  L <= i <= i'-1,  L+1 <= i' <= U
            let lo1 = lo.and_then(|l| l.checked_add(1));
            if empty(lo1, hi) {
                return None;
            }
            let Some(na) = a.checked_neg() else { return UNBOUNDED };
            let (pa, na) = (a.max(0), na.max(0));
            // max: inner max over i of a*i is pa*(i'-1) - na*L
            //   φ(i') = (pa - b)*i' - pa - na*L, i' in [L+1, U]
            let max = pa.checked_sub(b).and_then(|ca| {
                add(add(scaled_max(ca, lo1, hi), scaled_max(-na, lo, hi)), Some(-pa))
            });
            // min: inner min over i of a*i is pa*L - na*(i'-1)
            //   ψ(i') = (-na - b)*i' + na + pa*L
            let min = (-na).checked_sub(b).and_then(|cb| {
                add(add(scaled_min(cb, lo1, hi), scaled_min(pa, lo, hi)), Some(na))
            });
            Some((min, max))
        }
        Dir::Gt => {
            // a*i - b*i' with i > i'  ==  -(b*j - a*j') with j < j'
            let swapped = Coupled { a: b, b: a, lo, hi };
            let (min, max) = coupled_bounds(&swapped, Dir::Lt)?;
            Some((max.and_then(i128::checked_neg), min.and_then(i128::checked_neg)))
        }
    }
}

/// Does the direction vector `dirs` (one entry per `common` loop) admit
/// a solution of `h = c0 + Σ coupled + Σ free = 0`? `false` = proven
/// independent for this vector: only a *finite* endpoint on the wrong
/// side of zero excludes it.
pub(crate) fn vector_dependence_possible(
    c0: i128,
    common: &[Coupled],
    dirs: &[Dir],
    free: &[Free],
    stats: &DdStats,
) -> bool {
    debug_assert_eq!(common.len(), dirs.len());
    stats.banerjee_vectors.set(stats.banerjee_vectors.get() + 1);
    let mut min = Some(c0);
    let mut max = Some(c0);
    for (t, d) in common.iter().zip(dirs) {
        match coupled_bounds(t, *d) {
            Some((lo, hi)) => {
                min = add(min, lo);
                max = add(max, hi);
            }
            None => return false, // infeasible constraint: no dependence
        }
    }
    for f in free {
        if empty(f.lo, f.hi) {
            return false;
        }
        min = add(min, scaled_min(f.c, f.lo, f.hi));
        max = add(max, scaled_max(f.c, f.lo, f.hi));
    }
    min.is_none_or(|m| m <= 0) && max.is_none_or(|m| 0 <= m)
}

/// Can the pair carry a dependence at common-loop position `carrier`?
/// Tests the vector family (=, ..., =, <|>, *, ..., *), hierarchically
/// refining `*` entries while any refinement might still prove
/// independence. Returns `false` iff *no* leaf vector admits a solution
/// — a proof that loop `carrier` carries no dependence between the pair.
pub(crate) fn carried_dependence_possible(
    c0: i128,
    common: &[Coupled],
    carrier: usize,
    free: &[Free],
    stats: &DdStats,
) -> bool {
    debug_assert!(carrier < common.len());
    [Dir::Lt, Dir::Gt].into_iter().any(|cdir| {
        let mut dirs = vec![Dir::Any; common.len()];
        dirs[..carrier].fill(Dir::Eq);
        dirs[carrier] = cdir;
        // Stop at the first leaf vector still possibly dependent.
        let mut first_feasible_leaf = |dirs: &[Dir], possible: bool| {
            if possible && !dirs.contains(&Dir::Any) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        refine(c0, common, &mut dirs, carrier + 1, free, stats, &mut first_feasible_leaf).is_break()
    })
}

/// One Banerjee query over a concrete direction vector, as issued by the
/// hierarchical refinement: the vector tried (entries may be [`Dir::Any`]
/// for interior nodes of the refinement tree) and its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DirTrial {
    /// Direction per common loop, outermost first.
    pub(crate) dirs: Vec<Dir>,
    /// `true` — the vector may carry a dependence; `false` — proven
    /// independent (and, for an interior node, so is its whole subtree).
    pub(crate) possible: bool,
}

impl DirTrial {
    /// A fully-refined vector (no `*` entries left).
    pub(crate) fn is_leaf(&self) -> bool {
        !self.dirs.contains(&Dir::Any)
    }
}

/// Run the full O(3^n) hierarchical refinement from the all-`*` root and
/// return **every** per-direction-vector trial in issue order. This is
/// the un-summarized form of [`carried_dependence_possible`]: the nest
/// summarizer reads the feasible leaves — trials with
/// [`DirTrial::possible`] and [`DirTrial::is_leaf`] — without re-running
/// any Banerjee query. Infeasible interior nodes are reported as-is:
/// their entire subtree is independent.
pub(crate) fn direction_vector_trials(
    c0: i128,
    common: &[Coupled],
    free: &[Free],
    stats: &DdStats,
) -> Vec<DirTrial> {
    let mut dirs = vec![Dir::Any; common.len()];
    let mut trials = Vec::new();
    let mut record = |dirs: &[Dir], possible: bool| {
        trials.push(DirTrial { dirs: dirs.to_vec(), possible });
        ControlFlow::Continue(())
    };
    let _ = refine(c0, common, &mut dirs, 0, free, stats, &mut record);
    trials
}

/// The feasible fully-refined vectors of [`direction_vector_trials`].
pub(crate) fn feasible_leaves(trials: &[DirTrial]) -> Vec<Vec<Dir>> {
    trials.iter().filter(|t| t.possible && t.is_leaf()).map(|t| t.dirs.clone()).collect()
}

/// Hierarchical refinement, depth first: query `dirs`, show the verdict
/// to `visit`, and while the vector is still possibly dependent split its
/// next `*` entry (from position `next` on) into `<`, `=`, `>`. An
/// independent vector prunes its whole subtree; `visit` may stop the
/// walk by breaking.
fn refine(
    c0: i128,
    common: &[Coupled],
    dirs: &mut [Dir],
    next: usize,
    free: &[Free],
    stats: &DdStats,
    visit: &mut dyn FnMut(&[Dir], bool) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let possible = vector_dependence_possible(c0, common, dirs, free, stats);
    visit(dirs, possible)?;
    if !possible {
        return ControlFlow::Continue(());
    }
    let Some(split) = (next..dirs.len()).find(|&k| dirs[k] == Dir::Any) else {
        return ControlFlow::Continue(());
    };
    for d in [Dir::Lt, Dir::Eq, Dir::Gt] {
        dirs[split] = d;
        refine(c0, common, dirs, split + 1, free, stats, visit)?;
    }
    dirs[split] = Dir::Any;
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn st() -> DdStats {
        DdStats::new()
    }

    #[test]
    fn disjoint_halves_independent() {
        // A(i) vs A(i' + 100), i,i' in [1,50]: h = i - i' - 100 < 0 always.
        let common = [Coupled { a: 1, b: 1, lo: Some(1), hi: Some(50) }];
        let stats = st();
        assert!(!carried_dependence_possible(-100, &common, 0, &[], &stats));
    }

    #[test]
    fn same_subscript_carries_nothing() {
        // A(i) write vs A(i) write: h = i - i' = 0 under '<' impossible.
        let common = [Coupled { a: 1, b: 1, lo: Some(1), hi: Some(100) }];
        let stats = st();
        assert!(!carried_dependence_possible(0, &common, 0, &[], &stats));
    }

    #[test]
    fn shifted_subscript_carries() {
        // A(i) vs A(i'-1): i = i' - 1 has solutions with i < i'.
        let common = [Coupled { a: 1, b: 1, lo: Some(1), hi: Some(100) }];
        let stats = st();
        assert!(carried_dependence_possible(1, &common, 0, &[], &stats));
    }

    #[test]
    fn outer_carries_inner_does_not() {
        // A(i, j) vs A(i'-1, j'): outer carries (distance 1), and for the
        // inner loop as carrier (outer '='), i = i'-1 with i = i' is
        // impossible → inner independent.
        let common = [
            Coupled { a: 1, b: 1, lo: Some(1), hi: Some(10) }, // i coefficient (dim collapsed)
        ];
        // Model the 2-d case with linearized subscripts: f = 100 i + j,
        // g = 100 i' - 100 + j'.
        let common2 = [
            Coupled { a: 100, b: 100, lo: Some(1), hi: Some(10) },
            Coupled { a: 1, b: 1, lo: Some(1), hi: Some(50) },
        ];
        let stats = st();
        let _ = common;
        assert!(carried_dependence_possible(100, &common2, 0, &[], &stats));
        assert!(!carried_dependence_possible(100, &common2, 1, &[], &stats));
    }

    #[test]
    fn stride_two_independent() {
        // A(2i) vs A(2i'+1): h = 2(i-i') - 1; for any carried direction
        // (i != i') the interval excludes 0, so directed Banerjee proves
        // it — and the GCD test proves it for every direction at once.
        let common = [Coupled { a: 2, b: 2, lo: Some(1), hi: Some(10) }];
        let stats = st();
        assert!(!carried_dependence_possible(-1, &common, 0, &[], &stats));
        assert!(super::super::gcd::independent(-1, [2, 2], &stats));
    }

    #[test]
    fn free_variable_widens() {
        // f = i, g = i' + k (k in [0, 5] only under g's nest):
        // h = i - i' - k; carried at loop 0? i < i', i - i' in [-9, -1],
        // minus k in [-5, 0] → h in [-14, -1]: never 0 → independent!
        let common = [Coupled { a: 1, b: 1, lo: Some(1), hi: Some(10) }];
        let free = [Free { c: -1, lo: Some(0), hi: Some(5) }];
        let stats = st();
        // only testing '<' side here by construction: '>' side gives
        // i - i' in [1, 9] minus k in [-5,0] → [−4, 9] contains 0 → dep.
        assert!(carried_dependence_possible(0, &common, 0, &free, &stats));
        // with a shift making both directions safe:
        assert!(!carried_dependence_possible(-100, &common, 0, &free, &stats));
    }

    #[test]
    fn counts_vectors() {
        let stats = st();
        let common = [
            Coupled { a: 1, b: 1, lo: Some(1), hi: Some(4) },
            Coupled { a: 7, b: 7, lo: Some(1), hi: Some(4) },
            Coupled { a: 31, b: 31, lo: Some(1), hi: Some(4) },
        ];
        let _ = carried_dependence_possible(1, &common, 0, &[], &stats);
        assert!(stats.banerjee_vectors.get() > 2, "refinement should recurse");
    }

    #[test]
    fn empty_loop_is_independent() {
        let common = [Coupled { a: 1, b: 1, lo: Some(5), hi: Some(4) }];
        let stats = st();
        assert!(!carried_dependence_possible(0, &common, 0, &[], &stats));
    }

    #[test]
    fn unknown_bound_is_unbounded_not_a_wide_box() {
        // A(i) vs A(i' + 40000000): a distance no finite stand-in for an
        // unknown trip count may rule out, but a known one does.
        let stats = st();
        let open = [Coupled { a: 1, b: 1, lo: Some(1), hi: None }];
        assert!(carried_dependence_possible(-40_000_000, &open, 0, &[], &stats));
        let closed = [Coupled { a: 1, b: 1, lo: Some(1), hi: Some(1000) }];
        assert!(!carried_dependence_possible(-40_000_000, &closed, 0, &[], &stats));
        // Overflow widens instead of wrapping.
        let huge = [Coupled { a: i128::MAX, b: 1, lo: Some(2), hi: Some(3) }];
        assert!(vector_dependence_possible(1, &huge, &[Dir::Any], &[], &stats));
    }

    #[test]
    fn trials_expose_every_query_and_agree_with_carried() {
        // A(i, j) vs A(i'-1, j') (linearized): the outer loop carries a
        // distance-1 dependence, the inner carries nothing.
        let common = [
            Coupled { a: 100, b: 100, lo: Some(1), hi: Some(10) },
            Coupled { a: 1, b: 1, lo: Some(1), hi: Some(50) },
        ];
        let stats = st();
        let trials = direction_vector_trials(100, &common, &[], &stats);
        // Every trial was really issued against the Banerjee core.
        assert_eq!(trials.len() as u64, stats.banerjee_vectors.get());
        let leaves = feasible_leaves(&trials);
        // The true dependence (<, =) survives; every feasible leaf is
        // outer-carried (the intervals prove `=` and `>` outer
        // directions independent, though they cannot separate the inner
        // direction on a linearized subscript).
        assert!(leaves.contains(&vec![Dir::Lt, Dir::Eq]), "{leaves:?}");
        assert!(leaves.iter().all(|v| v[0] == Dir::Lt), "{leaves:?}");
        // Consistency with the summarized query: outer carries, inner
        // does not.
        assert!(carried_dependence_possible(100, &common, 0, &[], &stats));
        assert!(!carried_dependence_possible(100, &common, 1, &[], &stats));
    }

    #[test]
    fn trials_on_independent_pair_are_one_infeasible_root() {
        let common = [Coupled { a: 1, b: 1, lo: Some(1), hi: Some(50) }];
        let stats = st();
        let trials = direction_vector_trials(-100, &common, &[], &stats);
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].dirs, vec![Dir::Any]);
        assert!(!trials[0].possible);
        assert!(feasible_leaves(&trials).is_empty());
    }

    // ---- brute force oracles ------------------------------------------

    fn brute_force_vector(
        c0: i128,
        common: &[Coupled],
        dirs: &[Dir],
        free: &[Free],
    ) -> bool {
        // enumerate all (i, i') per common loop and x per free var
        fn rec_common(
            k: usize,
            c0: i128,
            common: &[Coupled],
            dirs: &[Dir],
            free: &[Free],
            acc: i128,
        ) -> bool {
            if k == common.len() {
                return rec_free(0, c0, free, acc);
            }
            let t = common[k];
            let (lo, hi) = (t.lo.unwrap(), t.hi.unwrap());
            for i in lo..=hi {
                for ip in lo..=hi {
                    let ok = match dirs[k] {
                        Dir::Any => true,
                        Dir::Lt => i < ip,
                        Dir::Eq => i == ip,
                        Dir::Gt => i > ip,
                    };
                    if ok && rec_common(k + 1, c0, common, dirs, free, acc + t.a * i - t.b * ip)
                    {
                        return true;
                    }
                }
            }
            false
        }
        fn rec_free(k: usize, c0: i128, free: &[Free], acc: i128) -> bool {
            if k == free.len() {
                return c0 + acc == 0;
            }
            let f = free[k];
            (f.lo.unwrap()..=f.hi.unwrap()).any(|x| rec_free(k + 1, c0, free, acc + f.c * x))
        }
        rec_common(0, c0, common, dirs, free, 0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The Banerjee interval must CONTAIN every value h takes, so a
        /// "no dependence" verdict must agree with brute force.
        #[test]
        fn prop_vector_test_is_sound(
            a in -4i128..5, b in -4i128..5, lo in -3i128..3, len in 0i128..4,
            c0 in -20i128..20, dir_idx in 0usize..4,
        ) {
            let dir = [Dir::Any, Dir::Lt, Dir::Eq, Dir::Gt][dir_idx];
            let common = [Coupled { a, b, lo: Some(lo), hi: Some(lo + len) }];
            let stats = st();
            let verdict = vector_dependence_possible(c0, &common, &[dir], &[], &stats);
            let truth = brute_force_vector(c0, &common, &[dir], &[]);
            // verdict=false must imply truth=false (soundness).
            prop_assert!(verdict || !truth, "unsound: said independent but {c0} {a} {b} solvable");
        }

        /// For single-variable terms the Banerjee bound is exact, so the
        /// verdict should equal brute force (completeness check).
        #[test]
        fn prop_single_loop_exact(
            a in -4i128..5, b in -4i128..5, lo in -3i128..3, len in 0i128..4,
            c0 in -10i128..10, dir_idx in 0usize..4,
        ) {
            let dir = [Dir::Any, Dir::Lt, Dir::Eq, Dir::Gt][dir_idx];
            let common = [Coupled { a, b, lo: Some(lo), hi: Some(lo + len) }];
            let stats = st();
            let verdict = vector_dependence_possible(c0, &common, &[dir], &[], &stats);
            let truth = brute_force_vector(c0, &common, &[dir], &[]);
            // With one coupled term the real-valued extrema are attained
            // at integer points, but an interior zero of a non-unit-
            // coefficient term may not be integer: only soundness is
            // exact in general. For equal unit coefficients (the common
            // `A(i±c)` case) the test is exact.
            if a == b && a.abs() <= 1 {
                prop_assert_eq!(verdict, truth);
            } else {
                prop_assert!(verdict || !truth);
            }
        }

        /// The recorded trial tree is sound per leaf: a fully-refined
        /// vector missing from the feasible set must really admit no
        /// solution (pruning at an interior node may not hide one).
        #[test]
        fn prop_trials_sound_per_leaf(
            a1 in -3i128..4, b1 in -3i128..4,
            a2 in -3i128..4, b2 in -3i128..4,
            c0 in -12i128..12,
        ) {
            let common = [
                Coupled { a: a1, b: b1, lo: Some(0), hi: Some(3) },
                Coupled { a: a2, b: b2, lo: Some(0), hi: Some(3) },
            ];
            let stats = st();
            let leaves = feasible_leaves(&direction_vector_trials(c0, &common, &[], &stats));
            for d1 in [Dir::Lt, Dir::Eq, Dir::Gt] {
                for d2 in [Dir::Lt, Dir::Eq, Dir::Gt] {
                    let v = vec![d1, d2];
                    if brute_force_vector(c0, &common, &v, &[]) {
                        prop_assert!(
                            leaves.contains(&v),
                            "solvable vector {v:?} missing from feasible leaves"
                        );
                    }
                }
            }
        }

        /// Widening is monotone: hiding any subset of the bounds can only
        /// lose proofs, so "independent" over the widened box implies
        /// "independent" over every finite box inside it — and a finite
        /// box never calls a solvable vector independent.
        #[test]
        fn prop_unknown_bounds_only_widen(
            a1 in -3i128..4, b1 in -3i128..4, lo1 in -3i128..3, len1 in 0i128..6,
            a2 in -3i128..4, b2 in -3i128..4, lo2 in -3i128..3, len2 in 0i128..6,
            c in -3i128..4, lo3 in -3i128..3, len3 in 0i128..6,
            c0 in -40i128..40, dir_idx in 0usize..16, hidden in 0u32..64,
        ) {
            let all = [Dir::Any, Dir::Lt, Dir::Eq, Dir::Gt];
            let dirs = [all[dir_idx % 4], all[dir_idx / 4]];
            let hide = |bit: u32, v: i128| (hidden & (1 << bit) == 0).then_some(v);
            let common = [
                Coupled { a: a1, b: b1, lo: Some(lo1), hi: Some(lo1 + len1) },
                Coupled { a: a2, b: b2, lo: Some(lo2), hi: Some(lo2 + len2) },
            ];
            let free = [Free { c, lo: Some(lo3), hi: Some(lo3 + len3) }];
            let widened = [
                Coupled { lo: hide(0, lo1), hi: hide(1, lo1 + len1), ..common[0] },
                Coupled { lo: hide(2, lo2), hi: hide(3, lo2 + len2), ..common[1] },
            ];
            let widened_free = [Free { c, lo: hide(4, lo3), hi: hide(5, lo3 + len3) }];
            let stats = st();
            let wide = vector_dependence_possible(c0, &widened, &dirs, &widened_free, &stats);
            let finite = vector_dependence_possible(c0, &common, &dirs, &free, &stats);
            prop_assert!(wide || !finite, "hiding bounds {hidden:#b} gained a proof");
            prop_assert!(finite || !brute_force_vector(c0, &common, &dirs, &free), "unsound");
        }

        /// Carried-dependence enumeration is sound against brute force
        /// over both < and > leaves.
        #[test]
        fn prop_carried_sound(
            a1 in -3i128..4, b1 in -3i128..4,
            a2 in -3i128..4, b2 in -3i128..4,
            c0 in -12i128..12,
        ) {
            let common = [
                Coupled { a: a1, b: b1, lo: Some(0), hi: Some(3) },
                Coupled { a: a2, b: b2, lo: Some(0), hi: Some(3) },
            ];
            let stats = st();
            let verdict = carried_dependence_possible(c0, &common, 0, &[], &stats);
            let lt = brute_force_vector(c0, &common, &[Dir::Lt, Dir::Any], &[]);
            let gt = brute_force_vector(c0, &common, &[Dir::Gt, Dir::Any], &[]);
            prop_assert!(verdict || !(lt || gt), "unsound carried verdict");
        }
    }
}

//! Dead scalar-assignment elimination.
//!
//! Induction substitution inserts last-value assignments after every
//! loop it rewrites (§3.2); when the variable is dead the statement is
//! pure overhead — and worse, a dead `K = K + Σ…` inside an enclosing
//! loop body re-introduces a recurrence the dependence driver then has
//! to handle as a reduction. Polaris ran equivalent cleanup; this pass
//! removes assignments to scalars that are never read afterwards.
//!
//! Conservatism: a scalar is *observable* (never removed) if it is a
//! dummy argument, lives in COMMON, or is read anywhere in the unit at a
//! point the assignment could reach. Reachability is approximated
//! textually with the same rule as [`crate::privatize::live_after`]:
//! inside an enclosing loop, every read in that loop's body counts
//! (earlier reads see the value through the back edge). Only assignments
//! whose right-hand side is side-effect-free are candidates (all F-Mini
//! expressions are: intrinsics are pure and out-of-bounds reads cannot
//! occur in a value that is never used — the subscripts themselves are
//! still evaluated by Fortran, but our statement removal also removes
//! the subscript evaluation, which is observationally equivalent for
//! valid programs).

use crate::privatize::Liveness;
use polaris_ir::stmt::StmtKind;
use polaris_ir::ProgramUnit;

/// Statistics for reports/tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DceStats {
    pub removed: usize,
}

/// Run on one unit to a fixpoint (removing one dead store may kill the
/// uses that kept another alive).
pub fn run_unit(unit: &mut ProgramUnit) -> DceStats {
    let mut stats = DceStats::default();
    loop {
        let mut victims = Liveness::of(unit).dead_scalar_stores();
        if victims.is_empty() {
            break;
        }
        stats.removed += victims.len();
        victims.sort_unstable();
        // IF blocks left empty go too: the guarded last values.
        unit.body.retain(&mut |s| {
            victims.binary_search(&s.id).is_err()
                && !matches!(&s.kind, StmtKind::IfBlock { arms, else_body }
                    if arms.iter().all(|a| a.body.is_empty()) && else_body.is_empty())
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_ir::printer::print_program;

    fn run_src(src: &str) -> (String, DceStats) {
        let mut p = polaris_ir::parse(src).unwrap();
        let stats = run_unit(&mut p.units[0]);
        polaris_ir::validate::validate_program(&p).unwrap();
        (print_program(&p), stats)
    }

    #[test]
    fn dead_store_removed() {
        let (out, stats) = run_src("program t\nx = 1.0\ny = 2.0\nprint *, y\nend\n");
        assert_eq!(stats.removed, 1);
        assert!(!out.contains("X = 1.0"), "{out}");
        assert!(out.contains("Y = 2.0"));
    }

    #[test]
    fn chain_of_dead_stores_removed_to_fixpoint() {
        // y feeds x; both dead once x goes
        let (out, stats) = run_src("program t\ny = 2.0\nx = y + 1.0\nprint *, 'hi'\nend\n");
        assert_eq!(stats.removed, 2, "{out}");
    }

    #[test]
    fn live_through_loop_backedge_kept() {
        let (out, stats) =
            run_src("program t\nk = 0\ndo i = 1, 3\n  k = k + i\nend do\nprint *, k\nend\n");
        assert_eq!(stats.removed, 0, "{out}");
    }

    #[test]
    fn store_read_by_the_enclosing_if_on_the_back_edge_is_kept() {
        // Nothing after the loop reads M, but the next iteration's
        // `M > L` reads what `M = M + M` stored.
        let src = "program t\ninteger m, l\nm = 1\nl = 4\nv = 0.0\ndo j = 1, 10\n  if (m > l) then\n    v = v + 1.0\n  else\n    m = m + m\n  end if\nend do\nprint *, v\nend\n";
        let (out, stats) = run_src(src);
        assert_eq!(stats.removed, 0, "{out}");
        assert!(out.contains("M = M+M"), "{out}");
        // Same for a bound of an inner loop the store sits in.
        let src = "program t\ninteger m\nreal a(100)\nm = 1\ndo j = 1, 5\n  do k = 1, m\n    a(k) = 1.0\n    m = k + 1\n  end do\nend do\nprint *, a(1)\nend\n";
        let (out, stats) = run_src(src);
        assert_eq!(stats.removed, 0, "{out}");
    }

    #[test]
    fn guarded_dead_lastvalue_disappears_entirely() {
        // the shape induction inserts: IF (1 <= N) K = K + total
        let src = "program t\ninteger k\nk = 0\nif (1 <= n) then\n  k = k + 2*n\nend if\nprint *, 'done'\nend\n";
        let (out, stats) = run_src(src);
        assert!(stats.removed >= 1, "{out}");
        assert!(!out.contains("IF (1"), "empty guard should go too: {out}");
    }

    #[test]
    fn arguments_and_commons_are_observable() {
        let src = "subroutine s(x)\nreal x\nx = 1.0\nend\n";
        let mut p = polaris_ir::parse(src).unwrap();
        assert_eq!(run_unit(&mut p.units[0]).removed, 0);
        let src2 = "program t\ncommon /blk/ g\ng = 3.0\nend\n";
        let mut p2 = polaris_ir::parse(src2).unwrap();
        assert_eq!(run_unit(&mut p2.units[0]).removed, 0);
    }

    #[test]
    fn array_stores_never_touched() {
        let (out, stats) = run_src("program t\nreal a(4)\na(1) = 1.0\nend\n");
        assert_eq!(stats.removed, 0);
        assert!(out.contains("A(1) = 1.0"));
    }

    #[test]
    fn conditional_use_keeps_store() {
        let (_, stats) = run_src(
            "program t\nx = 1.0\nif (q > 0.0) then\n  print *, x\nend if\nend\n",
        );
        assert_eq!(stats.removed, 0);
    }
}

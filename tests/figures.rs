//! Integration tests reproducing the paper's worked figures (1–5) as
//! assertions over the whole pipeline. The evaluation figures (6, 7)
//! and Table 1 are covered by the `polaris-bench` harnesses and the
//! `polaris-benchmarks` suite tests.

use polaris::{parallelize, PassOptions};

/// Figure 1: substitution of cascaded inductions in a triangular nest.
#[test]
fn figure1_cascaded_inductions() {
    let src = "
      program fig1
      real b(100000)
      integer k1, k2
      k1 = 0
      k2 = 0
      do i = 1, n
        k1 = k1 + 1
        do j = 1, i
          k2 = k2 + k1
          b(k2) = 1.0
        end do
      end do
      end
";
    let out = parallelize(src, &PassOptions::polaris()).unwrap();
    assert_eq!(out.report.induction.additive_removed, 2, "{:#?}", out.report.induction);
    assert!(!out.annotated_source.contains("K2 = K2+"), "{}", out.annotated_source);
    // the closed form is cubic in I (sum over triangular nest of a
    // linear induction) — check the unparsed text carries a power
    assert!(
        out.annotated_source.contains("I**3") || out.annotated_source.contains("I**2"),
        "{}",
        out.annotated_source
    );
}

/// Figure 2: the TRFD/OLDA nest — all three loops parallel after
/// substitution, and the subscript is the paper's closed form.
#[test]
fn figure2_trfd() {
    let src = "
      program trfd
      real a(100000)
      integer x, x0
!$assert (n >= 1)
      x0 = 0
      do i = 0, m - 1
        x = x0
        do j = 0, n - 1
          do k = 0, j - 1
            x = x + 1
            a(x) = 1.0
          end do
        end do
        x0 = x0 + (n**2 + n)/2
      end do
      end
";
    let out = parallelize(src, &PassOptions::polaris()).unwrap();
    assert_eq!(out.report.parallel_loops(), 3, "{:#?}", out.report.loops);
    // baseline leaves the outer loops serial
    let vfa = parallelize(src, &PassOptions::vfa()).unwrap();
    assert!(!vfa.report.loop_report("do7").unwrap().parallel);
    assert!(!vfa.report.loop_report("do9").unwrap().parallel);
}

/// Figure 3: OCEAN/FTRVMT — parallel only via loop permutation.
#[test]
fn figure3_ocean_permutation() {
    let src = "
      program ocean
      real a(2000000)
      integer x
!$assert (x >= 1)
!$assert (zk >= 0)
      do k = 0, x - 1
        do j = 0, zk
          do i = 0, 128
            a(258*x*j + 129*k + i + 1) = 1.0
            a(258*x*j + 129*k + i + 1 + 129*x) = 2.0
          end do
        end do
      end do
      end
";
    let out = parallelize(src, &PassOptions::polaris()).unwrap();
    assert_eq!(out.report.parallel_loops(), 3, "{:#?}", out.report.loops);
    let (_, _, _, perms) = out.report.dd_counters;
    assert!(perms >= 1, "permutation step must be exercised");
    // without permutation the outer loop fails
    let mut opts = PassOptions::polaris();
    opts.permutation = false;
    let cut = parallelize(src, &opts).unwrap();
    assert!(!cut.report.loop_report("do7").unwrap().parallel, "{:#?}", cut.report.loops);
}

/// Figure 4: array privatization requiring the global MP = M*P fact.
#[test]
fn figure4_global_defuse() {
    let src = "
      program fig4
      real a(10000), b(100, 100), c(100, 100)
      integer mp, m, p
!$assert (m >= 1)
!$assert (p >= 1)
      mp = m*p
      do i = 1, 100
        do j = 1, mp
          a(j) = b(i, j)
        end do
        do k = 1, m*p
          c(i, k) = a(k)
        end do
      end do
      end
";
    let out = parallelize(src, &PassOptions::polaris()).unwrap();
    let outer = out.report.loop_report("do8").unwrap();
    assert!(outer.parallel && outer.private.contains(&"A".into()), "{outer:?}");
    // breaking the def-use fact (M redefined in between) kills the proof
    let broken = src.replace("      mp = m*p\n", "      mp = m*p\n      m = m + 1\n");
    let out2 = parallelize(&broken, &PassOptions::polaris()).unwrap();
    let outer2 = out2.report.loop_report("do9").unwrap();
    assert!(!outer2.parallel, "{outer2:?}");
}

/// Figure 5: the BDNA compaction idiom.
#[test]
fn figure5_bdna_compaction() {
    let src = "
      program fig5
      real a(500), x(500, 500), y(500, 500)
      integer ind(500), p, m
      do i = 2, n
        do j = 1, i - 1
          ind(j) = 0
          a(j) = x(i, j) - y(i, j)
          r = a(j) + w
          if (r .lt. rcuts) ind(j) = 1
        end do
        p = 0
        do k = 1, i - 1
          if (ind(k) .ne. 0) then
            p = p + 1
            ind(p) = k
          end if
        end do
        do l = 1, p
          m = ind(l)
          x(i, l) = a(m) + z
        end do
      end do
      end
";
    let out = parallelize(src, &PassOptions::polaris()).unwrap();
    let outer = out.report.loop_report("do5").unwrap();
    assert!(outer.parallel, "{outer:?}");
    for name in ["A", "IND", "P", "R", "M"] {
        assert!(outer.private.contains(&name.into()), "{name} missing: {outer:?}");
    }
    // the directive in the output carries the privatization
    assert!(out.annotated_source.contains("PRIVATE("), "{}", out.annotated_source);
}

/// §3.5: a loop with input-dependent subscripts is parallelized
/// speculatively and annotated as such.
#[test]
fn section35_speculative_annotation() {
    let src = "
      program spec
      real v(1000), e(1000)
      integer ipos(1000)
      do i = 1, 1000
        v(ipos(i)) = e(i)
      end do
      print *, v(1)
      end
";
    let out = parallelize(src, &PassOptions::polaris()).unwrap();
    assert_eq!(out.report.speculative_loops(), 1, "{:#?}", out.report.loops);
    assert!(out.annotated_source.contains("SPECULATIVE(V)"), "{}", out.annotated_source);
    // baseline: plain serial
    let vfa = parallelize(src, &PassOptions::vfa()).unwrap();
    assert_eq!(vfa.report.speculative_loops(), 0);
}

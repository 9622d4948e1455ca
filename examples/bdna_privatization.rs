//! Figures 4 and 5: array privatization.
//!
//! Figure 4 needs the *global def-use* fact `MP = M*P` to prove the
//! defined region `A(1:MP)` covers the used region `A(1:M*P)`.
//! Figure 5 (from BDNA) needs the compaction-idiom recognizer: the
//! values stored in `IND(1:P)` are loop indices from `[1, I-1]`, so the
//! uses `A(IND(L))` fall inside the defined region `A(1:I-1)`.
//!
//! ```sh
//! cargo run --example bdna_privatization
//! ```

use polaris::{parallelize, PassOptions};

const FIGURE4: &str = "
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

const FIGURE5: &str = "
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

fn main() {
    println!("=== Figure 4: MP = M*P proved through flow-sensitive ranges ===");
    let out4 = parallelize(FIGURE4, &PassOptions::polaris()).unwrap();
    let outer4 = out4.report.loop_report("do8").expect("outer loop");
    println!(
        "outer loop: parallel={} private={:?}",
        outer4.parallel, outer4.private
    );
    assert!(outer4.parallel);
    assert!(outer4.private.contains(&"A".into()), "{outer4:?}");

    println!();
    println!("=== Figure 5: the BDNA compaction idiom =======================");
    let out5 = parallelize(FIGURE5, &PassOptions::polaris()).unwrap();
    let outer5 = out5.report.loop_report("do5").expect("outer loop");
    println!(
        "outer loop: parallel={} private={:?}",
        outer5.parallel, outer5.private
    );
    assert!(outer5.parallel, "{outer5:?}");
    for name in ["A", "IND", "P", "R", "M"] {
        assert!(
            outer5.private.contains(&name.into()),
            "{name} should be private: {outer5:?}"
        );
    }
    println!();
    println!("without array privatization the same loop stays serial:");
    let mut off = PassOptions::polaris();
    off.array_privatization = false;
    let cut = parallelize(FIGURE5, &off).unwrap();
    let outer_cut = cut.report.loop_report("do5").unwrap();
    println!(
        "outer loop: parallel={} reason={:?}",
        outer_cut.parallel, outer_cut.serial_reason
    );
    assert!(!outer_cut.parallel);
}

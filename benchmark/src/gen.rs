//! Seeded generator of large multi-unit programs for `compile_large`.
//!
//! Each program is one main unit that `CALL`s `subs` subroutines, every
//! one an instance of a loop idiom the restructurer targets: a 5-point
//! stencil (tiled), a privatised work row, a TRFD-style triangular nest
//! with cascaded inductions, and a transposed matrix product
//! (interchanged under a relaxable reduction row). The kernels are tiny
//! single-unit codes; these programs are what makes inlining, per-unit
//! work and whole-program snapshots expensive.
//!
//! The draw is stratified: every program gets the same number of each
//! idiom, so compile cost is a property of the size and not of the
//! seed. The seed decides the call order, which arrays each call reads
//! and writes, and the coefficients. All values stay non-negative and
//! bounded, so a reassociated reduction stays within the comparison
//! tolerance.

use polaris::fuzz::FuzzRng;
use std::fmt::Write as _;

/// Array extent of the shared 2-D grids; the stencil interior (2..N-1)
/// has 16 iterations, a multiple of the tile size.
const N: u32 = 18;
/// Triangular nest: `TM` outer iterations over a `TN`-row triangle.
const TM: u32 = 4;
const TN: u32 = 8;
const NV: u32 = TM * (TN * TN + TN) / 2;
/// Extent of the matrix-product block.
const MB: u32 = 12;

const IDIOMS: usize = 4;

/// Source of a program with `subs` subroutines (a multiple of 4).
pub fn generate_large(seed: u64, subs: usize) -> String {
    assert!(
        subs > 0 && subs.is_multiple_of(IDIOMS),
        "subroutine count must be a positive multiple of 4"
    );
    let mut rng = FuzzRng::new(seed ^ (subs as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..subs).map(|i| i % IDIOMS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let mut calls = String::new();
    let mut units = String::new();
    for (idx, idiom) in order.into_iter().enumerate() {
        let name = format!("s{:03}", idx + 1);
        let (src, dst) = if rng.below(2) == 0 { ("a", "b") } else { ("b", "a") };
        match idiom {
            0 => {
                let _ = writeln!(calls, "      call {name}({src}, {dst})");
                stencil(&mut units, &name, &mut rng);
            }
            1 => {
                let _ = writeln!(calls, "      call {name}({src}, {dst})");
                private_row(&mut units, &name, &mut rng);
            }
            2 => {
                let _ = writeln!(calls, "      call {name}(v)");
                triangular(&mut units, &name, &mut rng);
            }
            _ => {
                let _ = writeln!(calls, "      call {name}({src}, {dst}, c)");
                transposed(&mut units, &name, &mut rng);
            }
        }
    }

    format!(
        "      program large{subs}\n\
         \x20     integer n, nv\n\
         \x20     parameter (n = {N}, nv = {NV})\n\
         \x20     real a({N},{N}), b({N},{N}), c({N},{N})\n\
         \x20     real v({NV})\n\
         \x20     real csum\n\
         \x20     do j0 = 1, n\n\
         \x20       do i0 = 1, n\n\
         \x20         a(i0,j0) = mod(i0*3 + j0*7, 13) * 0.25\n\
         \x20         b(i0,j0) = mod(i0 + 2*j0, 5) * 0.5\n\
         \x20         c(i0,j0) = 0.0\n\
         \x20       end do\n\
         \x20     end do\n\
         \x20     do k0 = 1, nv\n\
         \x20       v(k0) = 0.0\n\
         \x20     end do\n\
         {calls}\
         \x20     csum = 0.0\n\
         \x20     do jj = 1, n\n\
         \x20       do ii = 1, n\n\
         \x20         csum = csum + a(ii,jj) + b(ii,jj) + c(ii,jj)\n\
         \x20       end do\n\
         \x20     end do\n\
         \x20     do kk = 1, nv\n\
         \x20       csum = csum + v(kk)\n\
         \x20     end do\n\
         \x20     print *, 'large checksum', csum\n\
         \x20     end\n\
         {units}"
    )
}

/// A coefficient `k * step` with `k` drawn from `1..=max_k`.
fn coeff(rng: &mut FuzzRng, step: f64, max_k: u64) -> String {
    format!("{:.2}", step * (rng.below(max_k) + 1) as f64)
}

fn stencil(out: &mut String, name: &str, rng: &mut FuzzRng) {
    // centre + 4 * side = 1, so the grid stays within its initial range
    let k = rng.below(4) + 1;
    let side = 0.05 * k as f64;
    let centre = 1.0 - 4.0 * side;
    let hi = N - 1;
    let _ = write!(
        out,
        "      subroutine {name}(p, q)\n\
         \x20     real p({N},{N}), q({N},{N})\n\
         \x20     do j = 2, {hi}\n\
         \x20       do i = 2, {hi}\n\
         \x20         q(i,j) = {centre:.2}*p(i,j) + {side:.2}*(p(i-1,j) + p(i+1,j) + p(i,j-1) + p(i,j+1))\n\
         \x20       end do\n\
         \x20     end do\n\
         \x20     end\n"
    );
}

fn private_row(out: &mut String, name: &str, rng: &mut FuzzRng) {
    let scale = coeff(rng, 0.25, 4);
    let hi = N - 1;
    let _ = write!(
        out,
        "      subroutine {name}(p, q)\n\
         \x20     real p({N},{N}), q({N},{N})\n\
         \x20     real w({N})\n\
         \x20     do j = 2, {hi}\n\
         \x20       do i = 1, {N}\n\
         \x20         w(i) = p(i,j)*{scale}\n\
         \x20       end do\n\
         \x20       do i = 2, {hi}\n\
         \x20         q(i,j) = 0.5*q(i,j) + 0.25*(w(i+1) + w(i-1))\n\
         \x20       end do\n\
         \x20     end do\n\
         \x20     end\n"
    );
}

fn triangular(out: &mut String, name: &str, rng: &mut FuzzRng) {
    let add = coeff(rng, 0.5, 6);
    let _ = write!(
        out,
        "      subroutine {name}(t)\n\
         \x20     integer m, n\n\
         \x20     parameter (m = {TM}, n = {TN})\n\
         \x20     real t({NV})\n\
         \x20     integer x, x0\n\
         \x20     x0 = 0\n\
         \x20     do i = 0, m - 1\n\
         \x20       x = x0\n\
         \x20       do j = 0, n - 1\n\
         \x20         do k = 0, j - 1\n\
         \x20           x = x + 1\n\
         \x20           t(x) = 0.5*t(x) + {add}\n\
         \x20         end do\n\
         \x20       end do\n\
         \x20       x0 = x0 + (n**2 + n)/2\n\
         \x20     end do\n\
         \x20     end\n"
    );
}

fn transposed(out: &mut String, name: &str, rng: &mut FuzzRng) {
    let scale = coeff(rng, 0.05, 4);
    let _ = write!(
        out,
        "      subroutine {name}(p, q, r)\n\
         \x20     real p({N},{N}), q({N},{N}), r({N},{N})\n\
         \x20     do k = 1, {MB}\n\
         \x20       do i = 1, {MB}\n\
         \x20         do j = 1, {MB}\n\
         \x20           r(i,j) = r(i,j) + p(k,i)*q(k,j)*{scale}\n\
         \x20         end do\n\
         \x20       end do\n\
         \x20     end do\n\
         \x20     end\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_program_other_seed_other_program() {
        assert_eq!(generate_large(7, 16), generate_large(7, 16));
        assert_ne!(generate_large(7, 16), generate_large(8, 16));
        assert_ne!(generate_large(7, 16), generate_large(7, 64));
    }

    #[test]
    fn every_program_has_each_idiom_equally_often() {
        for seed in [1, 2, 3] {
            let src = generate_large(seed, 64);
            assert_eq!(src.matches("      subroutine ").count(), 64);
            assert_eq!(src.matches("      call ").count(), 64);
            assert_eq!(src.matches("real w(").count(), 16, "private rows");
            assert_eq!(src.matches("integer x, x0").count(), 16, "triangular nests");
            assert_eq!(src.matches("r(i,j) = r(i,j)").count(), 16, "transposed products");
        }
    }

    #[test]
    fn generated_programs_compile_clean_and_keep_their_output() {
        let src = generate_large(11, 16);
        let reference = crate::suite::reference_output(&src).expect("reference runs");
        assert_eq!(reference.len(), 1);
        let out = polaris::parallelize(&src, &polaris::PassOptions::polaris()).expect("compiles");
        assert!(!out.report.degraded(), "{:?}", out.report.rolled_back_stages());
        assert_eq!(out.report.inline.call_sites_expanded, 16);
        assert!(out.report.parallel_loops() >= 16, "{}", out.report.parallel_loops());
        let run = polaris::machine::run(&out.program, &polaris::MachineConfig::challenge_8())
            .expect("restructured program runs");
        assert!(crate::suite::matches_reference(&run.output, &reference));
    }
}

//! The GCD dependence test.
//!
//! For subscripts `f(i...) = a0 + Σ a_k i_k` and `g(i'...) = b0 + Σ b_k
//! i'_k` with integer coefficients, an integer solution of `f = g`
//! requires `gcd(a_1.., b_1..) | (b0 - a0)`. If it does not divide, the
//! accesses can never alias and the pair is independent (for every
//! direction). Bounds are ignored, so "divides" proves nothing.

use super::DdStats;
use polaris_symbolic::rat::gcd as gcd128;

/// Returns `true` if the GCD test *proves independence* of
/// `c0 + Σ a_k x_k - Σ b_k y_k = 0` (distinct iteration variables on
/// each side; `c0 = a0 - b0`). `coeffs` lists every `a_k` and `b_k` —
/// signs do not matter.
pub(crate) fn independent(c0: i128, coeffs: impl IntoIterator<Item = i128>, stats: &DdStats) -> bool {
    stats.gcd_tests.set(stats.gcd_tests.get() + 1);
    let g = coeffs.into_iter().fold(0, gcd128);
    if g == 0 {
        // No index dependence at all: alias iff constants are equal.
        return c0 != 0;
    }
    c0 % g != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_even_odd() {
        // A(2i) vs A(2i'+1): 2i - 2i' = 1 has no integer solution.
        let stats = DdStats::new();
        assert!(independent(-1, [2, 2], &stats));
        assert_eq!(stats.gcd_tests.get(), 1);
    }

    #[test]
    fn divisible_is_no_proof() {
        // A(2i) vs A(2i'): trivially aliases at i = i'.
        let stats = DdStats::new();
        assert!(!independent(0, [2, 2], &stats));
    }

    #[test]
    fn constant_subscripts() {
        let stats = DdStats::new();
        // A(3) vs A(5): never alias
        assert!(independent(3 - 5, [], &stats));
        // A(4) vs A(4): alias
        assert!(!independent(0, [], &stats));
    }

    #[test]
    fn multi_loop() {
        // A(4i + 2j) vs A(4i' + 2j' + 1): gcd 2 does not divide 1.
        let stats = DdStats::new();
        assert!(independent(-1, [4, 2, 4, 2], &stats));
    }
}

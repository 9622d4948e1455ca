//! Closed-form summation of polynomials over iteration spaces.
//!
//! Induction-variable substitution (§3.2) sums the per-iteration
//! increment "across the iteration space of the enclosing loop"; for
//! polynomial increments the sums are Faulhaber's formulas. We compute
//! `Σ_{v=lo}^{hi} p(v)` symbolically via power-sum prefix polynomials
//! `S_k(n) = Σ_{i=1}^{n} i^k` (k ≤ 8), evaluated at polynomial
//! arguments, so triangular nests (`hi` depending on outer indices)
//! come out exactly right.

use crate::poly::Poly;
use crate::rat::Rat;

/// Maximum supported power in summands (ample: real induction increments
/// in the paper's suite are at most quadratic).
pub(crate) const MAX_POWER: u32 = 8;

/// Coefficients of `S_k(n) = Σ_{i=1}^{n} i^k` as a polynomial in `n`
/// (constant term first). Derived from Bernoulli numbers; returned as
/// rationals.
fn power_sum_coeffs(k: u32) -> Vec<Rat> {
    // S_k(n) = 1/(k+1) Σ_{j=0}^{k} C(k+1, j) B_j n^{k+1-j}, with B_1 = +1/2.
    let bernoulli = bernoulli_plus((k + 1) as usize);
    let kk = k as i128;
    let mut coeffs = vec![Rat::ZERO; (k + 2) as usize];
    let inv = Rat::new(1, kk + 1).expect("k+1 > 0");
    for (j, bj) in bernoulli.iter().enumerate().take(k as usize + 1) {
        let c = binomial(kk + 1, j as i128);
        let term = Rat::int(c)
            .checked_mul(*bj)
            .and_then(|t| t.checked_mul(inv))
            .expect("power-sum coefficients stay small");
        let power = (k + 1) as usize - j;
        coeffs[power] = coeffs[power].checked_add(term).expect("no overflow");
    }
    coeffs
}

/// Bernoulli numbers B_0..B_n with the B_1 = +1/2 convention.
fn bernoulli_plus(n: usize) -> Vec<Rat> {
    // Standard recurrence for B^- then flip the sign of B_1.
    let mut b = vec![Rat::ZERO; n + 1];
    b[0] = Rat::ONE;
    for m in 1..=n {
        // B_m = -1/(m+1) Σ_{j=0}^{m-1} C(m+1, j) B_j
        let mut acc = Rat::ZERO;
        for (j, bj) in b.iter().enumerate().take(m) {
            let c = binomial((m + 1) as i128, j as i128);
            acc = acc.checked_add(Rat::int(c).checked_mul(*bj).unwrap()).unwrap();
        }
        b[m] = acc
            .checked_mul(Rat::new(-1, (m + 1) as i128).unwrap())
            .unwrap();
    }
    if n >= 1 {
        b[1] = Rat::new(1, 2).unwrap();
    }
    b
}

fn binomial(n: i128, k: i128) -> i128 {
    if k < 0 || k > n {
        return 0;
    }
    let mut acc: i128 = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

/// `S_k` evaluated at a polynomial argument: `Σ_{i=1}^{arg} i^k`.
fn power_sum_at(k: u32, arg: &Poly) -> Option<Poly> {
    let coeffs = power_sum_coeffs(k);
    let mut acc = Poly::zero();
    let mut arg_pow = Poly::int(1);
    for c in coeffs {
        if !c.is_zero() {
            acc = acc.checked_add(&arg_pow.checked_scale(c)?)?;
        }
        arg_pow = arg_pow.checked_mul(arg)?;
    }
    Some(acc)
}

/// Closed form of `Σ_{var=lo}^{hi} p(var)` (empty when `hi < lo`, which
/// the closed form also yields for polynomially-expressed bounds).
///
/// Returns `None` when `p` mentions `var` inside an opaque atom, exceeds
/// degree `MAX_POWER` (8), or arithmetic overflows.
pub fn sum_over(p: &Poly, var: &str, lo: &Poly, hi: &Poly) -> Option<Poly> {
    // Note: `lo`/`hi` may mention `var` itself — the summation index is a
    // bound variable, so `Σ_{i=1}^{I-1} i` (the induction idiom "value at
    // the top of iteration I") is perfectly well formed; only the summand
    // coefficients must be independent of the index.
    let var = var.to_ascii_uppercase();
    let parts = p.by_powers_of(&var)?;
    if parts.len() as u32 - 1 > MAX_POWER {
        return None;
    }
    let lo_m1 = lo.checked_sub(&Poly::int(1))?;
    let mut acc = Poly::zero();
    for (k, coeff) in parts.iter().enumerate() {
        if coeff.is_zero() {
            continue;
        }
        if coeff.mentions_var(&var) {
            return None; // var hidden in an opaque coefficient
        }
        let k = k as u32;
        let s = if k == 0 {
            // Σ 1 = hi - lo + 1
            hi.checked_sub(lo)?.checked_add(&Poly::int(1))?
        } else {
            power_sum_at(k, hi)?.checked_sub(&power_sum_at(k, &lo_m1)?)?
        };
        acc = acc.checked_add(&coeff.checked_mul(&s)?)?;
    }
    Some(acc)
}

/// Closed form of the *prefix* sum `Σ_{var=lo}^{upto-1} p(var)` — the
/// total increment accumulated by an induction variable before the
/// iteration `var = upto` begins. This is the quantity step 2 of the
/// induction algorithm needs at a loop header.
pub fn prefix_sum(p: &Poly, var: &str, lo: &Poly, upto: &Poly) -> Option<Poly> {
    let hi = upto.checked_sub(&Poly::int(1))?;
    sum_over(p, var, lo, &hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::DivPolicy;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn p(src: &str) -> Poly {
        let full = format!("program t\nx = {src}\nend\n");
        let prog = polaris_ir::parse(&full).unwrap();
        match &prog.units[0].body.0[0].kind {
            polaris_ir::StmtKind::Assign { rhs, .. } => {
                Poly::from_expr(rhs, DivPolicy::Exact).unwrap()
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn bernoulli_values() {
        let b = bernoulli_plus(6);
        assert_eq!(b[0], Rat::ONE);
        assert_eq!(b[1], Rat::new(1, 2).unwrap());
        assert_eq!(b[2], Rat::new(1, 6).unwrap());
        assert_eq!(b[3], Rat::ZERO);
        assert_eq!(b[4], Rat::new(-1, 30).unwrap());
        assert_eq!(b[6], Rat::new(1, 42).unwrap());
    }

    #[test]
    fn classic_power_sums() {
        // Σ_{i=1}^{n} i = n(n+1)/2
        assert_eq!(power_sum_at(1, &Poly::var("N")).unwrap(), p("(n*n + n)/2"));
        // Σ i^2 = n(n+1)(2n+1)/6
        assert_eq!(power_sum_at(2, &Poly::var("N")).unwrap(), p("n*(n+1)*(2*n+1)/6"));
        // Σ i^3 = (n(n+1)/2)^2
        assert_eq!(power_sum_at(3, &Poly::var("N")).unwrap(), p("(n*(n+1)/2)**2"));
    }

    #[test]
    fn sum_of_constant_is_trip_count() {
        let s = sum_over(&Poly::int(1), "K", &Poly::int(0), &p("j - 1")).unwrap();
        assert_eq!(s, p("j"));
    }

    #[test]
    fn trfd_cascaded_sum() {
        // TRFD Figure 2: X accumulates 1 per K iteration (K = 0..J-1),
        // summed over J = 0..N-1 gives (N^2 - N)/2; per outer I iteration
        // the increment is (N^2+N)/2 in the paper after J runs 0..N-1 with
        // inner trip J (i.e. Σ_{j=0}^{n-1} j = (n^2-n)/2).
        let inner = sum_over(&Poly::int(1), "K", &Poly::int(0), &p("j - 1")).unwrap();
        assert_eq!(inner, p("j"));
        let outer = sum_over(&inner, "J", &Poly::int(0), &p("n - 1")).unwrap();
        assert_eq!(outer, p("(n**2 - n)/2"));
    }

    #[test]
    fn prefix_sum_at_header() {
        // induction K=K+1 in loop I=1..: value at top of iteration i is
        // K0 + (i - 1)
        let s = prefix_sum(&Poly::int(1), "I", &Poly::int(1), &Poly::var("I")).unwrap();
        assert_eq!(s, p("i - 1"));
    }

    #[test]
    fn triangular_prefix() {
        // increment j per iteration of j from 1..i-1: prefix before j=J is
        // Σ_{j=1}^{J-1} j = (J^2-J)/2
        let s = prefix_sum(&Poly::var("J"), "J", &Poly::int(1), &Poly::var("J")).unwrap();
        assert_eq!(s, p("(j*j - j)/2"));
    }

    #[test]
    fn rejects_var_in_opaque_coefficient() {
        let f = p("z(k)"); // opaque atom mentioning K
        assert!(sum_over(&f, "K", &Poly::int(0), &Poly::int(9)).is_none());
        // opaque NOT mentioning K sums fine: Σ_{k=1}^{n} z(j) = n*z(j)
        let g = p("z(j)");
        let s = sum_over(&g, "K", &Poly::int(1), &Poly::var("N")).unwrap();
        assert_eq!(s, p("n * z(j)"));
    }

    #[test]
    fn bound_variable_in_limits_is_independent() {
        // Σ_{k=0}^{K+3} 1 = K + 4 — the summation index is bound, the K
        // in the limit is the outer K.
        let s = sum_over(&Poly::int(1), "K", &Poly::int(0), &p("k + 3")).unwrap();
        assert_eq!(s, p("k + 4"));
    }

    proptest! {
        #[test]
        fn prop_sum_matches_brute_force(a in -4i128..4, b in -4i128..4, c in -4i128..4,
                                        lo in -3i128..3, len in 0i128..8) {
            // p(v) = a*v^2 + b*v + c summed lo..hi vs brute force
            let f = Poly::var("V").checked_pow(2).unwrap().checked_scale(Rat::int(a)).unwrap()
                .checked_add(&Poly::var("V").checked_scale(Rat::int(b)).unwrap()).unwrap()
                .checked_add(&Poly::int(c)).unwrap();
            let hi = lo + len - 1;
            let closed = sum_over(&f, "V", &Poly::int(lo), &Poly::int(hi)).unwrap();
            let expect: i128 = (lo..=hi).map(|v| a*v*v + b*v + c).sum();
            prop_assert_eq!(closed.as_constant().unwrap(), Rat::int(expect));
        }

        #[test]
        fn prop_symbolic_upper_bound_matches(a in -3i128..4, b in -3i128..4, n in 0i128..12) {
            // Σ_{v=1}^{N} (a*v + b) evaluated at N=n equals brute force
            let f = Poly::var("V").checked_scale(Rat::int(a)).unwrap()
                .checked_add(&Poly::int(b)).unwrap();
            let closed = sum_over(&f, "V", &Poly::int(1), &Poly::var("N")).unwrap();
            let env = BTreeMap::from([("N".to_string(), Rat::int(n))]);
            let got = closed.eval(&env).unwrap();
            let expect: i128 = (1..=n).map(|v| a*v + b).sum();
            prop_assert_eq!(got, Rat::int(expect));
        }

        #[test]
        fn prop_cubic_power_sum(k in 1u32..6, n in 0i128..10) {
            let closed = power_sum_at(k, &Poly::var("N")).unwrap();
            let env = BTreeMap::from([("N".to_string(), Rat::int(n))]);
            let got = closed.eval(&env).unwrap();
            let expect: i128 = (1..=n).map(|i| i.pow(k)).sum();
            prop_assert_eq!(got, Rat::int(expect));
        }
    }
}

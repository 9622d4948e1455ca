//! Exact rational numbers over `i128` with overflow-checked arithmetic.
//!
//! Every operation returns `Option` — on overflow the symbolic layer
//! degrades gracefully to "unknown" instead of producing wrong ranges,
//! which matters because dependence proofs must never be optimistic.

use std::cmp::Ordering;
use std::fmt;

/// A normalized rational number: `den > 0`, `gcd(num.abs(), den) == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor (non-negative result).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    pub(crate) const ZERO: Rat = Rat { num: 0, den: 1 };
    pub(crate) const ONE: Rat = Rat { num: 1, den: 1 };

    /// Construct and normalize. Returns `None` when `den == 0`.
    pub fn new(num: i128, den: i128) -> Option<Rat> {
        if den == 0 {
            return None;
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Some(Rat { num: sign * num / g, den: sign * den / g })
    }

    pub fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    pub(crate) fn num(&self) -> i128 {
        self.num
    }

    pub(crate) fn den(&self) -> i128 {
        self.den
    }

    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    pub(crate) fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The integer value, if this rational is one.
    pub fn as_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Sign: -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        self.num.signum() as i32
    }

    pub(crate) fn checked_add(self, other: Rat) -> Option<Rat> {
        if self.den == 1 && other.den == 1 {
            // Integers — nearly every coefficient of a program
            // polynomial — need no gcd: the sum is already normal.
            return Some(Rat { num: self.num.checked_add(other.num)?, den: 1 });
        }
        // a/b + c/d = (a*d + c*b) / (b*d), reduced via lcm to limit growth.
        let g = gcd(self.den, other.den).max(1);
        let lhs = self.num.checked_mul(other.den / g)?;
        let rhs = other.num.checked_mul(self.den / g)?;
        let num = lhs.checked_add(rhs)?;
        let den = self.den.checked_mul(other.den / g)?;
        Rat::new(num, den)
    }

    #[cfg(test)]
    pub(crate) fn checked_sub(self, other: Rat) -> Option<Rat> {
        self.checked_add(other.checked_neg()?)
    }

    pub(crate) fn checked_mul(self, other: Rat) -> Option<Rat> {
        if self.den == 1 && other.den == 1 {
            return Some(Rat { num: self.num.checked_mul(other.num)?, den: 1 });
        }
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd(self.num, other.den).max(1);
        let g2 = gcd(other.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Rat::new(num, den)
    }

    pub(crate) fn checked_neg(self) -> Option<Rat> {
        Some(Rat { num: self.num.checked_neg()?, den: self.den })
    }

    /// `self ** exp` for small non-negative exponents.
    #[cfg(test)]
    pub(crate) fn checked_pow(self, exp: u32) -> Option<Rat> {
        let mut acc = Rat::ONE;
        for _ in 0..exp {
            acc = acc.checked_mul(self)?;
        }
        Some(acc)
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d  (b, d > 0)  ⇔  a*d vs c*b.  Use i128 widening: values
        // here stay small (coefficients of program polynomials); on the
        // rare overflow we fall back to f64 comparison which is fine for a
        // total order used only in container keys.
        match (self.num.checked_mul(other.den), other.num.checked_mul(self.den)) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => {
                let l = self.num as f64 / self.den as f64;
                let r = other.num as f64 / other.den as f64;
                l.partial_cmp(&r).unwrap_or(Ordering::Equal)
            }
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4).unwrap(), Rat::new(1, 2).unwrap());
        assert_eq!(Rat::new(-2, -4).unwrap(), Rat::new(1, 2).unwrap());
        assert_eq!(Rat::new(2, -4).unwrap(), Rat::new(-1, 2).unwrap());
        assert!(Rat::new(1, 0).is_none());
    }

    #[test]
    fn arithmetic() {
        let half = Rat::new(1, 2).unwrap();
        let third = Rat::new(1, 3).unwrap();
        assert_eq!(half.checked_add(third).unwrap(), Rat::new(5, 6).unwrap());
        assert_eq!(half.checked_sub(third).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(half.checked_mul(third).unwrap(), Rat::new(1, 6).unwrap());
        assert_eq!(half.checked_pow(3).unwrap(), Rat::new(1, 8).unwrap());
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3).unwrap() < Rat::new(1, 2).unwrap());
        assert!(Rat::new(-1, 2).unwrap() < Rat::ZERO);
        assert!(Rat::int(2) > Rat::new(3, 2).unwrap());
    }

    #[test]
    fn overflow_returns_none() {
        let big = Rat::int(i128::MAX / 2 + 1);
        assert!(big.checked_mul(Rat::int(3)).is_none());
        assert!(big.checked_add(big).is_none());
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = Rat::new(a, b).unwrap();
            let y = Rat::new(c, d).unwrap();
            prop_assert_eq!(x.checked_add(y), y.checked_add(x));
        }

        #[test]
        fn prop_mul_distributes(a in -100i128..100, b in 1i128..20, c in -100i128..100, d in 1i128..20, e in -100i128..100, f in 1i128..20) {
            let x = Rat::new(a, b).unwrap();
            let y = Rat::new(c, d).unwrap();
            let z = Rat::new(e, f).unwrap();
            let lhs = x.checked_mul(y.checked_add(z).unwrap()).unwrap();
            let rhs = x.checked_mul(y).unwrap().checked_add(x.checked_mul(z).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_sub_then_add_roundtrips(a in -1000i128..1000, b in 1i128..50, c in -1000i128..1000, d in 1i128..50) {
            let x = Rat::new(a, b).unwrap();
            let y = Rat::new(c, d).unwrap();
            let back = x.checked_sub(y).unwrap().checked_add(y).unwrap();
            prop_assert_eq!(back, x);
        }
    }
}

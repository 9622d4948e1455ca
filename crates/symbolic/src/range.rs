//! Symbolic ranges: `[lo, hi]` with polynomial bounds, either of which
//! may be unknown.

use crate::poly::Poly;
use std::fmt;

/// A (possibly half-open) symbolic interval.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Range {
    pub lo: Option<Poly>,
    pub hi: Option<Poly>,
}

impl Range {
    /// Completely unknown range.
    pub(crate) fn unknown() -> Range {
        Range::default()
    }

    pub fn new(lo: Option<Poly>, hi: Option<Poly>) -> Range {
        Range { lo, hi }
    }

    /// The degenerate range `[p, p]` (an exactly-known value).
    pub fn exact(p: Poly) -> Range {
        Range { lo: Some(p.clone()), hi: Some(p) }
    }

    /// Constant interval `[lo, hi]`.
    pub(crate) fn consts(lo: i128, hi: i128) -> Range {
        Range { lo: Some(Poly::int(lo)), hi: Some(Poly::int(hi)) }
    }

    pub fn at_least(p: Poly) -> Range {
        Range { lo: Some(p), hi: None }
    }

    pub(crate) fn at_most(p: Poly) -> Range {
        Range { lo: None, hi: Some(p) }
    }

    pub fn is_unknown(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }

    /// Exactly-known value, if `lo == hi`.
    pub fn as_exact(&self) -> Option<&Poly> {
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) if l == h => Some(l),
            _ => None,
        }
    }

    /// Intersect with another range. Both ranges are simultaneously valid
    /// facts, so any choice of bound is sound; we pick the *tighter* bound
    /// when both are constants, and otherwise keep the existing bound
    /// (conditions/asserts typically precede weaker structural facts like
    /// loop non-emptiness). Staleness is the caller's problem
    /// ([`crate::env::RangeEnv::invalidate`]).
    pub(crate) fn refine(&self, other: &Range) -> Range {
        fn pick(a: &Option<Poly>, b: &Option<Poly>, want_max: bool) -> Option<Poly> {
            match (a, b) {
                (Some(x), Some(y)) => match (x.as_constant(), y.as_constant()) {
                    (Some(cx), Some(cy)) => {
                        if (cx >= cy) == want_max {
                            Some(x.clone())
                        } else {
                            Some(y.clone())
                        }
                    }
                    _ => Some(x.clone()),
                },
                (Some(x), None) => Some(x.clone()),
                (None, y) => y.clone(),
            }
        }
        Range {
            lo: pick(&self.lo, &other.lo, true),
            hi: pick(&self.hi, &other.hi, false),
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lo = self.lo.as_ref().map(|p| p.to_string()).unwrap_or_else(|| "-inf".into());
        let hi = self.hi.as_ref().map(|p| p.to_string()).unwrap_or_else(|| "+inf".into());
        write!(f, "[{lo}, {hi}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_range() {
        let r = Range::exact(Poly::var("N"));
        assert_eq!(r.as_exact(), Some(&Poly::var("N")));
        assert!(!r.is_unknown());
    }

    #[test]
    fn refine_prefers_known_then_newer() {
        let old = Range::consts(1, 10);
        let newer = Range::at_most(Poly::int(5));
        let refined = old.refine(&newer);
        assert_eq!(refined.lo, Some(Poly::int(1)));
        assert_eq!(refined.hi, Some(Poly::int(5)));
    }

    #[test]
    fn display_shows_infinities() {
        assert_eq!(Range::unknown().to_string(), "[-inf, +inf]");
        assert_eq!(Range::consts(0, 3).to_string(), "[0, 3]");
    }
}

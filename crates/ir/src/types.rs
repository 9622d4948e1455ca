//! Fortran data types as modelled by F-Mini.
//!
//! `DOUBLE PRECISION` is folded into [`DataType::Real`]: all floating-point
//! computation in the evaluation substrate uses `f64`, so the distinction
//! carries no analysis content. `COMPLEX` (which the paper mentions only in
//! the context of an inlining corner case) is not modelled.

use std::fmt;

/// The scalar base type of a symbol or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// `INTEGER` — 64-bit signed in the evaluation substrate.
    Integer,
    /// `REAL` / `DOUBLE PRECISION` — `f64` in the evaluation substrate.
    Real,
    /// `LOGICAL`.
    Logical,
}

impl DataType {
    /// Fortran implicit typing: identifiers starting with `I`..`N` are
    /// `INTEGER`, all others `REAL`.
    pub(crate) fn implicit_for(name: &str) -> DataType {
        match name.as_bytes().first() {
            Some(c) if (b'I'..=b'N').contains(&c.to_ascii_uppercase()) => DataType::Integer,
            _ => DataType::Real,
        }
    }

    /// The Fortran keyword for this type (used by the unparser).
    pub fn keyword(self) -> &'static str {
        match self {
            DataType::Integer => "INTEGER",
            DataType::Real => "REAL",
            DataType::Logical => "LOGICAL",
        }
    }

    /// Type of the result when two arithmetic operands are combined
    /// (Fortran promotion: REAL dominates INTEGER).
    pub(crate) fn promote(self, other: DataType) -> DataType {
        if self == DataType::Real || other == DataType::Real {
            DataType::Real
        } else if self == DataType::Logical && other == DataType::Logical {
            DataType::Logical
        } else {
            DataType::Integer
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_typing_follows_fortran_rule() {
        for name in ["I", "J", "K", "L", "M", "N", "IND", "next", "m2"] {
            assert_eq!(DataType::implicit_for(name), DataType::Integer, "{name}");
        }
        for name in ["A", "X", "Z9", "h", "omega", "SUM"] {
            assert_eq!(DataType::implicit_for(name), DataType::Real, "{name}");
        }
    }

    #[test]
    fn promotion_prefers_real() {
        assert_eq!(DataType::Integer.promote(DataType::Real), DataType::Real);
        assert_eq!(DataType::Real.promote(DataType::Integer), DataType::Real);
        assert_eq!(DataType::Integer.promote(DataType::Integer), DataType::Integer);
        assert_eq!(DataType::Logical.promote(DataType::Logical), DataType::Logical);
    }

    #[test]
    fn keywords_round_trip_display() {
        assert_eq!(DataType::Integer.to_string(), "INTEGER");
        assert_eq!(DataType::Real.to_string(), "REAL");
        assert_eq!(DataType::Logical.to_string(), "LOGICAL");
    }
}

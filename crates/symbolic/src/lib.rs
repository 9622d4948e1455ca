//! # polaris-symbolic — the symbolic analysis engine
//!
//! Implements the symbolic machinery behind §3.3 of the Polaris paper:
//!
//! * exact rational arithmetic ([`rat::Rat`]),
//! * canonical multivariate polynomials over program variables with
//!   *opaque atoms* for non-polynomial subexpressions ([`poly::Poly`]),
//! * closed-form summation over iteration spaces (Faulhaber's formulas,
//!   [`sum::sum_over`]) — the engine of induction-variable substitution,
//! * symbolic ranges and **range propagation** ([`range`], [`env`]) —
//!   "the determination of symbolic lower and upper bounds for each
//!   variable at each point of the program",
//! * expression comparison "by computing the sign of the minimum and
//!   maximum of the difference of the two expressions" and monotonicity
//!   via forward differences ([`bounds`]).
//!
//! ## Representation: flat, ordered by name, shared not copied
//!
//! A [`poly::Poly`] is one vector of `(monomial, coefficient)` sorted by
//! monomial, a monomial one vector of `(atom, power)` sorted by atom —
//! no map per polynomial, no map per monomial. The order is the order of
//! upper-cased *names* (variables before opaque atoms, opaques by their
//! printed form) because [`poly::Poly::to_expr`] emits terms in it and
//! restructured subscripts are printed from there: it is pinned by every
//! file under `tests/golden/`, which is also why atoms are not interned
//! to numbers. Arithmetic pushes raw terms into one buffer and
//! normalises once (see the `poly` module docs); `None` on overflow,
//! never a partial sum.
//!
//! A [`env::RangeEnv`] keeps its names and ranges behind `Arc`s in one
//! vector in elimination order, so cloning one — to extend it with a
//! reference's inner loops, or to walk one arm of an `IF` — copies
//! pointers and never a bound. [`bounds`] eliminates an atom only where
//! the polynomial has it; the per-query fuel and depth budgets are spent
//! there and nowhere else.
//!
//! ## Exact-division convention
//!
//! Closed forms of induction variables contain exact integer divisions
//! (`(I*(N**2+N)+J**2-J)/2` in the paper's TRFD example — always even, so
//! the division is exact). [`poly::Poly::from_expr`] therefore offers a
//! [`poly::DivPolicy::Exact`] mode that folds division by an integer
//! constant into rational coefficients. This mirrors what Polaris does
//! when it reasons about its own generated subscripts. Divisions that the
//! caller cannot vouch for are kept as opaque atoms
//! ([`poly::DivPolicy::Opaque`]), which keeps general range propagation
//! conservative.

pub mod bounds;
pub(crate) mod env;
pub mod poly;
pub(crate) mod range;
pub mod rat;
pub mod sum;

pub use bounds::{prove_ge, prove_le, sign, Sign};
pub use env::RangeEnv;
pub use range::Range;
pub use rat::Rat;

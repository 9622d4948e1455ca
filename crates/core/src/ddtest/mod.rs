//! Data-dependence tests (§3.3).
//!
//! Three tests are implemented:
//!
//! * `gcd` — the classic GCD test on linear (affine, integer-
//!   coefficient) subscripts; a cheap filter.
//! * `banerjee` — Banerjee's inequalities with direction vectors,
//!   the representative "current compiler" test the paper contrasts the
//!   range test against. Requires linear subscripts and (for precision)
//!   constant loop bounds; tests up to `O(3^n)` direction vectors and
//!   counts them, which the complexity ablation reports.
//! * [`range_test`] — the symbolic range test of Blume & Eigenmann,
//!   which handles nonlinear and symbolic subscripts via min/max range
//!   comparison, monotonicity by forward differences, and loop
//!   permutation (§3.3.1).
//!
//! The two classical tests take integer coefficients and loop boxes; the
//! private `affine` module is the one place that extracts them from
//! array accesses, for the per-loop driver and the nest summarizer alike.
//!
//! All tests answer the same question: *can array accesses `f` and `g`
//! refer to the same element in two different iterations of a given
//! loop* (outer loops fixed, inner loops arbitrary)? `false` ("no") is a
//! proof; `true` means "maybe" and keeps the loop serial unless another
//! technique applies.

pub(crate) mod affine;
pub(crate) mod banerjee;
pub(crate) mod gcd;
pub mod range_test;

use std::cell::Cell;

/// Instrumentation counters shared by the tests. The paper's complexity
/// claim — the range test examines `O(n²)` direction vectors where
/// Banerjee-with-directions may examine `O(3ⁿ)` — is measured through
/// these (see the `ablation` harness).
#[derive(Debug, Default)]
pub struct DdStats {
    /// Individual Banerjee direction-vector trials.
    pub(crate) banerjee_vectors: Cell<u64>,
    /// GCD test invocations.
    pub(crate) gcd_tests: Cell<u64>,
    /// Range-test pair probes (one per loop/pair/permutation attempt).
    pub(crate) range_probes: Cell<u64>,
    /// Range-test successes that required a loop permutation.
    pub(crate) permutations_used: Cell<u64>,
    /// Range-test *queries*: one per access pair the driver asks the
    /// range test about (`run = proved + disproved + abstained`; a
    /// single query may issue several `range_probes` internally).
    pub(crate) range_tests_run: Cell<u64>,
    /// Queries where the range test proved independence.
    pub(crate) range_proved: Cell<u64>,
    /// Queries where the range test ran but could not prove independence.
    pub(crate) range_disproved: Cell<u64>,
    /// Queries the range test abstained from (subscripts or loop bounds
    /// outside its symbolic fragment).
    pub(crate) range_abstained: Cell<u64>,
    /// Range facts propagated into the analysis environment (loop
    /// headers assumed, assignments forwarded, assertions applied).
    pub(crate) ranges_propagated: Cell<u64>,
    /// Index-array-property disjointness queries: loops the classic
    /// tests could not prove where the driver consulted proven
    /// `ArrayProps` facts (the subscripted-subscript rule).
    pub(crate) props_tests_run: Cell<u64>,
    /// Property-rule queries that proved the loop's pairs disjoint.
    pub(crate) props_proved: Cell<u64>,
}

impl DdStats {
    pub fn new() -> DdStats {
        DdStats::default()
    }

    pub(crate) fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.banerjee_vectors.get(),
            self.gcd_tests.get(),
            self.range_probes.get(),
            self.permutations_used.get(),
        )
    }

    /// Index-array-property rule outcomes as `(run, proved)`.
    pub(crate) fn props_outcomes(&self) -> (u64, u64) {
        (self.props_tests_run.get(), self.props_proved.get())
    }

    /// Range-test query outcomes as `(run, proved, disproved, abstained)`;
    /// the first component always equals the sum of the other three.
    pub(crate) fn range_outcomes(&self) -> (u64, u64, u64, u64) {
        (
            self.range_tests_run.get(),
            self.range_proved.get(),
            self.range_disproved.get(),
            self.range_abstained.get(),
        )
    }
}

/// A direction in a Banerjee direction vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    Any,
    Lt,
    Eq,
    Gt,
}

//! # polaris-runtime — run-time speculative parallelization (§3.5)
//!
//! Implements the **Privatizing Doall (PD) test** of Rauchwerger & Padua
//! as used by Polaris: a loop whose access pattern cannot be analyzed at
//! compile time is *speculatively executed as a doall* while shadow
//! arrays record, per element,
//!
//! * `A_w` — written (marked on the first write of each iteration),
//! * `A_r` — read but never written in some iteration,
//! * `A_np` — read *before* being written in some iteration (the
//!   privatization spoiler),
//!
//! together with the total write count `w_A`. The post-execution
//! analysis of §3.5.2 then decides:
//!
//! * `any(A_w ∧ A_r)` → a flow/anti dependence survives even
//!   privatization,
//! * `any(A_w ∧ A_np)` → the array is not privatizable,
//! * `w_A ≠ m_A` (marks in `A_w`) → an output dependence, removed only
//!   if the array is privatized.
//!
//! Execution is *safe*: all writes land in per-thread private buffers
//! and are committed to the shared array only if the test passes (the
//! "values computed during parallel execution are stored in temporary
//! locations and then stored in permanent locations if the parallel
//! execution was correct" strategy of §3.5.1). On failure the original
//! data is untouched and the caller re-executes sequentially — exactly
//! the protocol whose cost Figure 6 charts as "potential slowdown".
//!
//! Both the marking phase and the merge/analysis phase are parallel; the
//! merge works on disjoint element ranges, giving the `O(a/p + log p)`
//! behaviour claimed in §3.5.2.

pub mod adaptive;
pub mod lrpd;
pub mod verdict;

pub use adaptive::{
    AdaptiveController, Chunking, DecideEvent, Decision, DecisionRow, LoopHints, Observation,
    Strategy,
};
pub use lrpd::{
    run_sequential, speculative_doall, speculative_doall_faulty, ArrayView, SpecOutcome,
};
pub use verdict::{
    judge, ClaimKind, DepKind, DepObservation, LoopClaim, LoopObservation, LoopVerdict,
    OracleReport, Violation,
};

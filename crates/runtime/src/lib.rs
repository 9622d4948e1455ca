//! # polaris-runtime — run-time speculative parallelization (§3.5)
//!
//! Holds the **Privatizing Doall (PD) test** of Rauchwerger & Padua
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
//! This crate holds the test and no executor: [`lrpd::Shadow`] is what
//! one executor of iterations marks, [`lrpd::PdVerdict`] the analysis of
//! any number of them. The executor is `polaris-machine`'s loop dispatch.
//! On real threads every lane works on a copy-on-write snapshot and
//! marks a shadow of its own, and the join commits the lanes' writes
//! only if the test passes (the "values computed during parallel
//! execution are stored in temporary locations and then stored in
//! permanent locations if the parallel execution was correct" strategy
//! of §3.5.1); on failure the shared state is untouched and the loop
//! re-executes in order — exactly the protocol whose cost Figure 6
//! charts as "potential slowdown". Elements are independent, so verdicts
//! of disjoint element ranges combine (flags or, counts add) — the
//! property behind the `O(a/p + log p)` analysis of §3.5.2, which the
//! machine's cost model bills.

pub(crate) mod adaptive;
pub mod lrpd;
pub mod verdict;

pub use adaptive::{AdaptiveController, Chunking, DecideEvent, DecisionRow, LoopHints, Observation};

//! The cycle cost model and scheduling policies.
//!
//! Costs are loosely calibrated to an early-90s RISC multiprocessor
//! (R4400-class): single-cycle ALU, multi-cycle multiply/divide, a
//! couple of cycles per memory reference, and a fork/join cost of a few
//! microseconds. Absolute values matter less than ratios — the paper's
//! Figure 7 is about *shape* (see DESIGN.md).

/// Per-operation cycle charges. The machine has one set of charges,
/// `COSTS`, and `CostModel::default()` returns it.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// add/sub/compare/logical.
    pub(crate) alu: u64,
    pub(crate) mul: u64,
    pub(crate) div: u64,
    /// `**` and transcendental intrinsics.
    pub(crate) intrinsic: u64,
    /// Array element load/store (cache-friendly average).
    pub memory: u64,
    /// Scalar load/store.
    pub(crate) scalar: u64,
    /// Branch (IF arm selection).
    pub(crate) branch: u64,
    /// Per-iteration loop bookkeeping.
    pub(crate) loop_iter: u64,
    /// DOALL fork + join (per parallel loop instance).
    pub(crate) fork_join: u64,
    /// Dynamic scheduling: per chunk dispatch.
    pub(crate) dispatch: u64,
    /// Reduction merge, per element per processor.
    pub(crate) reduction_merge: u64,
    /// Private-array setup, per element per loop instance.
    pub(crate) private_setup: u64,
    /// Shadow-array marking per tracked access (speculative loops).
    pub(crate) spec_mark: u64,
    /// PD-test analysis per tracked element (divided by processors).
    pub(crate) spec_analysis: u64,
}

pub(crate) const COSTS: CostModel = CostModel {
    alu: 1,
    mul: 4,
    div: 16,
    intrinsic: 40,
    memory: 3,
    scalar: 1,
    branch: 2,
    loop_iter: 2,
    fork_join: 2000,
    dispatch: 40,
    reduction_merge: 8,
    private_setup: 1,
    spec_mark: 4,
    spec_analysis: 3,
};

impl Default for CostModel {
    fn default() -> CostModel {
        COSTS
    }
}

/// DOALL iteration scheduling. Whatever the variant, a plan never cuts
/// more than 64 chunks per worker (`dispatch::ChunkPlan`): past that a
/// requested chunk size is raised, so per-chunk state and the per-chunk
/// `dispatch` bill are bounded by the machine, not by the trip count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous blocks, one per processor (no dispatch overhead).
    Static,
    /// Self-scheduling with the given chunk size: better balance for
    /// triangular loops, `dispatch` cycles per chunk. Real threads claim
    /// one chunk at a time off the one interval of unclaimed chunks: the
    /// master the lowest, helpers the highest.
    Dynamic { chunk: usize },
    /// The name `--schedule stealing` asks for: on both backends it
    /// behaves as `Dynamic` does — the same chunks, claimed the same
    /// way, charged the same per-chunk `dispatch`. Chunk *bounds* are a
    /// pure function of the plan, never of who ran it, so results stay
    /// bit-identical to serial under any claim interleaving.
    Stealing { chunk: usize },
}

/// The back-end aggressiveness model (the PFA story of §4.2).
///
/// When enabled, every *innermost* loop's body cycles are scaled:
/// straight-line bodies benefit from unrolling/fusion; bodies with
/// conditionals suffer (speculated work, broken software pipelines).
#[derive(Debug, Clone)]
pub struct CodegenModel {
    pub(crate) enabled: bool,
    /// Multiplier for straight-line innermost bodies (< 1 is a bonus).
    pub(crate) straightline_factor: f64,
    /// Multiplier for innermost bodies containing IFs (> 1 is a penalty).
    pub(crate) conditional_factor: f64,
}

impl CodegenModel {
    /// Polaris' vanilla back end: no scaling.
    pub(crate) fn none() -> CodegenModel {
        CodegenModel { enabled: false, straightline_factor: 1.0, conditional_factor: 1.0 }
    }

    /// The PFA-like aggressive back end.
    pub fn aggressive() -> CodegenModel {
        CodegenModel { enabled: true, straightline_factor: 0.88, conditional_factor: 1.45 }
    }

    /// Scale a cycle count for an innermost-loop body.
    pub(crate) fn scale(&self, cycles: u64, has_conditional: bool) -> u64 {
        if !self.enabled {
            return cycles;
        }
        let f = if has_conditional { self.conditional_factor } else { self.straightline_factor };
        (cycles as f64 * f).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        let c = CostModel::default();
        assert!(c.alu < c.mul && c.mul < c.div && c.div < c.intrinsic);
        assert!(c.fork_join > 100);
    }

    #[test]
    fn codegen_scaling() {
        let none = CodegenModel::none();
        assert_eq!(none.scale(1000, true), 1000);
        let agg = CodegenModel::aggressive();
        assert!(agg.scale(1000, false) < 1000);
        assert!(agg.scale(1000, true) > 1000);
    }
}

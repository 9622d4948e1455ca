//! # polaris-core — the Polaris restructurer
//!
//! The paper's primary contribution (§3): a source-to-source automatic
//! parallelizer built from
//!
//! * inline expansion (§3.1, [`inline`]),
//! * generalized induction-variable substitution and reduction
//!   recognition (§3.2, [`induction`], [`reduction`]),
//! * symbolic dependence analysis — range propagation, the range test
//!   with loop permutation, plus classical GCD/Banerjee tests
//!   (§3.3, [`rangeprop`], [`ddtest`]),
//! * scalar and array privatization with demand-driven symbolic value
//!   resolution and the compaction-idiom recognizer (§3.4, [`privatize`]),
//! * selection of loops for run-time speculative parallelization
//!   (§3.5, made concrete by `polaris-machine`'s LRPD test),
//!
//! glued together by the per-loop dependence driver (`deps`) and the
//! pipeline in [`compile`].
//!
//! Two pass configurations matter for the evaluation:
//! [`PassOptions::polaris`] (everything on) and [`PassOptions::vfa`]
//! ("Vendor Fortran Analyzer" — the PFA-like baseline: linear dependence
//! tests, simple inductions, scalar-only privatization and reductions, no
//! inlining, no run-time tests), which reproduces the capability split
//! the paper measures in Figure 7.

pub mod constprop;
pub mod dce;
pub mod ddtest;
pub(crate) mod deps;
pub mod idxprop;
pub mod induction;
pub mod inline;
mod iterview;
pub mod nestdeps;
pub mod normalize;
pub mod pipeline;
pub mod privatize;
pub mod rangeprop;
pub mod reduction;

pub use ddtest::DdStats;
pub use deps::LoopReport;
pub use induction::InductionMode;
pub use pipeline::{
    CancelToken, CorruptKind, FaultKind, FaultPlan, StageOutcome, CANCELLED_PREFIX, STAGE_NAMES,
};

use idxprop::IdxPropReport;
use nestdeps::NestReport;
use pipeline::{Pipeline, StageReport, VerifyStats};

use polaris_ir::error::Result;
use polaris_ir::Program;

/// Pass configuration. See the paper-to-flag mapping on each field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOptions {
    /// §3.1 full inline expansion into the main unit.
    pub inline: bool,
    /// Dead scalar-assignment elimination after the rewriting passes.
    pub dce: bool,
    /// §3.2 induction-variable substitution aggressiveness.
    pub induction: InductionMode,
    /// §3.2 array (histogram / single-address) reductions, beside the
    /// scalar ones both configurations recognize.
    pub array_reductions: bool,
    /// §3.3.1 the range test (the classical GCD + Banerjee tests always
    /// run behind it).
    pub range_test: bool,
    /// §3.3.1 loop permutation inside the range test.
    pub permutation: bool,
    /// §3.4 array privatization (scalars are always privatized).
    pub array_privatization: bool,
    /// §3.5 mark unanalyzable loops for run-time (LRPD) testing.
    pub speculation: bool,
    /// Subscripted-subscript analysis: prove index-array content
    /// properties (monotone/injective/bounded/permutation) from their
    /// defining fills and use them to parallelize `A(IDX(I))` loops the
    /// classic tests abstain on (Bhosale & Eigenmann-style).
    pub index_props: bool,
    /// The nest stages, each gated by the `nestdeps` legality prover:
    /// interchange driven by the locality cost model, rectangular tiling
    /// of fully permutable stencil bands, and fusion of adjacent
    /// conformable producer/consumer loops.
    pub nest_opts: bool,
    /// Deterministic fault injection for exercising the pipeline's
    /// rollback paths (empty in both presets).
    pub faults: FaultPlan,
}

impl PassOptions {
    /// The full Polaris configuration.
    pub fn polaris() -> PassOptions {
        PassOptions {
            inline: true,
            dce: true,
            induction: InductionMode::Generalized,
            array_reductions: true,
            range_test: true,
            permutation: true,
            array_privatization: true,
            speculation: true,
            index_props: true,
            nest_opts: true,
            faults: FaultPlan::none(),
        }
    }

    /// The PFA-like baseline ("Vendor Fortran Analyzer"): what the paper
    /// describes as the capability set of contemporary commercial
    /// parallelizers.
    pub fn vfa() -> PassOptions {
        PassOptions {
            inline: false,
            dce: false,
            induction: InductionMode::Simple,
            array_reductions: false,
            range_test: false,
            permutation: false,
            array_privatization: false,
            speculation: false,
            index_props: false,
            nest_opts: false,
            faults: FaultPlan::none(),
        }
    }

    /// This configuration with the given fault plan (testing convenience).
    pub fn with_faults(mut self, faults: FaultPlan) -> PassOptions {
        self.faults = faults;
        self
    }
}

/// Everything the pipeline did, for reports, tests and the harnesses.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    pub inline: inline::InlineStats,
    pub(crate) constprop: constprop::ConstPropStats,
    pub normalize: normalize::NormalizeStats,
    pub(crate) dce: dce::DceStats,
    pub induction: induction::InductionStats,
    pub reductions_flagged: usize,
    pub loops: Vec<LoopReport>,
    /// (banerjee direction vectors, gcd tests, range probes, permutations)
    pub dd_counters: (u64, u64, u64, u64),
    /// Range-test query outcomes: (run, proved, disproved, abstained);
    /// `run` always equals the sum of the other three.
    pub dd_range: (u64, u64, u64, u64),
    /// Range facts propagated into the analysis environment.
    pub(crate) ranges_propagated: u64,
    /// What the `idxprop` stage proved about index-array contents.
    pub idxprop: IdxPropReport,
    /// Property-rule disjointness outcomes: (run, proved).
    pub dd_props: (u64, u64),
    /// What the nest-transformation stages (`interchange`/`tile`/`fuse`)
    /// summarized, proved and applied, with one [`polaris_ir::cert::LegalityCert`]
    /// per applied transformation.
    pub nest: NestReport,
    /// Per-stage outcomes from the fault-isolating pipeline, in run order.
    pub stages: Vec<StageReport>,
    /// Inter-pass verifier totals: invariant checks run at stage
    /// boundaries and violations caught (each violation rolled a stage
    /// back).
    pub verify: VerifyStats,
}

impl CompileReport {
    pub fn parallel_loops(&self) -> usize {
        self.loops.iter().filter(|l| l.parallel).count()
    }

    pub fn speculative_loops(&self) -> usize {
        self.loops.iter().filter(|l| l.speculative).count()
    }

    pub fn loop_report(&self, frag: &str) -> Option<&LoopReport> {
        self.loops.iter().find(|l| l.label.contains(frag))
    }

    /// The stage entry with the given [`STAGE_NAMES`] name.
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// True when at least one stage was rolled back: the compile finished,
    /// but with reduced transformation/analysis coverage.
    pub fn degraded(&self) -> bool {
        self.stages.iter().any(|s| s.rolled_back())
    }

    /// Names of stages that were rolled back, in run order.
    pub fn rolled_back_stages(&self) -> Vec<&'static str> {
        self.stages.iter().filter(|s| s.rolled_back()).map(|s| s.name).collect()
    }
}

/// Run the full restructuring pipeline in place.
///
/// The input program is validated up front (an invalid input is a hard
/// error), then every pass runs as an isolated stage of the
/// fault-isolating `Pipeline`: snapshotted, `catch_unwind`-guarded, and
/// re-validated at each boundary, with rollback on any misbehaviour — the
/// `p_assert` discipline. A rolled-back stage degrades the compile (see
/// [`CompileReport::degraded`]) but never aborts it and never lets
/// ill-formed IR escape.
pub fn compile(program: &mut Program, opts: &PassOptions) -> Result<CompileReport> {
    let rec = polaris_obs::Recorder::disabled();
    Pipeline::standard(opts).run_cancellable(program, opts, &rec, &CancelToken::new())
}

/// [`compile`] with an observability [`polaris_obs::Recorder`] attached:
/// a `compile` root span encloses per-pass, per-unit and per-loop spans,
/// and the report's statistics are mirrored into typed counters (see
/// `polaris_obs::Counter`). `compile` itself is exactly this with
/// `Recorder::disabled()`.
pub fn compile_recorded(
    program: &mut Program,
    opts: &PassOptions,
    rec: &polaris_obs::Recorder,
) -> Result<CompileReport> {
    Pipeline::standard(opts).run_cancellable(program, opts, rec, &CancelToken::new())
}

/// Convenience: parse, compile with the Polaris configuration, return
/// the transformed program and the report.
pub fn parse_and_compile(source: &str, opts: &PassOptions) -> Result<(Program, CompileReport)> {
    let mut program = polaris_ir::parse(source)?;
    let report = compile(&mut program, opts)?;
    Ok((program, report))
}

/// [`compile_recorded`] with a [`CancelToken`] checked at every stage
/// boundary — the entry point a deadline watchdog (e.g. `polarisd`) uses.
/// Stages not yet started when the token fires report as rolled back with
/// a [`CANCELLED_PREFIX`] reason; the program stays well-formed.
pub fn compile_cancellable(
    program: &mut Program,
    opts: &PassOptions,
    rec: &polaris_obs::Recorder,
    cancel: &CancelToken,
) -> Result<CompileReport> {
    Pipeline::standard(opts).run_cancellable(program, opts, rec, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_trfd_end_to_end() {
        // The paper's running example: original TRFD-style source with
        // the raw induction variables — Polaris parallelizes everything,
        // VFA nothing (the nonlinear closed forms defeat linear tests,
        // and without generalized induction the recurrences serialize).
        let src = "program trfd\n\
                   real a(100000)\n\
                   integer x, x0\n\
                   !$assert (n >= 1)\n\
                   x0 = 0\n\
                   do i = 0, m - 1\n\
                   \x20 x = x0\n\
                   \x20 do j = 0, n - 1\n\
                   \x20   do k = 0, j - 1\n\
                   \x20     x = x + 1\n\
                   \x20     a(x) = 1.0\n\
                   \x20   end do\n\
                   \x20 end do\n\
                   \x20 x0 = x0 + (n**2 + n)/2\n\
                   end do\n\
                   end\n";
        let (_, report) = parse_and_compile(src, &PassOptions::polaris()).unwrap();
        assert_eq!(report.parallel_loops(), 3, "{:#?}", report.loops);
        assert!(report.induction.additive_removed >= 2);

        let (_, vfa) = parse_and_compile(src, &PassOptions::vfa()).unwrap();
        // VFA legitimately handles the textbook innermost loop (simple
        // induction + linear test) but not the outer loops where the
        // paper's speedup lives.
        assert!(!vfa.loop_report("do6").unwrap().parallel, "{:#?}", vfa.loops);
        assert!(!vfa.loop_report("do8").unwrap().parallel, "{:#?}", vfa.loops);
    }

    #[test]
    fn pipeline_inlines_then_parallelizes() {
        let src = "program t\n\
                   real v(1000)\n\
                   call fill(v, 1000)\n\
                   print *, v(1)\n\
                   end\n\
                   subroutine fill(a, n)\n\
                   real a(n)\n\
                   integer n\n\
                   do i = 1, n\n\
                   \x20 a(i) = i * 2.0\n\
                   end do\n\
                   end\n";
        let (_, report) = parse_and_compile(src, &PassOptions::polaris()).unwrap();
        assert_eq!(report.inline.call_sites_expanded, 1);
        assert_eq!(report.parallel_loops(), 1, "{:#?}", report.loops);
        // VFA does not inline: the main unit keeps the CALL (and has no
        // loop of its own to parallelize); it may still analyze the
        // callee's loop in isolation, as PFA did.
        let (_, vfa) = parse_and_compile(src, &PassOptions::vfa()).unwrap();
        assert!(vfa.loops.iter().all(|l| l.unit == "FILL"), "{:#?}", vfa.loops);
    }

    #[test]
    fn report_counters_populated() {
        let src = "program t\nreal a(100)\ndo i = 1, 100\n  a(i) = 1.0\nend do\nend\n";
        let (_, report) = parse_and_compile(src, &PassOptions::polaris()).unwrap();
        let (_, _, range_probes, _) = report.dd_counters;
        assert!(range_probes >= 1);
        let (_, vfa) = parse_and_compile(src, &PassOptions::vfa()).unwrap();
        let (banerjee, gcd, _, _) = vfa.dd_counters;
        assert!(banerjee + gcd >= 1);
    }

    #[test]
    fn options_presets_differ_where_expected() {
        let p = PassOptions::polaris();
        let v = PassOptions::vfa();
        assert!(p.range_test && !v.range_test);
        assert!(p.array_privatization && !v.array_privatization);
        assert!(p.speculation && !v.speculation);
        assert!(p.inline && !v.inline);
    }
}

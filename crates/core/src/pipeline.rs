//! Fault-isolating pass pipeline (the paper's `p_assert` discipline made
//! operational).
//!
//! Polaris ran internal consistency checks after every transformation so a
//! buggy pass was caught at the point of damage instead of being silently
//! compiled. This module goes one step further: each pass runs as a named
//! `Stage` under [`std::panic::catch_unwind`], and the IR is re-validated
//! at every stage boundary. A stage that panics, returns an error, or
//! leaves ill-formed IR is *rolled back*: the program and the in-progress
//! [`CompileReport`] become what they were before it, a structured
//! diagnostic is recorded in the report, and the remaining passes still
//! run. The worst case is a degraded compile — fewer loops parallelized —
//! never an ill-formed program and never an aborted compiler.
//!
//! The report is snapshotted before every stage (it is small). The
//! [`Program`] is snapshotted **once**, after the input validates, and a
//! rollback *recomputes* the pre-stage program from that snapshot by
//! re-running the stages that completed: faults are the rare case, a clone
//! per stage was a third of a clean compile. This rests on one rule every
//! stage body must keep: **it is a pure function of `(program, opts)`** —
//! no clock, no hash-order iteration, no global state. A replay that does
//! not reproduce is itself contained (see `Pipeline::roll_back`).
//!
//! [`FaultPlan`] provides deterministic fault injection ("panic in pass X
//! on unit Y") so every rollback path is testable; the benchmark fault
//! sweep and the differential fuzz harness drive it.

use crate::{constprop, dce, deps, idxprop, induction, inline, normalize, reduction};
use crate::{CompileReport, DdStats, PassOptions};
use polaris_ir::error::Result;
use polaris_ir::{Program, ProgramUnit};
use polaris_obs::{Counter, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Names of the standard pipeline stages, in execution order. These are the
/// strings [`FaultPlan`] and `polarisc --diag` refer to.
pub const STAGE_NAMES: [&str; 12] = [
    "inline",
    "constprop",
    "normalize",
    "induction",
    "constprop-fold",
    "dce",
    "reduction",
    "idxprop",
    "interchange",
    "tile",
    "fuse",
    "analyze",
];

/// What happened to one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutcome {
    /// Ran to completion and the result validated.
    Ok,
    /// Disabled by the active [`PassOptions`]; the program was not touched.
    Skipped,
    /// Panicked, errored, or produced ill-formed IR; the pre-stage program
    /// was restored. The payload says why.
    RolledBack { reason: String },
}

/// Per-stage entry in the [`CompileReport`].
#[derive(Debug, Clone)]
pub struct StageReport {
    pub name: &'static str,
    pub outcome: StageOutcome,
    pub duration: Duration,
    /// Statement-count change across the stage (0 for skipped/rolled-back).
    pub ir_delta: i64,
}

impl StageReport {
    pub(crate) fn rolled_back(&self) -> bool {
        matches!(self.outcome, StageOutcome::RolledBack { .. })
    }

    pub(crate) fn ran_ok(&self) -> bool {
        self.outcome == StageOutcome::Ok
    }
}

/// Deterministic fault injection: make named stages panic or corrupt the
/// IR they produce, optionally only when a given program unit is present.
/// Wired through [`PassOptions`] so rollback paths can be exercised from
/// any entry point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
}

/// How an armed [`FaultPoint`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the stage body (caught by `catch_unwind`).
    Panic,
    /// Let the stage complete, then silently damage its output IR — the
    /// post-stage verifier, not the unwinder, must catch this one.
    Corrupt(CorruptKind),
    /// Sleep for this many milliseconds before the stage body runs: a
    /// deterministic stand-in for a pathological unit that blows a wall
    /// deadline. The stage then completes normally; a watchdog firing a
    /// [`CancelToken`] is what turns the stall into a degraded compile.
    Stall(u64),
    /// Make a nest-transformation stage (`interchange`/`tile`/`fuse`)
    /// apply its best **rejected** candidate, certificate and all — the
    /// stage completes and the IR stays well-formed, so only the
    /// `polaris-verify` cert re-prover can catch the lie.
    ForceIllegal,
}

/// The specific IR damage a [`FaultKind::Corrupt`] point inflicts,
/// matched one-to-one to an invariant in
/// [`polaris_ir::validate::INVARIANTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Give a second loop the [`polaris_ir::stmt::LoopId`] of the first
    /// (violates `loop-id-provenance`).
    DuplicateLoopId,
    /// Drop the symbol-table entry of an assigned array (violates
    /// `symbol-use`).
    DanglingSymbol,
    /// Flip a scalar arithmetic assignment target to LOGICAL (violates
    /// `type-agreement`).
    TypePun,
}

impl CorruptKind {
    /// All corruption kinds, for sweep-style tests.
    pub const ALL: [CorruptKind; 3] =
        [CorruptKind::DuplicateLoopId, CorruptKind::DanglingSymbol, CorruptKind::TypePun];
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPoint {
    /// Stage name, one of [`STAGE_NAMES`].
    pub stage: String,
    /// Restrict the fault to programs containing this unit (case-insensitive).
    pub unit: Option<String>,
    /// What the fault does when it fires.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// No injected faults (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panic when `stage` runs.
    pub fn panic_in(stage: impl Into<String>) -> FaultPlan {
        FaultPlan {
            points: vec![FaultPoint { stage: stage.into(), unit: None, kind: FaultKind::Panic }],
        }
    }

    /// Panic when `stage` runs on a program containing `unit`.
    pub fn panic_in_unit(stage: impl Into<String>, unit: impl Into<String>) -> FaultPlan {
        FaultPlan {
            points: vec![FaultPoint {
                stage: stage.into(),
                unit: Some(unit.into()),
                kind: FaultKind::Panic,
            }],
        }
    }

    /// Corrupt the IR after `stage` completes (the stage itself succeeds;
    /// the post-stage invariant check must detect the damage).
    pub fn corrupt_in(stage: impl Into<String>, kind: CorruptKind) -> FaultPlan {
        FaultPlan {
            points: vec![FaultPoint {
                stage: stage.into(),
                unit: None,
                kind: FaultKind::Corrupt(kind),
            }],
        }
    }

    /// Stall for `millis` before `stage` runs (deterministic deadline blow).
    pub fn stall_in(stage: impl Into<String>, millis: u64) -> FaultPlan {
        FaultPlan {
            points: vec![FaultPoint {
                stage: stage.into(),
                unit: None,
                kind: FaultKind::Stall(millis),
            }],
        }
    }

    /// Force a nest-transformation stage to apply an illegal candidate.
    pub fn force_in(stage: impl Into<String>) -> FaultPlan {
        FaultPlan {
            points: vec![FaultPoint {
                stage: stage.into(),
                unit: None,
                kind: FaultKind::ForceIllegal,
            }],
        }
    }

    /// Add an arbitrary fault point.
    pub fn and_point(mut self, point: FaultPoint) -> FaultPlan {
        self.points.push(point);
        self
    }

    /// Add a further fault point.
    pub fn and_panic_in(mut self, stage: impl Into<String>) -> FaultPlan {
        self.points.push(FaultPoint { stage: stage.into(), unit: None, kind: FaultKind::Panic });
        self
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The fault point armed for this stage on this program, if any.
    pub fn armed_for(&self, stage: &str, program: &Program) -> Option<&FaultPoint> {
        self.points.iter().find(|p| {
            p.stage == stage
                && p.unit.as_deref().is_none_or(|u| {
                    program.units.iter().any(|pu| pu.name.eq_ignore_ascii_case(u))
                })
        })
    }

    /// Fire the point armed for this stage, if any: a [`FaultKind::Panic`]
    /// point panics (called inside the pipeline's `catch_unwind` region,
    /// so the panic becomes a rollback); a [`FaultKind::Stall`] point
    /// sleeps, simulating a pathological stage a deadline watchdog must
    /// cancel around.
    pub(crate) fn fire(&self, stage: &str, program: &Program) {
        if let Some(point) = self.armed_for(stage, program) {
            match point.kind {
                FaultKind::Corrupt(_) | FaultKind::ForceIllegal => {}
                FaultKind::Stall(millis) => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                FaultKind::Panic => match &point.unit {
                    Some(unit) => panic!("injected fault: stage `{stage}` on unit `{unit}`"),
                    None => panic!("injected fault: stage `{stage}`"),
                },
            }
        }
    }

    /// Is a [`FaultKind::ForceIllegal`] point armed for this stage? The
    /// nest-transformation stage bodies query this to apply a rejected
    /// candidate instead of refusing it.
    pub(crate) fn forces_illegal(&self, stage: &str, program: &Program) -> bool {
        matches!(
            self.armed_for(stage, program),
            Some(FaultPoint { kind: FaultKind::ForceIllegal, .. })
        )
    }

    /// Apply an armed [`FaultKind::Corrupt`] point's damage to the IR.
    /// Called after the stage body succeeds, still inside the guarded
    /// region, so the post-stage verifier is what must notice.
    pub(crate) fn corrupt_after(&self, stage: &str, program: &mut Program) {
        let kind = match self.armed_for(stage, program) {
            Some(FaultPoint { kind: FaultKind::Corrupt(k), .. }) => *k,
            _ => return,
        };
        apply_corruption(kind, program);
    }
}

/// Inflict `kind`'s damage on the first eligible site in the program.
/// No-op when no site qualifies (e.g. fewer than two loops for
/// [`CorruptKind::DuplicateLoopId`]).
fn apply_corruption(kind: CorruptKind, program: &mut Program) {
    use polaris_ir::expr::{Expr, LValue};
    use polaris_ir::stmt::StmtKind;
    use polaris_ir::types::DataType;
    match kind {
        CorruptKind::DuplicateLoopId => {
            for unit in &mut program.units {
                let mut first = None;
                let mut done = false;
                unit.body.walk_mut(&mut |s| {
                    if done {
                        return;
                    }
                    if let Some(d) = s.as_do_mut() {
                        match first {
                            None => first = Some(d.loop_id),
                            Some(id) => {
                                d.loop_id = id;
                                done = true;
                            }
                        }
                    }
                });
                if done {
                    return;
                }
            }
        }
        CorruptKind::DanglingSymbol => {
            for unit in &mut program.units {
                let mut victim = None;
                unit.body.walk(&mut |s| {
                    if victim.is_none() {
                        if let StmtKind::Assign { lhs: LValue::Index { array, .. }, .. } = &s.kind {
                            victim = Some(array.clone());
                        }
                    }
                });
                if let Some(name) = victim {
                    unit.symbols.remove(&name);
                    return;
                }
            }
        }
        CorruptKind::TypePun => {
            for unit in &mut program.units {
                let mut victim = None;
                unit.body.walk(&mut |s| {
                    if victim.is_none() {
                        if let StmtKind::Assign { lhs: LValue::Var(name), rhs, .. } = &s.kind {
                            let arithmetic_rhs = matches!(rhs, Expr::Int(_) | Expr::Real(_))
                                || matches!(rhs, Expr::Bin { op, .. } if op.is_arithmetic());
                            let scalar_arith = unit
                                .symbols
                                .get(name)
                                .is_some_and(|sym| sym.rank() == 0 && sym.ty != DataType::Logical);
                            if arithmetic_rhs && scalar_arith {
                                victim = Some(name.clone());
                            }
                        }
                    }
                });
                if let Some(name) = victim {
                    if let Some(sym) = unit.symbols.get_mut(&name) {
                        sym.ty = DataType::Logical;
                    }
                    return;
                }
            }
        }
    }
}

/// Cooperative cancellation for an in-flight compile. Cloned handles share
/// one flag; any holder (typically a deadline watchdog on another thread)
/// can [`cancel`](CancelToken::cancel) it, and the pipeline checks the flag
/// at every stage boundary. Cancellation is *cooperative*: the stage that
/// is currently running finishes (or rolls back) normally, and every stage
/// not yet started reports [`StageOutcome::RolledBack`] with a
/// `cancelled: …` reason — the program stays well-formed and the compile
/// classifies as degraded, never as a hang or an abort.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: std::sync::Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: std::sync::atomic::AtomicBool,
    reason: std::sync::Mutex<Option<String>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. The first caller's reason wins; later calls
    /// are no-ops.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut slot = match self.inner.reason.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if !self.inner.cancelled.swap(true, std::sync::atomic::Ordering::SeqCst) {
            *slot = Some(reason.into());
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The first cancellation reason, if cancelled.
    pub fn reason(&self) -> Option<String> {
        match self.inner.reason.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }
}

/// Prefix of the rollback reason recorded for stages skipped by a
/// [`CancelToken`]; callers classify deadline-degraded compiles by it.
pub const CANCELLED_PREFIX: &str = "cancelled: ";

type StageFn = fn(&mut Program, &PassOptions, &mut CompileReport, &Recorder) -> Result<()>;

struct Stage {
    name: &'static str,
    enabled: bool,
    run: StageFn,
}

/// The fault-isolating pass driver. See the module docs for the contract.
pub(crate) struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// The standard restructuring pipeline, with stages enabled according
    /// to `opts` (same pass order `compile` has always used).
    pub(crate) fn standard(opts: &PassOptions) -> Pipeline {
        Pipeline {
            stages: vec![
                Stage { name: "inline", enabled: opts.inline, run: stage_inline },
                Stage { name: "constprop", enabled: true, run: stage_constprop },
                Stage { name: "normalize", enabled: true, run: stage_normalize },
                Stage { name: "induction", enabled: true, run: stage_induction },
                Stage { name: "constprop-fold", enabled: true, run: stage_constprop_fold },
                Stage { name: "dce", enabled: opts.dce, run: stage_dce },
                Stage { name: "reduction", enabled: true, run: stage_reduction },
                Stage { name: "idxprop", enabled: opts.index_props, run: stage_idxprop },
                Stage { name: "interchange", enabled: opts.nest_opts, run: stage_interchange },
                Stage { name: "tile", enabled: opts.nest_opts, run: stage_tile },
                Stage { name: "fuse", enabled: opts.nest_opts, run: stage_fuse },
                Stage { name: "analyze", enabled: true, run: stage_analyze },
            ],
        }
    }

    /// Run every stage in place over `program`.
    ///
    /// The input must be well-formed — an invalid *input* is the caller's
    /// bug and reports as a hard error. After that, per-stage failures are
    /// contained: run under `catch_unwind`, validate, and roll back on any
    /// misbehaviour, then continue with the remaining stages.
    ///
    /// `rec` gets a `compile` root span enclosing one `pass:<name>` span
    /// per enabled stage, and the report's counters after the last stage;
    /// with `Recorder::disabled()` every hook is a no-op.
    ///
    /// `cancel` is checked at every stage boundary. Once the token fires,
    /// each remaining enabled stage is recorded as `RolledBack` with reason
    /// `cancelled: <token reason>` and the program is left exactly as the
    /// last completed stage produced it (still validated, still
    /// well-formed; nothing is replayed to get there). The token is not
    /// consulted *inside* a rollback: a stage that fails after the token
    /// fired is still rolled back in full. This is the hook `polarisd`'s
    /// deadline watchdog uses.
    pub(crate) fn run_cancellable(
        &self,
        program: &mut Program,
        opts: &PassOptions,
        rec: &Recorder,
        cancel: &CancelToken,
    ) -> Result<CompileReport> {
        polaris_ir::validate::validate_program(program)?;
        // The one snapshot of the compile: see `roll_back`.
        let pristine = program.clone();
        let mut report = CompileReport::default();
        let compile_span = rec.span("compile", "compile");
        // Verify statistics live outside `report` while the loop runs: a
        // rollback restores the report snapshot, and the check that
        // *caused* the rollback must still be counted.
        let mut verify = VerifyStats::default();

        for stage in &self.stages {
            if stage.enabled && cancel.is_cancelled() {
                let why = cancel.reason().unwrap_or_else(|| "cancelled".into());
                report.stages.push(StageReport {
                    name: stage.name,
                    outcome: StageOutcome::RolledBack {
                        reason: format!("{CANCELLED_PREFIX}{why}"),
                    },
                    duration: Duration::ZERO,
                    ir_delta: 0,
                });
                continue;
            }
            if !stage.enabled {
                report.stages.push(StageReport {
                    name: stage.name,
                    outcome: StageOutcome::Skipped,
                    duration: Duration::ZERO,
                    ir_delta: 0,
                });
                continue;
            }

            let report_snapshot = report.clone();
            let size_before = ir_size(program);
            // Span names are built only for an enabled recorder.
            let name = if rec.is_enabled() { format!("pass:{}", stage.name) } else { String::new() };
            let stage_span = rec.span("compile", name);
            let started = Instant::now();

            let run_result = with_silent_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    opts.faults.fire(stage.name, program);
                    let out = (stage.run)(program, opts, &mut report, rec);
                    if out.is_ok() {
                        opts.faults.corrupt_after(stage.name, program);
                    }
                    out
                }))
            });
            let duration = started.elapsed();
            stage_span.end();

            let failure = stage_failure(run_result)
                .or_else(|| check_stage_output(stage.name, program, rec, &mut verify));

            match failure {
                None => {
                    report.stages.push(StageReport {
                        name: stage.name,
                        outcome: StageOutcome::Ok,
                        duration,
                        ir_delta: ir_size(program) as i64 - size_before as i64,
                    });
                }
                Some(reason) => {
                    report = report_snapshot;
                    self.roll_back(program, &pristine, opts, &mut report);
                    report.stages.push(StageReport {
                        name: stage.name,
                        outcome: StageOutcome::RolledBack { reason },
                        duration,
                        ir_delta: 0,
                    });
                }
            }
        }

        report.verify = verify;
        record_compile_counters(rec, program, &report);
        compile_span.end();
        Ok(report)
    }

    /// Put `program` back to what it was before the stage that just
    /// failed: the validated input, with every stage `report` lists as
    /// `Ok` run over it again, in order. A stage body is a pure function
    /// of `(program, opts)`, so this is the program the failed stage
    /// started from. The re-runs fire no faults, record nothing, are not
    /// validated (their output already was) and write to a scratch
    /// report; a [`CancelToken`] is not consulted, the work being bounded
    /// by time this compile already spent once.
    ///
    /// Should a re-run err or panic after all (a body that broke the
    /// purity rule), nothing it ever produced can be trusted: `program`
    /// becomes the validated input and every completed stage is marked
    /// rolled back, its results dropped from `report`.
    fn roll_back(
        &self,
        program: &mut Program,
        pristine: &Program,
        opts: &PassOptions,
        report: &mut CompileReport,
    ) {
        *program = pristine.clone();
        let replayed = with_silent_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut scratch = CompileReport::default();
                for (stage, done) in self.stages.iter().zip(&report.stages) {
                    if done.ran_ok() {
                        (stage.run)(program, opts, &mut scratch, &Recorder::disabled())?;
                    }
                }
                Ok(())
            }))
        });
        let Some(why) = stage_failure(replayed) else { return };
        *program = pristine.clone();
        let mut stages = std::mem::take(&mut report.stages);
        for done in stages.iter_mut().filter(|done| done.ran_ok()) {
            done.outcome = StageOutcome::RolledBack { reason: format!("replay diverged: {why}") };
            done.ir_delta = 0;
        }
        *report = CompileReport { stages, ..CompileReport::default() };
    }
}

/// Why a stage body's guarded run did not complete, if it did not.
fn stage_failure(run: std::thread::Result<Result<()>>) -> Option<String> {
    match run {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(format!("pass error: {e}")),
        Err(payload) => Some(format!("panic: {}", panic_message(payload.as_ref()))),
    }
}

/// What the inter-pass verifier did over one compile: how many invariant
/// checks ran (one per invariant in
/// [`polaris_ir::validate::INVARIANTS`] per verified stage boundary) and
/// how many violations were caught (each one names a stage and triggers
/// its rollback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyStats {
    pub invariants_checked: u64,
    pub violations: u64,
}

/// Run the full invariant set over the IR a stage just produced. Returns
/// the rollback reason when the IR is ill-formed, naming the violated
/// invariant. The checker itself runs under `catch_unwind`: corrupt IR
/// could make the structural walks (e.g. CFG construction) panic, and a
/// verifier crash on damaged input is itself proof of damage, not a
/// reason to abort the compile.
fn check_stage_output(
    stage: &str,
    program: &Program,
    rec: &Recorder,
    verify: &mut VerifyStats,
) -> Option<String> {
    let name = if rec.is_enabled() { format!("verify:{stage}") } else { String::new() };
    let span = rec.span("verify", name);
    let outcome = with_silent_panics(|| {
        catch_unwind(AssertUnwindSafe(|| polaris_ir::validate::check_program(program)))
    });
    span.end();
    verify.invariants_checked += polaris_ir::validate::INVARIANTS.len() as u64;
    match outcome {
        Ok(violations) if violations.is_empty() => None,
        Ok(violations) => {
            verify.violations += violations.len() as u64;
            Some(format!("post-stage validation failed: {}", violations[0]))
        }
        Err(payload) => {
            verify.violations += 1;
            Some(format!(
                "post-stage validation failed: verifier panicked: {}",
                panic_message(payload.as_ref())
            ))
        }
    }
}

/// Mirror the final [`CompileReport`] into the recorder's typed counters
/// so the metrics document and the report can never disagree. The
/// compile-side loop partition is exclusive — speculative, else parallel,
/// else serial — and always sums to `compile.loops.total`.
fn record_compile_counters(rec: &Recorder, program: &Program, report: &CompileReport) {
    if !rec.is_enabled() {
        return;
    }
    rec.count(Counter::InlineSplices, report.inline.call_sites_expanded as u64);
    rec.count(
        Counter::InductionSubstitutions,
        (report.induction.additive_removed + report.induction.multiplicative_removed) as u64,
    );
    rec.count(Counter::ReductionsRecognized, report.reductions_flagged as u64);

    let (banerjee, gcd, probes, perms) = report.dd_counters;
    rec.count(Counter::BanerjeeVectors, banerjee);
    rec.count(Counter::GcdTests, gcd);
    rec.count(Counter::RangeProbes, probes);
    rec.count(Counter::PermutationsUsed, perms);
    let (run, proved, disproved, abstained) = report.dd_range;
    rec.count(Counter::RangeTestsRun, run);
    rec.count(Counter::RangeProved, proved);
    rec.count(Counter::RangeDisproved, disproved);
    rec.count(Counter::RangeAbstained, abstained);
    rec.count(Counter::RangesPropagated, report.ranges_propagated);
    rec.count(Counter::IdxPropsProved, report.idxprop.proved as u64);
    let (props_run, props_proved) = report.dd_props;
    rec.count(Counter::PropsTestsRun, props_run);
    rec.count(Counter::PropsProved, props_proved);

    let mut parallel = 0u64;
    let mut speculative = 0u64;
    let mut serial = 0u64;
    let mut arrays_privatized = 0u64;
    for lr in &report.loops {
        if lr.speculative {
            speculative += 1;
        } else if lr.parallel {
            parallel += 1;
        } else {
            serial += 1;
        }
        if let Some(unit) = program.units.iter().find(|u| u.name == lr.unit) {
            arrays_privatized += lr
                .private
                .iter()
                .filter(|name| unit.symbols.get(name).is_some_and(|s| s.rank() > 0))
                .count() as u64;
        }
    }
    rec.count(Counter::CompileLoopsParallel, parallel);
    rec.count(Counter::CompileLoopsSpeculative, speculative);
    rec.count(Counter::CompileLoopsSerial, serial);
    rec.count(Counter::CompileLoopsTotal, report.loops.len() as u64);
    rec.count(Counter::ArraysPrivatized, arrays_privatized);

    rec.count(Counter::VerifyInvariantChecks, report.verify.invariants_checked);
    rec.count(Counter::VerifyInvariantViolations, report.verify.violations);
}

thread_local! {
    static SILENCE_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}
static PANIC_HOOK: std::sync::Once = std::sync::Once::new();

/// Run `f` with the default panic hook muted *on this thread only*: a
/// stage panic is a contained, reported event (it becomes a
/// `RolledBack` outcome), so the hook's "thread panicked" banner and
/// backtrace are pure noise. Panics on other threads — including
/// genuine test failures running concurrently — still print normally,
/// because the installed hook defers to the previous one unless the
/// current thread is inside this guard.
fn with_silent_panics<T>(f: impl FnOnce() -> T) -> T {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SILENCE_PANICS.with(|s| s.set(true));
    let out = f();
    SILENCE_PANICS.with(|s| s.set(false));
    out
}

/// Total statement count across all units — the size metric behind
/// [`StageReport::ir_delta`].
pub fn ir_size(program: &Program) -> usize {
    let mut n = 0usize;
    for unit in &program.units {
        unit.body.walk(&mut |_| n += 1);
    }
    n
}

/// The text of a panic payload: its `&str` or `String` message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn stage_inline(program: &mut Program, _opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    report.inline = inline::inline_all(program)?;
    Ok(())
}

/// The units every stage after `inline` restructures — the one scope
/// rule of the pipeline. With `opts.inline` the driver "repeatedly
/// expands subroutine and function calls in the top-level program unit"
/// (§3.1): that unit alone runs, so it alone is restructured (none when
/// there is no PROGRAM unit), and the callees are carried through as
/// parsed, kept for selective code generation. That holds even when the
/// `inline` stage itself was rolled back: main then still `CALL`s
/// callees that were never analyzed, and they run serially as before.
/// Without `opts.inline` (VFA) every unit runs, and every unit is
/// restructured.
fn restructured<'p>(
    program: &'p mut Program,
    opts: &PassOptions,
) -> impl Iterator<Item = &'p mut ProgramUnit> {
    let main_only = opts.inline;
    program.units.iter_mut().filter(move |unit| !main_only || unit.is_main())
}

fn stage_constprop(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    report.constprop = constprop::ConstPropStats::default();
    for unit in restructured(program, opts) {
        report.constprop.absorb(constprop::run_unit(unit));
    }
    Ok(())
}

fn stage_normalize(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    let loops_normalized =
        restructured(program, opts).map(|unit| normalize::run_unit(unit).loops_normalized).sum();
    report.normalize = normalize::NormalizeStats { loops_normalized };
    Ok(())
}

fn stage_induction(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    report.induction = induction::InductionStats::default();
    for unit in restructured(program, opts) {
        report.induction.absorb(induction::run_unit_with(unit, opts.induction));
    }
    Ok(())
}

fn stage_constprop_fold(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    // fold induction entry values (K = 0) into the closed forms
    for unit in restructured(program, opts) {
        report.constprop.absorb(constprop::run_unit(unit));
    }
    Ok(())
}

fn stage_dce(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    let removed = restructured(program, opts).map(|unit| dce::run_unit(unit).removed).sum();
    report.dce = dce::DceStats { removed };
    Ok(())
}

fn stage_reduction(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    report.reductions_flagged = restructured(program, opts).map(reduction::flag_unit).sum();
    Ok(())
}

fn stage_idxprop(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    report.idxprop = idxprop::IdxPropReport::default();
    for unit in restructured(program, opts) {
        idxprop::annotate_unit(unit, &mut report.idxprop);
    }
    Ok(())
}

fn stage_interchange(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    let stats = DdStats::new();
    let forced = opts.faults.forces_illegal("interchange", program);
    for unit in restructured(program, opts) {
        crate::nestdeps::interchange_unit(unit, &stats, forced, &mut report.nest);
    }
    Ok(())
}

fn stage_tile(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    let stats = DdStats::new();
    let forced = opts.faults.forces_illegal("tile", program);
    for unit in restructured(program, opts) {
        crate::nestdeps::tile_unit(unit, &stats, forced, &mut report.nest);
    }
    Ok(())
}

fn stage_fuse(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, _rec: &Recorder) -> Result<()> {
    let stats = DdStats::new();
    let forced = opts.faults.forces_illegal("fuse", program);
    for unit in restructured(program, opts) {
        crate::nestdeps::fuse_unit(unit, &stats, forced, &mut report.nest);
    }
    Ok(())
}

fn stage_analyze(
    program: &mut Program,
    opts: &PassOptions,
    report: &mut CompileReport,
    rec: &Recorder,
) -> Result<()> {
    let stats = DdStats::new();
    // Every unit `restructured` names is analyzed, each from one liveness
    // numbering (`privatize::Liveness`); the callees of an inlined
    // program are neither analyzed nor reported. (If the inline stage
    // was rolled back, main may still contain CALLs — the dependence
    // driver then conservatively serializes those loops.)
    let mut loops = Vec::new();
    for unit in restructured(program, opts) {
        loops.extend(deps::analyze_unit_recorded(unit, opts, &stats, rec));
    }
    report.loops = loops;
    report.dd_counters = stats.snapshot();
    report.dd_range = stats.range_outcomes();
    report.ranges_propagated = stats.ranges_propagated.get();
    report.dd_props = stats.props_outcomes();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_and_compile;

    const TRFD: &str = "program trfd\n\
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

    #[test]
    fn clean_compile_reports_every_stage_ok() {
        let (program, report) =
            parse_and_compile(TRFD, &PassOptions::polaris()).unwrap();
        assert_eq!(report.stages.len(), STAGE_NAMES.len());
        for (stage, name) in report.stages.iter().zip(STAGE_NAMES) {
            assert_eq!(stage.name, name);
            assert!(stage.ran_ok(), "{stage:?}");
        }
        assert!(!report.degraded());
        polaris_ir::validate::validate_program(&program).unwrap();
        // Every enabled stage boundary ran the full invariant set.
        assert_eq!(
            report.verify.invariants_checked,
            (STAGE_NAMES.len() * polaris_ir::validate::INVARIANTS.len()) as u64,
        );
        assert_eq!(report.verify.violations, 0);
    }

    /// A source where every [`CorruptKind`] finds a target after every
    /// stage: two live loops (ids to duplicate), an array store that is
    /// later read (symbol to dangle), and a live scalar assignment with
    /// a literal rhs (type to pun). The loops have different bounds on
    /// purpose: conformable loops would legitimately fuse in the `fuse`
    /// stage, leaving [`CorruptKind::DuplicateLoopId`] without a second
    /// loop to damage.
    const TWO_LOOPS: &str = "program t\n\
                             real v(1000)\n\
                             s = 0.0\n\
                             do i = 1, 1000\n\
                             \x20 v(i) = i * 2.0\n\
                             end do\n\
                             do i = 1, 999\n\
                             \x20 s = s + v(i)\n\
                             end do\n\
                             print *, s\n\
                             end\n";

    #[test]
    fn corruption_after_any_stage_is_caught_attributed_and_rolled_back() {
        for kind in CorruptKind::ALL {
            for stage in STAGE_NAMES {
                let opts =
                    PassOptions::polaris().with_faults(FaultPlan::corrupt_in(stage, kind));
                let (program, report) = parse_and_compile(TWO_LOOPS, &opts)
                    .unwrap_or_else(|e| panic!("{kind:?} in `{stage}` aborted: {e}"));
                let sr = report.stage(stage).unwrap();
                match &sr.outcome {
                    StageOutcome::RolledBack { reason } => assert!(
                        reason.contains("post-stage validation failed: invariant"),
                        "{kind:?} in `{stage}`: {reason}"
                    ),
                    other => panic!("{kind:?} in `{stage}`: expected rollback, got {other:?}"),
                }
                assert!(report.verify.violations > 0, "{kind:?} in `{stage}`");
                assert_eq!(report.rolled_back_stages(), vec![stage]);
                polaris_ir::validate::validate_program(&program).unwrap_or_else(|e| {
                    panic!("ill-formed output after {kind:?} in `{stage}`: {e}")
                });
            }
        }
    }

    #[test]
    fn corruption_rollback_names_the_violated_invariant() {
        for (kind, invariant) in [
            (CorruptKind::DuplicateLoopId, "loop-id-provenance"),
            (CorruptKind::DanglingSymbol, "symbol-use"),
            (CorruptKind::TypePun, "type-agreement"),
        ] {
            let opts = PassOptions::polaris().with_faults(FaultPlan::corrupt_in("dce", kind));
            let (_, report) = parse_and_compile(TWO_LOOPS, &opts).unwrap();
            match &report.stage("dce").unwrap().outcome {
                StageOutcome::RolledBack { reason } => assert!(
                    reason.contains(&format!("invariant `{invariant}`")),
                    "{kind:?}: {reason}"
                ),
                other => panic!("{kind:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn injected_panic_rolls_back_and_remaining_passes_still_parallelize_trfd() {
        let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in("dce"));
        let (program, report) = parse_and_compile(TRFD, &opts).unwrap();
        let dce = report.stage("dce").unwrap();
        assert!(dce.rolled_back(), "{dce:?}");
        match &dce.outcome {
            StageOutcome::RolledBack { reason } => {
                assert!(reason.contains("injected fault"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
        assert!(report.degraded());
        assert_eq!(report.rolled_back_stages(), vec!["dce"]);
        // The paper's headline result must survive the dead stage: all
        // three TRFD loops still come out parallel.
        assert_eq!(report.parallel_loops(), 3, "{:#?}", report.loops);
        polaris_ir::validate::validate_program(&program).unwrap();
    }

    #[test]
    fn every_stage_fault_degrades_but_never_aborts() {
        for stage in STAGE_NAMES {
            let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in(stage));
            let (program, report) = parse_and_compile(TRFD, &opts)
                .unwrap_or_else(|e| panic!("compile aborted with fault in `{stage}`: {e}"));
            assert!(
                report.stage(stage).unwrap().rolled_back(),
                "fault in `{stage}` did not roll back"
            );
            polaris_ir::validate::validate_program(&program)
                .unwrap_or_else(|e| panic!("ill-formed output with fault in `{stage}`: {e}"));
        }
    }

    #[test]
    fn disabled_stages_are_skipped_and_faults_there_never_fire() {
        // VFA disables inlining; a fault planted in the inline stage must
        // be unreachable.
        let opts = PassOptions::vfa().with_faults(FaultPlan::panic_in("inline"));
        let (_, report) = parse_and_compile(TRFD, &opts).unwrap();
        assert_eq!(report.stage("inline").unwrap().outcome, StageOutcome::Skipped);
        assert!(!report.degraded());
    }

    #[test]
    fn unit_scoped_faults_fire_only_on_matching_programs() {
        let opts = PassOptions::polaris()
            .with_faults(FaultPlan::panic_in_unit("constprop", "ELSEWHERE"));
        let (_, report) = parse_and_compile(TRFD, &opts).unwrap();
        assert!(!report.degraded(), "fault for an absent unit fired");

        let opts = PassOptions::polaris()
            .with_faults(FaultPlan::panic_in_unit("constprop", "trfd"));
        let (_, report) = parse_and_compile(TRFD, &opts).unwrap();
        assert_eq!(report.rolled_back_stages(), vec!["constprop"]);
    }

    #[test]
    fn stage_that_leaves_ill_formed_ir_is_rolled_back() {
        // A custom pipeline whose middle stage corrupts the IR (arguments
        // on a PROGRAM unit are rejected by the validator).
        fn corrupt(program: &mut Program, _: &PassOptions, _: &mut CompileReport, _: &Recorder) -> Result<()> {
            program.units[0].args.push("BOGUS".into());
            Ok(())
        }
        let pipeline = Pipeline {
            stages: vec![
                Stage { name: "constprop", enabled: true, run: stage_constprop },
                Stage { name: "induction", enabled: true, run: corrupt },
                Stage { name: "analyze", enabled: true, run: stage_analyze },
            ],
        };
        let mut program = polaris_ir::parse(TRFD).unwrap();
        let (opts, rec) = (PassOptions::polaris(), Recorder::disabled());
        let report =
            pipeline.run_cancellable(&mut program, &opts, &rec, &CancelToken::new()).unwrap();
        let bad = report.stage("induction").unwrap();
        match &bad.outcome {
            StageOutcome::RolledBack { reason } => {
                assert!(reason.contains("validation failed"), "{reason}")
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(bad.ir_delta, 0);
        polaris_ir::validate::validate_program(&program).unwrap();
        // the later analyze stage still ran on the restored program
        assert!(report.stage("analyze").unwrap().ran_ok());
    }

    #[test]
    fn ir_delta_tracks_statement_growth() {
        // Inlining a callee into main grows the statement count.
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
        assert!(report.stage("inline").unwrap().ir_delta > 0, "{:?}", report.stages);
    }

    /// `armed_for` must match stage names *exactly* — the table contains
    /// the prefix pair `constprop` / `constprop-fold`, so a
    /// substring/prefix comparison would arm the wrong stage.
    #[test]
    fn armed_for_matches_every_stage_name_exactly() {
        let program = polaris_ir::parse(TRFD).unwrap();
        for armed in STAGE_NAMES {
            let plan = FaultPlan::panic_in(armed);
            for probe in STAGE_NAMES {
                assert_eq!(
                    plan.armed_for(probe, &program).is_some(),
                    probe == armed,
                    "plan for `{armed}` wrongly armed (or not armed) at `{probe}`"
                );
            }
        }
    }

    /// After any single-stage rollback the LoopId provenance invariants
    /// must hold: ids stay unique per unit (the oracle's join key) and
    /// every per-loop verdict in the report references a loop that
    /// actually exists in the surviving program — a stale id would make
    /// the run-time oracle silently drop the claim.
    #[test]
    fn rollback_preserves_loop_id_provenance_for_every_stage() {
        // A caller/callee pair: the inline stage splices the callee loop
        // into main under a *fresh* id, which is exactly the path that
        // could leave duplicates or dangling references when unwound.
        let src = "program t\n\
                   real v(1000)\n\
                   s = 0.0\n\
                   call fill(v, 1000)\n\
                   do i = 1, 1000\n\
                   \x20 s = s + v(i)\n\
                   end do\n\
                   print *, s\n\
                   end\n\
                   subroutine fill(a, n)\n\
                   real a(n)\n\
                   integer n\n\
                   do i = 1, n\n\
                   \x20 a(i) = i * 2.0\n\
                   end do\n\
                   end\n";
        for stage in STAGE_NAMES {
            let opts = PassOptions::polaris().with_faults(FaultPlan::panic_in(stage));
            let (program, report) = parse_and_compile(src, &opts)
                .unwrap_or_else(|e| panic!("compile aborted with fault in `{stage}`: {e}"));
            assert!(
                report.stage(stage).unwrap().rolled_back(),
                "fault in `{stage}` did not roll back"
            );
            for unit in &program.units {
                let mut seen = std::collections::BTreeSet::new();
                unit.body.walk(&mut |s| {
                    if let Some(d) = s.as_do() {
                        assert!(
                            seen.insert(d.loop_id),
                            "duplicate loop id {} in unit {} after `{stage}` rollback",
                            d.loop_id,
                            unit.name
                        );
                    }
                });
            }
            for lr in &report.loops {
                let unit = program
                    .units
                    .iter()
                    .find(|u| u.name == lr.unit)
                    .unwrap_or_else(|| panic!("report names missing unit {}", lr.unit));
                assert!(
                    unit.body.loops().iter().any(|d| d.loop_id == lr.loop_id),
                    "report references stale loop id {} ({}) after `{stage}` rollback",
                    lr.loop_id,
                    lr.label
                );
            }
        }
    }

    // ----- rollback by replay ≡ the snapshot ≡ "the stage never ran" -----

    /// A caller with two callees: the one input here where `inline`
    /// changes the program and units other than main exist to restore.
    const CALLS: &str = "program t\n\
                         real v(1000), w(1000)\n\
                         s = 0.0\n\
                         call fill(v, 1000)\n\
                         call scale(v, w, 1000)\n\
                         do i = 1, 1000\n\
                         \x20 s = s + w(i)\n\
                         end do\n\
                         print *, s\n\
                         end\n\
                         subroutine fill(a, n)\n\
                         real a(n)\n\
                         integer n\n\
                         do i = 1, n\n\
                         \x20 a(i) = i * 2.0\n\
                         end do\n\
                         end\n\
                         subroutine scale(a, b, n)\n\
                         real a(n), b(n)\n\
                         integer n\n\
                         k = 0\n\
                         do i = 1, n\n\
                         \x20 k = k + 1\n\
                         \x20 b(k) = a(i) * 0.5\n\
                         end do\n\
                         end\n";

    /// The 26 kernel sources, by file name.
    fn kernels() -> Vec<(String, String)> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../benchmarks/codes");
        let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "f"))
            .map(|path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        out.sort();
        assert_eq!(out.len(), 26);
        out
    }

    /// What a compile leaves behind, minus the entries of the stages in
    /// `apart` (rolled back in one run, switched off in the other).
    #[derive(Debug, PartialEq)]
    struct Left {
        text: String,
        loops: Vec<crate::LoopReport>,
        nest: String,
        stages: Vec<(&'static str, StageOutcome)>,
    }

    /// The standard pipeline over `src` with the stages in `off` disabled.
    fn left_by(src: &str, faults: FaultPlan, off: &[&str]) -> (Left, CompileReport) {
        let opts = PassOptions::polaris().with_faults(faults);
        let mut pipeline = Pipeline::standard(&opts);
        for stage in &mut pipeline.stages {
            stage.enabled &= !off.contains(&stage.name);
        }
        let mut program = polaris_ir::parse(src).unwrap();
        let rec = Recorder::disabled();
        let report =
            pipeline.run_cancellable(&mut program, &opts, &rec, &CancelToken::new()).unwrap();
        polaris_ir::validate::validate_program(&program).unwrap();
        let left = Left {
            text: polaris_ir::printer::print_program(&program),
            loops: report.loops.clone(),
            nest: format!("{:?}", report.nest),
            stages: report.stages.iter().map(|s| (s.name, s.outcome.clone())).collect(),
        };
        (left, report)
    }

    impl Left {
        fn apart_from(mut self, apart: &[&str]) -> Left {
            self.stages.retain(|(name, _)| !apart.contains(name));
            self
        }
    }

    #[test]
    fn a_rolled_back_stage_leaves_what_the_pipeline_without_it_leaves() {
        let mut sources = kernels();
        sources.push(("CALLS".into(), CALLS.into()));
        let mut corruptions_caught = 0;
        for (name, src) in &sources {
            for stage in STAGE_NAMES {
                let without = left_by(src, FaultPlan::none(), &[stage]).0.apart_from(&[stage]);
                let mut plans = vec![("panic".to_string(), FaultPlan::panic_in(stage))];
                for kind in CorruptKind::ALL {
                    plans.push((format!("{kind:?}"), FaultPlan::corrupt_in(stage, kind)));
                }
                for (fault, plan) in plans {
                    let (left, report) = left_by(src, plan, &[]);
                    if !report.stage(stage).unwrap().rolled_back() {
                        // A corruption with no site to damage is no fault.
                        assert_ne!(fault, "panic", "{name}: `{stage}`");
                        continue;
                    }
                    corruptions_caught += usize::from(fault != "panic");
                    assert_eq!(report.rolled_back_stages(), vec![stage], "{name}: {fault}");
                    assert_eq!(left.apart_from(&[stage]), without, "{name}: {fault} in `{stage}`");
                }
            }
        }
        assert!(corruptions_caught > 26 * 12, "{corruptions_caught}");
    }

    #[test]
    fn two_rolled_back_stages_leave_what_the_pipeline_without_both_leaves() {
        let mut sources = kernels();
        sources.retain(|(name, _)| ["mmt.f", "stencil2d.f", "trfd.f"].contains(&name.as_str()));
        sources.push(("CALLS".into(), CALLS.into()));
        assert_eq!(sources.len(), 4);
        for (name, src) in &sources {
            for (i, a) in STAGE_NAMES.iter().enumerate() {
                for b in &STAGE_NAMES[i + 1..] {
                    let both = [*a, *b];
                    let without = left_by(src, FaultPlan::none(), &both).0.apart_from(&both);
                    let plan = FaultPlan::panic_in(*a).and_panic_in(*b);
                    let (left, report) = left_by(src, plan, &[]);
                    assert_eq!(report.rolled_back_stages(), both, "{name}");
                    assert_eq!(left.apart_from(&both), without, "{name}: `{a}` and `{b}`");
                }
            }
        }
    }

    /// The replay runs under the same options, so a stage that was forced
    /// to apply an illegal candidate applies it again: the lie (and the
    /// certificate that lets `polaris-verify` catch it) survives a later
    /// stage's rollback, as it did when a snapshot carried it.
    #[test]
    fn a_forced_interchange_and_its_certificate_survive_a_later_rollback() {
        // (<, >) dependence: interchanging I and J is illegal.
        let skewed = "program t\n\
                      real a(64, 64)\n\
                      parameter (n = 64)\n\
                      do i = 2, n\n\
                      \x20 do j = 1, n - 1\n\
                      \x20   a(i, j) = a(i-1, j+1) + 1.0\n\
                      \x20 end do\n\
                      end do\n\
                      print *, a(n, 1)\n\
                      end\n";
        let honest = left_by(skewed, FaultPlan::none(), &["tile"]).0;
        let forced = left_by(skewed, FaultPlan::force_in("interchange"), &["tile"]).0;
        assert_ne!(forced.text, honest.text, "the force did nothing");
        let plan = FaultPlan::force_in("interchange").and_panic_in("tile");
        let (left, report) = left_by(skewed, plan, &[]);
        assert_eq!(report.rolled_back_stages(), vec!["tile"]);
        assert_eq!(report.nest.certs.len(), 1);
        assert_eq!(report.nest.certs[0].stage(), "interchange");
        assert_eq!(left.apart_from(&["tile"]), forced.apart_from(&["tile"]));
    }

    /// A callee whose nest walks its array along rows: `interchange`
    /// certifies a column order wherever the nest is restructured.
    const NEST_IN_CALLEE: &str = "program t\n\
                                  real a(64, 64)\n\
                                  call init(a, 64)\n\
                                  print *, a(3, 5)\n\
                                  end\n\
                                  subroutine init(b, n)\n\
                                  integer n\n\
                                  real b(n, n)\n\
                                  do i = 1, n\n\
                                  \x20 do j = 1, n\n\
                                  \x20   b(i, j) = i + j * 100.0\n\
                                  \x20 end do\n\
                                  end do\n\
                                  end\n";

    /// Under `polaris()` every call is inlined into main, so main alone is
    /// restructured: each callee prints as parsed, and every certificate
    /// is on main.
    #[test]
    fn an_inlined_program_restructures_main_and_carries_its_callees_as_parsed() {
        let text = |unit: &ProgramUnit| {
            let mut out = String::new();
            polaris_ir::printer::print_unit(unit, &mut out);
            out
        };
        for (src, certs) in [(CALLS, 0), (NEST_IN_CALLEE, 1)] {
            let parsed = polaris_ir::parse(src).unwrap();
            let (program, report) = parse_and_compile(src, &PassOptions::polaris()).unwrap();
            assert!(!report.degraded(), "{:?}", report.stages);
            assert_eq!(program.units.len(), parsed.units.len());
            for (unit, was) in program.units.iter().zip(&parsed.units) {
                if was.is_main() {
                    assert_ne!(text(unit), text(was), "main was not restructured");
                } else {
                    assert_eq!(text(unit), text(was), "callee {} was restructured", was.name);
                }
            }
            assert_eq!(report.nest.certs.len(), certs, "{:?}", report.nest.certs);
            for cert in &report.nest.certs {
                assert_eq!(cert.unit, "T", "{cert:?}");
            }
        }
    }

    /// `analyze` numbers each unit it analyzes once, however many loops
    /// ask it liveness questions: main alone under `polaris()`, every
    /// unit under `vfa()`.
    #[test]
    fn analyze_numbers_each_analyzed_unit_once() {
        let analyze_only =
            Pipeline { stages: vec![Stage { name: "analyze", enabled: true, run: stage_analyze }] };
        let numberings = || crate::privatize::NUMBERINGS.with(std::cell::Cell::get);
        for (opts, units) in [(PassOptions::polaris(), 1), (PassOptions::vfa(), 3)] {
            let mut program = polaris_ir::parse(CALLS).unwrap();
            let before = numberings();
            let report = analyze_only
                .run_cancellable(&mut program, &opts, &Recorder::disabled(), &CancelToken::new())
                .unwrap();
            assert_eq!(numberings() - before, units);
            assert!(report.loops.iter().all(|l| !opts.inline || l.unit == "T"), "{:?}", report.loops);
        }
        let mut loops = 0;
        for (_, src) in kernels() {
            let mut program = polaris_ir::parse(&src).unwrap();
            let before = numberings();
            let opts = PassOptions::polaris();
            let report = analyze_only
                .run_cancellable(&mut program, &opts, &Recorder::disabled(), &CancelToken::new())
                .unwrap();
            assert_eq!(numberings() - before, 1);
            loops += report.loops.len();
        }
        assert!(loops > 26 * 3, "{loops}");
    }

    thread_local! {
        /// Calls of [`counted_constprop`] on this thread.
        static CONSTPROP_CALLS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        /// The token [`cancelling`] fires.
        static TOKEN: std::cell::RefCell<CancelToken> = std::cell::RefCell::default();
    }

    fn counted_constprop(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, rec: &Recorder) -> Result<()> {
        CONSTPROP_CALLS.with(|calls| calls.set(calls.get() + 1));
        stage_constprop(program, opts, report, rec)
    }

    /// Breaks the purity rule on purpose: fine the first time, then not.
    fn errs_when_run_again(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, rec: &Recorder) -> Result<()> {
        counted_constprop(program, opts, report, rec)?;
        match CONSTPROP_CALLS.with(|calls| calls.get()) {
            1 => Ok(()),
            _ => Err(polaris_ir::error::CompileError::validate("second thoughts")),
        }
    }

    fn panics_when_run_again(program: &mut Program, opts: &PassOptions, report: &mut CompileReport, rec: &Recorder) -> Result<()> {
        counted_constprop(program, opts, report, rec)?;
        assert_eq!(CONSTPROP_CALLS.with(|calls| calls.get()), 1, "second thoughts");
        Ok(())
    }

    fn ill_formed(program: &mut Program, _: &PassOptions, _: &mut CompileReport, _: &Recorder) -> Result<()> {
        program.units[0].args.push("BOGUS".into());
        Ok(())
    }

    fn cancelling(_: &mut Program, _: &PassOptions, _: &mut CompileReport, _: &Recorder) -> Result<()> {
        TOKEN.with(|token| token.borrow().cancel("deadline"));
        Ok(())
    }

    fn cancelling_then_panicking(_: &mut Program, _: &PassOptions, _: &mut CompileReport, _: &Recorder) -> Result<()> {
        TOKEN.with(|token| token.borrow().cancel("deadline"));
        panic!("after the deadline");
    }

    /// A source `constprop` changes (a PARAMETER to fold).
    const FOLDABLE: &str = "program t\n\
                            integer n\n\
                            parameter (n = 8)\n\
                            real a(n)\n\
                            do i = 1, n\n\
                            \x20 a(i) = n * 1.0\n\
                            end do\n\
                            print *, a(1)\n\
                            end\n";

    #[test]
    fn a_replay_that_diverges_restores_the_input_and_rolls_every_stage_back() {
        for (flaky, why) in [
            (errs_when_run_again as StageFn, "replay diverged: pass error: "),
            (panics_when_run_again as StageFn, "replay diverged: panic: "),
        ] {
            CONSTPROP_CALLS.with(|calls| calls.set(0));
            let pipeline = Pipeline {
                stages: vec![
                    Stage { name: "constprop", enabled: true, run: flaky },
                    Stage { name: "induction", enabled: true, run: ill_formed },
                ],
            };
            let input = polaris_ir::parse(FOLDABLE).unwrap();
            let mut program = input.clone();
            let (opts, rec) = (PassOptions::polaris(), Recorder::disabled());
            let report =
                pipeline.run_cancellable(&mut program, &opts, &rec, &CancelToken::new()).unwrap();
            assert_eq!(CONSTPROP_CALLS.with(|calls| calls.get()), 2);
            assert_eq!(program, input, "not the validated input");
            assert_eq!(report.rolled_back_stages(), vec!["constprop", "induction"]);
            match &report.stage("constprop").unwrap().outcome {
                StageOutcome::RolledBack { reason } => {
                    assert!(reason.starts_with(why) && reason.contains("second thoughts"), "{reason}")
                }
                other => panic!("{other:?}"),
            }
            assert_eq!(report.stage("constprop").unwrap().ir_delta, 0);
            // What the dropped stage had reported went with it.
            assert_eq!(report.constprop, crate::constprop::ConstPropStats::default());
            assert_eq!(report.verify.invariants_checked, 14);
        }
    }

    #[test]
    fn a_cancelled_compile_keeps_the_completed_stages_without_replaying_them() {
        let after_constprop = {
            let mut program = polaris_ir::parse(FOLDABLE).unwrap();
            crate::constprop::run_unit(&mut program.units[0]);
            program
        };
        assert_ne!(after_constprop, polaris_ir::parse(FOLDABLE).unwrap());
        // The stage that fires the token completes, or fails and is rolled
        // back by a replay that the token does not stop.
        for (fires, constprop_runs) in
            [(cancelling as StageFn, 1), (cancelling_then_panicking as StageFn, 2)]
        {
            CONSTPROP_CALLS.with(|calls| calls.set(0));
            let cancel = CancelToken::new();
            TOKEN.with(|token| *token.borrow_mut() = cancel.clone());
            let pipeline = Pipeline {
                stages: vec![
                    Stage { name: "constprop", enabled: true, run: counted_constprop },
                    Stage { name: "normalize", enabled: true, run: fires },
                    Stage { name: "induction", enabled: true, run: ill_formed },
                ],
            };
            let mut program = polaris_ir::parse(FOLDABLE).unwrap();
            let report = pipeline
                .run_cancellable(&mut program, &PassOptions::polaris(), &Recorder::disabled(), &cancel)
                .unwrap();
            assert_eq!(CONSTPROP_CALLS.with(|calls| calls.get()), constprop_runs);
            assert_eq!(program, after_constprop);
            assert!(report.stage("constprop").unwrap().ran_ok());
            assert_eq!(report.stage("normalize").unwrap().ran_ok(), constprop_runs == 1);
            match &report.stage("induction").unwrap().outcome {
                StageOutcome::RolledBack { reason } => {
                    assert_eq!(reason, "cancelled: deadline")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn fault_plan_builder_and_queries() {
        let plan = FaultPlan::panic_in("dce").and_panic_in("analyze");
        assert!(!plan.is_empty());
        let program = polaris_ir::parse(TRFD).unwrap();
        assert!(plan.armed_for("dce", &program).is_some());
        assert!(plan.armed_for("analyze", &program).is_some());
        assert!(plan.armed_for("inline", &program).is_none());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn pre_cancelled_token_rolls_back_every_enabled_stage() {
        let cancel = CancelToken::new();
        cancel.cancel("deadline exceeded before start");
        assert!(cancel.is_cancelled());
        let mut program = polaris_ir::parse(TRFD).unwrap();
        let opts = PassOptions::polaris();
        let report = Pipeline::standard(&opts)
            .run_cancellable(&mut program, &opts, &polaris_obs::Recorder::disabled(), &cancel)
            .unwrap();
        assert_eq!(report.stages.len(), STAGE_NAMES.len());
        for sr in &report.stages {
            match &sr.outcome {
                StageOutcome::RolledBack { reason } => {
                    assert!(reason.starts_with(CANCELLED_PREFIX), "{reason}");
                    assert!(reason.contains("deadline exceeded"), "{reason}");
                }
                other => panic!("stage `{}` not cancelled: {other:?}", sr.name),
            }
        }
        assert!(report.degraded());
        // The untouched input is still well-formed.
        polaris_ir::validate::validate_program(&program).unwrap();
    }

    #[test]
    fn mid_pipeline_cancel_keeps_completed_stages_and_skips_the_rest() {
        // A watchdog thread fires the token while a stalled stage runs:
        // stages before the stall complete, the stalled stage itself
        // finishes (cancellation is cooperative), and everything after is
        // rolled back as cancelled.
        let cancel = CancelToken::new();
        let watchdog = {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                cancel.cancel("deadline 20ms exceeded");
            })
        };
        let opts =
            PassOptions::polaris().with_faults(FaultPlan::stall_in("induction", 200));
        let mut program = polaris_ir::parse(TRFD).unwrap();
        let report = Pipeline::standard(&opts)
            .run_cancellable(&mut program, &opts, &polaris_obs::Recorder::disabled(), &cancel)
            .unwrap();
        watchdog.join().unwrap();

        for name in ["inline", "constprop", "normalize", "induction"] {
            assert!(
                !report.stage(name).unwrap().rolled_back(),
                "pre-cancel stage `{name}` should have completed: {:?}",
                report.stage(name).unwrap()
            );
        }
        for name in ["constprop-fold", "dce", "reduction", "analyze"] {
            match &report.stage(name).unwrap().outcome {
                StageOutcome::RolledBack { reason } => {
                    assert!(reason.starts_with(CANCELLED_PREFIX), "{name}: {reason}")
                }
                other => panic!("post-cancel stage `{name}` ran: {other:?}"),
            }
        }
        assert!(report.degraded());
        polaris_ir::validate::validate_program(&program).unwrap();
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let cancel = CancelToken::new();
        let mut program = polaris_ir::parse(TRFD).unwrap();
        let opts = PassOptions::polaris();
        let report = Pipeline::standard(&opts)
            .run_cancellable(&mut program, &opts, &polaris_obs::Recorder::disabled(), &cancel)
            .unwrap();
        assert!(!report.degraded());
        assert_eq!(report.parallel_loops(), 3);
        assert_eq!(cancel.reason(), None);
    }

    #[test]
    fn cancel_first_reason_wins() {
        let cancel = CancelToken::new();
        cancel.cancel("first");
        cancel.cancel("second");
        assert_eq!(cancel.reason().as_deref(), Some("first"));
    }
}

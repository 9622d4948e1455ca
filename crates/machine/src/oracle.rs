//! The dependence oracle: an instrumented serial run of the tree-walker
//! (whatever engine the caller configured) that records, per
//! compiler-identified loop, the *exact* set of cross-iteration
//! flow/anti/output dependences the program exhibits, then cross-checks
//! them against the pipeline's claims.
//!
//! This generalizes the LRPD shadow arrays of the PD test — which
//! mark one array per speculative loop and aggregate to three booleans —
//! to whole-program tracing with source attribution: every scalar slot
//! and every array element is epoch-tagged per active loop invocation,
//! so an access inside a nest is checked against each enclosing loop's
//! iteration counter independently. Execution order is the serial order
//! (annotations do not affect the trace), which makes the recorded
//! dependences the ground truth any parallel execution must respect.
//!
//! Per location and per active loop frame the tracker keeps two epochs,
//! `write` (last iteration that wrote) and `first_read` (earliest read
//! since that write). That is enough to detect every dependence kind
//! exactly:
//!
//! * read with `write < current` → **flow** (the witness pair is the
//!   writing and reading iterations),
//! * write with `first_read < current` → **anti**,
//! * write with `write < current` → **output**.
//!
//! The verdict layer then confronts the trace (one `LoopObservation` per
//! loop) with the compiler's claims (one `LoopClaim` per loop, distilled
//! from the annotations and the `CompileReport`):
//!
//! * a loop marked PARALLEL with a cross-iteration dependence that is
//!   not discharged by a privatization or reduction claim is a
//!   **soundness violation** — the compiler published a race;
//! * a serial-marked loop whose observed dependence set is empty (over
//!   an invocation with at least two iterations) is a **completeness
//!   miss** — dynamic parallelism the static analysis left behind,
//!   counted per responsible pass but never a failure.

use crate::error::MachineError;
use crate::exec::Interp;
use crate::lower::lower_with_cap;
use crate::{Engine, MachineConfig};
use polaris_core::CompileReport;
use polaris_ir::stmt::LoopId;
use polaris_ir::Program;
use polaris_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Kind of a cross-iteration dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Write in an earlier iteration, read in a later one.
    Flow,
    /// Read in an earlier iteration, write in a later one.
    Anti,
    /// Writes in two different iterations to the same location.
    Output,
}

impl DepKind {
    fn as_str(self) -> &'static str {
        match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        }
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One aggregated cross-iteration dependence observed at run time:
/// all detections of the same `(var, kind)` pair collapse into one
/// record carrying a witness (the first pair of iterations seen).
#[derive(Debug, Clone, PartialEq)]
pub struct DepObservation {
    /// Source-level variable or array name.
    pub var: String,
    pub kind: DepKind,
    /// Number of individual detections folded into this record.
    pub count: u64,
    /// Witness: the earlier iteration (0-based index within the
    /// carrying loop's invocation).
    pub src_iter: u64,
    /// Witness: the later iteration.
    pub dst_iter: u64,
    /// Witness: flattened element index, for array dependences.
    pub element: Option<u64>,
}

/// Everything the oracle observed about one loop across the whole run.
#[derive(Debug)]
struct LoopObservation {
    invocations: u64,
    /// Largest trip count of any invocation.
    max_trip: u64,
    /// Observed cross-iteration dependences, one per `(var, kind)`.
    deps: Vec<DepObservation>,
}

/// The compiler's claim for one loop, distilled from the lowered
/// `ParallelInfo` plus the `CompileReport` (for the serial reason).
#[derive(Debug, Clone, Default)]
struct LoopClaim {
    loop_id: LoopId,
    label: String,
    /// Proven parallel (a DOALL) — the claim the oracle audits.
    parallel: bool,
    /// Chosen for run-time speculative parallelization; dependences are
    /// allowed here (the LRPD test catches them), so never a violation.
    speculative: bool,
    /// Variables with per-iteration private copies (includes copy-out).
    private: BTreeSet<String>,
    /// Validated reduction targets.
    reductions: BTreeSet<String>,
    /// Why the loop stayed serial, when it did.
    serial_reason: Option<String>,
}

/// A PARALLEL claim contradicted by an observed dependence.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub loop_id: LoopId,
    pub label: String,
    pub dep: DepObservation,
    /// Human-readable account of why the claim does not discharge it.
    pub detail: String,
}

/// How the compiler classified the loop (the three claim states).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimKind {
    Parallel,
    Speculative,
    Serial,
}

impl ClaimKind {
    fn as_str(self) -> &'static str {
        match self {
            ClaimKind::Parallel => "parallel",
            ClaimKind::Speculative => "speculative",
            ClaimKind::Serial => "serial",
        }
    }
}

/// Per-loop outcome of the cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopVerdict {
    pub loop_id: LoopId,
    pub label: String,
    pub claim: ClaimKind,
    pub serial_reason: Option<String>,
    pub invocations: u64,
    pub max_trip: u64,
    /// The raw observed dependence set (all kinds, before claims).
    pub deps: Vec<DepObservation>,
    /// Soundness violations (only possible when `claim == Parallel`).
    pub violations: Vec<Violation>,
    /// Serial loop, executed with >= 2 iterations, empty dependence set:
    /// the strict completeness miss the oracle counts.
    pub completeness_miss: bool,
    /// Serial loop whose only dependences are anti/output (no flow):
    /// privatization/renaming would clear them, so this is the wider
    /// "parallelism left behind" count.
    pub privatizable_miss: bool,
}

/// The full oracle verdict for one program run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// One verdict per compiler-identified loop, sorted by label.
    pub loops: Vec<LoopVerdict>,
}

impl OracleReport {
    pub fn has_violations(&self) -> bool {
        self.loops.iter().any(|l| !l.violations.is_empty())
    }

    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.loops.iter().flat_map(|l| l.violations.iter())
    }

    /// Serial loops that actually ran with >= 2 iterations — the
    /// denominator of the completeness-miss rate (a loop the program
    /// never exercised can't witness either way).
    pub fn serial_loops_exercised(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| l.claim == ClaimKind::Serial && l.max_trip >= 2)
            .count()
    }

    pub fn completeness_misses(&self) -> usize {
        self.loops.iter().filter(|l| l.completeness_miss).count()
    }

    pub fn privatizable_misses(&self) -> usize {
        self.loops.iter().filter(|l| l.privatizable_miss).count()
    }

    /// Strict completeness-miss rate over exercised serial loops
    /// (0.0 when no serial loop was exercised).
    fn miss_rate(&self) -> f64 {
        let n = self.serial_loops_exercised();
        if n == 0 {
            0.0
        } else {
            self.completeness_misses() as f64 / n as f64
        }
    }

    /// Completeness misses attributed to the pass/test that kept the
    /// loop serial (via its `serial_reason`).
    pub fn misses_by_pass(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for l in &self.loops {
            if l.completeness_miss {
                *out.entry(categorize_reason(l.serial_reason.as_deref())).or_insert(0) += 1;
            }
        }
        out
    }

    /// Deterministic JSON document: stable key order, no timings,
    /// suitable for golden files.
    pub fn to_json(&self) -> String {
        let str = |s: &str| Json::Str(s.into());
        let int = |n: usize| Json::Int(n as u64);
        let inline = |v: Json| Json::Inline(Box::new(v));
        let loops = self.loops.iter().map(|l| {
            let deps = l.deps.iter().map(|d| {
                inline(Json::Obj(vec![
                    ("var".into(), str(&d.var)),
                    ("kind".into(), str(d.kind.as_str())),
                    ("count".into(), Json::Int(d.count)),
                    ("src_iter".into(), Json::Int(d.src_iter)),
                    ("dst_iter".into(), Json::Int(d.dst_iter)),
                ]))
            });
            let violations = l.violations.iter().map(|v| {
                inline(Json::Obj(vec![
                    ("var".into(), str(&v.dep.var)),
                    ("kind".into(), str(v.dep.kind.as_str())),
                    ("detail".into(), str(&v.detail)),
                ]))
            });
            Json::Obj(vec![
                ("label".into(), str(&l.label)),
                ("loop_id".into(), Json::Int(l.loop_id.0.into())),
                ("claim".into(), str(l.claim.as_str())),
                ("serial_reason".into(), l.serial_reason.as_deref().map_or(Json::Null, str)),
                ("invocations".into(), Json::Int(l.invocations)),
                ("max_trip".into(), Json::Int(l.max_trip)),
                ("deps".into(), inline(Json::Arr(deps.collect()))),
                ("violations".into(), inline(Json::Arr(violations.collect()))),
                ("completeness_miss".into(), Json::Bool(l.completeness_miss)),
                ("privatizable_miss".into(), Json::Bool(l.privatizable_miss)),
            ])
        });
        let by_pass = self.misses_by_pass().into_iter().map(|(p, n)| (p.into(), int(n))).collect();
        let doc = Json::Obj(vec![
            ("schema".into(), str("polaris-oracle/v1")),
            ("violations".into(), int(self.violations().count())),
            ("serial_loops_exercised".into(), int(self.serial_loops_exercised())),
            ("completeness_misses".into(), int(self.completeness_misses())),
            ("privatizable_misses".into(), int(self.privatizable_misses())),
            ("miss_rate".into(), Json::Num(self.miss_rate())),
            ("misses_by_pass".into(), inline(Json::Obj(by_pass))),
            ("loops".into(), Json::Arr(loops.collect())),
        ]);
        format!("{doc}\n")
    }
}

/// Attribute a serial reason to the pass/test responsible for it. The
/// buckets mirror the dependence driver's decision points; unknown
/// strings land in "other" rather than being dropped.
fn categorize_reason(reason: Option<&str>) -> &'static str {
    let Some(r) = reason else { return "unattributed" };
    if r.contains("carried dependence") {
        "dependence-test"
    } else if r.contains("recurrence") || r.contains("live after") {
        "privatization"
    } else if r.contains("I/O")
        || r.contains("CALL")
        || r.contains("RETURN")
        || r.contains("STOP")
    {
        "serializing-stmt"
    } else if r.contains("loop step") {
        "loop-form"
    } else {
        "other"
    }
}

/// Cross-check claims against observations. `claims` drives the output
/// (one verdict per compiler-identified loop); a loop with no
/// observation simply never executed.
fn judge(claims: &[LoopClaim], observations: &BTreeMap<LoopId, LoopObservation>) -> OracleReport {
    let mut loops = Vec::with_capacity(claims.len());
    for c in claims {
        let obs = observations.get(&c.loop_id);
        let deps: Vec<DepObservation> =
            obs.map(|o| o.deps.clone()).unwrap_or_default();
        let invocations = obs.map(|o| o.invocations).unwrap_or(0);
        let max_trip = obs.map(|o| o.max_trip).unwrap_or(0);
        let claim = if c.parallel {
            ClaimKind::Parallel
        } else if c.speculative {
            ClaimKind::Speculative
        } else {
            ClaimKind::Serial
        };

        let mut violations = Vec::new();
        // Only a PARALLEL claim is audited.
        for d in deps.iter().filter(|_| claim == ClaimKind::Parallel) {
            // A validated reduction commutes; its RMW chain is exactly a
            // cross-iteration flow dependence. A privatized variable gets
            // a fresh per-iteration copy, which discharges anti and
            // output dependences — but a *flow* dependence means some
            // iteration read a value another iteration wrote, which a
            // private copy cannot reproduce.
            let detail = match (c.reductions.contains(&d.var), c.private.contains(&d.var)) {
                (true, _) => continue,
                (false, true) if d.kind != DepKind::Flow => continue,
                (false, true) => format!(
                    "`{}` is privatized but iteration {} reads the value iteration {} wrote",
                    d.var, d.dst_iter, d.src_iter
                ),
                (false, false) => format!(
                    "loop is marked PARALLEL but carries a {} dependence on `{}` \
                     (iteration {} -> {})",
                    d.kind, d.var, d.src_iter, d.dst_iter
                ),
            };
            let dep = d.clone();
            violations.push(Violation { loop_id: c.loop_id, label: c.label.clone(), dep, detail });
        }

        let exercised = claim == ClaimKind::Serial && max_trip >= 2;
        let completeness_miss = exercised && deps.is_empty();
        let privatizable_miss =
            exercised && deps.iter().all(|d| d.kind != DepKind::Flow);

        loops.push(LoopVerdict {
            loop_id: c.loop_id,
            label: c.label.clone(),
            claim,
            serial_reason: c.serial_reason.clone(),
            invocations,
            max_trip,
            deps,
            violations,
            completeness_miss,
            privatizable_miss,
        });
    }
    loops.sort_by(|a, b| a.label.cmp(&b.label).then(a.loop_id.cmp(&b.loop_id)));
    OracleReport { loops }
}

/// Epoch sentinel: "never accessed in this invocation".
const NEVER: u64 = u64::MAX;

/// Per-location state within one loop invocation.
#[derive(Clone, Copy)]
struct Cell {
    /// Iteration of the last write, or [`NEVER`].
    write: u64,
    /// Earliest read since the last write, or [`NEVER`].
    first_read: u64,
}

const EMPTY_CELL: Cell = Cell { write: NEVER, first_read: NEVER };

/// Cheap multiplicative hasher for the element maps: keys are already
/// well-mixed `(array << 40) | index` integers, and the default SipHash
/// would dominate the per-access cost of the trace.
#[derive(Default)]
struct ElemHasher(u64);

impl Hasher for ElemHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type ElemMap = HashMap<u64, Cell, BuildHasherDefault<ElemHasher>>;

/// One active loop invocation on the interpreter's loop stack.
struct Frame {
    loop_id: LoopId,
    /// Current iteration index (0-based position in the iteration
    /// sequence, which also handles negative strides uniformly).
    iter: u64,
    /// Iterations started in this invocation.
    trip: u64,
    scalars: Vec<Cell>,
    elems: ElemMap,
}

/// One traced location: a scalar slot, or an element (flattened index)
/// of an array.
#[derive(Clone, Copy)]
pub(crate) enum Loc {
    Scalar(usize),
    Element(usize, usize),
}

/// Storage identity of a traced variable (resolved to names at the end).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum VarKey {
    Scalar(usize),
    Array(usize),
}

/// All detections of one `(loop, var, kind)` dependence, with the first
/// witness kept for the report.
struct DepAgg {
    count: u64,
    src: u64,
    dst: u64,
    element: Option<u64>,
}

#[derive(Default)]
struct LoopAgg {
    invocations: u64,
    max_trip: u64,
    deps: BTreeMap<(VarKey, DepKind), DepAgg>,
}

/// The whole-program dependence tracker the interpreter drives through
/// its access hooks (see `exec.rs`).
#[derive(Default)]
pub(crate) struct OracleState {
    frames: Vec<Frame>,
    agg: BTreeMap<LoopId, LoopAgg>,
}

fn record(
    agg: &mut BTreeMap<LoopId, LoopAgg>,
    loop_id: LoopId,
    key: VarKey,
    kind: DepKind,
    src: u64,
    dst: u64,
    element: Option<u64>,
) {
    let entry = agg
        .get_mut(&loop_id)
        .expect("dependence recorded for a loop that never entered");
    entry
        .deps
        .entry((key, kind))
        .and_modify(|d| d.count += 1)
        .or_insert(DepAgg { count: 1, src, dst, element });
}

impl OracleState {
    pub(crate) fn enter_loop(&mut self, loop_id: LoopId, n_scalars: usize) {
        self.agg.entry(loop_id).or_default().invocations += 1;
        self.frames.push(Frame {
            loop_id,
            iter: 0,
            trip: 0,
            scalars: vec![EMPTY_CELL; n_scalars],
            elems: ElemMap::default(),
        });
    }

    pub(crate) fn begin_iteration(&mut self, idx: u64) {
        if let Some(f) = self.frames.last_mut() {
            f.iter = idx;
            f.trip = f.trip.max(idx + 1);
        }
    }

    pub(crate) fn exit_loop(&mut self) {
        if let Some(f) = self.frames.pop() {
            let entry = self.agg.entry(f.loop_id).or_default();
            entry.max_trip = entry.max_trip.max(f.trip);
        }
    }

    /// One read or write of `loc`, checked against every active loop
    /// frame: a read after an earlier iteration's write is a flow
    /// dependence; a write after an earlier write is an output one, and
    /// after an earlier read an anti one.
    pub(crate) fn access(&mut self, loc: Loc, write: bool) {
        let (var, element) = match loc {
            Loc::Scalar(slot) => (VarKey::Scalar(slot), None),
            Loc::Element(arr, idx) => (VarKey::Array(arr), Some(idx as u64)),
        };
        let agg = &mut self.agg;
        for f in &mut self.frames {
            let cell = match loc {
                Loc::Scalar(slot) => &mut f.scalars[slot],
                Loc::Element(arr, idx) => {
                    f.elems.entry(((arr as u64) << 40) | idx as u64).or_insert(EMPTY_CELL)
                }
            };
            // `NEVER` is `u64::MAX`, so it is never an earlier iteration.
            let mut carried = |kind, src: u64| {
                if src < f.iter {
                    record(agg, f.loop_id, var, kind, src, f.iter, element);
                }
            };
            if write {
                carried(DepKind::Output, cell.write);
                carried(DepKind::Anti, cell.first_read);
                cell.write = f.iter;
                cell.first_read = NEVER;
            } else {
                carried(DepKind::Flow, cell.write);
                if cell.first_read == NEVER {
                    cell.first_read = f.iter;
                }
            }
        }
    }

    /// Resolve the aggregated trace into per-loop observations with
    /// source-level names.
    fn observations(
        &self,
        scalar_names: &[String],
        arrays: &[crate::value::ArrObj],
    ) -> BTreeMap<LoopId, LoopObservation> {
        let name_of = |key: &VarKey| -> String {
            match key {
                VarKey::Scalar(i) => scalar_names[*i].clone(),
                VarKey::Array(i) => arrays[*i].name.clone(),
            }
        };
        self.agg
            .iter()
            .map(|(loop_id, a)| {
                let mut deps: Vec<DepObservation> = a
                    .deps
                    .iter()
                    .map(|((key, kind), d)| DepObservation {
                        var: name_of(key),
                        kind: *kind,
                        count: d.count,
                        src_iter: d.src,
                        dst_iter: d.dst,
                        element: d.element,
                    })
                    .collect();
                deps.sort_by(|x, y| x.var.cmp(&y.var).then(x.kind.cmp(&y.kind)));
                let o = LoopObservation { invocations: a.invocations, max_trip: a.max_trip, deps };
                (*loop_id, o)
            })
            .collect()
    }
}

/// Distill the compiler's per-loop claims from the transformed IR (the
/// same annotations `lower` turns into `RPar`) plus the report's serial
/// reasons.
fn claims_from(program: &Program, report: &CompileReport) -> Vec<LoopClaim> {
    let Some(main) = program.main() else { return Vec::new() };
    main.body
        .loops()
        .iter()
        .map(|d| {
            let rep = report
                .loops
                .iter()
                .find(|r| r.loop_id == d.loop_id && r.unit == main.name);
            let mut private: BTreeSet<String> = d.par.private.iter().cloned().collect();
            private.extend(d.par.copy_out.iter().cloned());
            LoopClaim {
                loop_id: d.loop_id,
                label: d.label.clone(),
                parallel: d.par.parallel,
                speculative: d.par.speculative.is_some(),
                private,
                reductions: d.par.reductions.iter().map(|r| r.var.clone()).collect(),
                serial_reason: rep
                    .and_then(|r| r.serial_reason.clone())
                    .or_else(|| d.par.serial_reason.clone()),
            }
        })
        .collect()
}

/// Audit a compiled program: execute it serially with the dependence
/// trace attached and cross-check every loop's observed dependences
/// against its compile-time claim. `program` must be the *transformed*
/// program the `report` belongs to.
pub fn audit(program: &Program, report: &CompileReport) -> Result<OracleReport, MachineError> {
    audit_with(program, report, &MachineConfig::serial())
}

/// [`audit`] with resource limits taken from `cfg` (`fuel`,
/// `memory_cap`); the execution itself is always serial — the trace
/// needs program order — and on the tree-walker, the one engine with the
/// trace's access hooks.
pub fn audit_with(
    program: &Program,
    report: &CompileReport,
    cfg: &MachineConfig,
) -> Result<OracleReport, MachineError> {
    audit_recorded(program, report, cfg, &polaris_obs::Recorder::disabled())
}

/// [`audit_with`] with an observability [`polaris_obs::Recorder`]
/// attached: the traced run is wrapped in an `oracle` span and the
/// violation count is mirrored into `oracle.violations`.
pub fn audit_recorded(
    program: &Program,
    report: &CompileReport,
    cfg: &MachineConfig,
    rec: &polaris_obs::Recorder,
) -> Result<OracleReport, MachineError> {
    let mut serial = MachineConfig::serial().with_engine(Engine::TreeWalk);
    serial.fuel = cfg.fuel;
    serial.memory_cap = cfg.memory_cap;
    let oracle_span = rec.span("oracle", "audit");
    let mut image = lower_with_cap(program, serial.memory_cap)?;
    let mut interp = Interp::new(&mut image, &serial, false)?;
    interp.oracle = Some(Box::default());
    interp.run_program(&image)?;
    let trace = interp.oracle.take().expect("oracle state survives the run");
    let observations = trace.observations(&image.scalar_names, &interp.arrays);
    let verdict = judge(&claims_from(program, report), &observations);
    oracle_span.end();
    rec.count(polaris_obs::Counter::OracleViolations, verdict.violations().count() as u64);
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_core::{compile, PassOptions};
    use polaris_ir::parse;

    fn audited(src: &str) -> (OracleReport, CompileReport) {
        let mut p = parse(src).unwrap();
        let rep = compile(&mut p, &PassOptions::polaris()).unwrap();
        let oracle = audit(&p, &rep).unwrap();
        (oracle, rep)
    }

    #[test]
    fn independent_parallel_loop_is_clean() {
        let (o, rep) = audited(
            "program t\nreal a(100)\ndo i = 1, 100\n  a(i) = i * 2.0\nend do\nprint *, a(5)\nend\n",
        );
        assert_eq!(rep.parallel_loops(), 1);
        assert!(!o.has_violations(), "{:?}", o.violations().collect::<Vec<_>>());
        let l = &o.loops[0];
        assert_eq!(l.claim, ClaimKind::Parallel);
        assert!(l.deps.is_empty());
        assert_eq!(l.max_trip, 100);
    }

    #[test]
    fn recurrence_loop_records_flow_dependence() {
        let (o, _) = audited(
            "program t\nreal a(100)\na(1) = 1.0\ndo i = 2, 100\n  a(i) = a(i-1) + 1.0\nend do\nprint *, a(100)\nend\n",
        );
        let l = o.loops.iter().find(|l| l.max_trip == 99).unwrap();
        assert_eq!(l.claim, ClaimKind::Serial);
        assert!(l.deps.iter().any(|d| d.var == "A" && d.kind == DepKind::Flow));
        assert!(!l.completeness_miss);
        assert!(!o.has_violations());
    }

    #[test]
    fn forced_bogus_parallel_annotation_is_soundness_violation() {
        let src = "program t\nreal a(100)\na(1) = 1.0\ndo i = 2, 100\n  a(i) = a(i-1) + 1.0\nend do\nprint *, a(100)\nend\n";
        let mut p = parse(src).unwrap();
        let rep = compile(&mut p, &PassOptions::polaris()).unwrap();
        // Sabotage: force the recurrence loop parallel, as a buggy pass
        // would. The oracle must catch the published race.
        let main = p.main_mut().unwrap();
        main.body.walk_mut(&mut |s| {
            if let Some(d) = s.as_do_mut() {
                d.par.parallel = true;
                d.par.serial_reason = None;
            }
        });
        let o = audit(&p, &rep).unwrap();
        assert!(o.has_violations());
        let v = o.violations().next().unwrap();
        assert_eq!(v.dep.var, "A");
        assert_eq!(v.dep.kind, DepKind::Flow);
    }

    #[test]
    fn runtime_independent_serial_loop_is_completeness_miss() {
        // Subscripted subscript with a permutation index: statically
        // unanalyzable (a MOD-keyed fill defeats both the range test
        // and the idxprop recognizers — an affine fill like `51 - i`
        // would now be *proved* injective and parallelized) but
        // dynamically independent, since gcd(3, 50) = 1 makes the fill
        // a permutation at run time — the textbook completeness miss.
        // Speculation is what Polaris would do; disable run-time tests
        // to force the serial verdict the miss metric is about.
        let src = "program t\ninteger idx(50)\nreal a(50)\ndo i = 1, 50\n  idx(i) = mod(i*3, 50) + 1\nend do\ndo i = 1, 50\n  a(idx(i)) = i * 1.0\nend do\nprint *, a(3)\nend\n";
        let mut p = parse(src).unwrap();
        let mut opts = PassOptions::polaris();
        opts.speculation = false;
        let rep = compile(&mut p, &opts).unwrap();
        let o = audit(&p, &rep).unwrap();
        assert!(!o.has_violations());
        let miss = o.loops.iter().find(|l| l.completeness_miss);
        assert!(miss.is_some(), "expected a completeness miss: {o:?}");
        assert_eq!(o.completeness_misses(), 1);
        assert!(o.miss_rate() > 0.0);
    }

    #[test]
    fn privatized_scalar_and_reduction_are_discharged() {
        let (o, rep) = audited(
            "program t\nreal a(100), s\ns = 0.0\ndo i = 1, 100\n  t = i * 2.0\n  a(i) = t + 1.0\n  s = s + a(i)\nend do\nprint *, s\nend\n",
        );
        assert_eq!(rep.parallel_loops(), 1);
        assert!(!o.has_violations(), "{:?}", o.violations().collect::<Vec<_>>());
        // The serial trace still *sees* the private/reduction traffic —
        // the claims discharge it, attribution intact.
        let l = o.loops.iter().find(|l| l.claim == ClaimKind::Parallel).unwrap();
        assert!(l.deps.iter().any(|d| d.var == "S"));
        assert!(l.deps.iter().any(|d| d.var == "T"));
    }

    #[test]
    fn nested_loops_attribute_dependences_to_the_carrying_level() {
        // Outer loop carries a flow dependence on B (row i reads row
        // i-1); inner loops are independent.
        let src = "program t\nreal b(20,20)\ninteger n\nn = 20\ndo j = 1, n\n  b(1,j) = 1.0\nend do\ndo i = 2, n\n  do j = 1, n\n    b(i,j) = b(i-1,j) + 1.0\n  end do\nend do\nprint *, b(5,5)\nend\n";
        let (o, _) = audited(src);
        let outer = o
            .loops
            .iter()
            .find(|l| l.deps.iter().any(|d| d.var == "B" && d.kind == DepKind::Flow))
            .expect("outer loop should carry the flow dependence");
        assert_eq!(outer.claim, ClaimKind::Serial);
        // At least one loop (the inner sweep or the init loop) is
        // parallel and clean.
        assert!(o.loops.iter().any(|l| l.claim == ClaimKind::Parallel && l.violations.is_empty()));
    }

    // ---- the verdict layer on hand-made observations ----------------

    /// The trace of one loop, `loop_id`, run once for `trip` iterations.
    fn obs(loop_id: u32, trip: u64, deps: Vec<DepObservation>) -> BTreeMap<LoopId, LoopObservation> {
        BTreeMap::from([(LoopId(loop_id), LoopObservation { invocations: 1, max_trip: trip, deps })])
    }

    fn dep(var: &str, kind: DepKind) -> DepObservation {
        DepObservation {
            var: var.into(),
            kind,
            count: 1,
            src_iter: 0,
            dst_iter: 1,
            element: None,
        }
    }

    fn claim(loop_id: u32, label: &str) -> LoopClaim {
        LoopClaim { loop_id: LoopId(loop_id), label: label.into(), ..Default::default() }
    }

    #[test]
    fn parallel_claim_with_raw_dependence_is_violation() {
        let mut c = claim(1, "T_do1");
        c.parallel = true;
        let r = judge(&[c], &obs(1, 8, vec![dep("A", DepKind::Flow)]));
        assert!(r.has_violations());
        assert_eq!(r.violations().count(), 1);
    }

    #[test]
    fn privatization_discharges_anti_and_output_but_not_flow() {
        let mut c = claim(1, "T_do1");
        c.parallel = true;
        c.private.insert("T".into());
        let clean = judge(
            &[c.clone()],
            &obs(1, 8, vec![dep("T", DepKind::Anti), dep("T", DepKind::Output)]),
        );
        assert!(!clean.has_violations());
        let dirty = judge(&[c], &obs(1, 8, vec![dep("T", DepKind::Flow)]));
        assert!(dirty.has_violations());
    }

    #[test]
    fn reduction_discharges_flow() {
        let mut c = claim(1, "T_do1");
        c.parallel = true;
        c.reductions.insert("S".into());
        let r = judge(&[c], &obs(1, 8, vec![dep("S", DepKind::Flow)]));
        assert!(!r.has_violations());
    }

    #[test]
    fn serial_loop_with_no_deps_is_completeness_miss() {
        let mut c = claim(1, "T_do1");
        c.serial_reason = Some("possible carried dependence on array `A`".into());
        let r = judge(&[c], &obs(1, 8, vec![]));
        assert_eq!(r.completeness_misses(), 1);
        assert!(!r.has_violations());
        assert_eq!(r.misses_by_pass().get("dependence-test"), Some(&1));
        assert!((r.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_iteration_serial_loop_is_not_counted() {
        let c = claim(1, "T_do1");
        let r = judge(&[c], &obs(1, 1, vec![]));
        assert_eq!(r.serial_loops_exercised(), 0);
        assert_eq!(r.completeness_misses(), 0);
        assert_eq!(r.miss_rate(), 0.0);
    }

    #[test]
    fn anti_only_serial_loop_is_privatizable_miss_not_strict_miss() {
        let c = claim(1, "T_do1");
        let r = judge(&[c], &obs(1, 4, vec![dep("T", DepKind::Anti)]));
        assert_eq!(r.completeness_misses(), 0);
        assert_eq!(r.privatizable_misses(), 1);
    }

    #[test]
    fn speculative_loops_never_violate() {
        let mut c = claim(1, "T_do1");
        c.speculative = true;
        let r = judge(&[c], &obs(1, 8, vec![dep("A", DepKind::Flow)]));
        assert!(!r.has_violations());
    }

    #[test]
    fn json_is_deterministic_and_quotes_reasons() {
        let mut c = claim(1, "T_do1");
        c.serial_reason = Some("scalar recurrence on `S`".into());
        let r = judge(&[c], &obs(1, 4, vec![dep("S", DepKind::Flow)]));
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"polaris-oracle/v1\""));
        assert!(a.contains("scalar recurrence on `S`"));
        assert!(a.contains("\"claim\": \"serial\""));
        let doc = Json::parse(&a).unwrap();
        assert_eq!(doc.get("loops").and_then(|l| l.as_obj()), None);
        assert_eq!(doc.get("miss_rate"), Some(&Json::Num(0.0)));
    }
}

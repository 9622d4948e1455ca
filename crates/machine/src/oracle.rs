//! The dependence oracle: an instrumented serial run of the tree-walker
//! (whatever engine the caller configured) that records, per
//! compiler-identified loop, the *exact* set of cross-iteration
//! flow/anti/output dependences the program exhibits, then cross-checks
//! them against the pipeline's claims.
//!
//! This generalizes the LRPD shadow arrays of [`polaris_runtime::lrpd::Shadow`] — which
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
//! The verdict layer ([`polaris_runtime::verdict`]) then confronts the
//! trace with the compiler's claims: PARALLEL plus an undischarged
//! dependence is a soundness violation; serial plus an empty dependence
//! set is a completeness miss.

use crate::error::MachineError;
use crate::exec;
use crate::lower::lower_with_cap;
use crate::{Engine, MachineConfig};
use polaris_core::CompileReport;
use polaris_ir::stmt::LoopId;
use polaris_ir::Program;
use polaris_runtime::verdict::{
    judge, DepKind, DepObservation, LoopClaim, LoopObservation, OracleReport,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

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
    label: String,
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
    pub(crate) fn new() -> OracleState {
        OracleState::default()
    }

    pub(crate) fn enter_loop(&mut self, loop_id: LoopId, label: &str, n_scalars: usize) {
        let entry = self.agg.entry(loop_id).or_default();
        if entry.label.is_empty() {
            entry.label = label.to_string();
        }
        entry.invocations += 1;
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
    pub(crate) fn observations(
        &self,
        scalar_names: &[String],
        arrays: &[crate::value::ArrObj],
    ) -> Vec<LoopObservation> {
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
                LoopObservation {
                    loop_id: *loop_id,
                    label: a.label.clone(),
                    invocations: a.invocations,
                    max_trip: a.max_trip,
                    deps,
                }
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
    let image = lower_with_cap(program, serial.memory_cap)?;
    let observations = exec::run_traced(image, &serial)?;
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
    use polaris_runtime::verdict::ClaimKind;

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
}

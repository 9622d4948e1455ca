//! Verdict layer of the dependence oracle: shared types and the
//! cross-check that turns a run-time dependence trace plus the
//! compiler's per-loop claims into soundness/completeness judgements.
//!
//! The machine's instrumented interpreter (`polaris-machine::oracle`)
//! produces one [`LoopObservation`] per compiler-identified loop — the
//! exact cross-iteration flow/anti/output dependences the serial
//! execution exhibited. [`judge`] confronts them with the pipeline's
//! claims ([`LoopClaim`], distilled from `ParallelInfo`/`CompileReport`):
//!
//! * a loop marked PARALLEL with a cross-iteration dependence that is
//!   not discharged by a privatization or reduction claim is a
//!   **soundness violation** — the compiler published a race;
//! * a serial-marked loop whose observed dependence set is empty (over
//!   an invocation with at least two iterations) is a **completeness
//!   miss** — dynamic parallelism the static analysis left behind,
//!   counted per responsible pass but never a failure.
//!
//! These live here rather than in `polaris-machine` because every
//! consumer of the oracle (the `polarisc` driver, the bench trajectory,
//! the conformance tests) needs the types without needing the machine.

use polaris_ir::stmt::LoopId;
use polaris_obs::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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
    pub(crate) fn as_str(self) -> &'static str {
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
#[derive(Debug, Clone, PartialEq)]
pub struct LoopObservation {
    pub loop_id: LoopId,
    pub label: String,
    pub invocations: u64,
    /// Largest trip count of any invocation.
    pub max_trip: u64,
    /// Observed cross-iteration dependences, one per `(var, kind)`.
    pub deps: Vec<DepObservation>,
}

/// The compiler's claim for one loop, distilled from the lowered
/// `ParallelInfo` plus the `CompileReport` (for the serial reason).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopClaim {
    pub loop_id: LoopId,
    pub label: String,
    /// Proven parallel (a DOALL) — the claim the oracle audits.
    pub parallel: bool,
    /// Chosen for run-time speculative parallelization; dependences are
    /// allowed here (the LRPD test catches them), so never a violation.
    pub speculative: bool,
    /// Variables with per-iteration private copies (includes copy-out).
    pub private: BTreeSet<String>,
    /// Validated reduction targets.
    pub reductions: BTreeSet<String>,
    /// Why the loop stayed serial, when it did.
    pub serial_reason: Option<String>,
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
    pub(crate) fn as_str(self) -> &'static str {
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
    pub fn miss_rate(&self) -> f64 {
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
pub(crate) fn categorize_reason(reason: Option<&str>) -> &'static str {
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
pub fn judge(claims: &[LoopClaim], observations: &[LoopObservation]) -> OracleReport {
    let by_id: BTreeMap<LoopId, &LoopObservation> =
        observations.iter().map(|o| (o.loop_id, o)).collect();
    let mut loops = Vec::with_capacity(claims.len());
    for c in claims {
        let obs = by_id.get(&c.loop_id);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(loop_id: u32, label: &str, trip: u64, deps: Vec<DepObservation>) -> LoopObservation {
        LoopObservation {
            loop_id: LoopId(loop_id),
            label: label.into(),
            invocations: 1,
            max_trip: trip,
            deps,
        }
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
        let r = judge(&[c], &[obs(1, "T_do1", 8, vec![dep("A", DepKind::Flow)])]);
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
            &[obs(1, "T_do1", 8, vec![dep("T", DepKind::Anti), dep("T", DepKind::Output)])],
        );
        assert!(!clean.has_violations());
        let dirty = judge(&[c], &[obs(1, "T_do1", 8, vec![dep("T", DepKind::Flow)])]);
        assert!(dirty.has_violations());
    }

    #[test]
    fn reduction_discharges_flow() {
        let mut c = claim(1, "T_do1");
        c.parallel = true;
        c.reductions.insert("S".into());
        let r = judge(&[c], &[obs(1, "T_do1", 8, vec![dep("S", DepKind::Flow)])]);
        assert!(!r.has_violations());
    }

    #[test]
    fn serial_loop_with_no_deps_is_completeness_miss() {
        let mut c = claim(1, "T_do1");
        c.serial_reason = Some("possible carried dependence on array `A`".into());
        let r = judge(&[c], &[obs(1, "T_do1", 8, vec![])]);
        assert_eq!(r.completeness_misses(), 1);
        assert!(!r.has_violations());
        assert_eq!(r.misses_by_pass().get("dependence-test"), Some(&1));
        assert!((r.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_iteration_serial_loop_is_not_counted() {
        let c = claim(1, "T_do1");
        let r = judge(&[c], &[obs(1, "T_do1", 1, vec![])]);
        assert_eq!(r.serial_loops_exercised(), 0);
        assert_eq!(r.completeness_misses(), 0);
        assert_eq!(r.miss_rate(), 0.0);
    }

    #[test]
    fn anti_only_serial_loop_is_privatizable_miss_not_strict_miss() {
        let c = claim(1, "T_do1");
        let r = judge(&[c], &[obs(1, "T_do1", 4, vec![dep("T", DepKind::Anti)])]);
        assert_eq!(r.completeness_misses(), 0);
        assert_eq!(r.privatizable_misses(), 1);
    }

    #[test]
    fn speculative_loops_never_violate() {
        let mut c = claim(1, "T_do1");
        c.speculative = true;
        let r = judge(&[c], &[obs(1, "T_do1", 8, vec![dep("A", DepKind::Flow)])]);
        assert!(!r.has_violations());
    }

    #[test]
    fn json_is_deterministic_and_quotes_reasons() {
        let mut c = claim(1, "T_do1");
        c.serial_reason = Some("scalar recurrence on `S`".into());
        let r = judge(&[c], &[obs(1, "T_do1", 4, vec![dep("S", DepKind::Flow)])]);
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

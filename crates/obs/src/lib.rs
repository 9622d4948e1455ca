//! # polaris-obs — the observability layer
//!
//! The paper's evaluation attributes speedup to individual passes
//! (inlining, induction substitution, the range test, privatization —
//! the Figure 7 ablations), which requires knowing *where time,
//! rewrites, and dependence-test outcomes actually go*. This crate
//! provides the workspace-wide instrumentation substrate:
//!
//! * a [`Recorder`] handle, threaded through `polaris-core::pipeline`
//!   and `polaris-machine` (exec, threaded, oracle, and the verdicts of
//!   its LRPD test), collecting **hierarchical spans**
//!   (compile → unit → pass → loop; exec → loop → chunk) and **typed
//!   [`Counter`]s**;
//! * a clock abstraction with a real monotonic clock and a
//!   deterministic **virtual clock** (each observation advances time by
//!   exactly one tick), so traces of deterministic executions are
//!   byte-identical across runs and can be pinned by golden tests;
//! * two stable export formats: a JSON **metrics document**
//!   ([`Recorder::metrics_json`], schema `polaris-obs/metrics/v1`) and
//!   the **Chrome trace-event format**
//!   ([`Recorder::chrome_trace_json`], load in `chrome://tracing` or
//!   Perfetto).
//!
//! Spans that describe a loop carry the loop's [`LoopId`] — the same
//! provenance key `CompileReport`, `ParallelInfo` and the run-time
//! dependence oracle join on — so a trace row can be matched against
//! the compile-time verdict and the oracle's observations for the same
//! loop.
//!
//! A disabled recorder ([`Recorder::disabled`], also the `Default`)
//! costs one branch per hook, mirroring the machine's
//! `Option<Box<OracleState>>` pattern; every instrumented call site is
//! free when observability is off.

pub mod json;

use json::Json;
use polaris_ir::stmt::LoopId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on recorded span events (begin + end each count as one). A
/// runaway loop nest cannot grow the trace without bound: once the cap
/// is reached new spans are dropped *whole* (their `E` is suppressed
/// with their `B`, so the surviving stream stays well-nested) and the
/// drop count is reported in the metrics document.
pub const MAX_EVENTS: usize = 1 << 20;

/// Which clock drives span timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Real wall-clock time (microseconds since the recorder was
    /// created). For humans profiling a run.
    Monotonic,
    /// Deterministic virtual time: every timestamp observation advances
    /// the clock by exactly one tick (reported as 1 "µs"). Two runs
    /// that make the same sequence of recording calls produce
    /// byte-identical traces — the property the golden tests pin.
    Virtual,
}

/// Typed counters. Each maps to a stable dotted name in the exported
/// documents; the compile-side group is recorded by the pipeline after
/// its stages run, the exec-side group by the machine as it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Range-test queries attempted (run = proved + disproved + abstained).
    RangeTestsRun,
    /// Range test proved independence for the pair.
    RangeProved,
    /// Range test ran but could not prove independence.
    RangeDisproved,
    /// Range test could not be applied (subscripts/bounds not symbolic).
    RangeAbstained,
    /// Banerjee direction-vector trials (the §3.3 complexity metric).
    BanerjeeVectors,
    /// GCD test invocations.
    GcdTests,
    /// Range-test pair probes (one per loop/pair/permutation attempt).
    RangeProbes,
    /// Range-test successes that needed a loop permutation.
    PermutationsUsed,
    /// Range facts propagated into the analysis environment.
    RangesPropagated,
    /// Index arrays that earned a proven content property (idxprop).
    IdxPropsProved,
    /// Property-rule disjointness queries (subscripted subscripts).
    PropsTestsRun,
    /// Property-rule queries that proved the loop's pairs disjoint.
    PropsProved,
    /// Induction variables substituted (additive + multiplicative).
    InductionSubstitutions,
    /// Reduction statements recognized by the pattern matcher.
    ReductionsRecognized,
    /// Arrays privatized across all analyzed loops.
    ArraysPrivatized,
    /// Call sites spliced by full inline expansion.
    InlineSplices,
    /// Loops proven parallel at compile time.
    CompileLoopsParallel,
    /// Loops selected for run-time (LRPD) speculation.
    CompileLoopsSpeculative,
    /// Loops left serial.
    CompileLoopsSerial,
    /// All analyzed loops (= parallel + speculative + serial).
    CompileLoopsTotal,
    /// Loop invocations executed by a parallel backend.
    ExecLoopsParallel,
    /// Loop invocations executed under the speculative protocol.
    ExecLoopsSpeculative,
    /// Loop invocations executed serially.
    ExecLoopsSerial,
    /// Loop invocations executed by the adversarial validator.
    ExecLoopsAdversarial,
    /// All loop invocations (= the four above summed).
    ExecLoopsTotal,
    /// Chunks scheduled onto the real-thread backend.
    ThreadedChunks,
    /// Bytes committed while merging worker results (array diff-merge,
    /// reduction tree merges, copy-out scalars).
    ThreadedMergeBytes,
    /// LRPD / PD-test attempts that validated and committed.
    LrpdPass,
    /// LRPD / PD-test attempts that failed (serial re-execution).
    LrpdFail,
    /// Soundness violations found by the run-time dependence oracle.
    OracleViolations,
    /// IR invariant sweeps run by the pipeline's post-stage verifier
    /// (one per invariant class per checked stage).
    VerifyInvariantChecks,
    /// Invariant violations caught by the post-stage verifier (each one
    /// rolled the offending stage back).
    VerifyInvariantViolations,
    /// PARALLEL plans the static race detector proved clean.
    VerifyRaceClean,
    /// PARALLEL plans with uncovered writes that privatization or
    /// lastprivate annotations would discharge.
    VerifyRaceNeedsPrivatization,
    /// PARALLEL plans with a possible cross-iteration flow dependence
    /// the detector could not discharge.
    VerifyRacePotentialRace,
    /// Findings emitted by the `--lint` suite (all severities).
    VerifyLintFindings,
    /// Requests admitted into the `polarisd` service queue.
    PolarisdAccepted,
    /// Responses sent (every accepted request gets exactly one).
    PolarisdAnswered,
    /// Requests shed by admission control (bounded queue, shed-oldest).
    PolarisdShed,
    /// Compile-cache hits served without touching the pipeline.
    PolarisdCacheHits,
    /// Compile-cache misses (fresh compiles).
    PolarisdCacheMisses,
    /// Poisoned cache entries detected by integrity check and purged.
    PolarisdCachePoisonPurged,
    /// Transient-failure retries (attempt 2+), after backoff.
    PolarisdRetries,
    /// Compiles cancelled by the deadline watchdog.
    PolarisdDeadlineCancels,
    /// Circuit-breaker transitions into quarantine (Closed/HalfOpen → Open).
    PolarisdQuarantined,
    /// Half-open probe compiles attempted for quarantined units.
    PolarisdProbes,
    /// Quarantined units recovered via a successful half-open probe.
    PolarisdRecovered,
    /// Service workers respawned after dying mid-request.
    PolarisdWorkerRespawns,
    /// Dispatch decisions taken by the adaptive scheduling runtime.
    AdaptiveDecisions,
    /// First-invocation measurement runs (profile not yet established).
    AdaptiveMeasurements,
    /// Invocations re-dispatched to a strategy other than the measuring
    /// default because the observed profile picked a different winner.
    AdaptiveRedispatch,
    /// Speculation throttled back to serial by sustained misspeculation.
    AdaptiveThrottled,
    /// Hysteresis probes: a throttled loop retrying speculation after
    /// the hold-down expired.
    AdaptiveProbes,
    /// Decision-table entries that failed their integrity check and were
    /// reset (the consumer fell back to static dispatch).
    AdaptiveTableCorrupt,
    /// Chunks obtained by stealing from another worker's lane.
    StealChunks,
    /// Steal attempts (successful or not) against victim lanes.
    StealAttempts,
}

impl Counter {
    /// The stable dotted name used in the exported JSON documents.
    pub fn name(self) -> &'static str {
        match self {
            Counter::RangeTestsRun => "compile.dd.range.run",
            Counter::RangeProved => "compile.dd.range.proved",
            Counter::RangeDisproved => "compile.dd.range.disproved",
            Counter::RangeAbstained => "compile.dd.range.abstained",
            Counter::BanerjeeVectors => "compile.dd.banerjee_vectors",
            Counter::GcdTests => "compile.dd.gcd_tests",
            Counter::RangeProbes => "compile.dd.range_probes",
            Counter::PermutationsUsed => "compile.dd.permutations",
            Counter::RangesPropagated => "compile.ranges.propagated",
            Counter::IdxPropsProved => "compile.idxprop.proved",
            Counter::PropsTestsRun => "compile.dd.props.run",
            Counter::PropsProved => "compile.dd.props.proved",
            Counter::InductionSubstitutions => "compile.induction.substitutions",
            Counter::ReductionsRecognized => "compile.reductions.recognized",
            Counter::ArraysPrivatized => "compile.arrays.privatized",
            Counter::InlineSplices => "compile.inline.splices",
            Counter::CompileLoopsParallel => "compile.loops.parallel",
            Counter::CompileLoopsSpeculative => "compile.loops.speculative",
            Counter::CompileLoopsSerial => "compile.loops.serial",
            Counter::CompileLoopsTotal => "compile.loops.total",
            Counter::ExecLoopsParallel => "exec.loops.parallel",
            Counter::ExecLoopsSpeculative => "exec.loops.speculative",
            Counter::ExecLoopsSerial => "exec.loops.serial",
            Counter::ExecLoopsAdversarial => "exec.loops.adversarial",
            Counter::ExecLoopsTotal => "exec.loops.total",
            Counter::ThreadedChunks => "exec.threaded.chunks",
            Counter::ThreadedMergeBytes => "exec.threaded.merge_bytes",
            Counter::LrpdPass => "lrpd.pass",
            Counter::LrpdFail => "lrpd.fail",
            Counter::OracleViolations => "oracle.violations",
            Counter::VerifyInvariantChecks => "verify.invariants.checks",
            Counter::VerifyInvariantViolations => "verify.invariants.violations",
            Counter::VerifyRaceClean => "verify.race.clean",
            Counter::VerifyRaceNeedsPrivatization => "verify.race.needs_privatization",
            Counter::VerifyRacePotentialRace => "verify.race.potential_race",
            Counter::VerifyLintFindings => "verify.lint.findings",
            Counter::PolarisdAccepted => "polarisd.requests.accepted",
            Counter::PolarisdAnswered => "polarisd.requests.answered",
            Counter::PolarisdShed => "polarisd.requests.shed",
            Counter::PolarisdCacheHits => "polarisd.cache.hits",
            Counter::PolarisdCacheMisses => "polarisd.cache.misses",
            Counter::PolarisdCachePoisonPurged => "polarisd.cache.poison_purged",
            Counter::PolarisdRetries => "polarisd.retry.attempts",
            Counter::PolarisdDeadlineCancels => "polarisd.deadline.cancels",
            Counter::PolarisdQuarantined => "polarisd.breaker.quarantined",
            Counter::PolarisdProbes => "polarisd.breaker.probes",
            Counter::PolarisdRecovered => "polarisd.breaker.recovered",
            Counter::PolarisdWorkerRespawns => "polarisd.workers.respawned",
            Counter::AdaptiveDecisions => "adaptive.decisions",
            Counter::AdaptiveMeasurements => "adaptive.measure",
            Counter::AdaptiveRedispatch => "adaptive.redispatch",
            Counter::AdaptiveThrottled => "adaptive.throttle",
            Counter::AdaptiveProbes => "adaptive.probe",
            Counter::AdaptiveTableCorrupt => "adaptive.table.corrupt",
            Counter::StealChunks => "exec.steal.chunks",
            Counter::StealAttempts => "exec.steal.attempts",
        }
    }
}

/// `B` (span begin) or `E` (span end), Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Begin,
    End,
}

/// One recorded trace event. Events are appended in call order under a
/// single lock, so within each `tid` the `B`/`E` stream is well-nested
/// by construction (spans close in LIFO order — enforced by the
/// [`Span`] guard's scoping).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub phase: Phase,
    /// Span category: `"compile"` or `"exec"`.
    pub cat: &'static str,
    /// Span name, e.g. `"pass:induction"`, `"loop:do5"`, `"chunk:3"`.
    pub name: String,
    /// Trace thread id (1 = the driver; threaded chunks use 1 + bucket).
    pub tid: u32,
    /// Timestamp in (possibly virtual) microseconds.
    pub ts_us: u64,
    /// The loop this span describes, if any — the provenance join key
    /// against `CompileReport` and the dependence oracle.
    pub loop_id: Option<LoopId>,
    /// The program unit this span describes, if any.
    pub unit: Option<String>,
}

#[derive(Debug, Default)]
struct State {
    events: Vec<Event>,
    counters: BTreeMap<&'static str, u64>,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    mode: ClockMode,
    epoch: Instant,
    vticks: AtomicU64,
    max_events: usize,
    state: Mutex<State>,
}

/// The recording handle. Cheap to clone (an `Arc`); a disabled handle
/// is a `None` and costs one branch per call.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that records nothing (the default). All hooks are
    /// single-branch no-ops.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder driven by the given clock.
    pub fn with_clock(mode: ClockMode) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                mode,
                epoch: Instant::now(),
                vticks: AtomicU64::new(0),
                max_events: MAX_EVENTS,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// An enabled recorder on the real monotonic clock.
    pub fn monotonic() -> Recorder {
        Recorder::with_clock(ClockMode::Monotonic)
    }

    /// An enabled recorder on the deterministic virtual clock.
    pub fn virtual_clock() -> Recorder {
        Recorder::with_clock(ClockMode::Virtual)
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `"monotonic"`, `"virtual"`, or `"disabled"`.
    pub fn clock_name(&self) -> &'static str {
        match self.inner.as_deref() {
            None => "disabled",
            Some(i) => match i.mode {
                ClockMode::Monotonic => "monotonic",
                ClockMode::Virtual => "virtual",
            },
        }
    }

    fn now_us(inner: &Inner) -> u64 {
        match inner.mode {
            ClockMode::Monotonic => inner.epoch.elapsed().as_micros() as u64,
            ClockMode::Virtual => inner.vticks.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    /// Add `n` to a counter. `n == 0` still materializes the key, so
    /// documents have a stable key set once a code path has run.
    pub fn count(&self, c: Counter, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            let mut st = inner.state.lock().unwrap();
            *st.counters.entry(c.name()).or_default() += n;
        }
    }

    /// Open a span on the driver thread (`tid` 1).
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Span {
        self.span_with(cat, name, 1, None, None)
    }

    /// Open a span describing a specific loop. This sits on the
    /// interpreter's per-loop-invocation path, so the disabled recorder
    /// must not even format the name.
    pub fn loop_span(&self, cat: &'static str, label: &str, id: LoopId) -> Span {
        if self.inner.is_none() {
            return Span {
                rec: self.clone(),
                cat,
                name: String::new(),
                tid: 1,
                recorded: false,
                closed: true,
            };
        }
        self.span_with(cat, format!("loop:{label}"), 1, Some(id), None)
    }

    /// Open a span with explicit trace-thread id and provenance.
    pub fn span_with(
        &self,
        cat: &'static str,
        name: impl Into<String>,
        tid: u32,
        loop_id: Option<LoopId>,
        unit: Option<String>,
    ) -> Span {
        let name = name.into();
        let recorded = match self.inner.as_deref() {
            None => false,
            Some(inner) => {
                let ts_us = Recorder::now_us(inner);
                let mut st = inner.state.lock().unwrap();
                // +1: reserve room for this span's own E event.
                if st.events.len() + 1 >= inner.max_events {
                    st.dropped += 1;
                    false
                } else {
                    st.events.push(Event {
                        phase: Phase::Begin,
                        cat,
                        name: name.clone(),
                        tid,
                        ts_us,
                        loop_id,
                        unit,
                    });
                    true
                }
            }
        };
        Span { rec: self.clone(), cat, name, tid, recorded, closed: !recorded }
    }

    fn end_span(&self, cat: &'static str, name: &str, tid: u32) {
        if let Some(inner) = self.inner.as_deref() {
            let ts_us = Recorder::now_us(inner);
            let mut st = inner.state.lock().unwrap();
            st.events.push(Event {
                phase: Phase::End,
                cat,
                name: name.to_string(),
                tid,
                ts_us,
                loop_id: None,
                unit: None,
            });
        }
    }

    /// `f` of the recorded state (of an empty one when disabled).
    fn read<T>(&self, f: impl FnOnce(&State) -> T) -> T {
        match self.inner.as_deref() {
            None => f(&State::default()),
            Some(inner) => f(&inner.state.lock().unwrap()),
        }
    }

    /// Snapshot of the counters (stable dotted name → value).
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.read(|st| st.counters.clone())
    }

    /// Snapshot of the recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.read(|st| st.events.clone())
    }

    /// Spans dropped because the [`MAX_EVENTS`] cap was reached.
    pub fn events_dropped(&self) -> u64 {
        self.read(|st| st.dropped)
    }

    /// Chrome trace-event document (`chrome://tracing` / Perfetto).
    /// Events appear in record order as `B`/`E` pairs on `pid` 1;
    /// counters ride along under the non-standard top-level key
    /// `"counters"`, which viewers ignore.
    pub fn chrome_trace_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(Vec::new())),
            ("counters".into(), Json::Inline(Box::new(self.counters_json()))),
        ]);
        let events = self.events().into_iter().map(|e| {
            let ph = if e.phase == Phase::Begin { "B" } else { "E" };
            let mut m = vec![
                ("ph".into(), Json::Str(ph.into())),
                ("cat".into(), Json::Str(e.cat.into())),
                ("name".into(), Json::Str(e.name)),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(e.tid.into())),
                ("ts".into(), Json::Int(e.ts_us)),
            ];
            let loop_id = e.loop_id.map(|id| ("loop_id".into(), Json::Int(id.0.into())));
            let unit = e.unit.map(|u| ("unit".into(), Json::Str(u)));
            let args: Vec<_> = loop_id.into_iter().chain(unit).collect();
            if !args.is_empty() {
                m.push(("args".into(), Json::Obj(args)));
            }
            Json::Inline(Box::new(Json::Obj(m)))
        });
        json::print_streamed(&doc, "traceEvents", events) + "\n"
    }

    /// Stable JSON metrics document (schema `polaris-obs/metrics/v1`):
    /// the counters plus per-(cat, name) span aggregates. Under the
    /// virtual clock the whole document is deterministic.
    pub fn metrics_json(&self) -> String {
        let spans = aggregate_spans(&self.events()).into_iter().map(|((cat, name), agg)| {
            Json::Inline(Box::new(Json::Obj(vec![
                ("cat".into(), Json::Str(cat.into())),
                ("name".into(), Json::Str(name)),
                ("count".into(), Json::Int(agg.count)),
                ("total_us".into(), Json::Int(agg.total_us)),
            ])))
        });
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str("polaris-obs/metrics/v1".into())),
            ("clock".into(), Json::Str(self.clock_name().into())),
            ("events_dropped".into(), Json::Int(self.events_dropped())),
            ("counters".into(), self.counters_json()),
            ("spans".into(), Json::Arr(spans.collect())),
        ]);
        format!("{doc}\n")
    }

    fn counters_json(&self) -> Json {
        Json::Obj(self.counters().into_iter().map(|(k, v)| (k.into(), Json::Int(v))).collect())
    }
}

/// RAII span guard: records its `E` event on [`Span::end`] or on drop
/// (so `?`-style early exits and unwinding still close the span, which
/// keeps the per-tid `B`/`E` stream well-nested).
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    cat: &'static str,
    name: String,
    tid: u32,
    recorded: bool,
    closed: bool,
}

impl Span {
    /// Close the span now.
    pub fn end(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if !self.closed {
            self.closed = true;
            if self.recorded {
                self.rec.end_span(self.cat, &self.name, self.tid);
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

/// Per-(cat, name) span aggregate in the metrics document.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_us: u64,
}

/// Pair up `B`/`E` events (per tid, LIFO) and aggregate durations by
/// (cat, name). Unpaired begins (a still-open or capped span) are
/// ignored.
pub fn aggregate_spans(events: &[Event]) -> BTreeMap<(&'static str, String), SpanAgg> {
    let mut stacks: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
    let mut out: BTreeMap<(&'static str, String), SpanAgg> = BTreeMap::new();
    for e in events {
        match e.phase {
            Phase::Begin => stacks.entry(e.tid).or_default().push(e),
            Phase::End => {
                if let Some(b) = stacks.entry(e.tid).or_default().pop() {
                    let agg = out.entry((b.cat, b.name.clone())).or_default();
                    agg.count += 1;
                    agg.total_us += e.ts_us.saturating_sub(b.ts_us);
                }
            }
        }
    }
    out
}

/// Check the span stream is well-nested: within every tid, each `E`
/// closes the most recent open `B` with the same cat and name, and
/// nothing is left open. The counter-consistency proptest and the
/// serializer unit tests both lean on this.
pub fn validate_nesting(events: &[Event]) -> Result<(), String> {
    let mut stacks: BTreeMap<u32, Vec<(&'static str, &str)>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        match e.phase {
            Phase::Begin => stacks.entry(e.tid).or_default().push((e.cat, &e.name)),
            Phase::End => match stacks.entry(e.tid).or_default().pop() {
                None => return Err(format!("event {i}: E `{}` with empty stack", e.name)),
                Some((cat, name)) => {
                    if cat != e.cat || name != e.name {
                        return Err(format!(
                            "event {i}: E `{}:{}` closes open span `{cat}:{name}`",
                            e.cat, e.name
                        ));
                    }
                }
            },
        }
    }
    for (tid, stack) in stacks {
        if let Some((cat, name)) = stack.last() {
            return Err(format!("tid {tid}: span `{cat}:{name}` left open"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_run(rec: &Recorder) {
        let compile = rec.span("compile", "compile");
        {
            let unit = rec.span_with("compile", "unit:MAIN", 1, None, Some("MAIN".into()));
            {
                let pass = rec.span("compile", "pass:analyze");
                let lp = rec.loop_span("compile", "do5", LoopId(3));
                lp.end();
                pass.end();
            }
            unit.end();
        }
        rec.count(Counter::InlineSplices, 2);
        rec.count(Counter::CompileLoopsTotal, 1);
        compile.end();
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        nested_run(&rec);
        assert!(!rec.is_enabled());
        assert!(rec.events().is_empty());
        assert!(rec.counters().is_empty());
        assert_eq!(rec.clock_name(), "disabled");
        // serializers still produce valid empty documents
        assert!(rec.chrome_trace_json().contains("\"traceEvents\""));
        assert!(rec.metrics_json().contains("polaris-obs/metrics/v1"));
    }

    #[test]
    fn events_are_ordered_and_well_nested_with_stable_pid_tid() {
        let rec = Recorder::virtual_clock();
        nested_run(&rec);
        let events = rec.events();
        assert_eq!(events.len(), 8, "{events:#?}");
        validate_nesting(&events).unwrap();
        // timestamps strictly increase under the virtual clock
        for w in events.windows(2) {
            assert!(w[0].ts_us < w[1].ts_us, "{w:?}");
        }
        // every span here is on the driver tid
        assert!(events.iter().all(|e| e.tid == 1));
        // the chrome doc keeps pid/tid stable across every event
        let doc = rec.chrome_trace_json();
        assert_eq!(doc.matches("\"pid\": 1").count(), 8, "{doc}");
        assert_eq!(doc.matches("\"tid\": 1").count(), 8, "{doc}");
        // B/E pairing: equal counts, and the first E follows its B
        assert_eq!(doc.matches("\"ph\": \"B\"").count(), 4);
        assert_eq!(doc.matches("\"ph\": \"E\"").count(), 4);
    }

    #[test]
    fn chrome_args_carry_loop_id_and_unit() {
        let rec = Recorder::virtual_clock();
        nested_run(&rec);
        let doc = rec.chrome_trace_json();
        assert!(doc.contains("\"args\": {\"loop_id\": 3}"), "{doc}");
        assert!(doc.contains("\"args\": {\"unit\": \"MAIN\"}"), "{doc}");
        assert!(doc.contains("\"counters\": {\"compile.inline.splices\": 2, \
                              \"compile.loops.total\": 1}"),
            "{doc}");
    }

    #[test]
    fn out_of_order_end_is_detected() {
        // Hand-build an ill-nested stream: A opens, B opens, A closes.
        let mk = |phase, name: &str| Event {
            phase,
            cat: "compile",
            name: name.to_string(),
            tid: 1,
            ts_us: 1,
            loop_id: None,
            unit: None,
        };
        let bad = vec![mk(Phase::Begin, "a"), mk(Phase::Begin, "b"), mk(Phase::End, "a")];
        assert!(validate_nesting(&bad).is_err());
        let open = vec![mk(Phase::Begin, "a")];
        assert!(validate_nesting(&open).is_err());
        let stray = vec![mk(Phase::End, "a")];
        assert!(validate_nesting(&stray).is_err());
    }

    #[test]
    fn virtual_clock_runs_are_byte_identical() {
        let runs: Vec<(String, String)> = (0..2)
            .map(|_| {
                let rec = Recorder::virtual_clock();
                nested_run(&rec);
                (rec.chrome_trace_json(), rec.metrics_json())
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "chrome trace not deterministic");
        assert_eq!(runs[0].1, runs[1].1, "metrics not deterministic");
    }

    #[test]
    fn metrics_aggregates_span_durations() {
        let rec = Recorder::virtual_clock();
        nested_run(&rec);
        let spans = aggregate_spans(&rec.events());
        // compile span: B at tick 1, E at tick 8 → 7 virtual µs
        assert_eq!(
            spans[&("compile", "compile".to_string())],
            SpanAgg { count: 1, total_us: 7 }
        );
        assert_eq!(spans[&("compile", "loop:do5".to_string())].count, 1);
        let doc = rec.metrics_json();
        assert!(doc.contains("\"clock\": \"virtual\""), "{doc}");
        assert!(doc.contains("\"compile.inline.splices\": 2"), "{doc}");
        assert!(
            doc.contains("{\"cat\": \"compile\", \"name\": \"compile\", \"count\": 1, \"total_us\": 7}"),
            "{doc}"
        );
    }

    #[test]
    fn drop_closes_spans_on_early_exit() {
        let rec = Recorder::virtual_clock();
        fn may_fail(rec: &Recorder, fail: bool) -> Result<(), ()> {
            let _s = rec.span("exec", "loop:do1");
            if fail {
                return Err(());
            }
            Ok(())
        }
        let _ = may_fail(&rec, true);
        let _ = may_fail(&rec, false);
        validate_nesting(&rec.events()).unwrap();
        assert_eq!(rec.events().len(), 4);
    }

    #[test]
    fn saturation_drops_whole_spans_and_counts_them() {
        let rec = Recorder {
            inner: Some(Arc::new(Inner {
                mode: ClockMode::Virtual,
                epoch: Instant::now(),
                vticks: AtomicU64::new(0),
                max_events: 4,
                state: Mutex::new(State::default()),
            })),
        };
        for _ in 0..5 {
            rec.span("exec", "loop:x").end();
        }
        // cap 4 → two whole spans fit (B E B E), three dropped
        let events = rec.events();
        assert_eq!(events.len(), 4, "{events:#?}");
        validate_nesting(&events).unwrap();
        assert_eq!(rec.events_dropped(), 3);
        assert!(rec.metrics_json().contains("\"events_dropped\": 3"));
    }

    #[test]
    fn counter_names_are_unique_and_zero_counts_materialize() {
        let all = [
            Counter::RangeTestsRun,
            Counter::RangeProved,
            Counter::RangeDisproved,
            Counter::RangeAbstained,
            Counter::BanerjeeVectors,
            Counter::GcdTests,
            Counter::RangeProbes,
            Counter::PermutationsUsed,
            Counter::RangesPropagated,
            Counter::IdxPropsProved,
            Counter::PropsTestsRun,
            Counter::PropsProved,
            Counter::InductionSubstitutions,
            Counter::ReductionsRecognized,
            Counter::ArraysPrivatized,
            Counter::InlineSplices,
            Counter::CompileLoopsParallel,
            Counter::CompileLoopsSpeculative,
            Counter::CompileLoopsSerial,
            Counter::CompileLoopsTotal,
            Counter::ExecLoopsParallel,
            Counter::ExecLoopsSpeculative,
            Counter::ExecLoopsSerial,
            Counter::ExecLoopsAdversarial,
            Counter::ExecLoopsTotal,
            Counter::ThreadedChunks,
            Counter::ThreadedMergeBytes,
            Counter::LrpdPass,
            Counter::LrpdFail,
            Counter::OracleViolations,
            Counter::VerifyInvariantChecks,
            Counter::VerifyInvariantViolations,
            Counter::VerifyRaceClean,
            Counter::VerifyRaceNeedsPrivatization,
            Counter::VerifyRacePotentialRace,
            Counter::VerifyLintFindings,
            Counter::PolarisdAccepted,
            Counter::PolarisdAnswered,
            Counter::PolarisdShed,
            Counter::PolarisdCacheHits,
            Counter::PolarisdCacheMisses,
            Counter::PolarisdCachePoisonPurged,
            Counter::PolarisdRetries,
            Counter::PolarisdDeadlineCancels,
            Counter::PolarisdQuarantined,
            Counter::PolarisdProbes,
            Counter::PolarisdRecovered,
            Counter::PolarisdWorkerRespawns,
            Counter::AdaptiveDecisions,
            Counter::AdaptiveMeasurements,
            Counter::AdaptiveRedispatch,
            Counter::AdaptiveThrottled,
            Counter::AdaptiveProbes,
            Counter::AdaptiveTableCorrupt,
            Counter::StealChunks,
            Counter::StealAttempts,
        ];
        let names: std::collections::BTreeSet<&str> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), all.len());
        let rec = Recorder::virtual_clock();
        for c in all {
            rec.count(c, 0);
        }
        assert_eq!(rec.counters().len(), all.len());
    }

    #[test]
    fn monotonic_clock_produces_nondecreasing_timestamps() {
        let rec = Recorder::monotonic();
        assert_eq!(rec.clock_name(), "monotonic");
        nested_run(&rec);
        let events = rec.events();
        for w in events.windows(2) {
            assert!(w[0].ts_us <= w[1].ts_us);
        }
        validate_nesting(&events).unwrap();
    }
}

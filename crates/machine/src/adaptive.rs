//! Adaptive per-loop dispatch: choose serial or concurrent execution, a
//! schedule, and a thread count from *observed* behaviour,
//! per loop, per invocation. Whether a concurrent invocation is a DOALL
//! or an LRPD speculation is not the controller's to choose: the
//! compiler decided it, and the dispatcher reads it off the loop's
//! annotation. The controller therefore cannot ask for an unsound run.
//!
//! The controller is deliberately fed **deterministic** signals — trip
//! counts, simulated per-chunk cycle totals, and misspeculation
//! verdicts — never wall-clock. Two runs of the same program therefore
//! produce byte-identical decision tables, which is what lets the
//! conformance tier golden-snapshot them and assert decision-table
//! stability across repeated invocations (see DESIGN.md, "Adaptive
//! dispatch & determinism contract").
//!
//! The policy (after Baghdadi et al.'s synergistic static/dynamic/
//! speculative scheme, PAPERS.md):
//!
//! * invocation 1 **measures**: concurrent under block chunking;
//! * invocation ≥ 2 **re-dispatches** to the measured winner: tiny
//!   trips fall back to serial (fork/join dominates), high per-chunk
//!   cost variance selects work stealing, uniform cost keeps block
//!   chunking;
//! * sustained misspeculation (a streak of failed PD tests) throttles
//!   speculation to serial with hysteresis: the loop is held serial for
//!   a few invocations, then speculation is **probed** exactly once —
//!   a success re-opens it, another failure re-arms the throttle.
//!
//! Every table entry carries an integrity check word. A corrupted entry
//! (crash recovery, chaos injection) is detected on the next decision,
//! reset, and answered with the block fallback — adaptation state is
//! advisory, never load-bearing for correctness.

use crate::cost::Schedule;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// How the decision table prints a schedule: `block` for contiguous
/// blocks, `steal:N` / `dynamic:N` for chunks of `N` iterations.
fn describe(schedule: Schedule) -> String {
    match schedule {
        Schedule::Static => "block".to_string(),
        Schedule::Stealing { chunk } => format!("steal:{chunk}"),
        Schedule::Dynamic { chunk } => format!("dynamic:{chunk}"),
    }
}

/// What the controller did when asked — mapped onto `adaptive.*`
/// counters by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum DecideEvent {
    /// First invocation: measuring configuration.
    #[default]
    Measure,
    /// Re-dispatched to the measured winner.
    Redispatch,
    /// Misspeculation throttle holding the loop serial.
    Throttle,
    /// Hysteresis expired: probing speculation once.
    Probe,
    /// Integrity check failed; entry reset, block fallback served.
    CorruptReset,
    /// A forced-cycle (adversarial test) choice.
    Forced,
}

/// A dispatch decision for one invocation of one loop: serial, or
/// concurrent on `threads` workers under `chunking`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    /// How a concurrent invocation is chunked; `None` runs it serially.
    pub(crate) chunking: Option<Schedule>,
    /// Worker count of a concurrent invocation (≥ 1).
    pub(crate) threads: usize,
    /// What the decision table and the `adaptive` span print: `serial`,
    /// or the loop's kind — `static` for a proved DOALL, `speculative`
    /// for an LRPD candidate.
    pub(crate) strategy: &'static str,
    pub(crate) event: DecideEvent,
}

impl Decision {
    fn new(
        chunking: Option<Schedule>,
        threads: usize,
        parallel: bool,
        event: DecideEvent,
    ) -> Decision {
        let strategy = match chunking {
            None => "serial",
            Some(_) if parallel => "static",
            Some(_) => "speculative",
        };
        Decision { chunking, threads, strategy, event }
    }
}

/// What the dispatcher knows of the invocation it asks about.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopHints {
    /// A proved DOALL; otherwise an LRPD candidate (the controller is
    /// consulted on no other loop).
    pub(crate) parallel: bool,
    pub(crate) trip: u64,
    pub(crate) procs: usize,
}

/// Deterministic profile from one invocation.
#[derive(Debug, Clone)]
pub(crate) struct Observation {
    pub(crate) trip: u64,
    /// Simulated cycle totals per chunk (or per bucket in simulated
    /// exec mode). Empty for serial and speculative invocations.
    pub(crate) chunk_cycles: Vec<u64>,
    /// `Some(true)` if an LRPD attempt misspeculated, `Some(false)` if
    /// it validated, `None` for non-speculative invocations.
    pub(crate) misspeculated: Option<bool>,
}

/// One row of the persisted decision table (plain data; copied into
/// `CompileReport` and printed under `--diag`).
#[derive(Debug, Clone)]
pub struct DecisionRow {
    pub loop_id: u32,
    pub label: String,
    pub invocations: u64,
    pub strategy: &'static str,
    pub chunking: String,
    pub threads: usize,
    pub trip: u64,
    /// Coefficient of variation of per-chunk cycles (0 when unmeasured).
    pub cost_cv: f64,
    pub event: &'static str,
}

/// Trips at or below this run serial: fork/join swamps the body.
const TINY_TRIP: u64 = 24;
/// Per-chunk cycle CV above this selects work stealing.
const CV_STEAL: f64 = 0.25;
/// Consecutive misspeculations before throttling to serial.
const MISSPEC_STREAK: u32 = 2;
/// Serial invocations to hold before probing speculation again.
const THROTTLE_HOLD: u32 = 4;

#[derive(Debug, Clone, Default)]
struct Entry {
    label: String,
    invocations: u64,
    trip: u64,
    /// Measured per-chunk mean and CV (×1e6, stored as integers so the
    /// check word covers exact bits).
    mean_cycles: u64,
    cv_micros: u64,
    misspec_streak: u32,
    /// Remaining serial invocations under throttle; probing when it
    /// crosses zero.
    throttle_hold: u32,
    /// `true` once the throttle has fired at least once (the probe
    /// path distinguishes "never speculated" from "recovering").
    throttled: bool,
    /// The decision last served (`None` before the first).
    last: Option<Decision>,
    /// Integrity check word over the fields above.
    check: u64,
}

impl DecideEvent {
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            DecideEvent::Measure => "measure",
            DecideEvent::Redispatch => "redispatch",
            DecideEvent::Throttle => "throttle",
            DecideEvent::Probe => "probe",
            DecideEvent::CorruptReset => "corrupt-reset",
            DecideEvent::Forced => "forced",
        }
    }
}

impl Entry {
    fn checkword(&self) -> u64 {
        // FNV-1a over the adaptation state, one word per field. Cheap,
        // deterministic, and any single-field corruption flips it. The
        // last decision's schedule is a variant tag and a chunk size, two
        // words, so no chunk size can pass for another.
        let (tag, chunk, threads) = match self.last.map(|d| (d.chunking, d.threads)) {
            None => (0, 0, 0),
            Some((None, t)) => (1, 0, t),
            Some((Some(Schedule::Static), t)) => (2, 0, t),
            Some((Some(Schedule::Dynamic { chunk }), t)) => (3, chunk, t),
            Some((Some(Schedule::Stealing { chunk }), t)) => (4, chunk, t),
        };
        let words = [
            self.invocations,
            self.trip,
            self.mean_cycles,
            self.cv_micros,
            u64::from(self.misspec_streak),
            u64::from(self.throttle_hold),
            u64::from(self.throttled),
            tag,
            chunk as u64,
            threads as u64,
        ];
        crate::fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
    }

    fn seal(&mut self) {
        self.check = self.checkword();
    }

    fn cv(&self) -> f64 {
        self.cv_micros as f64 / 1e6
    }
}

/// The per-loop adaptation table. Shared (behind an `Arc`) between the
/// dispatcher and whoever persists / prints the decision table; in
/// `polarisd` one controller lives per content hash so cached
/// recompiles of the same source keep their adaptation history.
#[derive(Debug, Default)]
pub struct AdaptiveController {
    entries: Mutex<BTreeMap<u32, Entry>>,
    /// Adversarial test mode: cycle through these choices (`None` is
    /// serial) on every decision.
    forced: Vec<Option<Schedule>>,
}

impl AdaptiveController {
    pub fn new() -> AdaptiveController {
        AdaptiveController::default()
    }

    /// Adversarial controller for property tests: ignores all profile
    /// state and serves `cycle[i % len]` on the i-th decision for each
    /// loop (`None` is serial), on the machine's every processor.
    pub fn with_forced_cycle(cycle: Vec<Option<Schedule>>) -> AdaptiveController {
        AdaptiveController { entries: Mutex::new(BTreeMap::new()), forced: cycle }
    }

    /// Work-stealing chunk size: a few chunks per worker so the lanes
    /// have something to steal, never below 1.
    fn steal_chunk(trip: u64, threads: usize) -> usize {
        ((trip as usize).div_ceil(threads.max(1) * 4)).max(1)
    }

    /// Decide how to run this invocation of `loop_id`.
    pub(crate) fn decide(&self, loop_id: u32, label: &str, hints: LoopHints) -> Decision {
        let mut map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let e = map.entry(loop_id).or_default();
        if e.label.is_empty() {
            label.clone_into(&mut e.label);
            e.seal();
        }
        let procs = hints.procs.max(1);
        let serve = |chunking, threads, event| Decision::new(chunking, threads, hints.parallel, event);

        let d = if e.check != e.checkword() {
            // Integrity gate: a corrupted entry is reset and answered with
            // the block fallback — never trusted, never wedged.
            *e = Entry { label: label.to_string(), ..Entry::default() };
            serve(Some(Schedule::Static), procs, DecideEvent::CorruptReset)
        } else if !self.forced.is_empty() {
            let chunking = self.forced[(e.invocations as usize) % self.forced.len()];
            serve(chunking, procs, DecideEvent::Forced)
        } else if e.invocations == 0 {
            // Measure: run concurrently under block chunking and let
            // `observe` record what it cost.
            serve(Some(Schedule::Static), procs, DecideEvent::Measure)
        } else if !hints.parallel {
            // LRPD regime: throttle ladder.
            if e.throttle_hold > 0 {
                e.throttle_hold -= 1;
                serve(None, 1, DecideEvent::Throttle)
            } else if e.throttled {
                // Hold expired: probe speculation exactly once; a
                // misspeculation re-arms the throttle via `observe`.
                serve(Some(Schedule::Static), procs, DecideEvent::Probe)
            } else {
                serve(Some(Schedule::Static), procs, DecideEvent::Redispatch)
            }
        } else if hints.trip <= TINY_TRIP {
            serve(None, 1, DecideEvent::Redispatch)
        } else {
            // Proven-parallel regime: chunking by measured variance.
            let threads = procs.min(((hints.trip / 8).max(1)) as usize).max(1);
            let chunking = if e.cv() > CV_STEAL {
                Schedule::Stealing { chunk: Self::steal_chunk(hints.trip, threads) }
            } else {
                Schedule::Static
            };
            serve(Some(chunking), threads, DecideEvent::Redispatch)
        };

        e.invocations += 1;
        e.trip = hints.trip;
        e.last = Some(d);
        e.seal();
        d
    }

    /// Feed back the deterministic profile of the invocation that the
    /// previous `decide` call dispatched.
    pub(crate) fn observe(&self, loop_id: u32, obs: Observation) {
        let mut map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let Some(e) = map.get_mut(&loop_id) else { return };
        if e.check != e.checkword() {
            // Leave corruption for the next `decide` to detect and
            // reset; folding observations into a corrupt entry would
            // launder the bad state back into a valid check word.
            return;
        }
        e.trip = obs.trip;
        // Cost variance is only folded in from *block-chunked*
        // invocations: block-partition skew is the property of the loop
        // being measured. A stealing run's balanced buckets are evidence
        // stealing worked, not that the loop turned uniform — updating
        // cv from them would oscillate the decision (steal → balanced →
        // block → skewed → steal …) and break decision-table stability.
        let block_run = matches!(e.last.and_then(|d| d.chunking), None | Some(Schedule::Static));
        if block_run && !obs.chunk_cycles.is_empty() {
            let n = obs.chunk_cycles.len() as f64;
            let mean = obs.chunk_cycles.iter().sum::<u64>() as f64 / n;
            let var = obs
                .chunk_cycles
                .iter()
                .map(|&c| {
                    let d = c as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / n;
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            e.mean_cycles = mean.round() as u64;
            e.cv_micros = (cv * 1e6).round() as u64;
        }
        match obs.misspeculated {
            Some(true) => {
                e.misspec_streak += 1;
                if e.misspec_streak >= MISSPEC_STREAK {
                    e.throttle_hold = THROTTLE_HOLD;
                    e.throttled = true;
                    e.misspec_streak = 0;
                }
            }
            Some(false) => {
                e.misspec_streak = 0;
                e.throttled = false;
            }
            None => {}
        }
        e.seal();
    }

    /// Snapshot the decision table, ordered by loop id.
    pub fn decision_rows(&self) -> Vec<DecisionRow> {
        let map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        map.iter()
            .filter_map(|(&loop_id, e)| {
                let d = e.last?;
                Some(DecisionRow {
                    loop_id,
                    label: e.label.clone(),
                    invocations: e.invocations,
                    strategy: d.strategy,
                    // The decision-table goldens print `block` for a
                    // serial decision.
                    chunking: describe(d.chunking.unwrap_or(Schedule::Static)),
                    threads: d.threads,
                    trip: e.trip,
                    cost_cv: e.cv(),
                    event: d.event.as_str(),
                })
            })
            .collect()
    }

    /// Test/chaos hook: flip every loop's adaptation state without
    /// updating the check word, simulating a torn write or
    /// recovered-from-crash table. The next `decide` must detect it.
    pub fn corrupt_all(&self) {
        let mut map = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        for e in map.values_mut() {
            e.invocations ^= 0x5a5a;
            e.cv_micros ^= 0xdead;
            // deliberately NOT resealed
        }
    }

    /// Number of loops with adaptation state.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par_hints(trip: u64) -> LoopHints {
        LoopHints { parallel: true, trip, procs: 4 }
    }

    fn spec_hints(trip: u64) -> LoopHints {
        LoopHints { parallel: false, trip, procs: 4 }
    }

    #[test]
    fn first_invocation_measures_then_redispatches() {
        let c = AdaptiveController::new();
        let d1 = c.decide(1, "L10", par_hints(1000));
        assert_eq!(d1.event, DecideEvent::Measure);
        assert_eq!(d1.strategy, "static");
        assert_eq!(d1.chunking, Some(Schedule::Static));
        // Uniform chunk costs → block chunking on re-dispatch.
        c.observe(1, Observation { trip: 1000, chunk_cycles: vec![500; 4], misspeculated: None });
        let d2 = c.decide(1, "L10", par_hints(1000));
        assert_eq!(d2.event, DecideEvent::Redispatch);
        assert_eq!(d2.strategy, "static");
        assert_eq!(d2.chunking, Some(Schedule::Static));
    }

    #[test]
    fn skewed_chunk_costs_select_stealing() {
        let c = AdaptiveController::new();
        c.decide(1, "L10", par_hints(1000));
        c.observe(
            1,
            Observation { trip: 1000, chunk_cycles: vec![100, 100, 100, 4000], misspeculated: None },
        );
        let d = c.decide(1, "L10", par_hints(1000));
        assert!(matches!(d.chunking, Some(Schedule::Stealing { chunk }) if chunk >= 1));
        assert_eq!(d.strategy, "static");
    }

    #[test]
    fn tiny_trips_fall_back_to_serial() {
        let c = AdaptiveController::new();
        c.decide(1, "L10", par_hints(8));
        c.observe(1, Observation { trip: 8, chunk_cycles: vec![10; 4], misspeculated: None });
        let d = c.decide(1, "L10", par_hints(8));
        assert_eq!(d.strategy, "serial");
        assert_eq!(d.threads, 1);
    }

    #[test]
    fn misspeculation_storm_throttles_then_probes() {
        let c = AdaptiveController::new();
        let h = spec_hints(500);
        let d1 = c.decide(1, "L20", h);
        assert_eq!(d1.strategy, "speculative");
        c.observe(1, Observation { trip: 500, chunk_cycles: vec![], misspeculated: Some(true) });
        let d2 = c.decide(1, "L20", h);
        assert_eq!(d2.strategy, "speculative"); // streak 1 < 2
        c.observe(1, Observation { trip: 500, chunk_cycles: vec![], misspeculated: Some(true) });
        // Held serial for THROTTLE_HOLD invocations…
        for _ in 0..THROTTLE_HOLD {
            let d = c.decide(1, "L20", h);
            assert_eq!(d.strategy, "serial");
            assert_eq!(d.event, DecideEvent::Throttle);
        }
        // …then probed exactly once.
        let probe = c.decide(1, "L20", h);
        assert_eq!(probe.event, DecideEvent::Probe);
        assert_eq!(probe.strategy, "speculative");
        // A successful probe re-opens speculation.
        c.observe(1, Observation { trip: 500, chunk_cycles: vec![], misspeculated: Some(false) });
        let d = c.decide(1, "L20", h);
        assert_eq!(d.event, DecideEvent::Redispatch);
        assert_eq!(d.strategy, "speculative");
    }

    #[test]
    fn corrupt_entry_resets_to_static_fallback() {
        let c = AdaptiveController::new();
        c.decide(1, "L10", par_hints(1000));
        c.observe(
            1,
            Observation { trip: 1000, chunk_cycles: vec![100, 100, 100, 4000], misspeculated: None },
        );
        c.corrupt_all();
        let d = c.decide(1, "L10", par_hints(1000));
        assert_eq!(d.event, DecideEvent::CorruptReset);
        assert_eq!(d.strategy, "static");
        assert_eq!(d.chunking, Some(Schedule::Static));
        // Table is reset: the next decision behaves like invocation 2
        // with no measurement (block, not stealing).
        let d2 = c.decide(1, "L10", par_hints(1000));
        assert_eq!(d2.event, DecideEvent::Redispatch);
        assert_eq!(d2.chunking, Some(Schedule::Static));
    }

    #[test]
    fn a_corrupted_chunk_size_is_caught() {
        // 513 is 1 | 0x200: a check word that folds the chunk size into a
        // variant tag seals both sizes alike.
        let c = AdaptiveController::with_forced_cycle(vec![Some(Schedule::Stealing { chunk: 1 })]);
        c.decide(1, "L10", par_hints(1000));
        for e in c.entries.lock().unwrap().values_mut() {
            let d = e.last.as_mut().expect("a decision was served");
            assert_eq!(d.chunking, Some(Schedule::Stealing { chunk: 1 }));
            d.chunking = Some(Schedule::Stealing { chunk: 513 });
            // deliberately NOT resealed
        }
        assert_eq!(c.decide(1, "L10", par_hints(1000)).event, DecideEvent::CorruptReset);
    }

    #[test]
    fn decision_table_is_stable_across_identical_invocations() {
        let mk = || {
            let c = AdaptiveController::new();
            for _ in 0..5 {
                c.decide(1, "L10", par_hints(1000));
                c.observe(
                    1,
                    Observation { trip: 1000, chunk_cycles: vec![250; 4], misspeculated: None },
                );
            }
            c.decision_rows()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.len(), 1);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a[0].strategy, "static");
        assert_eq!(a[0].invocations, 5);
    }
}

//! What every workload shares: the command-line settings of one run, the
//! warm-up / untraced / traced phases, repeated set-up, and span totals.

use crate::report::Class;
use crate::stats::median;
use crate::yardstick::{self, slowdown_of, Pace};
use polaris::obs::{aggregate_spans, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Span category of everything the benchmark itself records.
pub const CAT: &str = "bench";

/// Share of `--seconds` discarded as warm-up.
const WARMUP_SHARE: f64 = 0.1;

/// Set-up is repeated and `setup_s` is the median repetition, so that
/// one slow page-in does not read as a regression: at least
/// `SETUP_MIN_REPS` times, and up to `SETUP_MAX_REPS` while the
/// repetitions together have taken less than `SETUP_BUDGET_S`.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 10;
const SETUP_BUDGET_S: f64 = 3.0;
/// Yardstick runs before and after each repetition.
const SETUP_YARDSTICKS: usize = 8;

/// Settings of one run of one workload.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed tiny counts instead of `seconds` (the test suite).
    pub smoke: bool,
    pub expected_dir: PathBuf,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Discarded: caches fill and lazy initialisation finishes.
    Warmup,
    /// Recorder off; the end-to-end metrics come from here.
    Untraced,
    /// Recorder on; the per-layer metrics come from here. Only on a
    /// traced run, which splits its time evenly with `Untraced`: the
    /// difference between the two is the tracing overhead.
    Traced,
}

impl Settings {
    /// How long `phase` lasts where the phases follow one another (the
    /// daemon, whose traced phase needs a service of its own).
    pub fn phase_duration(&self, phase: Phase) -> Duration {
        let measured = self.seconds * (1.0 - WARMUP_SHARE);
        Duration::from_secs_f64(match (phase, self.trace) {
            (Phase::Warmup, _) => self.seconds * WARMUP_SHARE,
            (Phase::Untraced, false) => measured,
            (Phase::Traced, false) => 0.0,
            (_, true) => measured / 2.0,
        })
    }

    /// Run rounds over `classes`: a warm-up stretch, then the measured
    /// one, in which a traced run alternates untraced and traced rounds
    /// so that both meet the same host. On a smoke run the stretches are
    /// a fixed 1 and 2 turns, otherwise they last their share of
    /// `seconds` and at least one turn. In a round, `op(class, phase,
    /// recorder)` runs once per class and returns the operation's time
    /// in ms (`None`: there was no operation). The round's times go to
    /// the classes as measured and at nominal host speed, by the
    /// yardstick runs between its operations. Each traced round has a
    /// recorder of its own.
    pub fn rounds(
        &self,
        classes: &mut [Class],
        mut op: impl FnMut(usize, Phase, &Recorder) -> Option<f64>,
    ) -> TracedPhase {
        let mut traced = TracedPhase::default();
        let mut pace = Pace::default();
        let measured: &[Phase] =
            if self.trace { &[Phase::Untraced, Phase::Traced] } else { &[Phase::Untraced] };
        let stretches = [
            (&[Phase::Warmup][..], self.seconds * WARMUP_SHARE, 1),
            (measured, self.seconds * (1.0 - WARMUP_SHARE), 2),
        ];
        for (phases, limit_s, smoke_turns) in stretches {
            let started = Instant::now();
            let mut turns = 0;
            while if self.smoke {
                turns < smoke_turns
            } else {
                turns == 0 || started.elapsed().as_secs_f64() < limit_s
            } {
                for &phase in phases {
                    let rec = if phase == Phase::Traced {
                        Recorder::monotonic()
                    } else {
                        Recorder::disabled()
                    };
                    let mut times = Vec::with_capacity(classes.len());
                    for class in 0..classes.len() {
                        let ms = op(class, phase, &rec);
                        pace.after(ms.unwrap_or(0.0));
                        times.push(ms);
                    }
                    let yard_ms = pace.take();
                    let slowdown = slowdown_of(&yard_ms);
                    for (class, ms) in classes.iter_mut().zip(times) {
                        match (phase, ms) {
                            (Phase::Untraced, Some(ms)) => class.push(ms, slowdown),
                            (Phase::Traced, Some(ms)) => class.traced_ms.push(ms / slowdown),
                            _ => {}
                        }
                    }
                    if phase == Phase::Traced {
                        traced.rounds += 1;
                        traced.yard_ms.extend(yard_ms);
                        traced.totals.absorb(&rec);
                        traced.last_recorder = rec;
                    }
                }
                turns += 1;
            }
        }
        traced
    }

    /// Run `setup` repeatedly (once on a smoke run); return the last
    /// result and the median time of one repetition in seconds, at
    /// nominal host speed.
    pub fn timed_setup<T>(
        &self,
        setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let (min_reps, max_reps) =
            if self.smoke { (1, 1) } else { (SETUP_MIN_REPS, SETUP_MAX_REPS) };
        repeat_setup(min_reps, max_reps, setup)
    }
}

/// What the traced rounds of [`Settings::rounds`] left behind.
#[derive(Debug, Default)]
pub struct TracedPhase {
    pub rounds: u64,
    pub totals: SpanTotals,
    /// The recorder of the last traced round.
    pub last_recorder: Recorder,
    /// Every yardstick sample of the traced rounds.
    pub yard_ms: Vec<f64>,
}

/// A repetition's slow-down is what the yardstick runs before and after
/// it saw.
fn repeat_setup<T>(
    min_reps: usize,
    max_reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (mut times, mut total) = (Vec::new(), 0.0);
    let mut last = None;
    let mut before = yardstick::run(SETUP_YARDSTICKS);
    while times.len() < min_reps || (times.len() < max_reps && total < SETUP_BUDGET_S) {
        drop(last.take()); // a service must stop before its successor starts
        let started = Instant::now();
        last = Some(setup()?);
        let secs = started.elapsed().as_secs_f64();
        let after = yardstick::run(SETUP_YARDSTICKS);
        before.extend(&after);
        times.push(secs / slowdown_of(&before));
        total += secs;
        before = after;
    }
    Ok((last.expect("at least one repetition"), median(&times)))
}

/// Count and total duration per span name, summed over recorders.
#[derive(Debug, Default)]
pub struct SpanTotals {
    by_name: BTreeMap<String, (u64, u64)>,
    pub events: u64,
    pub dropped: u64,
}

impl SpanTotals {
    pub fn absorb(&mut self, rec: &Recorder) {
        let events = rec.events();
        self.events += events.len() as u64;
        self.dropped += rec.events_dropped();
        for ((_, name), agg) in aggregate_spans(&events) {
            let slot = self.by_name.entry(name).or_default();
            slot.0 += agg.count;
            slot.1 += agg.total_us;
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.0)
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.1 as f64)
    }

    /// Mean duration of one span of this name; 0 if none was recorded.
    pub fn mean_us(&self, name: &str) -> f64 {
        crate::stats::ratio(self.total_us(name), self.count(name) as f64)
    }
}

/// Write the Chrome-format trace of `rec` to `out/trace-<workload>.json`.
pub fn write_trace(settings: &Settings, workload: &str, rec: &Recorder) -> Result<(), String> {
    write_out(settings, &format!("trace-{workload}.json"), &rec.chrome_trace_json())
}

pub fn write_out(settings: &Settings, file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(&settings.out_dir)
        .and_then(|()| std::fs::write(settings.out_dir.join(file), text))
        .map_err(|e| format!("cannot write {}/{file}: {e}", settings.out_dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(trace: bool, smoke: bool) -> Settings {
        Settings {
            seed: 1,
            seconds: 0.02,
            trace,
            smoke,
            expected_dir: PathBuf::new(),
            out_dir: PathBuf::new(),
        }
    }

    fn two_classes() -> Vec<Class> {
        vec![Class::new("A", "program"), Class::new("B", "program")]
    }

    #[test]
    fn smoke_runs_a_fixed_number_of_rounds_per_phase() {
        let mut classes = two_classes();
        let mut seen = Vec::new();
        let traced = settings(true, true).rounds(&mut classes, |class, phase, rec| {
            assert_eq!(rec.is_enabled(), phase == Phase::Traced);
            rec.span(CAT, "bench.op").end();
            seen.push((class, phase));
            (class == 0).then_some(2.0)
        });
        use Phase::*;
        assert_eq!(
            seen,
            [
                (0, Warmup),
                (1, Warmup),
                (0, Untraced),
                (1, Untraced),
                (0, Traced),
                (1, Traced),
                (0, Untraced),
                (1, Untraced),
                (0, Traced),
                (1, Traced)
            ]
        );
        // class A has its two untraced samples, as measured and at nominal
        // speed, and two traced; class B never ran an operation
        assert_eq!(classes[0].raw_ms, [2.0, 2.0]);
        assert_eq!((classes[0].samples_ms.len(), classes[0].traced_ms.len()), (2, 2));
        assert!(classes[0].samples_ms.iter().all(|ms| *ms > 0.0 && ms.is_finite()));
        assert!(classes[1].samples_ms.is_empty() && classes[1].traced_ms.is_empty());
        assert_eq!((traced.rounds, traced.totals.count("bench.op")), (2, 4));
        assert!(!traced.yard_ms.is_empty());

        let untraced = settings(false, true).rounds(&mut two_classes(), |_, _, _| Some(1.0));
        assert_eq!(untraced.rounds, 0);
    }

    #[test]
    fn a_timed_run_measures_for_the_seconds_it_was_given() {
        let s = settings(false, false);
        let started = Instant::now();
        let mut ops = 0;
        s.rounds(&mut two_classes(), |_, _, _| {
            ops += 1;
            std::thread::sleep(Duration::from_millis(1));
            Some(1.0)
        });
        assert!(started.elapsed().as_secs_f64() >= s.seconds);
        assert!(ops >= 4);
        let t = settings(true, false);
        assert_eq!(t.phase_duration(Phase::Untraced), t.phase_duration(Phase::Traced));
    }

    #[test]
    fn setup_is_repeated_and_its_time_is_the_median() {
        let mut calls = 0;
        let (value, secs) = settings(false, false)
            .timed_setup(|| {
                calls += 1;
                Ok(calls)
            })
            .unwrap();
        assert_eq!(
            (value, calls),
            (SETUP_MAX_REPS, SETUP_MAX_REPS),
            "a cheap set-up runs the maximum"
        );
        assert!(secs >= 0.0 && secs.is_finite());
        assert_eq!(settings(false, true).timed_setup(|| Ok(7)).unwrap().0, 7);
        assert!(settings(false, false).timed_setup(|| Err::<(), _>("boom".to_string())).is_err());
    }

    #[test]
    fn span_totals_sum_over_recorders() {
        let mut totals = SpanTotals::default();
        for _ in 0..2 {
            let rec = Recorder::virtual_clock();
            let op = rec.span(CAT, "bench.op");
            rec.span(CAT, "ir.parse").end();
            op.end();
            totals.absorb(&rec);
        }
        assert_eq!(totals.count("bench.op"), 2);
        assert_eq!(totals.total_us("bench.op"), 6.0); // virtual ticks 1..4 per recorder
        assert_eq!(totals.mean_us("ir.parse"), 1.0);
        assert_eq!((totals.events, totals.dropped), (8, 0));
        assert_eq!(totals.mean_us("absent"), 0.0);
    }
}

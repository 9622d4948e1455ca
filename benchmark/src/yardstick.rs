//! The yardstick: a fixed computation timed in between the operations,
//! so that timings can be reported at a nominal host speed.
//!
//! The development host is a small shared VM that slows down and
//! recovers on every time scale from milliseconds to minutes: over ten
//! runs the median time of one and the same operation spreads (quartile
//! distance / median) by 2 to 52 %, depending on the hour, and whole
//! minutes run 1.3 to 2 times slow, so that no sample of a run is
//! undisturbed. How much a piece of code slows depends on what it is:
//! tight loops on little data slow least, the compiler and the machine
//! most. Printing numbers with `core::fmt` and parsing them back (tens
//! of kilobytes of branchy library code) slows by the same factor as a
//! compile or a VM run does: timed in the same time slices, the *ratio*
//! of the two spreads by 1 to 5 % where the operation alone spreads by
//! 4 to 46 %. So every timing is divided by the slow-down the yardstick
//! saw around it: a time is in milliseconds of a host on which the
//! yardstick takes [`NOMINAL_MS`].
//!
//! The yardstick must be nothing that the code under test can move. It
//! calls nothing of the repository, allocates nothing and keeps nothing:
//! its numbers come from a fixed recurrence and its text lives in a
//! buffer on the stack, so the heap that the operations, the recorder or
//! the service leave behind, the allocator's state and the threads that
//! have been spawned do not reach it. It runs on the thread that timed
//! the operations, while they wait.
//!
//! Tried and dropped (numbers in README.md): allocating, filling and
//! freeing small blocks, in this process (tracks nearly as well, but
//! runs on the operations' heap and under the allocator's locks once a
//! thread exists) and in a process of its own (immune, tracks a little
//! worse, and needs a child and a pipe); and other allocation-free loops
//! (a free-list arena, a sort, a toy interpreter, page touching, system
//! calls), which the host's slow-downs reach two to five times less than
//! they reach the operations.

use crate::stats::mean;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time on the nominal host: about what it takes on the
/// development host in a quiet minute, so that a nominal millisecond
/// there is close to a real one.
pub const NOMINAL_MS: f64 = 0.6;

/// Numbers printed and parsed per run.
const NUMBERS: u64 = 4_000;

/// The yardstick gets this share of the time the operations get.
const SHARE: f64 = 0.1;

/// A line of text on the stack; `write!` fills it and never allocates.
struct Line {
    buf: [u8; 96],
    len: usize,
}

impl std::fmt::Write for Line {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let end = self.len + s.len();
        let room = self.buf.get_mut(self.len..end).ok_or(std::fmt::Error)?;
        room.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// One run of the yardstick, in ms.
pub fn run_once() -> f64 {
    let started = Instant::now();
    let mut sum = 0.0;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..black_box(NUMBERS) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let v = (x >> 11) as f64 / (1u64 << 40) as f64 + i as f64;
        let mut line = Line { buf: [0; 96], len: 0 };
        let written = match i % 4 {
            0 => write!(line, "{v:e}"),
            1 => write!(line, "{v:.6}"),
            2 => write!(line, "{}", x >> 7),
            _ => write!(line, "{:>12.3}", -v),
        };
        let text = std::str::from_utf8(&line.buf[..line.len]).unwrap_or_default();
        if let (Ok(()), Ok(parsed)) = (written, text.trim().parse::<f64>()) {
            sum += parsed;
        }
    }
    black_box(sum);
    started.elapsed().as_secs_f64() * 1e3
}

pub fn run(times: usize) -> Vec<f64> {
    (0..times).map(|_| run_once()).collect()
}

/// Yardstick samples interleaved with one stretch of work: a round, a
/// set-up, a phase.
#[derive(Debug, Default)]
pub struct Pace {
    work_ms: f64,
    yard_ms: f64,
    /// How long each yardstick run took, in ms.
    runs: Vec<f64>,
}

impl Pace {
    /// Account `work_ms` of measured work just done, then run the
    /// yardstick until it has had its share (and at least once).
    pub fn after(&mut self, work_ms: f64) {
        self.work_ms += work_ms;
        while self.runs.is_empty() || self.yard_ms < SHARE * self.work_ms {
            let ms = run_once();
            self.yard_ms += ms;
            self.runs.push(ms);
        }
    }

    /// End the stretch and begin the next; the yardstick times of the
    /// one ended, in ms.
    pub fn take(&mut self) -> Vec<f64> {
        std::mem::take(self).runs
    }
}

/// The slow-down that yardstick samples show; 1 (no correction) if
/// there are none.
pub fn slowdown_of(yard_ms: &[f64]) -> f64 {
    if yard_ms.is_empty() {
        1.0
    } else {
        mean(yard_ms) / NOMINAL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_takes_what_fits_and_refuses_the_rest() {
        let mut line = Line { buf: [0; 96], len: 0 };
        write!(line, "{:e}", 1234.5).unwrap();
        assert_eq!(&line.buf[..line.len], b"1.2345e3");
        assert!(write!(line, "{:>100}", 1).is_err());
    }

    #[test]
    fn the_yardstick_gets_its_share_and_at_least_one_run() {
        let mut pace = Pace::default();
        pace.after(0.0);
        assert_eq!(pace.runs.len(), 1);
        let one = pace.runs[0];
        assert!(one > 0.0);
        pace.after(300.0 * one);
        assert!(pace.yard_ms >= SHARE * 300.0 * one, "{} of {}", pace.yard_ms, 300.0 * one);
        let runs = pace.take();
        let slowdown = slowdown_of(&runs);
        assert!(slowdown > 0.0 && slowdown.is_finite());
        assert!(pace.runs.is_empty() && pace.work_ms == 0.0 && pace.yard_ms == 0.0);
    }

    #[test]
    fn slowdown_is_the_mean_sample_over_nominal() {
        assert_eq!(slowdown_of(&[1.0 * NOMINAL_MS, 3.0 * NOMINAL_MS]), 2.0);
        assert_eq!(slowdown_of(&[]), 1.0);
    }
}

//! Circuit-breaker quarantine keyed by unit content hash.
//!
//! A unit whose compiles keep panicking or blowing deadlines stops being
//! allowed to touch the pipeline: after `threshold` consecutive failures
//! its breaker *opens* and requests for it are answered from the stored
//! diagnostics of the last failure, instantly. After `cooldown`, the next
//! request is admitted as a *half-open probe* — exactly one compile — and
//! its outcome decides: success closes the breaker (the unit recovered),
//! failure re-opens it for another cooldown.
//!
//! State machine per key:
//!
//! ```text
//!            failure (< threshold)            failure (= threshold)
//!   Closed ─────────────────────▶ Closed ──────────────────────▶ Open
//!     ▲                                                           │
//!     │ probe success                           cooldown elapsed  │
//!     └──────────────── HalfOpen ◀────────────────────────────────┘
//!                          │ probe failure
//!                          ├───────────────▶ Open (new cooldown)
//!                          │ probe outcome lost for > cooldown
//!                          └───────────────▶ HalfOpen (fresh probe)
//! ```
//!
//! `Closed` with no failures is the absence of an entry, and a success
//! removes the unit's entry: the table holds only units that are
//! failing, and sporadic transient faults never accumulate into a
//! quarantine — only *consecutive* failures of the same unit do.
//!
//! The table holds at most as many entries as the cache (1024). An
//! insert into a full table first drops the `Closed` entries (that only
//! delays a quarantine), then the entries whose cooldown has elapsed; an
//! entry inside its cooldown is never dropped, so a quarantine is never
//! cut short. When every entry is cooling down, the new failure goes
//! uncharged.

use crate::cache::CAPACITY;
use crate::lock;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

#[derive(Debug)]
enum State {
    Closed { failures: u32 },
    Open { since: Instant },
    /// A probe was admitted at `since`. If its outcome never arrives
    /// (the probing worker died), a fresh probe is admitted once this is
    /// older than the cooldown — half-open must not wedge forever.
    HalfOpen { since: Instant },
}

#[derive(Debug)]
struct Entry {
    state: State,
    /// Diagnostics from the failures that opened (or are accumulating
    /// toward opening) the breaker — what a quarantined response serves.
    diagnostics: Vec<String>,
}

/// Decision for one request.
#[derive(Debug)]
pub enum Admission {
    /// Compile. `probe == true` marks the single half-open probe after a
    /// cooldown; its outcome closes or re-opens the breaker.
    Proceed { probe: bool },
    /// Do not compile; serve the stored diagnostics.
    Quarantined { reason: String, diagnostics: Vec<String> },
}

pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    map: Mutex<HashMap<u64, Entry>>,
}

const MAX_DIAGNOSTICS: usize = 8;

impl CircuitBreaker {
    pub fn new(threshold: u32, cooldown: Duration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Gate one request for `key`.
    pub fn admit(&self, key: u64) -> Admission {
        let mut map = lock(&self.map);
        let Some(entry) = map.get_mut(&key) else {
            return Admission::Proceed { probe: false };
        };
        match entry.state {
            State::Closed { .. } => Admission::Proceed { probe: false },
            State::Open { since } if since.elapsed() >= self.cooldown => {
                entry.state = State::HalfOpen { since: Instant::now() };
                Admission::Proceed { probe: true }
            }
            State::Open { .. } => Admission::Quarantined {
                reason: format!(
                    "quarantined after {} repeated failures (cooling down)",
                    self.threshold
                ),
                diagnostics: entry.diagnostics.clone(),
            },
            // The in-flight probe's outcome never arrived (its worker
            // died): admit a replacement probe rather than wedging in
            // half-open forever.
            State::HalfOpen { since } if since.elapsed() >= self.cooldown => {
                entry.state = State::HalfOpen { since: Instant::now() };
                Admission::Proceed { probe: true }
            }
            // Another request while the probe is in flight: the unit is
            // still suspect, keep serving diagnostics.
            State::HalfOpen { .. } => Admission::Quarantined {
                reason: "quarantined (half-open probe in flight)".into(),
                diagnostics: entry.diagnostics.clone(),
            },
        }
    }

    /// A compile of `key` succeeded: its entry goes. Returns true when
    /// this *recovered* a quarantined unit (the breaker was half-open or
    /// open).
    pub fn record_success(&self, key: u64) -> bool {
        lock(&self.map)
            .remove(&key)
            .is_some_and(|entry| !matches!(entry.state, State::Closed { .. }))
    }

    /// A compile of `key` failed transiently (panic, deadline, injected
    /// fault). Returns true when this transition *opened* the breaker.
    pub fn record_failure(&self, key: u64, diagnostic: impl Into<String>) -> bool {
        let mut map = lock(&self.map);
        if map.len() >= CAPACITY && !map.contains_key(&key) {
            // Make room: `Closed` entries first, then the cooled-down ones.
            map.retain(|_, e| !matches!(e.state, State::Closed { .. }));
            if map.len() >= CAPACITY {
                map.retain(|_, e| {
                    matches!(e.state, State::Open { since } | State::HalfOpen { since }
                        if since.elapsed() < self.cooldown)
                });
            }
            if map.len() >= CAPACITY {
                return false; // every entry is cooling down
            }
        }
        let entry = map
            .entry(key)
            .or_insert(Entry { state: State::Closed { failures: 0 }, diagnostics: Vec::new() });
        if entry.diagnostics.len() >= MAX_DIAGNOSTICS {
            entry.diagnostics.remove(0);
        }
        entry.diagnostics.push(diagnostic.into());
        match entry.state {
            State::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.threshold {
                    entry.state = State::Open { since: Instant::now() };
                    true
                } else {
                    entry.state = State::Closed { failures };
                    false
                }
            }
            // A failed probe re-opens for a fresh cooldown.
            State::HalfOpen { .. } => {
                entry.state = State::Open { since: Instant::now() };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Observable state of `key`'s breaker (Closed when never seen).
    pub fn state(&self, key: u64) -> BreakerState {
        match lock(&self.map).get(&key).map(|e| &e.state) {
            None | Some(State::Closed { .. }) => BreakerState::Closed,
            Some(State::Open { .. }) => BreakerState::Open,
            Some(State::HalfOpen { .. }) => BreakerState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_until_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_millis(10));
        assert!(matches!(b.admit(1), Admission::Proceed { probe: false }));
        assert!(!b.record_failure(1, "panic: a"));
        assert!(!b.record_failure(1, "panic: b"));
        assert!(matches!(b.admit(1), Admission::Proceed { probe: false }));
        assert!(b.record_failure(1, "panic: c"));
        assert_eq!(b.state(1), BreakerState::Open);
        match b.admit(1) {
            Admission::Quarantined { diagnostics, .. } => {
                assert_eq!(diagnostics, vec!["panic: a", "panic: b", "panic: c"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let b = CircuitBreaker::new(2, Duration::from_millis(10));
        assert!(!b.record_failure(7, "x"));
        assert!(!b.record_success(7)); // closed → closed, no recovery
        assert!(!b.record_failure(7, "y")); // count restarted at 0
        assert_eq!(b.state(7), BreakerState::Closed);
    }

    #[test]
    fn only_failing_units_keep_an_entry() {
        let b = CircuitBreaker::new(2, Duration::ZERO);
        assert!(!b.record_failure(1, "once"));
        assert!(!b.record_success(1));
        assert!(b.map.lock().unwrap().is_empty(), "a recovered unit leaves no entry");

        b.record_failure(2, "x");
        assert!(b.record_failure(2, "y"));
        b.record_failure(3, "x");
        assert!(b.record_failure(3, "y"));
        assert!(matches!(b.admit(3), Admission::Proceed { probe: true }));
        // Successes of other units leave the open and half-open entries be.
        for other in [1, 4] {
            b.record_failure(other, "z");
            assert!(!b.record_success(other));
        }
        assert_eq!((b.state(2), b.state(3)), (BreakerState::Open, BreakerState::HalfOpen));
        assert_eq!(b.map.lock().unwrap().len(), 2);
        // The probe's own success closes its unit by removing the entry.
        assert!(b.record_success(3));
        assert_eq!(b.map.lock().unwrap().keys().collect::<Vec<_>>(), [&2]);
    }

    #[test]
    fn a_full_table_drops_closed_then_cooled_entries_never_a_cooling_one() {
        let b = CircuitBreaker::new(2, Duration::from_secs(3600));
        b.record_failure(u64::MAX, "boom");
        assert!(b.record_failure(u64::MAX, "boom"));
        for key in 0..2 * CAPACITY as u64 {
            assert!(!b.record_failure(key, "once"));
        }
        assert!(b.map.lock().unwrap().len() <= CAPACITY);
        assert!(matches!(b.admit(u64::MAX), Admission::Quarantined { .. }));

        // A table of cooling quarantines leaves a new failure uncharged;
        // once they cool down, they make room.
        let b = CircuitBreaker::new(1, Duration::from_millis(250));
        for key in 0..CAPACITY as u64 {
            assert!(b.record_failure(key, "boom"));
        }
        assert!(!b.record_failure(u64::MAX, "boom"));
        assert_eq!(b.state(u64::MAX), BreakerState::Closed);
        assert!((0..CAPACITY as u64).all(|key| b.state(key) == BreakerState::Open));
        std::thread::sleep(Duration::from_millis(260));
        assert!(b.record_failure(u64::MAX, "boom"));
        assert_eq!(b.map.lock().unwrap().len(), 1);
    }

    #[test]
    fn half_open_probe_recovers_or_reopens() {
        let b = CircuitBreaker::new(1, Duration::from_millis(5));
        assert!(b.record_failure(3, "boom"));
        assert!(matches!(b.admit(3), Admission::Quarantined { .. }));
        std::thread::sleep(Duration::from_millis(6));
        // cooled down: exactly one probe admitted, others still quarantined
        assert!(matches!(b.admit(3), Admission::Proceed { probe: true }));
        assert_eq!(b.state(3), BreakerState::HalfOpen);
        assert!(matches!(b.admit(3), Admission::Quarantined { .. }));
        // probe fails → re-open; cool down again → probe succeeds → closed
        assert!(b.record_failure(3, "still boom"));
        assert_eq!(b.state(3), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(6));
        assert!(matches!(b.admit(3), Admission::Proceed { probe: true }));
        assert!(b.record_success(3));
        assert_eq!(b.state(3), BreakerState::Closed);
        assert!(matches!(b.admit(3), Admission::Proceed { probe: false }));
    }

    #[test]
    fn lost_probe_outcome_admits_a_replacement_probe() {
        // The probing worker died: no success/failure was ever recorded.
        // After another cooldown the breaker must hand out a new probe
        // instead of quarantining the unit forever.
        let b = CircuitBreaker::new(1, Duration::from_millis(5));
        assert!(b.record_failure(6, "boom"));
        std::thread::sleep(Duration::from_millis(6));
        assert!(matches!(b.admit(6), Admission::Proceed { probe: true }));
        // probe outcome never arrives…
        assert!(matches!(b.admit(6), Admission::Quarantined { .. }));
        std::thread::sleep(Duration::from_millis(6));
        assert!(matches!(b.admit(6), Admission::Proceed { probe: true }));
        assert!(b.record_success(6));
        assert_eq!(b.state(6), BreakerState::Closed);
    }

    #[test]
    fn diagnostics_ring_is_bounded() {
        let b = CircuitBreaker::new(100, Duration::from_millis(1));
        for i in 0..20 {
            b.record_failure(4, format!("f{i}"));
        }
        match b.admit(4) {
            Admission::Proceed { .. } => {} // still closed (threshold 100)
            other => panic!("{other:?}"),
        }
        b.record_failure(4, "last");
        // bounded at MAX_DIAGNOSTICS, oldest dropped
        let n = {
            let map = b.map.lock().unwrap();
            map[&4].diagnostics.len()
        };
        assert!(n <= MAX_DIAGNOSTICS);
    }
}

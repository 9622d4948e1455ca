//! Deterministic chaos injection for the service.
//!
//! A [`ChaosPlan`] is the seam the service exposes: before each compile
//! attempt the service asks it for a [`FaultPlan`] (stage panics, IR
//! corruption, stalls), whether the worker should die outright, and —
//! after a response is computed — whether to poison the cache entry.
//! Production runs pass no plan; the chaos suites pass one
//! ([`Service::with_chaos`]).
//!
//! Every decision is a pure function of `(seed, unit key, request id,
//! attempt)` via SplitMix64, so a chaos run is exactly reproducible from
//! its seed regardless of thread interleaving, and — crucially — a fault
//! rolled for attempt 1 vanishes on attempt 2: rate-based faults are
//! transient *by construction*, which is what makes retry the correct
//! response to them. The optional [`Curse`] is the opposite: a unit/id
//! window where **every** attempt panics, deterministically exhausting
//! retries and driving the circuit breaker into quarantine (and, once the
//! window ends, back out through a half-open probe).
//!
//! [`Service::with_chaos`]: crate::service::Service::with_chaos

use crate::retry::mix;
use polaris_core::{CorruptKind, FaultPlan, STAGE_NAMES};

// Domain tags so each decision kind rolls an independent stream.
const D_PANIC: u64 = 0x70616e69; // "pani"
const D_STAGE: u64 = 0x73746167; // "stag"
const D_CORRUPT: u64 = 0x636f7272; // "corr"
const D_STALL: u64 = 0x7374616c; // "stal"
const D_KILL: u64 = 0x6b696c6c; // "kill"
const D_POISON: u64 = 0x706f6973; // "pois"
const D_EXEC: u64 = 0x65786563; // "exec"
const D_TABLE: u64 = 0x7461626c; // "tabl"

/// A unit/request-id window where every compile attempt panics — the
/// deterministic "pathological unit" that must end up quarantined.
#[derive(Debug, Clone)]
pub struct Curse {
    /// Content key of the cursed unit.
    pub key: u64,
    /// Request ids `from..to` (half-open) of the cursed unit fail.
    pub from_id: u64,
    pub to_id: u64,
}

/// Seeded, rate-based chaos plan. Rates are percentages (0–100) rolled
/// per request; rate faults fire on attempt 1 only.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    pub seed: u64,
    pub panic_pct: u8,
    pub corrupt_pct: u8,
    /// (rate pct, stall duration ms): the stage stalls, simulating a
    /// deadline blow when the request carries one.
    pub stall: Option<(u8, u64)>,
    pub kill_pct: u8,
    pub poison_pct: u8,
    /// Rate of injected panics inside statement execution (only
    /// meaningful when the service executes compiled programs).
    pub exec_panic_pct: u8,
    /// Rate of adaptive decision-table corruption (only meaningful when
    /// the service executes with adaptive scheduling).
    pub corrupt_table_pct: u8,
    pub curse: Option<Curse>,
}

impl ChaosPlan {
    pub fn seeded(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            panic_pct: 0,
            corrupt_pct: 0,
            stall: None,
            kill_pct: 0,
            poison_pct: 0,
            exec_panic_pct: 0,
            corrupt_table_pct: 0,
            curse: None,
        }
    }

    pub fn with_panic_pct(mut self, pct: u8) -> ChaosPlan {
        self.panic_pct = pct;
        self
    }

    pub fn with_corrupt_pct(mut self, pct: u8) -> ChaosPlan {
        self.corrupt_pct = pct;
        self
    }

    pub fn with_stall(mut self, pct: u8, millis: u64) -> ChaosPlan {
        self.stall = Some((pct, millis));
        self
    }

    pub fn with_kill_pct(mut self, pct: u8) -> ChaosPlan {
        self.kill_pct = pct;
        self
    }

    pub fn with_poison_pct(mut self, pct: u8) -> ChaosPlan {
        self.poison_pct = pct;
        self
    }

    pub fn with_exec_panic_pct(mut self, pct: u8) -> ChaosPlan {
        self.exec_panic_pct = pct;
        self
    }

    pub fn with_corrupt_table_pct(mut self, pct: u8) -> ChaosPlan {
        self.corrupt_table_pct = pct;
        self
    }

    pub fn with_curse(mut self, curse: Curse) -> ChaosPlan {
        self.curse = Some(curse);
        self
    }

    fn roll(&self, domain: u64, key: u64, req_id: u64) -> u64 {
        mix(&[self.seed, domain, key, req_id])
    }

    fn cursed(&self, key: u64, req_id: u64) -> bool {
        self.curse
            .as_ref()
            .is_some_and(|c| c.key == key && (c.from_id..c.to_id).contains(&req_id))
    }

    /// Does this request's first attempt stall (and for how long)? The
    /// chaos suite uses this to decide which requests get tight deadlines,
    /// keeping the deadline/stall alignment deterministic on both sides.
    pub fn would_stall(&self, key: u64, req_id: u64) -> Option<u64> {
        let (pct, ms) = self.stall?;
        (self.roll(D_STALL, key, req_id) % 100 < pct as u64).then_some(ms)
    }

    /// Is this request inside the curse window (every attempt fails)?
    pub fn is_cursed(&self, key: u64, req_id: u64) -> bool {
        self.cursed(key, req_id)
    }

    /// Faults to arm for this compile attempt.
    pub fn compile_faults(&self, key: u64, req_id: u64, attempt: u32) -> FaultPlan {
        if self.cursed(key, req_id) {
            // Every attempt panics: retries exhaust, the breaker opens.
            return FaultPlan::panic_in("analyze");
        }
        if attempt > 1 {
            // Rate faults are transient: the retry compiles clean.
            return FaultPlan::none();
        }
        if self.roll(D_PANIC, key, req_id) % 100 < self.panic_pct as u64 {
            let stage = STAGE_NAMES
                [(self.roll(D_STAGE, key, req_id) % STAGE_NAMES.len() as u64) as usize];
            return FaultPlan::panic_in(stage);
        }
        if self.roll(D_CORRUPT, key, req_id) % 100 < self.corrupt_pct as u64 {
            let kind = CorruptKind::ALL
                [(self.roll(D_STAGE, key, req_id) % CorruptKind::ALL.len() as u64) as usize];
            return FaultPlan::corrupt_in("dce", kind);
        }
        if let Some(ms) = self.would_stall(key, req_id) {
            return FaultPlan::stall_in("induction", ms);
        }
        FaultPlan::none()
    }

    /// Should the worker thread die (without responding) before this
    /// attempt? The watchdog must respawn the worker and re-queue the
    /// orphaned request.
    pub fn kill_worker(&self, key: u64, req_id: u64, attempt: u32) -> bool {
        attempt == 1
            && !self.cursed(key, req_id)
            && self.roll(D_KILL, key, req_id) % 100 < self.kill_pct as u64
    }

    /// Should the cache entry for `key` be silently corrupted after this
    /// request is answered? The next read's integrity check must purge it.
    pub fn poison_cache(&self, key: u64, req_id: u64) -> bool {
        self.roll(D_POISON, key, req_id) % 100 < self.poison_pct as u64
    }

    /// Panic the execution engine (when [`ServiceConfig::exec_engine`] is
    /// set) once the interpreter's step counter reaches the returned
    /// value — a crash *inside* statement dispatch, caught by the same
    /// per-attempt isolation as a compile panic and retried identically
    /// under both engines.
    ///
    /// [`ServiceConfig::exec_engine`]: crate::service::ServiceConfig::exec_engine
    pub fn exec_panic(&self, key: u64, req_id: u64, attempt: u32) -> Option<u64> {
        if attempt > 1 || self.cursed(key, req_id) {
            return None; // transient, like every other rate fault
        }
        let r = self.roll(D_EXEC, key, req_id);
        // Steps 1..=32: early enough to fire inside any real program's
        // execution, varied enough to land in different statements.
        (r % 100 < self.exec_panic_pct as u64).then_some(1 + (r >> 32) % 32)
    }

    /// Flip bits in the unit's adaptive decision table before this
    /// attempt executes (only meaningful when the service runs with
    /// [`ServiceConfig::adaptive_schedule`]). The controller's integrity
    /// word must catch the damage on the next dispatch and fall back to
    /// static scheduling — never wedge, never change output bytes.
    ///
    /// [`ServiceConfig::adaptive_schedule`]: crate::service::ServiceConfig::adaptive_schedule
    pub fn corrupt_decision_table(&self, key: u64, req_id: u64, attempt: u32) -> bool {
        // Unlike rate faults, table corruption is NOT restricted to
        // attempt 1: the controller itself must recover (integrity check
        // → reset → static fallback), not the retry machinery.
        let _ = attempt;
        self.roll(D_TABLE, key, req_id) % 100 < self.corrupt_table_pct as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_core::FaultKind;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = ChaosPlan::seeded(7).with_panic_pct(50).with_kill_pct(10);
        let b = ChaosPlan::seeded(7).with_panic_pct(50).with_kill_pct(10);
        for req in 0..200 {
            assert_eq!(
                a.compile_faults(1, req, 1),
                b.compile_faults(1, req, 1)
            );
            assert_eq!(a.kill_worker(1, req, 1), b.kill_worker(1, req, 1));
            assert_eq!(a.poison_cache(1, req), b.poison_cache(1, req));
        }
    }

    #[test]
    fn rate_faults_fire_on_first_attempt_only() {
        let plan = ChaosPlan::seeded(3).with_panic_pct(100);
        assert!(!plan.compile_faults(9, 4, 1).is_empty());
        assert!(plan.compile_faults(9, 4, 2).is_empty());
        assert!(!plan.kill_worker(9, 4, 1) || !plan.kill_worker(9, 4, 2));
    }

    #[test]
    fn curse_fails_every_attempt_inside_the_window_only() {
        let plan = ChaosPlan::seeded(1).with_curse(Curse { key: 42, from_id: 10, to_id: 20 });
        for attempt in 1..=4 {
            assert!(!plan.compile_faults(42, 15, attempt).is_empty());
        }
        assert!(plan.compile_faults(42, 9, 1).is_empty());
        assert!(plan.compile_faults(42, 20, 1).is_empty());
        assert!(plan.compile_faults(41, 15, 1).is_empty());
        assert!(plan.is_cursed(42, 10) && !plan.is_cursed(42, 20));
    }

    #[test]
    fn rates_roughly_respected() {
        let plan = ChaosPlan::seeded(11).with_panic_pct(25);
        let hits = (0..1000)
            .filter(|&r| !plan.compile_faults(5, r, 1).is_empty())
            .count();
        assert!((150..350).contains(&hits), "{hits}");
    }

    #[test]
    fn stall_plan_arms_a_stall_fault() {
        let plan = ChaosPlan::seeded(2).with_stall(100, 40);
        let faults = plan.compile_faults(8, 1, 1);
        let program = polaris_ir::parse("program t\nend\n").unwrap();
        let armed = faults.armed_for("induction", &program).unwrap();
        assert_eq!(armed.kind, FaultKind::Stall(40));
        assert_eq!(plan.would_stall(8, 1), Some(40));
    }
}

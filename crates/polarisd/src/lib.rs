//! `polarisd` — a crash-only compile service wrapped around the Polaris
//! pipeline.
//!
//! The restructurer itself ([`polaris_core::pipeline`]) already degrades
//! gracefully *within* one compile: a pass that panics or corrupts its IR
//! is rolled back and the remaining passes run. This crate adds the
//! *service* half of that story — what a long-running compile daemon owes
//! its callers when units are pathological, deadlines are tight, and
//! worker threads die:
//!
//! * **Deadlines** ([`service`]): a watchdog fires a cooperative
//!   [`polaris_core::CancelToken`] when a request's deadline passes; the
//!   pipeline rolls back the remaining stages and the caller gets a
//!   `degraded` answer instead of a wedged worker.
//! * **Retry with backoff** ([`retry`]): transient failures (panics,
//!   injected faults) are retried with exponential backoff and
//!   deterministic jitter; deterministic failures (parse errors) and
//!   deadline blows are answered immediately, never retried.
//! * **Circuit-breaker quarantine** ([`breaker`]): a unit that keeps
//!   failing is quarantined by content hash and served its stored
//!   diagnostics without touching the pipeline, until a half-open probe
//!   proves it recovered.
//! * **Compile cache** ([`cache`]): clean results are cached by content
//!   hash; every read is integrity-checked and poisoned entries are
//!   purged, never served.
//! * **Admission control** ([`service`]): a bounded queue with per-client
//!   round-robin fairness sheds the oldest request under overload, with a
//!   `retry_after_ms` hint.
//! * **Chaos conformance** ([`chaos`]): every resilience claim above is
//!   exercised by a seeded, deterministic chaos harness (see
//!   `tests/chaos_conformance.rs`).
//!
//! The wire protocol ([`proto`]) is JSON-lines (`polarisd/v1`), spoken
//! over stdin/stdout or a localhost TCP socket by the `polarisd` binary.

pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod proto;
pub mod retry;
pub mod service;

pub use breaker::{Admission, BreakerState, CircuitBreaker};
pub use cache::{CacheEntry, CacheOutcome, CompileCache};
pub use chaos::{ChaosHook, ChaosPlan, Curse};
pub use proto::{fnv1a, Request, Response, Status};
pub use retry::RetryPolicy;
pub use service::{Service, ServiceConfig, ServiceStats, Ticket};

/// Poison-recovering lock: every critical section in this crate either
/// performs single-statement updates on a plain map (a cache sweep only
/// drops entries) or is re-checked by its reader, so recovery after a
/// panicked holder is always safe — a crash-only service cannot afford a
/// poisoned mutex cascading into every thread.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

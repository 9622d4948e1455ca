//! The resilience kernel: admission control, fair scheduling, a
//! panic-isolated worker pool with respawn, deadlines, retry, the circuit
//! breaker and the compile cache — wrapped around
//! `polaris_core::pipeline`.
//!
//! Design rules (crash-only service):
//!
//! * **Every accepted request is answered exactly once** — by a worker,
//!   by the shed path, by the watchdog's orphan recovery, or by the
//!   shutdown drain. No code path loses a ticket.
//! * **Nothing wedges a worker.** Compiles run under `catch_unwind` with
//!   a cooperative [`CancelToken`] the watchdog fires when the request's
//!   deadline passes; a pathological unit degrades, it does not hang.
//! * **Degradation ladder**: full compile → degraded compile (rolled-back
//!   stages) → serve-cached → reject-with-backoff-hint. Each rung is only
//!   taken when the rung above failed.
//! * **The cache never lies.** Only clean compiles are inserted, every
//!   read is integrity-checked, and a poisoned entry is purged on sight.

use crate::breaker::{Admission, CircuitBreaker};
use crate::cache::{CacheOutcome, CompileCache};
use crate::chaos::ChaosHook;
use crate::lock;
use crate::proto::{fnv1a, Request, Response, Status};
use crate::retry::{RetryPolicy, SplitMix};
use polaris_core::{CancelToken, CompileReport, PassOptions, CANCELLED_PREFIX};
use polaris_machine::{Engine, MachineConfig, MachineError};
use polaris_obs::{Counter, Recorder};
use polaris_runtime::{AdaptiveController, DecisionRow};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads compiling requests.
    pub workers: usize,
    /// Bound on queued (not yet started) requests; beyond it the oldest
    /// queued request is shed.
    pub queue_capacity: usize,
    pub retry: RetryPolicy,
    /// Consecutive failures of one unit before its breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Watchdog poll interval (deadline enforcement + worker supervision).
    pub watchdog_tick: Duration,
    /// When set, a clean compile is also *executed* (serially, on the
    /// chosen engine) and the response carries an FNV-1a checksum of the
    /// program's printed output. Execution runs inside the same
    /// panic-isolation and deadline-cancellation envelope as the compile.
    /// `None` (the default) keeps the service compile-only.
    pub exec_engine: Option<Engine>,
    /// Step budget for executions (`exec_engine` set). `None` relies on
    /// the deadline watchdog alone to stop runaway programs.
    pub exec_fuel: Option<u64>,
    /// When true (and `exec_engine` is set), executions run on the
    /// 8-processor simulated machine under the adaptive scheduler instead
    /// of the serial reference machine. Each unit's adaptation history is
    /// held in an [`AdaptiveController`] keyed by the request's content
    /// hash ([`Service::content_key`]), so re-submissions of the same
    /// source — including recompiles after a cache purge — keep adapting
    /// from where the previous run left off. Output bytes are unchanged
    /// by construction (the determinism contract), so cached checksums
    /// stay valid.
    pub adaptive_schedule: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            default_deadline: None,
            watchdog_tick: Duration::from_millis(2),
            exec_engine: None,
            exec_fuel: None,
            adaptive_schedule: false,
        }
    }
}

/// Counter snapshot of everything the service did (mirrored into the
/// recorder's `polarisd.*` counters as it happens).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    pub accepted: u64,
    pub answered: u64,
    pub shed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub poison_purged: u64,
    pub retries: u64,
    pub deadline_cancels: u64,
    pub quarantined: u64,
    pub probes: u64,
    pub recovered: u64,
    pub respawns: u64,
}

#[derive(Default)]
struct Tallies {
    accepted: AtomicU64,
    answered: AtomicU64,
    shed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    poison_purged: AtomicU64,
    retries: AtomicU64,
    deadline_cancels: AtomicU64,
    quarantined: AtomicU64,
    probes: AtomicU64,
    recovered: AtomicU64,
    respawns: AtomicU64,
}

impl Tallies {
    fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            answered: self.answered.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            cache_hits: self.cache_hits.load(Ordering::SeqCst),
            cache_misses: self.cache_misses.load(Ordering::SeqCst),
            poison_purged: self.poison_purged.load(Ordering::SeqCst),
            retries: self.retries.load(Ordering::SeqCst),
            deadline_cancels: self.deadline_cancels.load(Ordering::SeqCst),
            quarantined: self.quarantined.load(Ordering::SeqCst),
            probes: self.probes.load(Ordering::SeqCst),
            recovered: self.recovered.load(Ordering::SeqCst),
            respawns: self.respawns.load(Ordering::SeqCst),
        }
    }
}

/// Handle for one submitted request; resolves to exactly one [`Response`].
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Block until the response arrives. The service guarantees every
    /// accepted request is answered, so this cannot block forever while
    /// the service lives.
    pub fn wait(self) -> Response {
        self.rx.recv().expect("polarisd answers every accepted request")
    }

    /// [`Ticket::wait`] with a hang detector.
    pub fn wait_timeout(self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }
}

#[derive(Clone)]
struct Pending {
    req: Request,
    key: u64,
    deadline_at: Option<Instant>,
    enqueued: Instant,
    /// Attempts already burned by workers that died holding this request.
    prior_attempts: u32,
    tx: mpsc::Sender<Response>,
}

#[derive(Default)]
struct Sched {
    /// Per-client FIFO queues, in first-seen order; `cursor` round-robins
    /// across the non-empty ones so one chatty client cannot starve the
    /// rest.
    queues: Vec<(String, VecDeque<Pending>)>,
    cursor: usize,
    len: usize,
    stopping: bool,
}

impl Sched {
    fn push_back(&mut self, p: Pending) {
        self.len += 1;
        match self.queues.iter_mut().find(|(c, _)| *c == p.req.client) {
            Some((_, q)) => q.push_back(p),
            None => {
                let client = p.req.client.clone();
                self.queues.push((client, VecDeque::from([p])));
            }
        }
    }

    /// Re-queue at the front (orphan recovery keeps its place in line).
    fn push_front(&mut self, p: Pending) {
        self.len += 1;
        match self.queues.iter_mut().find(|(c, _)| *c == p.req.client) {
            Some((_, q)) => q.push_front(p),
            None => {
                let client = p.req.client.clone();
                self.queues.push((client, VecDeque::from([p])));
            }
        }
    }

    fn pop(&mut self) -> Option<Pending> {
        if self.len == 0 || self.queues.is_empty() {
            return None;
        }
        let n = self.queues.len();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if let Some(p) = self.queues[i].1.pop_front() {
                self.cursor = (i + 1) % n;
                self.len -= 1;
                return Some(p);
            }
        }
        None
    }

    /// Shed the oldest queued request (by enqueue time, across clients).
    fn shed_oldest(&mut self) -> Option<Pending> {
        let (idx, _) = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(i, (_, q))| q.front().map(|p| (i, p.enqueued)))
            .min_by_key(|&(_, t)| t)?;
        self.len -= 1;
        self.queues[idx].1.pop_front()
    }

    fn drain(&mut self) -> Vec<Pending> {
        let mut out = Vec::new();
        for (_, q) in &mut self.queues {
            out.extend(q.drain(..));
        }
        self.len = 0;
        out
    }
}

struct InFlight {
    pending: Pending,
    cancel: CancelToken,
    attempt: u32,
}

struct Inner {
    cfg: ServiceConfig,
    sched: Mutex<Sched>,
    available: Condvar,
    inflight: Mutex<HashMap<usize, InFlight>>,
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
    cache: CompileCache,
    breaker: CircuitBreaker,
    rec: Recorder,
    chaos: Option<Arc<dyn ChaosHook>>,
    stop: AtomicBool,
    tallies: Tallies,
    /// Per-unit adaptive schedulers, keyed by content hash so the
    /// adaptation history survives cache purges and re-submissions of
    /// the same source (`adaptive_schedule` only).
    adaptive: Mutex<HashMap<u64, Arc<AdaptiveController>>>,
}

/// The crash-only compile service. See the module docs for the contract.
pub struct Service {
    inner: Arc<Inner>,
}

/// What a worker does after handling one request.
enum Fate {
    Continue,
    /// Injected worker death: exit without responding; the watchdog
    /// recovers the orphaned request and respawns the slot.
    Die,
}

impl Service {
    pub fn new(cfg: ServiceConfig) -> Service {
        Service::build(cfg, Recorder::disabled(), None)
    }

    /// A service whose `polarisd.*` counters and per-request spans land
    /// in `rec`.
    pub fn with_recorder(cfg: ServiceConfig, rec: Recorder) -> Service {
        Service::build(cfg, rec, None)
    }

    /// A service under chaos injection (tests only).
    pub fn with_chaos(
        cfg: ServiceConfig,
        rec: Recorder,
        chaos: Arc<dyn ChaosHook>,
    ) -> Service {
        Service::build(cfg, rec, Some(chaos))
    }

    fn build(cfg: ServiceConfig, rec: Recorder, chaos: Option<Arc<dyn ChaosHook>>) -> Service {
        let inner = Arc::new(Inner {
            breaker: CircuitBreaker::new(cfg.breaker_threshold, cfg.breaker_cooldown),
            cfg,
            sched: Mutex::new(Sched::default()),
            available: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            workers: Mutex::new(Vec::new()),
            watchdog: Mutex::new(None),
            cache: CompileCache::new(),
            rec,
            chaos,
            stop: AtomicBool::new(false),
            tallies: Tallies::default(),
            adaptive: Mutex::new(HashMap::new()),
        });
        {
            let mut workers = lock(&inner.workers);
            for slot in 0..inner.cfg.workers.max(1) {
                workers.push(Some(spawn_worker(slot, Arc::clone(&inner))));
            }
        }
        let wd = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("polarisd-watchdog".into())
                .spawn(move || watchdog_loop(&inner))
                .expect("spawn watchdog")
        };
        *lock(&inner.watchdog) = Some(wd);
        Service { inner }
    }

    /// The content key a request compiles under: unit source hash mixed
    /// with the pass configuration.
    pub fn content_key(req: &Request) -> u64 {
        fnv1a(req.source.as_bytes()) ^ if req.vfa { 0x9e3779b97f4a7c15 } else { 0 }
    }

    /// Admission control. Always returns a ticket that will resolve:
    /// accepted requests are queued (shedding the oldest queued request
    /// when the queue is full); after shutdown began, the request is
    /// immediately answered `rejected`.
    pub fn submit(&self, req: Request) -> Ticket {
        let inner = &self.inner;
        let (tx, rx) = mpsc::channel();
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(inner.cfg.default_deadline);
        let pending = Pending {
            key: Service::content_key(&req),
            deadline_at: deadline.map(|d| Instant::now() + d),
            enqueued: Instant::now(),
            prior_attempts: 0,
            req,
            tx,
        };
        let shed_victim = {
            let mut sched = lock(&inner.sched);
            if sched.stopping || inner.stop.load(Ordering::SeqCst) {
                drop(sched);
                let resp = base_response(&pending, Status::Rejected, 0);
                let resp = Response {
                    reason: Some("service shutting down".into()),
                    ..resp
                };
                let _ = pending.tx.send(resp);
                return Ticket { rx };
            }
            inner.tallies.accepted.fetch_add(1, Ordering::SeqCst);
            inner.rec.count(Counter::PolarisdAccepted, 1);
            let victim = if sched.len >= inner.cfg.queue_capacity {
                sched.shed_oldest()
            } else {
                None
            };
            sched.push_back(pending);
            inner.available.notify_one();
            victim
        };
        if let Some(victim) = shed_victim {
            inner.tallies.shed.fetch_add(1, Ordering::SeqCst);
            inner.rec.count(Counter::PolarisdShed, 1);
            let resp = Response {
                reason: Some("shed: queue full (oldest request dropped)".into()),
                retry_after_ms: Some(retry_after_hint(inner)),
                ..base_response(&victim, Status::Rejected, 0)
            };
            respond(inner, &victim, resp);
        }
        Ticket { rx }
    }

    pub fn stats(&self) -> ServiceStats {
        self.inner.tallies.snapshot()
    }

    pub fn recorder(&self) -> &Recorder {
        &self.inner.rec
    }

    /// Cached entries currently held (test/diagnostic visibility).
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Snapshot of the adaptive decision table for a unit (by content
    /// key), ordered by loop id. Empty unless `adaptive_schedule` is on
    /// and the unit has executed at least once.
    pub fn adaptive_rows(&self, key: u64) -> Vec<DecisionRow> {
        lock(&self.inner.adaptive)
            .get(&key)
            .map(|c| c.decision_rows())
            .unwrap_or_default()
    }

    /// Graceful stop: wait (bounded) for queued and in-flight work to
    /// finish, stop the threads, answer anything still unserved as
    /// `rejected`, and return the final stats.
    pub fn shutdown(self) -> ServiceStats {
        self.inner.stop_and_join();
        self.inner.tallies.snapshot()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.stop_and_join();
    }
}

impl Inner {
    fn stop_and_join(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Refuse new work but let the queue drain (bounded wait).
        lock(&self.sched).stopping = true;
        let patience = Instant::now() + Duration::from_secs(30);
        loop {
            let queued = lock(&self.sched).len;
            let flying = lock(&self.inflight).len();
            if (queued == 0 && flying == 0) || Instant::now() >= patience {
                break;
            }
            self.available.notify_all();
            std::thread::sleep(Duration::from_millis(2));
        }
        self.available.notify_all();
        if let Some(wd) = lock(&self.watchdog).take() {
            let _ = wd.join();
        }
        let handles: Vec<JoinHandle<()>> =
            lock(&self.workers).iter_mut().filter_map(Option::take).collect();
        for h in handles {
            let _ = h.join();
        }
        // Anything still unanswered (drain timed out, or a worker died
        // with the watchdog already gone) is answered now: crash-only
        // means even the shutdown path keeps the answer-every-request
        // invariant.
        let leftovers: Vec<Pending> = {
            let mut out = lock(&self.sched).drain();
            out.extend(lock(&self.inflight).drain().map(|(_, fl)| fl.pending));
            out
        };
        for p in leftovers {
            let resp = Response {
                reason: Some("service shutting down".into()),
                ..base_response(&p, Status::Rejected, 0)
            };
            respond(self, &p, resp);
        }
    }
}

// ---- worker ----------------------------------------------------------

fn spawn_worker(slot: usize, inner: Arc<Inner>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("polarisd-worker-{slot}"))
        .spawn(move || worker_loop(slot, &inner))
        .expect("spawn polarisd worker")
}

fn worker_loop(slot: usize, inner: &Arc<Inner>) {
    loop {
        let pending = {
            let mut sched = lock(&inner.sched);
            loop {
                if inner.stop.load(Ordering::SeqCst) && sched.len == 0 {
                    return;
                }
                if let Some(p) = sched.pop() {
                    break p;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                sched = wait(&inner.available, sched);
            }
        };
        // The whole request runs under catch_unwind: a bug in the service
        // itself must not kill the worker silently — the request is
        // answered `rejected` and the worker keeps serving.
        let fate = catch_unwind(AssertUnwindSafe(|| handle(slot, inner, pending)));
        match fate {
            Ok(Fate::Continue) => {}
            Ok(Fate::Die) => return,
            Err(_) => {
                let orphan = lock(&inner.inflight).remove(&slot);
                if let Some(fl) = orphan {
                    let resp = Response {
                        reason: Some("internal service panic".into()),
                        ..base_response(&fl.pending, Status::Rejected, fl.attempt)
                    };
                    respond(inner, &fl.pending, resp);
                }
            }
        }
    }
}

/// Serve one request end to end. See the module docs' degradation ladder.
fn handle(slot: usize, inner: &Arc<Inner>, pending: Pending) -> Fate {
    let tid = 100 + slot as u32;
    let span = inner.rec.span_with(
        "polarisd",
        format!("request:{}", pending.req.id),
        tid,
        None,
        None,
    );
    let key = pending.key;
    let req_id = pending.req.id;

    // Register before anything can fail so the watchdog can always see
    // (and recover) this request.
    lock(&inner.inflight).insert(
        slot,
        InFlight { pending: pending.clone(), cancel: CancelToken::new(), attempt: 0 },
    );

    // 1. Circuit breaker: quarantined units are answered from stored
    //    diagnostics without touching the pipeline.
    let probe = match inner.breaker.admit(key) {
        Admission::Quarantined { reason, diagnostics } => {
            let resp = Response {
                reason: Some(reason),
                degraded_stages: diagnostics,
                retry_after_ms: Some(retry_after_hint(inner)),
                ..base_response(&pending, Status::Quarantined, 0)
            };
            finish(inner, slot, &pending, resp);
            span.end();
            return Fate::Continue;
        }
        Admission::Proceed { probe } => {
            if probe {
                inner.tallies.probes.fetch_add(1, Ordering::SeqCst);
                inner.rec.count(Counter::PolarisdProbes, 1);
            }
            probe
        }
    };

    // 2. Cache. A half-open probe must actually compile (that is its
    //    job), so it skips the read.
    if !probe {
        match inner.cache.get(key) {
            CacheOutcome::Hit(entry) => {
                inner.tallies.cache_hits.fetch_add(1, Ordering::SeqCst);
                inner.rec.count(Counter::PolarisdCacheHits, 1);
                let resp = Response {
                    cached: true,
                    checksum: Some(entry.checksum),
                    parallel_loops: Some(entry.parallel_loops),
                    program: pending.req.return_program.then(|| entry.program_text.clone()),
                    ..base_response(&pending, Status::Cached, 0)
                };
                finish(inner, slot, &pending, resp);
                span.end();
                return Fate::Continue;
            }
            CacheOutcome::Poisoned => {
                inner.tallies.poison_purged.fetch_add(1, Ordering::SeqCst);
                inner.rec.count(Counter::PolarisdCachePoisonPurged, 1);
                inner.tallies.cache_misses.fetch_add(1, Ordering::SeqCst);
                inner.rec.count(Counter::PolarisdCacheMisses, 1);
            }
            CacheOutcome::Miss => {
                inner.tallies.cache_misses.fetch_add(1, Ordering::SeqCst);
                inner.rec.count(Counter::PolarisdCacheMisses, 1);
            }
        }
    }

    // 3. Compile attempts with bounded retry.
    let max_attempts = inner.cfg.retry.max_attempts();
    let mut attempt = pending.prior_attempts;
    let mut rng = SplitMix::new(key ^ req_id.wrapping_mul(0x9e3779b97f4a7c15));
    let mut last_failure = String::new();
    while attempt < max_attempts {
        attempt += 1;

        // Publish the attempt number *before* anything can kill this
        // worker: the watchdog charges the orphan `prior_attempts` from
        // the in-flight record, which is what stops a request that kills
        // workers on attempt 1 from being re-run at attempt 1 forever.
        let cancel = CancelToken::new();
        {
            let mut inflight = lock(&inner.inflight);
            if let Some(fl) = inflight.get_mut(&slot) {
                fl.cancel = cancel.clone();
                fl.attempt = attempt;
            }
        }

        if let Some(chaos) = &inner.chaos {
            if chaos.kill_worker(key, req_id, attempt) {
                // Die *without* responding or deregistering: exactly what
                // a hard worker crash looks like. The watchdog notices
                // the dead thread, re-queues the orphan, and respawns.
                return Fate::Die;
            }
        }

        // Deadline already gone? Answer without burning a compile.
        if pending.deadline_at.is_some_and(|d| Instant::now() >= d) {
            let resp = Response {
                reason: Some("deadline exceeded before compile".into()),
                retry_after_ms: Some(retry_after_hint(inner)),
                ..base_response(&pending, Status::Timeout, attempt - 1)
            };
            finish(inner, slot, &pending, resp);
            span.end();
            return Fate::Continue;
        }
        let faults = inner
            .chaos
            .as_ref()
            .map(|c| c.compile_faults(key, req_id, attempt))
            .unwrap_or_default();
        let base = if pending.req.vfa { PassOptions::vfa() } else { PassOptions::polaris() };
        let opts = base.with_faults(faults);

        let attempt_span =
            inner.rec.span_with("polarisd", format!("attempt:{attempt}"), tid, None, None);
        let exec_panic = inner
            .chaos
            .as_ref()
            .and_then(|c| c.exec_panic(key, req_id, attempt))
            .filter(|_| inner.cfg.exec_engine.is_some());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut program = polaris_ir::parse(&pending.req.source)?;
            let report = polaris_core::compile_cancellable(
                &mut program,
                &opts,
                &Recorder::disabled(),
                &cancel,
            )?;
            // Execute inside this same catch_unwind so a panic in either
            // engine's statement dispatch is isolated and retried exactly
            // like a compile panic.
            let run = match inner.cfg.exec_engine {
                Some(engine) if !report.degraded() => {
                    // Adaptive mode executes on the 8-proc simulated
                    // machine; the determinism contract keeps its output
                    // byte-identical to the serial reference, so the
                    // response checksum is the same either way.
                    let mut mcfg = if inner.cfg.adaptive_schedule {
                        MachineConfig::challenge_8()
                    } else {
                        MachineConfig::serial()
                    }
                    .with_engine(engine)
                    .with_cancel(cancel.clone());
                    mcfg.fuel = inner.cfg.exec_fuel;
                    mcfg.panic_at_step = exec_panic;
                    if inner.cfg.adaptive_schedule {
                        let ctrl = adaptive_for(inner, key);
                        if inner
                            .chaos
                            .as_ref()
                            .is_some_and(|c| c.corrupt_decision_table(key, req_id, attempt))
                        {
                            ctrl.corrupt_all();
                        }
                        mcfg = mcfg.with_adaptive(ctrl);
                    }
                    Some(polaris_machine::run(&program, &mcfg))
                }
                _ => None,
            };
            Ok::<_, polaris_ir::CompileError>((program, report, run))
        }));
        attempt_span.end();

        match outcome {
            // Deterministic failure: same input fails the same way every
            // time — answering fast beats retrying, and the breaker is
            // not charged (the unit is not *flaky*, it is wrong).
            Ok(Err(e)) => {
                let resp = Response {
                    reason: Some(format!("compile error: {e}")),
                    ..base_response(&pending, Status::Error, attempt)
                };
                finish(inner, slot, &pending, resp);
                span.end();
                return Fate::Continue;
            }
            Ok(Ok((program, report, run))) => {
                let cancelled = report.stages.iter().any(|s| match &s.outcome {
                    polaris_core::StageOutcome::RolledBack { reason } => {
                        reason.starts_with(CANCELLED_PREFIX)
                    }
                    _ => false,
                });
                if cancelled {
                    // Deadline blew mid-compile. Retrying would blow it
                    // again — serve what the completed stages produced.
                    let newly = inner
                        .breaker
                        .record_failure(key, format!("deadline: {}", cancel_reason(&cancel)));
                    note_quarantine(inner, newly);
                    let text = polaris_ir::printer::print_program(&program);
                    let resp = Response {
                        checksum: Some(fnv1a(text.as_bytes())),
                        parallel_loops: Some(report.parallel_loops() as u64),
                        degraded_stages: rolled_back(&report),
                        reason: Some(format!("deadline: {}", cancel_reason(&cancel))),
                        program: pending.req.return_program.then_some(text),
                        ..base_response(&pending, Status::Degraded, attempt)
                    };
                    finish(inner, slot, &pending, resp);
                    span.end();
                    return Fate::Continue;
                }
                if !report.degraded() {
                    let text = polaris_ir::printer::print_program(&program);
                    let checksum = fnv1a(text.as_bytes());
                    match &run {
                        // Deadline fired mid-execution: like mid-compile
                        // cancellation, a retry would blow it again —
                        // serve the clean compile, degraded.
                        Some(Err(MachineError::Cancelled(reason))) => {
                            let newly = inner
                                .breaker
                                .record_failure(key, format!("deadline: {reason}"));
                            note_quarantine(inner, newly);
                            let resp = Response {
                                checksum: Some(checksum),
                                parallel_loops: Some(report.parallel_loops() as u64),
                                reason: Some(format!("deadline during execution: {reason}")),
                                program: pending.req.return_program.then_some(text),
                                ..base_response(&pending, Status::Degraded, attempt)
                            };
                            finish(inner, slot, &pending, resp);
                            span.end();
                            return Fate::Continue;
                        }
                        // Deterministic execution failure (bad subscript,
                        // fuel exhausted, …): same input fails the same
                        // way every time — answer, never retry.
                        Some(Err(e)) => {
                            let resp = Response {
                                checksum: Some(checksum),
                                parallel_loops: Some(report.parallel_loops() as u64),
                                reason: Some(format!("execution error: {e}")),
                                ..base_response(&pending, Status::Error, attempt)
                            };
                            finish(inner, slot, &pending, resp);
                            span.end();
                            return Fate::Continue;
                        }
                        _ => {}
                    }
                    let run_checksum = run
                        .and_then(Result::ok)
                        .map(|r| fnv1a(r.output.join("\n").as_bytes()));
                    // Clean: the only result that may enter the cache.
                    inner.cache.insert(key, text.clone(), report.parallel_loops() as u64);
                    if inner.breaker.record_success(key) {
                        inner.tallies.recovered.fetch_add(1, Ordering::SeqCst);
                        inner.rec.count(Counter::PolarisdRecovered, 1);
                    }
                    let resp = Response {
                        checksum: Some(checksum),
                        run_checksum,
                        parallel_loops: Some(report.parallel_loops() as u64),
                        program: pending.req.return_program.then_some(text),
                        ..base_response(&pending, Status::Ok, attempt)
                    };
                    finish(inner, slot, &pending, resp);
                    span.end();
                    return Fate::Continue;
                }
                // Degraded (a stage panicked, errored, or corrupted its
                // IR and was rolled back): transient by assumption —
                // retry; on the last attempt, serve the degraded result
                // rather than nothing.
                let stages = rolled_back(&report);
                last_failure = format!("degraded: rolled back {}", stages.join(", "));
                let newly = inner.breaker.record_failure(key, last_failure.clone());
                note_quarantine(inner, newly);
                if attempt >= max_attempts {
                    let violations = report.verify.violations;
                    let text = polaris_ir::printer::print_program(&program);
                    let resp = Response {
                        exit_code: if violations > 0 { 2 } else { 1 },
                        checksum: Some(fnv1a(text.as_bytes())),
                        parallel_loops: Some(report.parallel_loops() as u64),
                        degraded_stages: stages,
                        reason: Some(last_failure),
                        program: pending.req.return_program.then_some(text),
                        ..base_response(&pending, Status::Degraded, attempt)
                    };
                    finish(inner, slot, &pending, resp);
                    span.end();
                    return Fate::Continue;
                }
            }
            // The compile itself panicked past the pipeline's isolation
            // (or the parser did): transient, retry.
            Err(payload) => {
                last_failure = format!("panic: {}", panic_text(payload.as_ref()));
                let newly = inner.breaker.record_failure(key, last_failure.clone());
                note_quarantine(inner, newly);
                if attempt >= max_attempts {
                    break;
                }
            }
        }

        // Backoff before the retry, but never past the deadline.
        inner.tallies.retries.fetch_add(1, Ordering::SeqCst);
        inner.rec.count(Counter::PolarisdRetries, 1);
        let mut pause = inner.cfg.retry.backoff(attempt, &mut rng);
        if let Some(d) = pending.deadline_at {
            pause = pause.min(d.saturating_duration_since(Instant::now()));
        }
        std::thread::sleep(pause);
    }

    // Retries exhausted with no usable program: next ladder rungs.
    if let CacheOutcome::Hit(entry) = inner.cache.get(key) {
        inner.tallies.cache_hits.fetch_add(1, Ordering::SeqCst);
        inner.rec.count(Counter::PolarisdCacheHits, 1);
        let resp = Response {
            cached: true,
            checksum: Some(entry.checksum),
            parallel_loops: Some(entry.parallel_loops),
            reason: Some(format!("served from cache after: {last_failure}")),
            program: pending.req.return_program.then_some(entry.program_text),
            ..base_response(&pending, Status::Cached, attempt)
        };
        finish(inner, slot, &pending, resp);
        span.end();
        return Fate::Continue;
    }
    let resp = Response {
        reason: Some(format!("retries exhausted: {last_failure}")),
        retry_after_ms: Some(retry_after_hint(inner)),
        ..base_response(&pending, Status::Rejected, attempt)
    };
    finish(inner, slot, &pending, resp);
    span.end();
    Fate::Continue
}

/// Deregister from the in-flight table and answer. Also applies the
/// chaos cache-poisoning hook: the entry is corrupted after this
/// response was computed but before it is sent, so the *next* reader of
/// the entry is deterministically the one who must detect the poison.
fn finish(inner: &Arc<Inner>, slot: usize, pending: &Pending, resp: Response) {
    lock(&inner.inflight).remove(&slot);
    if let Some(chaos) = &inner.chaos {
        if chaos.poison_cache(pending.key, pending.req.id) {
            inner.cache.corrupt(pending.key);
        }
    }
    respond(inner, pending, resp);
}

/// The single exit point for responses: counts `answered` and sends.
/// Send errors (client dropped its ticket) are deliberately ignored.
fn respond(inner: &Inner, pending: &Pending, resp: Response) {
    inner.tallies.answered.fetch_add(1, Ordering::SeqCst);
    inner.rec.count(Counter::PolarisdAnswered, 1);
    let _ = pending.tx.send(resp);
}

fn base_response(pending: &Pending, status: Status, attempts: u32) -> Response {
    Response {
        id: pending.req.id,
        status,
        exit_code: status.exit_code(),
        attempts,
        cached: false,
        checksum: None,
        run_checksum: None,
        parallel_loops: None,
        degraded_stages: Vec::new(),
        reason: None,
        retry_after_ms: None,
        program: None,
    }
}

fn rolled_back(report: &CompileReport) -> Vec<String> {
    report.rolled_back_stages().iter().map(|s| s.to_string()).collect()
}

fn note_quarantine(inner: &Inner, newly_opened: bool) {
    if newly_opened {
        inner.tallies.quarantined.fetch_add(1, Ordering::SeqCst);
        inner.rec.count(Counter::PolarisdQuarantined, 1);
    }
}

fn retry_after_hint(inner: &Inner) -> u64 {
    inner.cfg.breaker_cooldown.as_millis().max(1) as u64
}

fn cancel_reason(cancel: &CancelToken) -> String {
    cancel.reason().unwrap_or_else(|| "cancelled".into())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- watchdog --------------------------------------------------------

/// Deadline enforcement and worker supervision, on one timer thread.
fn watchdog_loop(inner: &Arc<Inner>) {
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(inner.cfg.watchdog_tick);

        // 1. Fire cancel tokens for in-flight requests past deadline.
        {
            let inflight = lock(&inner.inflight);
            let now = Instant::now();
            for fl in inflight.values() {
                if let Some(d) = fl.pending.deadline_at {
                    if now >= d && !fl.cancel.is_cancelled() {
                        let over = now.saturating_duration_since(d);
                        fl.cancel.cancel(format!(
                            "deadline exceeded by {}ms",
                            over.as_millis()
                        ));
                        inner.tallies.deadline_cancels.fetch_add(1, Ordering::SeqCst);
                        inner.rec.count(Counter::PolarisdDeadlineCancels, 1);
                    }
                }
            }
        }

        // 2. Respawn dead workers and recover their orphaned requests.
        //    (Skipped once shutdown began: workers exiting then are
        //    retiring, not dying — stop_and_join drains what remains.)
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        let dead: Vec<usize> = {
            let mut workers = lock(&inner.workers);
            let mut dead = Vec::new();
            for (slot, h) in workers.iter_mut().enumerate() {
                if h.as_ref().is_some_and(|j| j.is_finished()) {
                    let _ = h.take().expect("checked is_some").join();
                    dead.push(slot);
                }
            }
            dead
        };
        for slot in dead {
            if let Some(fl) = lock(&inner.inflight).remove(&slot) {
                let mut p = fl.pending;
                p.prior_attempts = fl.attempt.max(p.prior_attempts);
                if p.prior_attempts >= inner.cfg.retry.max_attempts() {
                    // The request itself keeps killing workers: stop
                    // feeding it workers and answer.
                    let resp = Response {
                        reason: Some("workers died repeatedly on this request".into()),
                        retry_after_ms: Some(retry_after_hint(inner)),
                        ..base_response(&p, Status::Rejected, p.prior_attempts)
                    };
                    respond(inner, &p, resp);
                } else {
                    let mut sched = lock(&inner.sched);
                    sched.push_front(p);
                    inner.available.notify_one();
                }
            }
            inner.tallies.respawns.fetch_add(1, Ordering::SeqCst);
            inner.rec.count(Counter::PolarisdWorkerRespawns, 1);
            let handle = spawn_worker(slot, Arc::clone(inner));
            lock(&inner.workers)[slot] = Some(handle);
        }
    }
}

/// Fetch-or-create the adaptive controller for a unit's content key.
/// Sharing the `Arc` (rather than the latest decision snapshot) is what
/// lets adaptation history accumulate across separate requests for the
/// same source.
fn adaptive_for(inner: &Inner, key: u64) -> Arc<AdaptiveController> {
    Arc::clone(
        lock(&inner.adaptive)
            .entry(key)
            .or_insert_with(|| Arc::new(AdaptiveController::new())),
    )
}

// ---- lock helpers ----------------------------------------------------

/// [`lock`]'s counterpart for a condition variable.
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

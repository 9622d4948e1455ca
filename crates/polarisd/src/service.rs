//! The resilience kernel: admission control, fair scheduling, a
//! panic-isolated worker pool with respawn, deadlines, retry, the circuit
//! breaker and the compile cache — wrapped around
//! `polaris_core::pipeline`.
//!
//! Design rules (crash-only service):
//!
//! * **Every accepted request is answered exactly once** — at admission,
//!   from the cache, or by a worker, by the shed path, by the watchdog's
//!   orphan recovery, or by the shutdown drain. No code path loses a
//!   ticket.
//! * **Nothing wedges a worker.** Compiles run under `catch_unwind` with
//!   a cooperative [`CancelToken`] the watchdog fires when the request's
//!   deadline passes; a pathological unit degrades, it does not hang.
//! * **Degradation ladder**: full compile → degraded compile (rolled-back
//!   stages) → serve-cached → reject-with-backoff-hint. Each rung is only
//!   taken when the rung above failed. One function decides a request's
//!   one response, rung by rung; the worker then answers it in one place.
//!   The cache rung also runs at admission, on the submitting thread, for
//!   a unit whose breaker is closed: a hit is answered there, and
//!   everything else is queued for the ladder.
//! * **The cache never lies.** Only clean compiles are inserted, every
//!   read is integrity-checked, and a poisoned entry is purged on sight.
//! * **State ends with its reason.** A client's queue exists while it has
//!   queued work, a unit's breaker entry while the unit is failing.

use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::cache::{CacheEntry, CacheOutcome, CompileCache};
use crate::chaos::ChaosPlan;
use crate::lock;
use crate::proto::{fnv1a, Request, Response, Status};
use crate::retry::{backoff, SplitMix, MAX_ATTEMPTS};
use polaris_core::{CancelToken, PassOptions, StageOutcome, CANCELLED_PREFIX};
use polaris_machine::{AdaptiveController, DecisionRow, Engine, MachineConfig, MachineError};
use polaris_obs::{Counter, Recorder};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Consecutive failures of one unit before its breaker opens.
const BREAKER_THRESHOLD: u32 = 3;
/// Watchdog poll interval (deadline enforcement + worker supervision).
const WATCHDOG_TICK: Duration = Duration::from_millis(2);

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads compiling requests.
    pub workers: usize,
    /// Bound on queued (not yet started) requests; beyond it the oldest
    /// queued request is shed.
    pub queue_capacity: usize,
    /// How long an open breaker waits before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
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
            breaker_cooldown: Duration::from_millis(250),
            default_deadline: None,
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

/// What the service counts, in [`ServiceStats`] field order: each event
/// is one stats field and one `polarisd.*` counter, bumped together.
#[derive(Clone, Copy)]
enum Event {
    Accepted,
    Answered,
    Shed,
    CacheHit,
    CacheMiss,
    PoisonPurged,
    Retry,
    DeadlineCancel,
    Quarantined,
    Probe,
    Recovered,
    Respawn,
}

const EVENTS: usize = Event::Respawn as usize + 1;

impl Event {
    fn counter(self) -> Counter {
        match self {
            Event::Accepted => Counter::PolarisdAccepted,
            Event::Answered => Counter::PolarisdAnswered,
            Event::Shed => Counter::PolarisdShed,
            Event::CacheHit => Counter::PolarisdCacheHits,
            Event::CacheMiss => Counter::PolarisdCacheMisses,
            Event::PoisonPurged => Counter::PolarisdCachePoisonPurged,
            Event::Retry => Counter::PolarisdRetries,
            Event::DeadlineCancel => Counter::PolarisdDeadlineCancels,
            Event::Quarantined => Counter::PolarisdQuarantined,
            Event::Probe => Counter::PolarisdProbes,
            Event::Recovered => Counter::PolarisdRecovered,
            Event::Respawn => Counter::PolarisdWorkerRespawns,
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
    /// The FIFO queue of each client with queued work; a queue leaves
    /// when it empties, so client names (wire input) cannot pile up.
    queues: HashMap<String, VecDeque<Pending>>,
    /// Round-robin order over the clients in `queues`, so one chatty
    /// client cannot starve the rest: the front is served next and goes
    /// to the back while it still has work; a client whose queue was
    /// empty joins at the back.
    rotation: VecDeque<String>,
    len: usize,
}

impl Sched {
    /// `client`'s queue, counted one request longer: the one lookup
    /// behind both pushes. A client with no queued work joins the
    /// rotation at the back.
    fn queue(&mut self, client: &str) -> &mut VecDeque<Pending> {
        if !self.queues.contains_key(client) {
            self.rotation.push_back(client.to_owned());
            self.queues.insert(client.to_owned(), VecDeque::new());
        }
        self.len += 1;
        self.queues.get_mut(client).expect("inserted above")
    }

    fn push_back(&mut self, p: Pending) {
        self.queue(&p.req.client).push_back(p);
    }

    /// Re-queue at the front (orphan recovery keeps its place in line).
    fn push_front(&mut self, p: Pending) {
        self.queue(&p.req.client).push_front(p);
    }

    fn pop(&mut self) -> Option<Pending> {
        let client = self.rotation.pop_front()?;
        let p = self.take(&client);
        if self.queues.contains_key(&client) {
            self.rotation.push_back(client);
        }
        p
    }

    /// Shed the oldest queued request (by enqueue time, across clients).
    fn shed_oldest(&mut self) -> Option<Pending> {
        let (at, _) = self
            .rotation
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| self.queues[c.as_str()].front().map(|p| p.enqueued))?;
        let client = self.rotation[at].clone();
        let p = self.take(&client);
        if !self.queues.contains_key(&client) {
            self.rotation.remove(at);
        }
        p
    }

    /// Dequeue the front of `client`'s queue, dropping the queue when it
    /// empties (the caller keeps `rotation` in step).
    fn take(&mut self, client: &str) -> Option<Pending> {
        let q = self.queues.get_mut(client)?;
        let p = q.pop_front();
        if q.is_empty() {
            self.queues.remove(client);
        }
        self.len -= 1;
        p
    }

    fn drain(&mut self) -> Vec<Pending> {
        let Sched { queues, rotation, len, .. } = self;
        *len = 0;
        rotation.drain(..).flat_map(|c| queues.remove(&c).unwrap_or_default()).collect()
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
    chaos: Option<ChaosPlan>,
    stop: AtomicBool,
    /// One tally per [`Event`].
    tallies: [AtomicU64; EVENTS],
    /// Per-unit adaptive schedulers, keyed by content hash so the
    /// adaptation history survives cache purges and re-submissions of
    /// the same source (`adaptive_schedule` only).
    adaptive: Mutex<HashMap<u64, Arc<AdaptiveController>>>,
}

/// The crash-only compile service. See the module docs for the contract.
pub struct Service {
    inner: Arc<Inner>,
}

/// The chaos plan killed this worker: it exits without answering, and
/// the watchdog recovers the orphaned request and respawns the slot.
struct Died;

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
    pub fn with_chaos(cfg: ServiceConfig, rec: Recorder, chaos: ChaosPlan) -> Service {
        Service::build(cfg, rec, Some(chaos))
    }

    fn build(cfg: ServiceConfig, rec: Recorder, chaos: Option<ChaosPlan>) -> Service {
        let inner = Arc::new(Inner {
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, cfg.breaker_cooldown),
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
            tallies: Default::default(),
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

    /// Admission control. Always returns a ticket that will resolve. A
    /// cache hit of a unit whose breaker is closed is answered here, on
    /// the calling thread; other accepted requests are queued (shedding
    /// the oldest queued request when the queue is full). After shutdown
    /// began, the request is immediately answered `rejected`.
    pub fn submit(&self, req: Request) -> Ticket {
        let inner = &self.inner;
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(inner.cfg.default_deadline);
        let pending = Pending {
            key: Service::content_key(&req),
            deadline_at: deadline.map(|d| now + d),
            enqueued: now,
            prior_attempts: 0,
            req,
            tx,
        };
        if inner.stop.load(Ordering::SeqCst) {
            let _ = pending.tx.send(shutting_down(&pending));
            return Ticket { rx };
        }
        inner.count(Event::Accepted);
        // Rung 2 of the ladder, here: with the breaker closed, `admit`
        // would answer `Proceed { probe: false }`, so a hit is the answer
        // a worker would give.
        if inner.breaker.state(pending.key) == BreakerState::Closed {
            if let Some(resp) = from_cache(inner, &pending) {
                finish(inner, &pending, resp);
                return Ticket { rx };
            }
        }
        let shed_victim = {
            let mut sched = lock(&inner.sched);
            // Under the lock a retiring worker decides under: nothing is
            // queued after the last worker has left.
            if inner.stop.load(Ordering::SeqCst) {
                drop(sched);
                respond(inner, &pending, shutting_down(&pending));
                return Ticket { rx };
            }
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
            inner.count(Event::Shed);
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
        self.inner.stats()
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
        self.inner.stats()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.inner.stop_and_join();
    }
}

impl Inner {
    /// Count one event in the stats and in the recorder.
    fn count(&self, event: Event) {
        self.tallies[event as usize].fetch_add(1, Ordering::SeqCst);
        self.rec.count(event.counter(), 1);
    }

    fn stats(&self) -> ServiceStats {
        let [accepted, answered, shed, cache_hits, cache_misses, poison_purged, retries,
            deadline_cancels, quarantined, probes, recovered, respawns] =
            self.tallies.each_ref().map(|t| t.load(Ordering::SeqCst));
        ServiceStats {
            accepted,
            answered,
            shed,
            cache_hits,
            cache_misses,
            poison_purged,
            retries,
            deadline_cancels,
            quarantined,
            probes,
            recovered,
            respawns,
        }
    }

    fn stop_and_join(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // `stop` refuses new work; let the queue drain (bounded wait).
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
            respond(self, &p, shutting_down(&p));
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
        // Register before anything can fail so the watchdog can always see
        // (and recover) this request.
        lock(&inner.inflight).insert(
            slot,
            InFlight { pending: pending.clone(), cancel: CancelToken::new(), attempt: 0 },
        );
        let tid = 100 + slot as u32;
        let span =
            inner.rec.span_with("polarisd", format!("request:{}", pending.req.id), tid, None, None);
        // The whole ladder runs under catch_unwind: a bug in the service
        // itself must not kill the worker silently — the request is
        // answered `rejected` and the worker keeps serving.
        let resp = match catch_unwind(AssertUnwindSafe(|| ladder(inner, slot, tid, &pending))) {
            Ok(Ok(resp)) => resp,
            // Die *without* responding or deregistering: exactly what a
            // hard worker crash looks like. The watchdog notices the dead
            // thread, re-queues the orphan, and respawns.
            Ok(Err(Died)) => return,
            Err(_) => {
                let attempts = lock(&inner.inflight).get(&slot).map_or(0, |fl| fl.attempt);
                Response {
                    reason: Some("internal service panic".into()),
                    ..base_response(&pending, Status::Rejected, attempts)
                }
            }
        };
        lock(&inner.inflight).remove(&slot);
        finish(inner, &pending, resp);
        span.end();
    }
}

/// The degradation ladder (see the module docs): the one response to
/// `pending`, or [`Died`] when the chaos plan killed this worker.
fn ladder(inner: &Inner, slot: usize, tid: u32, pending: &Pending) -> Result<Response, Died> {
    let key = pending.key;

    // 1. Circuit breaker: quarantined units are answered from stored
    //    diagnostics without touching the pipeline.
    let probe = match inner.breaker.admit(key) {
        Admission::Quarantined { reason, diagnostics } => {
            return Ok(Response {
                reason: Some(reason),
                degraded_stages: diagnostics,
                retry_after_ms: Some(retry_after_hint(inner)),
                ..base_response(pending, Status::Quarantined, 0)
            });
        }
        Admission::Proceed { probe } => probe,
    };

    // 2. Cache. A half-open probe must actually compile (that is its
    //    job), so it skips the read. A miss is counted here, once, even
    //    when `submit` read the cache first.
    if probe {
        inner.count(Event::Probe);
    } else if let Some(resp) = from_cache(inner, pending) {
        return Ok(resp);
    } else {
        inner.count(Event::CacheMiss);
    }

    // 3. Compile attempts with bounded retry.
    let mut rng = SplitMix::new(key ^ pending.req.id.wrapping_mul(0x9e3779b97f4a7c15));
    let mut attempt = pending.prior_attempts;
    let mut last_failure = String::new();
    while attempt < MAX_ATTEMPTS {
        attempt += 1;
        match compile_attempt(inner, slot, tid, pending, attempt)? {
            Attempt::Answer(resp) => return Ok(resp),
            Attempt::Retry(why) => last_failure = why,
        }
        if attempt >= MAX_ATTEMPTS {
            break;
        }
        // Backoff before the retry, but never past the deadline.
        inner.count(Event::Retry);
        let mut pause = backoff(attempt, &mut rng);
        if let Some(d) = pending.deadline_at {
            pause = pause.min(d.saturating_duration_since(Instant::now()));
        }
        std::thread::sleep(pause);
    }

    // 4. Retries exhausted with no usable program: serve-cached, then
    //    reject with a backoff hint.
    if let CacheOutcome::Hit(entry) = inner.cache.lookup(key, &pending.req.source) {
        inner.count(Event::CacheHit);
        let reason = format!("served from cache after: {last_failure}");
        return Ok(cached(pending, entry, attempt, Some(reason)));
    }
    Ok(Response {
        reason: Some(format!("retries exhausted: {last_failure}")),
        retry_after_ms: Some(retry_after_hint(inner)),
        ..base_response(pending, Status::Rejected, attempt)
    })
}

/// What one compile attempt decided.
enum Attempt {
    /// The request's response: no retry can improve on it.
    Answer(Response),
    /// A transient failure, already charged to the breaker: retry it, or
    /// after the last attempt take the serve-cached and reject rungs.
    Retry(String),
}

/// One compile of `pending` (and, with `exec_engine`, one execution).
fn compile_attempt(
    inner: &Inner,
    slot: usize,
    tid: u32,
    pending: &Pending,
    attempt: u32,
) -> Result<Attempt, Died> {
    let (key, req_id) = (pending.key, pending.req.id);
    let chaos = inner.chaos.as_ref();

    // Publish the attempt number *before* anything can kill this
    // worker: the watchdog charges the orphan `prior_attempts` from
    // the in-flight record, which is what stops a request that kills
    // workers on attempt 1 from being re-run at attempt 1 forever.
    let cancel = CancelToken::new();
    if let Some(fl) = lock(&inner.inflight).get_mut(&slot) {
        fl.cancel = cancel.clone();
        fl.attempt = attempt;
    }
    if chaos.is_some_and(|c| c.kill_worker(key, req_id, attempt)) {
        return Err(Died);
    }

    // Deadline already gone? Answer without burning a compile.
    if pending.deadline_at.is_some_and(|d| Instant::now() >= d) {
        return Ok(Attempt::Answer(Response {
            reason: Some("deadline exceeded before compile".into()),
            retry_after_ms: Some(retry_after_hint(inner)),
            ..base_response(pending, Status::Timeout, attempt - 1)
        }));
    }
    let faults = chaos.map(|c| c.compile_faults(key, req_id, attempt)).unwrap_or_default();
    let base = if pending.req.vfa { PassOptions::vfa() } else { PassOptions::polaris() };
    let opts = base.with_faults(faults);
    let exec_panic = chaos
        .and_then(|c| c.exec_panic(key, req_id, attempt))
        .filter(|_| inner.cfg.exec_engine.is_some());

    let attempt_span =
        inner.rec.span_with("polarisd", format!("attempt:{attempt}"), tid, None, None);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut program = polaris_ir::parse(&pending.req.source)?;
        let report =
            polaris_core::compile_cancellable(&mut program, &opts, &Recorder::disabled(), &cancel)?;
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
                    if chaos.is_some_and(|c| c.corrupt_decision_table(key, req_id, attempt)) {
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

    let (program, report, run) = match outcome {
        Ok(Ok(done)) => done,
        // Deterministic failure: same input fails the same way every
        // time — answering fast beats retrying, and the breaker is
        // not charged (the unit is not *flaky*, it is wrong).
        Ok(Err(e)) => {
            return Ok(Attempt::Answer(Response {
                reason: Some(format!("compile error: {e}")),
                ..base_response(pending, Status::Error, attempt)
            }));
        }
        // The compile itself panicked past the pipeline's isolation (or
        // the parser did): transient, retry.
        Err(payload) => {
            let why = format!("panic: {}", panic_text(payload.as_ref()));
            charge(inner, key, &why);
            return Ok(Attempt::Retry(why));
        }
    };
    let stages: Vec<String> =
        report.rolled_back_stages().iter().map(|s| s.to_string()).collect();
    let cancelled = report.stages.iter().any(|s| match &s.outcome {
        StageOutcome::RolledBack { reason } => reason.starts_with(CANCELLED_PREFIX),
        _ => false,
    });
    // Degraded (a stage panicked, errored, or corrupted its IR and was
    // rolled back): transient by assumption — retry; on the last
    // attempt, serve the degraded result rather than nothing.
    let mut degraded = None;
    if !cancelled && !stages.is_empty() {
        let why = format!("degraded: rolled back {}", stages.join(", "));
        charge(inner, key, &why);
        if attempt < MAX_ATTEMPTS {
            return Ok(Attempt::Retry(why));
        }
        degraded = Some(why);
    }

    let text = polaris_ir::printer::print_program(&program);
    let parallel_loops = report.parallel_loops() as u64;
    let compiled = |status| Response {
        checksum: Some(fnv1a(text.as_bytes())),
        parallel_loops: Some(parallel_loops),
        ..base_response(pending, status, attempt)
    };
    let served = pending.req.return_program.then(|| text.clone());
    let resp = if cancelled {
        // Deadline blew mid-compile. Retrying would blow it again —
        // serve what the completed stages produced.
        let why = format!("deadline: {}", cancel.reason().unwrap_or_else(|| "cancelled".into()));
        charge(inner, key, &why);
        Response {
            degraded_stages: stages,
            reason: Some(why),
            program: served,
            ..compiled(Status::Degraded)
        }
    } else if let Some(why) = degraded {
        Response {
            exit_code: if report.verify.violations > 0 { 2 } else { 1 },
            degraded_stages: stages,
            reason: Some(why),
            program: served,
            ..compiled(Status::Degraded)
        }
    } else {
        match run {
            // Deadline fired mid-execution: like mid-compile
            // cancellation, a retry would blow it again — serve the
            // clean compile, degraded.
            Some(Err(MachineError::Cancelled(why))) => {
                charge(inner, key, &format!("deadline: {why}"));
                Response {
                    reason: Some(format!("deadline during execution: {why}")),
                    program: served,
                    ..compiled(Status::Degraded)
                }
            }
            // Deterministic execution failure (bad subscript, fuel
            // exhausted, …): same input fails the same way every time —
            // answer, never retry.
            Some(Err(e)) => Response {
                reason: Some(format!("execution error: {e}")),
                ..compiled(Status::Error)
            },
            run => {
                let run_checksum =
                    run.and_then(Result::ok).map(|r| fnv1a(r.output.join("\n").as_bytes()));
                let resp = Response { run_checksum, program: served, ..compiled(Status::Ok) };
                // Clean: the only result that may enter the cache.
                inner.cache.store(key, &pending.req.source, text, parallel_loops);
                if inner.breaker.record_success(key) {
                    inner.count(Event::Recovered);
                }
                resp
            }
        }
    };
    Ok(Attempt::Answer(resp))
}

/// Rung 2, the integrity-checked cache read, for the ladder and for
/// `submit`: a hit is the response. A poisoned entry is purged and
/// counted where it is found; a miss is the caller's to count, because
/// the worker reads again after a miss at admission.
fn from_cache(inner: &Inner, pending: &Pending) -> Option<Response> {
    match inner.cache.lookup(pending.key, &pending.req.source) {
        CacheOutcome::Hit(entry) => {
            inner.count(Event::CacheHit);
            Some(cached(pending, entry, 0, None))
        }
        CacheOutcome::Poisoned => {
            inner.count(Event::PoisonPurged);
            None
        }
        CacheOutcome::Miss => None,
    }
}

/// Answer what a ladder rung decided, on a worker or at admission: the
/// one place such a response leaves. Also applies the chaos
/// cache-poisoning hook: the entry is corrupted after this response was
/// computed but before it is sent, so the *next* reader of the entry is
/// deterministically the one who must detect the poison.
fn finish(inner: &Inner, pending: &Pending, resp: Response) {
    if inner.chaos.as_ref().is_some_and(|c| c.poison_cache(pending.key, pending.req.id)) {
        inner.cache.corrupt(pending.key);
    }
    respond(inner, pending, resp);
}

/// The single exit point for responses: counts `answered` and sends.
/// Send errors (client dropped its ticket) are deliberately ignored.
fn respond(inner: &Inner, pending: &Pending, resp: Response) {
    inner.count(Event::Answered);
    let _ = pending.tx.send(resp);
}

fn base_response(pending: &Pending, status: Status, attempts: u32) -> Response {
    Response { attempts, ..Response::empty(pending.req.id, status) }
}

/// The answer to a request that arrives, or is left over, once shutdown
/// began.
fn shutting_down(pending: &Pending) -> Response {
    Response {
        reason: Some("service shutting down".into()),
        ..base_response(pending, Status::Rejected, 0)
    }
}

/// Served from a cache entry.
fn cached(pending: &Pending, entry: CacheEntry, attempts: u32, reason: Option<String>) -> Response {
    Response {
        cached: true,
        checksum: Some(entry.checksum),
        parallel_loops: Some(entry.parallel_loops),
        reason,
        program: pending.req.return_program.then_some(entry.program_text),
        ..base_response(pending, Status::Cached, attempts)
    }
}

/// Charge a transient failure to the unit's breaker.
fn charge(inner: &Inner, key: u64, why: &str) {
    if inner.breaker.record_failure(key, why) {
        inner.count(Event::Quarantined);
    }
}

fn retry_after_hint(inner: &Inner) -> u64 {
    inner.cfg.breaker_cooldown.as_millis().max(1) as u64
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
        std::thread::sleep(WATCHDOG_TICK);

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
                        inner.count(Event::DeadlineCancel);
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
                recover_orphan(inner, fl);
            }
            inner.count(Event::Respawn);
            let handle = spawn_worker(slot, Arc::clone(inner));
            lock(&inner.workers)[slot] = Some(handle);
        }
    }
}

/// Put a dead worker's request back at the front of its client's line,
/// charged the attempts it burned — or, once it has burned them all,
/// stop feeding it workers and answer.
fn recover_orphan(inner: &Inner, fl: InFlight) {
    let mut p = fl.pending;
    p.prior_attempts = fl.attempt.max(p.prior_attempts);
    if p.prior_attempts >= MAX_ATTEMPTS {
        let resp = Response {
            reason: Some("workers died repeatedly on this request".into()),
            retry_after_ms: Some(retry_after_hint(inner)),
            ..base_response(&p, Status::Rejected, p.prior_attempts)
        };
        respond(inner, &p, resp);
    } else {
        lock(&inner.sched).push_front(p);
        inner.available.notify_one();
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

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "program t\nx = 1.0\nprint *, x\nend\n";

    fn pending(id: u64, client: &str) -> (Pending, mpsc::Receiver<Response>) {
        pending_of(Request {
            id,
            client: client.into(),
            vfa: false,
            deadline_ms: None,
            return_program: false,
            source: SOURCE.into(),
        })
    }

    fn pending_of(req: Request) -> (Pending, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        let key = Service::content_key(&req);
        let enqueued = Instant::now();
        (Pending { req, key, deadline_at: None, enqueued, prior_attempts: 0, tx }, rx)
    }

    fn pop_all(sched: &mut Sched) -> Vec<u64> {
        std::iter::from_fn(|| sched.pop()).map(|p| p.req.id).collect()
    }

    #[test]
    fn sched_keeps_no_queue_for_a_client_without_queued_work() {
        let mut sched = Sched::default();
        for id in 0..100_000 {
            sched.push_back(pending(id, &format!("client-{id}")).0);
        }
        let held = |s: &Sched| (s.len, s.queues.len(), s.rotation.len());
        assert_eq!(held(&sched), (100_000, 100_000, 100_000));
        assert_eq!(pop_all(&mut sched), (0..100_000).collect::<Vec<_>>());
        assert_eq!(held(&sched), (0, 0, 0));

        // Shedding the last request of a client drops its queue too.
        sched.push_back(pending(1, "old").0);
        sched.push_back(pending(2, "new").0);
        assert_eq!(sched.shed_oldest().map(|p| p.req.id), Some(1));
        assert_eq!(sched.rotation, ["new"]);
        assert_eq!(pop_all(&mut sched), [2]);
        assert!(sched.queues.is_empty() && sched.rotation.is_empty());
    }

    #[test]
    fn sched_round_robins_over_the_clients_with_queued_work() {
        let mut sched = Sched::default();
        for (id, client) in [(1, "a"), (2, "a"), (3, "b"), (4, "c"), (5, "c"), (6, "c")] {
            sched.push_back(pending(id, client).0);
        }
        assert_eq!(pop_all(&mut sched), [1, 3, 4, 2, 5, 6]);

        // A client whose queue emptied joins the rotation at the back;
        // a re-queued orphan goes to the front of its client's line.
        for (id, client) in [(1, "a"), (2, "a"), (3, "b")] {
            sched.push_back(pending(id, client).0);
        }
        assert_eq!(sched.pop().map(|p| p.req.id), Some(1));
        assert_eq!(sched.pop().map(|p| p.req.id), Some(3));
        sched.push_back(pending(4, "b").0);
        sched.push_front(pending(5, "b").0);
        assert_eq!(pop_all(&mut sched), [2, 5, 4]);
        assert!(sched.queues.is_empty() && sched.rotation.is_empty());
    }

    fn ladder_of(inner: &Inner, p: &Pending) -> Response {
        let Ok(resp) = ladder(inner, 0, 100, p) else { panic!("no chaos plan, no death") };
        resp
    }

    /// The two rungs after the last attempt failed transiently. No chaos
    /// plan reaches them (its faults fire on attempt 1 only), so the
    /// request arrives with every attempt already spent.
    #[test]
    fn a_request_out_of_attempts_is_served_from_cache_or_rejected() {
        let cfg = ServiceConfig { breaker_cooldown: Duration::ZERO, ..ServiceConfig::default() };
        let service = Service::new(cfg);
        let inner = &service.inner;
        let (mut p, _rx) = pending(1, "t");
        p.prior_attempts = MAX_ATTEMPTS;

        let rejected = ladder_of(inner, &p);
        assert_eq!(
            (rejected.status, rejected.exit_code, rejected.attempts, rejected.cached),
            (Status::Rejected, 1, MAX_ATTEMPTS, false)
        );
        assert_eq!(rejected.reason.as_deref(), Some("retries exhausted: "));
        assert!(rejected.retry_after_ms.is_some() && rejected.checksum.is_none());

        // A probe skips the first cache read, so an entry that appeared
        // meanwhile is what the last rung but one serves.
        for _ in 0..BREAKER_THRESHOLD {
            charge(inner, p.key, "panic: injected");
        }
        inner.cache.store(p.key, SOURCE, "program t\nend\n".into(), 0);
        let cached = ladder_of(inner, &p);
        assert_eq!(
            (cached.status, cached.exit_code, cached.attempts, cached.cached),
            (Status::Cached, 0, MAX_ATTEMPTS, true)
        );
        assert_eq!(cached.reason.as_deref(), Some("served from cache after: "));
        assert!(cached.retry_after_ms.is_none() && cached.checksum.is_some());
        let stats = service.stats();
        assert_eq!((stats.probes, stats.cache_hits, stats.cache_misses), (1, 1, 1), "{stats:?}");
    }

    /// A key collision: B's key holds A's clean compile, as a source
    /// whose hash equals B's would leave it. B is compiled and run, never
    /// served A's program.
    #[test]
    fn a_colliding_cache_entry_is_never_served_to_another_source() {
        let other = "program u\ny = 2.0\nprint *, y + 1.0\nend\n";
        let request = |id, source: &str| Request {
            id,
            client: "t".into(),
            vfa: false,
            deadline_ms: None,
            return_program: true,
            source: source.into(),
        };
        let cfg = || ServiceConfig { exec_engine: Some(Engine::Vm), ..ServiceConfig::default() };
        let answer = |service: &Service, req| ladder_of(&service.inner, &pending_of(req).0);

        let service = Service::new(cfg());
        let a = answer(&service, request(1, SOURCE));
        let b_key = Service::content_key(&request(2, other));
        let a_program = a.program.clone().expect("A's program");
        service.inner.cache.store(b_key, SOURCE, a_program, a.parallel_loops.unwrap_or(0));
        let b = answer(&service, request(2, other));
        let fresh = answer(&Service::new(cfg()), request(2, other));
        assert_eq!((b.status, b.cached), (Status::Ok, false), "{b:?}");
        assert_eq!((&b.program, b.run_checksum), (&fresh.program, fresh.run_checksum));
        assert!(b.program != a.program && b.run_checksum != a.run_checksum, "{a:?}");
    }

    #[test]
    fn an_orphan_is_requeued_until_it_has_spent_every_attempt() {
        let service = Service::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let inner = &service.inner;
        let orphan = |p| InFlight { pending: p, cancel: CancelToken::new(), attempt: 0 };

        let (p, rx) = pending(1, "t");
        recover_orphan(inner, InFlight { attempt: 1, ..orphan(p) });
        let resp = rx.recv_timeout(Duration::from_secs(20)).unwrap();
        assert_eq!((resp.status, resp.attempts), (Status::Ok, 2), "{resp:?}");

        let (p, rx) = pending(2, "t");
        recover_orphan(inner, InFlight { attempt: MAX_ATTEMPTS, ..orphan(p) });
        let resp = rx.try_recv().expect("answered on the spot, not re-queued");
        assert_eq!(
            (resp.status, resp.exit_code, resp.attempts, resp.cached),
            (Status::Rejected, 1, MAX_ATTEMPTS, false)
        );
        assert_eq!(resp.reason.as_deref(), Some("workers died repeatedly on this request"));
        assert!(resp.retry_after_ms.is_some() && resp.checksum.is_none());
    }
}

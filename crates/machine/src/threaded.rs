//! Real-thread execution backend for `PARALLEL DO` and `SPECULATIVE`
//! loops.
//!
//! The simulated machine (`exec::run_concurrent`) charges iterations to
//! per-processor cycle buckets but executes them sequentially. This
//! module is the other half of the story: loops the pipeline proved
//! parallel, and loops it left to the run-time PD test (§3.5), are
//! lowered to chunked iteration-space work lists and executed by the
//! calling thread and its helper OS threads, the way the paper's SGI
//! backend consumed Polaris directives. The helpers outlive the run
//! ([`HELPERS`]) and poll before they park ([`SPIN`]), so a fork costs
//! a queue hand-off, not a spawn or a wake-up.
//!
//! A thread touches shared memory only where a thread must — the chunk
//! claim, the job queue and the join channel. Four rules keep it so:
//!
//! * **Every thread counts its own fuel.** A lane's interpreter starts
//!   from the master's step count at the fork, so each thread is held to
//!   the remaining budget on its own counter. A lane returns the steps
//!   it took; the master adds them and applies the limit once after the
//!   join, to the total a serial run would have counted. Nothing is
//!   shared, so a run with no fuel limit, cancel token or panic hook
//!   counts nothing at all: it executes the `Step`-free bytecode serial
//!   runs do.
//! * **The master is lane 0.** The calling thread runs the first lane
//!   itself; a fork grows its pool to `procs - 1` helpers. A panic in the
//!   master's lane is caught like a helper's and reported the same, and
//!   leaves the helpers as they were.
//! * **The fork waits for the guard.** The master starts alone and goes
//!   on to the next lane when one is done. Before each piece it claims
//!   it checks the cycles it has executed against the threshold of the
//!   bill's profitability guard (`Interp::guard_threshold`); from there
//!   the lanes nobody has started go to the helpers, and a loop that
//!   ends under it — one the bill charges as the serial side of the
//!   generated `IF` — never wakes anyone. Each lane is its own
//!   interpreter over the pre-fork snapshot and claims through the same
//!   [`Claims`] whoever runs it, so nothing below can tell. Under
//!   `Static` a lane steals the back of another's block when its own is
//!   done, so the master, which forks late, takes the rest of the
//!   helpers' blocks while they start.
//! * **A lane runs like a serial loop.** Each piece a lane claims is
//!   one range of iterations, one VM activation ([`Interp::run_range`]),
//!   as a simulated chunk is.
//! * **Every lane marks its own shadows.** In a `SPECULATIVE` loop a lane
//!   marks what its iterations touch of each speculated array on a
//!   lane-private [`Shadow`], stamped with the iteration index exactly as
//!   the in-order simulation stamps its one shadow. The PD test is
//!   [`PdVerdict::of`] over all the lanes' shadows, at the join.
//!
//! **Commit all of it or none of it.** If no lane's reduction log filled
//! up and, in a `SPECULATIVE` loop, every speculated array passes the
//! test and no lane reported an error, the lanes are committed (up to its
//! first stale read a speculating lane's execution *is* the sequential
//! one). Anything else — a full log, a failed verdict, *any* lane error or
//! fuel-out in a speculation (a lane that read a pre-loop value may fault
//! where the serial loop does not) — drops the lanes wholesale (arrays,
//! output, steps, loop stats; the master ran lane 0 on a copy too), and
//! the invocation runs in order from the untouched state
//! (`Interp::run_simulated`). That *is* the serial execution, and the one
//! reporter of verdict, error, steps and the attempt + re-execution bill,
//! so none of them can differ between the backends. A lane panic is
//! `WorkerPanicked`, as in any loop.
//!
//! **The validator forks through the same [`join`].** `run_validated`'s
//! adversarial run forks each `PARALLEL DO` as one lane on the calling
//! thread: one-iteration pieces claimed last to first, what the loop
//! privatizes poisoned before each. So `--validate` checks an annotation
//! and the join together.
//!
//! Correctness contract — results must be **deterministic and identical
//! to serial execution** even though execution order is not:
//!
//! * Every worker starts from a copy-on-write snapshot of the shared
//!   state. A lane copies the scalars, one handle per array on its
//!   elements and one reference to the image's shape table (names and
//!   layouts are never copied): the fork makes every array shared with
//!   the snapshot — `ArrStore::share` — and a lane's handle its own copy
//!   at the lane's first store into it. Privatized variables are thereby
//!   trivially private.
//! * Reductions fold **in serial order** ([`RedLog`]): a lane logs what
//!   each reduction store adds, in the order it runs them, in one log
//!   for all its pieces, and the join replays each piece's part of its
//!   lane's log in piece-index order — serial's own fold,
//!   whatever the thread count and the schedule.
//! * Shared arrays are committed by diffing each worker's copy against
//!   the pre-fork snapshot (a copy that still *is* the snapshot was
//!   never written; otherwise bit-level comparison, so `-0.0` vs `0.0`
//!   and NaN payloads are preserved) and applying only written elements,
//!   in worker order (the first writer's copy is adopted whole, by move, and
//!   later writers merge into it in place — [`commit_array`]). A
//!   correctly-parallelized loop writes disjoint
//!   elements, so the order cannot matter; if a miscompile makes writes
//!   collide, the equivalence tests catch the divergence.
//! * Worker output (PRINT) and copy-out scalars are committed in piece
//!   order; errors are reported for the smallest failing iteration
//!   index, matching what sequential execution would hit first, and the
//!   settled fuel total is checked after them.
//! * Loops that lowering marked `in_order` never get here — a body that
//!   may `STOP` (a mid-loop STOP must suppress later iterations), a
//!   `SPECULATIVE` body in which a stale value could reach an inner `DO`
//!   (and keep a lane running long after the serial loop is done):
//!   `Interp::run_concurrent` keeps them on the simulated path.
//!
//! Simulated cycle accounting is maintained alongside real execution:
//! per-piece cycle deltas fold back to their plan chunk, whose total goes
//! to the bucket the shared [`ChunkPlan`] names and through the same
//! `Interp::bill_invocation` the simulator pays, so `--diag`-style
//! speedup *models* are identical between `ExecMode::Simulated` and
//! `ExecMode::Threaded`.

use crate::claims::Claims;
use crate::dispatch::{ChunkPlan, IterSpace};
use crate::error::MachineError;
use crate::exec::{ArmRange, Flow, Interp};
use crate::lower::{RLoop, RPar, RRed, RRef};
use crate::lrpd::{PdVerdict, Shadow};
use crate::value::{ArrData, ArrStore, Scalar, Shape};
use crate::MachineConfig;
use polaris_ir::expr::RedOp;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---- the persistent worker pool --------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle helper polls the job queue, and the master the join
/// channel, before parking. On the 2-core development host a round trip
/// between two parked threads takes ≈ 30 µs (median) and between two
/// polling ones ≈ 1 µs; the forks of a run arrive microseconds to tens
/// of microseconds apart.
const SPIN: Duration = Duration::from_micros(50);

thread_local! {
    /// The calling thread's helpers: created by its first fork that passes
    /// the guard, reused by every later run on this thread and grown when
    /// one needs more, so a fork is a queue hand-off, not a spawn.
    static HELPERS: RefCell<ThreadPool> = RefCell::new(ThreadPool::new());
}

#[cfg(test)]
thread_local! {
    /// Helper threads this thread has spawned, and lanes it has handed them.
    static HELPER_COUNTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// `rx.recv()`, after polling it for up to [`SPIN`]: a message that
/// arrives within the bound costs neither side a wake-up.
fn recv_spinning<T>(rx: &mpsc::Receiver<T>) -> Result<T, mpsc::RecvError> {
    let until = Instant::now() + SPIN;
    loop {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) if Instant::now() >= until => return rx.recv(),
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
        }
    }
}

/// A pool of OS threads fed from one shared job queue: the helpers
/// beside the calling thread. It starts empty and [`ThreadPool::grow`]s;
/// dropping it (with the thread that owns it) stops the helpers.
struct ThreadPool {
    tx: Option<mpsc::Sender<Job>>,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    fn new() -> ThreadPool {
        let (tx, rx) = mpsc::channel::<Job>();
        ThreadPool { tx: Some(tx), rx: Arc::new(Mutex::new(rx)), workers: Vec::new() }
    }

    /// A pool whose queue lock is already poisoned when the workers first
    /// touch it — the state a panic-while-holding-the-lock leaves behind.
    /// Test hook for the poisoned-lock recovery path in the worker loop.
    #[cfg(test)]
    fn new_with_poisoned_queue_lock() -> ThreadPool {
        let pool = ThreadPool::new();
        let poisoner = Arc::clone(&pool.rx);
        let t = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("injected: poison the pool queue lock");
        });
        assert!(t.join().is_err(), "poisoning thread must have panicked");
        pool
    }

    /// Spawn helpers until there are `threads`.
    fn grow(&mut self, threads: usize) {
        while self.workers.len() < threads {
            #[cfg(test)]
            HELPER_COUNTS.with(|c| c.set((c.get().0 + 1, c.get().1)));
            let rx = Arc::clone(&self.rx);
            let worker = std::thread::Builder::new()
                .name(format!("polaris-worker-{}", self.workers.len()))
                .spawn(move || loop {
                    // A panic while the lock is held (a job that
                    // unwinds between recv and release, or a poison
                    // injected by a test) poisons the mutex for every
                    // worker. The receiver itself is still intact —
                    // poisoning only records that *some* thread
                    // panicked — so recover the guard instead of
                    // dying, or the pool silently shrinks one worker
                    // per poison until submits hang forever.
                    let job = recv_spinning(&rx.lock().unwrap_or_else(PoisonError::into_inner));
                    match job {
                        Ok(job) => {
                            // A panicking job must not take the pool
                            // down: swallow it here; the main thread
                            // notices the missing result.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                        Err(_) => return, // pool dropped
                    }
                })
                .expect("spawn worker thread");
            self.workers.push(worker);
        }
    }

    fn submit(&self, job: Job) {
        self.tx
            .as_ref()
            .expect("pool is live")
            .send(job)
            .expect("worker threads alive");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnect: workers drain and exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

// ---- worker-side results ---------------------------------------------

/// What a lane ran of one piece of the plan ([`Claims`]).
struct PieceOut {
    p: usize,
    cycles: u64,
    output: Vec<String>,
    /// Copy-out scalar values captured after the final iteration
    /// (only set on the piece holding it).
    copy_out: Option<Vec<(usize, Scalar)>>,
}

struct WorkerOut {
    wid: usize,
    arrays: Vec<ArrStore>,
    loops: Vec<Option<(String, crate::exec::LoopExecStats)>>,
    /// In the order the lane ran them, which is the order of their
    /// updates in `log`.
    pieces: Vec<PieceOut>,
    /// The lane's reduction log, when the loop reduces.
    log: Option<Box<RedLog>>,
    /// The lane's marks on each array a `SPECULATIVE` loop tracks, in
    /// `l.par.spec_arrays` order.
    shadows: Vec<(usize, Shadow)>,
    /// Fuel steps the lane took: its count less the master's at the fork.
    steps: u64,
    /// First failing iteration index and its error, if any.
    err: Option<(u64, MachineError)>,
    /// The lane's `Interp::{activations, dispatches}`.
    #[cfg(test)]
    fence: (u64, u64),
}

/// Everything a lane needs, owned, so a helper's job closure is `'static`.
struct WorkerTask {
    wid: usize,
    l: Arc<RLoop>,
    space: IterSpace,
    claims: Arc<Claims>,
    cfg: MachineConfig,
    scalars: Vec<Scalar>,
    shapes: Arc<[Shape]>,
    arrays: Vec<ArrStore>,
    /// The master's step count at the fork, where the lane's own starts.
    steps: u64,
    /// Bytecode of the running unit + where this loop's body starts in
    /// it, when the VM engine drives execution (`None` pair = tree-walk).
    bc: Option<Arc<crate::bytecode::BcUnit>>,
    body: Option<u32>,
}

/// Run lane `task.wid` on the calling thread: claim pieces until none
/// are left for it, each run as one range ([`Interp::run_range`]).
/// `before_piece` gets the lane's interpreter before each piece.
fn worker_run(task: WorkerTask, mut before_piece: impl FnMut(&mut Interp<'_>)) -> WorkerOut {
    let WorkerTask { wid, l, space, claims, cfg, scalars, shapes, arrays, steps, bc, body } = task;
    let mut it = Interp::over(&cfg, scalars, shapes, arrays, steps);
    it.in_parallel = true;
    it.bc = bc;
    it.spec = it.fresh_shadows(&l);
    it.red = RedLog::hold(&mut it, &l.par.reductions);
    // One register frame for every piece of the lane.
    let mut frame = it.body_frame(body);
    let mut pieces: Vec<PieceOut> = Vec::new();
    let mut err: Option<(u64, MachineError)> = None;
    while let Some(p) = claims.next(wid) {
        let (start, end) = claims.bounds(p);
        if start == end {
            continue; // a piece past a short block's end
        }
        before_piece(&mut it);
        let (c0, out0) = (it.cycles, it.output.len());
        let mut range = ArmRange::new(space, start, end);
        err = match it.run_range(&l, &mut range, frame.as_mut()) {
            Ok(Flow::Normal) => None,
            // STOP bodies never reach the threaded path, but surface
            // it as an error defensively rather than silently
            // dropping iterations.
            Ok(Flow::Stop) => Some((range.idx, MachineError::Stopped)),
            Err(e) => Some((range.idx, e)),
        };
        let copy_out = (end == space.trip() && err.is_none())
            .then(|| l.par.copy_out_scalars.iter().map(|&s| (s, it.scalars[s])).collect());
        pieces.push(PieceOut { p, cycles: it.cycles - c0, output: it.output.split_off(out0), copy_out });
        let full = it.red.as_deref_mut().is_some_and(RedLog::end_piece);
        if err.is_some() || full {
            break;
        }
    }
    let steps = it.steps - steps;
    WorkerOut {
        wid,
        #[cfg(test)]
        fence: (it.activations, it.dispatches),
        log: it.red,
        arrays: it.arrays,
        loops: it.loop_stats,
        pieces,
        shadows: it.spec,
        steps,
        err,
    }
}

// ---- the reduction log: one fold, in serial order ----------------------

/// Updates a lane's log may hold: when it is full the lane stops and the
/// invocation runs in order. 2¹⁸ updates of at most 12 bytes are 3 MB a
/// lane; the largest invocation of the 26 kernels logs 127 066 (OCEAN).
pub(crate) const LOG_CAP: usize = 1 << 18;

/// One reduction's updates in a lane, in the order they ran: the bits
/// each store left in the target — exactly its β — and, for an array
/// target, the element it went to (lowering caps an array at 2²⁸
/// elements); `ends[k]` is where the lane's `k`-th piece's updates end.
#[derive(Default)]
pub(crate) struct Updates {
    elems: Vec<u32>,
    bits: Vec<u64>,
    ends: Vec<usize>,
}

/// What a lane logs of one forked loop's reductions (`Interp::red`;
/// `None` everywhere else, so a serial store pays one test). While it is
/// installed each target holds its operator's identity, and
/// [`Interp::log_store`] turns a store into it into an update. One log
/// serves all the lane's pieces, one after another.
pub(crate) struct RedLog {
    reds: Vec<RRed>,
    /// Per reduction, in `reds` order.
    updates: Vec<Updates>,
    /// Updates the log may still take; at 0 it is full and takes none.
    room: usize,
}

impl RedLog {
    /// Hold `reds`' targets at their identities and log up to [`LOG_CAP`]
    /// of their stores, or `None` when the loop reduces nothing. The
    /// validator's reversed lane shares the cap, and the in-order run a
    /// full log falls back to.
    fn hold(it: &mut Interp<'_>, reds: &[RRed]) -> Option<Box<RedLog>> {
        for red in reds {
            match red.target {
                RRef::Scalar(s) => match &mut it.scalars[s] {
                    Scalar::R(v) => *v = red_identity_r(red.op),
                    Scalar::I(v) => *v = red_identity_i(red.op),
                    Scalar::B(_) => {}
                },
                RRef::Array(a) => match it.arrays[a].make_mut() {
                    ArrData::R(v) => v.fill(red_identity_r(red.op)),
                    ArrData::I(v) => v.fill(red_identity_i(red.op)),
                    ArrData::B(_) => {}
                },
            }
        }
        let updates = reds.iter().map(|_| Updates::default()).collect();
        (!reds.is_empty()).then(|| Box::new(RedLog { reds: reds.to_vec(), updates, room: LOG_CAP }))
    }

    /// End the piece the lane ran last here; whether the log is full.
    fn end_piece(&mut self) -> bool {
        self.updates.iter_mut().for_each(|u| u.ends.push(u.bits.len()));
        self.room == 0
    }
}

impl Interp<'_> {
    /// The reduction hook of both engines' stores, called after a store
    /// to `at` (element `elem` of an array, 0 for a scalar): outside a
    /// lane one test, and a search of the loop's few reductions inside
    /// one.
    #[inline(always)]
    pub(crate) fn log_store(&mut self, at: RRef, elem: usize) {
        if let Some(log) = self.red.as_deref() {
            if let Some(j) = log.reds.iter().position(|r| r.target == at) {
                self.log_reduction(j, elem);
            }
        }
    }

    /// A store to the target of reduction `j` left the update's β there —
    /// the target held the identity — so log its bits, if the log is not
    /// full, and reset the target.
    #[inline(never)]
    fn log_reduction(&mut self, j: usize, elem: usize) {
        let Some(log) = self.red.as_deref_mut() else { return };
        let RRed { op, target } = log.reds[j];
        let bits = match target {
            RRef::Scalar(s) => match &mut self.scalars[s] {
                Scalar::R(v) => std::mem::replace(v, red_identity_r(op)).to_bits(),
                Scalar::I(v) => std::mem::replace(v, red_identity_i(op)) as u64,
                Scalar::B(_) => return,
            },
            RRef::Array(a) => match self.arrays[a].make_mut() {
                ArrData::R(v) => std::mem::replace(&mut v[elem], red_identity_r(op)).to_bits(),
                ArrData::I(v) => std::mem::replace(&mut v[elem], red_identity_i(op)) as u64,
                ArrData::B(_) => return,
            },
        };
        if log.room > 0 {
            log.room -= 1;
            let u = &mut log.updates[j];
            u.bits.push(bits);
            if let RRef::Array(_) = target {
                u.elems.push(elem as u32);
            }
        }
    }

    /// Apply the updates of piece `k` of `log`'s lane to their targets
    /// in order, `σ = σ ∘ β` per update — the serial loop's own fold when
    /// pieces are replayed in serial order. Returns the bytes applied.
    pub(crate) fn replay(&mut self, log: &RedLog, k: usize) -> u64 {
        let mut bytes = 0;
        for (red, u) in log.reds.iter().zip(&log.updates) {
            let span = k.checked_sub(1).map_or(0, |prev| u.ends[prev])..u.ends[k];
            bytes += 8 * span.len() as u64;
            let (op, betas) = (red.op, u.bits[span.clone()].iter());
            match red.target {
                RRef::Scalar(s) => match &mut self.scalars[s] {
                    Scalar::R(v) => *v = betas.fold(*v, |acc, &b| red_apply_r(op, acc, f64::from_bits(b))),
                    Scalar::I(v) => *v = betas.fold(*v, |acc, &b| red_apply_i(op, acc, b as i64)),
                    Scalar::B(_) => {}
                },
                RRef::Array(a) => match self.arrays[a].make_mut() {
                    ArrData::R(v) => u.elems[span].iter().zip(betas).for_each(|(&e, &b)| {
                        v[e as usize] = red_apply_r(op, v[e as usize], f64::from_bits(b));
                    }),
                    ArrData::I(v) => u.elems[span].iter().zip(betas).for_each(|(&e, &b)| {
                        v[e as usize] = red_apply_i(op, v[e as usize], b as i64);
                    }),
                    ArrData::B(_) => {}
                },
            }
        }
        bytes
    }
}

/// Exact identities: `identity ∘ β` is `β` bit for bit, so a store from
/// `σ = σ ∘ β` into a target holding it stores β itself. For a sum that
/// is `-0.0` (`0.0 + -0.0` is `+0.0`, but `-0.0 + β` is `β` for every
/// `β`); for MAX and MIN a NaN (`NaN.max(β)` is `β`, where `-∞.max(NaN)`
/// would be `-∞`).
fn red_identity_r(op: RedOp) -> f64 {
    match op {
        RedOp::Sum => -0.0,
        RedOp::Product => 1.0,
        RedOp::Max | RedOp::Min => f64::NAN,
    }
}

fn red_identity_i(op: RedOp) -> i64 {
    match op {
        RedOp::Sum => 0,
        RedOp::Product => 1,
        RedOp::Max => i64::MIN,
        RedOp::Min => i64::MAX,
    }
}

fn red_apply_r(op: RedOp, a: f64, b: f64) -> f64 {
    match op {
        RedOp::Sum => a + b,
        RedOp::Product => a * b,
        RedOp::Max => a.max(b),
        RedOp::Min => a.min(b),
    }
}

fn red_apply_i(op: RedOp, a: i64, b: i64) -> i64 {
    match op {
        RedOp::Sum => a.wrapping_add(b),
        RedOp::Product => a.wrapping_mul(b),
        RedOp::Max => a.max(b),
        RedOp::Min => a.min(b),
    }
}

// ---- array diff-merge -------------------------------------------------

/// Apply to `dst` every element where `theirs` differs from `base`, and
/// return the number of bytes written (the `exec.threaded.merge_bytes`
/// contribution). Bit-level comparison for reals so `-0.0` vs `0.0`
/// writes and NaN payloads survive the round trip.
fn merge_diff(dst: &mut ArrData, theirs: &ArrData, base: &ArrData) -> u64 {
    let mut changed = 0u64;
    match (dst, theirs, base) {
        (ArrData::R(d), ArrData::R(t), ArrData::R(b)) => {
            for i in 0..d.len() {
                if t[i].to_bits() != b[i].to_bits() {
                    d[i] = t[i];
                    changed += 8;
                }
            }
        }
        (ArrData::I(d), ArrData::I(t), ArrData::I(b)) => {
            for i in 0..d.len() {
                if t[i] != b[i] {
                    d[i] = t[i];
                    changed += 8;
                }
            }
        }
        (ArrData::B(d), ArrData::B(t), ArrData::B(b)) => {
            for i in 0..d.len() {
                if t[i] != b[i] {
                    d[i] = t[i];
                    changed += 1;
                }
            }
        }
        _ => unreachable!("array type changed during execution"),
    }
    changed
}

/// Bytes a wholesale-adopted worker copy changed relative to the
/// snapshot — the observability-only twin of [`merge_diff`] (no write).
fn diff_bytes(theirs: &ArrData, base: &ArrData) -> u64 {
    match (theirs, base) {
        (ArrData::R(t), ArrData::R(b)) => {
            8 * t.iter().zip(b).filter(|(x, y)| x.to_bits() != y.to_bits()).count() as u64
        }
        (ArrData::I(t), ArrData::I(b)) => 8 * t.iter().zip(b).filter(|(x, y)| x != y).count() as u64,
        (ArrData::B(t), ArrData::B(b)) => t.iter().zip(b).filter(|(x, y)| x != y).count() as u64,
        _ => 0,
    }
}

/// Commit one lane's copy of a shared array into `dst` and return the
/// `exec.threaded.merge_bytes` contribution. `theirs` comes by value:
/// the first writer's copy differs from the snapshot only where it
/// wrote, so it is adopted wholesale — by move, so it stays owned and a
/// later writer's diff merges into it in place. `count_adopted` says
/// whether anyone reads the bytes of an adoption (observability only; a
/// diff-merge counts as it writes).
fn commit_array(
    dst: &mut ArrStore,
    theirs: ArrStore,
    base: &Arc<ArrData>,
    count_adopted: bool,
) -> u64 {
    if theirs.same_as(base) {
        return 0; // never written
    }
    if dst.same_as(base) {
        let bytes = if count_adopted { diff_bytes(theirs.get(), base) } else { 0 };
        *dst = theirs;
        bytes
    } else {
        merge_diff(dst.make_mut(), theirs.get(), base)
    }
}

// ---- the fork and the join --------------------------------------------

/// Execute one `PARALLEL DO` or `SPECULATIVE` loop over `plan` and hand
/// its lanes to [`join`]. Real threads: the calling thread and, once
/// the loop has shown it amortizes a fork, the helper pool. With
/// `reversed`, the validator's run of a `PARALLEL DO`: one lane on the
/// calling thread that claims the iterations last to first
/// ([`Claims::reversed`], at most `reversed` pieces), what the loop
/// privatizes poisoned before each piece. Called from
/// `Interp::run_concurrent`.
pub(crate) fn run_threaded_loop(
    interp: &mut Interp<'_>,
    l: &Arc<RLoop>,
    space: IterSpace,
    body: Option<u32>,
    plan: ChunkPlan,
    reversed: Option<usize>,
) -> Result<Option<(Flow, Vec<u64>)>, MachineError> {
    // An adaptive plan may have fewer lanes than the machine has threads
    // (idle helpers are fine).
    let procs = plan.procs();
    let claims = Arc::new(match reversed {
        Some(budget) => Claims::reversed(&plan, budget),
        None => Claims::new(&plan),
    });
    // Every array becomes shared with the snapshot here, so the lanes'
    // copies below are handles, and owned again at whoever writes first.
    let snapshot: Vec<Arc<ArrData>> = interp.arrays.iter_mut().map(ArrStore::share).collect();
    let lane = |wid: usize| WorkerTask {
        wid,
        l: Arc::clone(l),
        space,
        claims: Arc::clone(&claims),
        cfg: interp.cfg.clone(),
        scalars: interp.scalars.clone(),
        shapes: Arc::clone(&interp.shapes),
        arrays: interp.arrays.clone(),
        steps: interp.steps,
        bc: interp.bc.clone(),
        body,
    };
    if reversed.is_some() {
        let out = worker_run(lane(0), |it| poison(it, &l.par));
        return join(interp, l, &plan, &claims, &snapshot, vec![out]);
    }

    // The master runs lanes itself, in lane order, until the cycles it
    // has executed reach the bill's guard; the lanes nobody has started
    // by then go to the helpers. Which thread ran a lane shows in nothing
    // the join merges, so a loop under the guard wakes no one and commits
    // what a forked one would. A lane with nothing left to claim is not
    // started: it would only return an empty result.
    let threshold = interp.guard_threshold();
    let (tx, rx) = mpsc::channel::<WorkerOut>();
    let mut results: Vec<WorkerOut> = Vec::with_capacity(procs);
    // First lane nobody has started; cycles of the lanes the master finished.
    let (mut unstarted, mut ran) = (0, 0u64);
    while unstarted < procs && !claims.drained() {
        let wid = unstarted;
        unstarted += 1;
        // A panic in the master's lane is a helper's: no result for it.
        let Ok(out) = catch_unwind(AssertUnwindSafe(|| {
            worker_run(lane(wid), |it| {
                if unstarted < procs && ran + it.cycles >= threshold {
                    HELPERS.with_borrow_mut(|pool| {
                        pool.grow(interp.cfg.procs - 1);
                        #[cfg(test)]
                        HELPER_COUNTS.with(|c| c.set((c.get().0, c.get().1 + (procs - unstarted) as u64)));
                        for task in (unstarted..procs).map(&lane) {
                            let tx = tx.clone();
                            pool.submit(Box::new(move || {
                                let _ = tx.send(worker_run(task, |_| {}));
                            }));
                        }
                    });
                    unstarted = procs;
                }
            })
        })) else {
            break;
        };
        ran += out.pieces.iter().map(|pc| pc.cycles).sum::<u64>();
        results.push(out);
    }
    // Every lane handed over reports (or its sender drops, unwinding)
    // before the run goes on: no work crosses into a later run. A lane
    // started with no result is one that panicked.
    drop(tx);
    while let Ok(out) = recv_spinning(&rx) {
        results.push(out);
    }
    if results.len() < unstarted {
        return Err(MachineError::WorkerPanicked { loop_label: l.label.clone() });
    }
    join(interp, l, &plan, &claims, &snapshot, results)
}

/// Decide the invocation from its lanes, whoever ran them, and return
/// the cycles of each plan chunk — or `None`, having changed nothing,
/// when it must run in order instead (a full reduction log, a failed
/// speculation). Errors are reported for the smallest failing
/// iteration; committed are the fuel the lanes took, the bill, the
/// shared arrays each lane wrote ([`commit_array`], lane order) and,
/// in piece order, which is serial order, the reduction logs,
/// copy-out and output.
fn join(
    interp: &mut Interp<'_>,
    l: &RLoop,
    plan: &ChunkPlan,
    claims: &Claims,
    snapshot: &[Arc<ArrData>],
    mut results: Vec<WorkerOut>,
) -> Result<Option<(Flow, Vec<u64>)>, MachineError> {
    results.sort_by_key(|w| w.wid);

    // A full reduction log, or the PD test over the lanes' marks failing.
    // A lane error counts as a failed verdict (the marks of a faulting
    // iteration are not even complete). Nothing of the lanes has reached
    // `interp` yet: drop them and run the loop in order, which re-derives
    // values, verdict, error, steps and bill.
    if results.iter().any(|w| w.log.as_ref().is_some_and(|log| log.room == 0)) {
        return Ok(None);
    }
    if !l.par.parallel {
        let passes = |j: usize| {
            let lanes: Vec<&Shadow> = results.iter().map(|w| &w.shadows[j].1).collect();
            PdVerdict::of(&lanes, 0..lanes[0].len()).plain_ok()
        };
        if results.iter().any(|w| w.err.is_some()) || !(0..l.par.spec_arrays.len()).all(passes) {
            return Ok(None);
        }
    }

    // Deterministic error: the smallest failing iteration index is what
    // sequential execution would have hit first.
    if let Some((_, e)) = results
        .iter()
        .filter_map(|w| w.err.clone())
        .min_by_key(|(idx, _)| *idx)
    {
        return Err(e);
    }
    // The lanes are committed: their VM counts join the run's, as a
    // discarded attempt's do not.
    #[cfg(test)]
    for w in &results {
        interp.activations += w.fence.0;
        interp.dispatches += w.fence.1;
    }
    // Settle the fuel: each lane was held to the budget on its own count;
    // the limit applies to what all of them took, the serial count.
    interp.steps += results.iter().map(|w| w.steps).sum::<u64>();
    if let Some(limit) = interp.cfg.fuel.filter(|&limit| interp.steps > limit) {
        return Err(MachineError::FuelExhausted { limit });
    }

    // Each piece with its lane and its place in the lane's log.
    let mut pieces: Vec<(PieceOut, usize, usize)> = results
        .iter_mut()
        .enumerate()
        .flat_map(|(lane, w)| {
            let pieces = std::mem::take(&mut w.pieces);
            pieces.into_iter().enumerate().map(move |(k, pc)| (pc, lane, k))
        })
        .collect();
    pieces.sort_by_key(|(pc, ..)| pc.p);
    // Each plan chunk's cycles, its pieces' folded back, in chunk order:
    // the deterministic cost profile (never wall time, never steal
    // interleaving), and what the simulator bills.
    let mut profile = vec![0u64; plan.n_chunks()];
    for (pc, ..) in &pieces {
        profile[claims.chunk_of(pc.p)] += pc.cycles;
    }
    let mut merge_bytes = 0u64;

    // Observability: chunk spans are emitted here, post-join and in
    // chunk order, *not* from the workers — the trace must not depend
    // on thread interleaving. The tid encodes the bucket (worker lane)
    // the plan assigned the chunk to.
    if interp.recorder.is_enabled() {
        interp.recorder.count(polaris_obs::Counter::ThreadedChunks, profile.len() as u64);
        if let Some((steals, attempts)) = claims.steal_counts() {
            interp.recorder.count(polaris_obs::Counter::StealChunks, steals);
            interp.recorder.count(polaris_obs::Counter::StealAttempts, attempts);
        }
        for k in 0..profile.len() {
            let tid = 1 + plan.bucket_of(k) as u32;
            interp.recorder.span_with("exec", format!("chunk:{k}"), tid, Some(l.loop_id), None).end();
        }
    }

    // -- simulated cycle accounting: the simulator's bill ---------------
    let marks = results.iter().flat_map(|w| &w.shadows).map(|(_, sh)| sh.marks_done()).sum();
    interp.bill_invocation(l, plan, &profile, marks, true);

    // -- nested-loop stats and shared arrays (diff vs snapshot), worker order
    let skip = |a: usize| {
        l.par.private_arrays.contains(&a) || l.par.reductions.iter().any(|r| r.target == RRef::Array(a))
    };
    let count_adopted = interp.recorder.is_enabled();
    for w in &mut results {
        for (i, slot) in w.loops.iter().enumerate() {
            if let Some((label, st)) = slot {
                interp.loop_slot(i, label).absorb(st);
            }
        }
        for (i, wa) in std::mem::take(&mut w.arrays).into_iter().enumerate() {
            if !skip(i) {
                merge_bytes += commit_array(&mut interp.arrays[i], wa, &snapshot[i], count_adopted);
            }
        }
    }

    // -- reduction logs, copy-out (lastprivate) and output, in piece
    // order, which is serial order
    for (pc, lane, k) in &mut pieces {
        if let Some(log) = &results[*lane].log {
            merge_bytes += interp.replay(log, *k);
        }
        for &(s, v) in pc.copy_out.iter().flatten() {
            interp.scalars[s] = v;
            merge_bytes += 8;
        }
        interp.output.append(&mut pc.output);
    }
    interp.recorder.count(polaris_obs::Counter::ThreadedMergeBytes, merge_bytes);
    Ok(Some((Flow::Normal, profile)))
}

const POISON_I: i64 = -8_888_888_887;

/// Overwrite the private scalars and arrays of `par` with a NaN, a
/// sentinel or `false`: a value a private carries from one iteration
/// into another then shows wherever it flows.
fn poison(it: &mut Interp<'_>, par: &RPar) {
    for &s in &par.private_scalars {
        it.scalars[s] = match it.scalars[s] {
            Scalar::I(_) => Scalar::I(POISON_I),
            Scalar::R(_) => Scalar::R(f64::NAN),
            Scalar::B(_) => Scalar::B(false),
        };
    }
    for &a in &par.private_arrays {
        match it.arrays[a].make_mut() {
            ArrData::I(v) => v.fill(POISON_I),
            ArrData::R(v) => v.fill(f64::NAN),
            ArrData::B(v) => v.fill(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::V;
    use crate::{ExecMode, Schedule};

    #[test]
    fn merge_diff_is_bitwise() {
        let base = ArrData::R(vec![0.0, 1.0, f64::NAN, 2.0]);
        // worker wrote -0.0 over 0.0 (bitwise change, value-equal)
        let theirs = ArrData::R(vec![-0.0, 1.0, f64::NAN, 5.0]);
        let mut dst = base.clone();
        merge_diff(&mut dst, &theirs, &base);
        match dst {
            ArrData::R(v) => {
                assert!(v[0].to_bits() == (-0.0f64).to_bits());
                assert_eq!(v[1], 1.0);
                assert!(v[2].is_nan()); // untouched NaN stays
                assert_eq!(v[3], 5.0);
            }
            _ => unreachable!(),
        }
    }

    /// The first writer's copy is adopted by move, so it stays owned and
    /// the second writer's diff lands in that allocation — no copy in
    /// between — with the bits the diff-merge of both writers into a
    /// copy of the snapshot gives.
    #[test]
    fn two_writer_commit_merges_into_the_first_writers_allocation() {
        let mut master = ArrStore::Owned(ArrData::R(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]));
        let base = master.share();
        // A lane's copy of the shared store, written at one element.
        let written = |at: usize, v: f64| {
            let mut copy = master.clone();
            copy.make_mut().set(at, V::R(v)).unwrap();
            copy
        };
        let (first, second, reader) = (written(1, -0.0), written(4, f64::NAN), master.clone());
        let elements = |s: &ArrStore| match s.get() {
            ArrData::R(v) => v.as_ptr(),
            _ => unreachable!(),
        };
        let first_allocation = elements(&first);
        assert_ne!(first_allocation, elements(&master), "a written copy is its own");

        let mut reference = ArrData::clone(&base);
        merge_diff(&mut reference, first.get(), &base);
        merge_diff(&mut reference, second.get(), &base);

        let mut dst = master.clone();
        assert_eq!(commit_array(&mut dst, reader, &base, true), 0, "a lane that never wrote");
        assert_eq!(commit_array(&mut dst, first, &base, true), 8, "adopted, its bytes counted");
        assert_eq!(commit_array(&mut dst, second, &base, true), 8);
        assert_eq!(elements(&dst), first_allocation, "the second writer merged in place");
        assert_eq!(diff_bytes(dst.get(), &reference), 0, "bit-equal to the diff-merge of both");
        assert_eq!(diff_bytes(dst.get(), &base), 16);
    }

    // ---- whole-program equivalence through the public entry points ----

    fn parse(src: &str) -> polaris_ir::Program {
        polaris_ir::parse(src).unwrap()
    }

    const ALL_SCHEDULES: [Schedule; 3] =
        [Schedule::Static, Schedule::Dynamic { chunk: 4 }, Schedule::Stealing { chunk: 4 }];

    fn run_both(src: &str, procs: usize, schedule: Schedule) -> (Vec<String>, Vec<String>) {
        let p = parse(src);
        let serial = crate::exec::run_serial(&p).unwrap();
        let threaded = crate::exec::run(&p, &MachineConfig::threaded(procs, schedule)).unwrap();
        (serial.output, threaded.output)
    }

    #[test]
    fn threaded_doall_matches_serial() {
        let src = "program t\nreal a(10000)\n!$polaris doall\ndo i = 1, 10000\n  a(i) = i * 2.0 + 1.0\nend do\nprint *, a(1), a(5000), a(10000)\nend\n";
        for procs in [2, 4, 8] {
            let (s, t) = run_both(src, procs, Schedule::Static);
            assert_eq!(s, t, "procs={procs}");
        }
        let (s, t) = run_both(src, 8, Schedule::Dynamic { chunk: 16 });
        assert_eq!(s, t);
    }

    #[test]
    fn threaded_privatization_and_lastprivate() {
        let src = "program t\nreal a(500), b(500)\ndo k = 1, 500\n  b(k) = k * 1.0\nend do\n!$polaris doall private(T) lastprivate(T)\ndo i = 1, 500\n  t = b(i) * 2.0\n  a(i) = t + 1.0\nend do\nprint *, a(7), a(499), t\nend\n";
        let (s, t) = run_both(src, 8, Schedule::Static);
        assert_eq!(s, t);
        let (s, t) = run_both(src, 3, Schedule::Dynamic { chunk: 7 });
        assert_eq!(s, t);
    }

    /// Final state of `src` under `cfg`, bit for bit.
    fn state(src: &str, cfg: &MachineConfig) -> crate::StateDump {
        crate::exec::run_with_state(&parse(src), cfg).unwrap().1
    }

    /// A sum whose last bits depend on its association: the join
    /// replays the lanes' updates in serial order, so the bits are
    /// serial's at every thread count and under every schedule.
    #[test]
    fn threaded_scalar_reduction_is_exact() {
        let src = "program t\nreal b(2000)\ndo k = 1, 2000\n  b(k) = 1.0 / k\nend do\ns = 100.0\n!$polaris doall reduction(+:S)\ndo i = 1, 2000\n  s = s + b(i)\nend do\nprint *, s\nend\n";
        let serial = state(src, &MachineConfig::serial());
        for procs in [2, 3, 4, 8] {
            for schedule in ALL_SCHEDULES {
                assert_eq!(state(src, &MachineConfig::threaded(procs, schedule)), serial, "{procs} x {schedule:?}");
            }
        }
    }

    /// MAX and MIN are exact under any association, and their identity is
    /// a NaN, which `max`/`min` pass over: NaN operands in the body, a NaN
    /// the target starts from, and both at once leave the serial bits.
    #[test]
    fn threaded_max_reduction_is_exact() {
        let fill = "real b(777)\ndo k = 1, 777\n  b(k) = mod(k * 37, 101) * 1.0\nend do\n";
        let nan = "b(5) = 0.0 / 0.0\nb(700) = 0.0 / 0.0\n";
        // Every operand a NaN: serial ends with a NaN, which a -∞ identity
        // (what a lane would log for each of them) would turn into -∞.
        let all_nan = "do k = 1, 777\n  b(k) = 0.0 / 0.0\nend do\n";
        let looped = |f: &str, init: &str, extra: &str| {
            format!("program t\n{fill}{extra}t = {init}\n!$polaris doall reduction({f}:T)\ndo i = 1, 777\n  t = {f}(t, b(i))\nend do\nprint *, t\nend\n")
        };
        for f in ["MAX", "MIN"] {
            for (init, extra) in [("-1.0", ""), ("50.0", nan), ("0.0 / 0.0", nan), ("0.0 / 0.0", all_nan)] {
                let src = looped(f, init, extra);
                let serial = state(&src, &MachineConfig::serial());
                for procs in [2, 8] {
                    let t = state(&src, &MachineConfig::threaded(procs, Schedule::Static));
                    assert_eq!(t, serial, "{f}, t = {init}, {extra:?}: must be exact at {procs} procs");
                }
            }
        }
    }

    /// A lane whose reduction log fills up ([`LOG_CAP`]) stops, and the
    /// invocation runs in order on the simulated path instead: serial's
    /// bits, the simulator's cycles, the serial fuel steps, and no chunk
    /// of it joined.
    #[test]
    fn a_reduction_log_past_the_cap_runs_the_loop_in_order() {
        let trips = 2 * LOG_CAP + 2;
        let src = format!("program t\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, {trips}\n  s = s + 1.0 / i\nend do\nprint *, s\nend\n");
        let p = parse(&src);
        let steps = |cfg: &MachineConfig, rec: &polaris_obs::Recorder| {
            crate::exec::run_with(&p, cfg, rec, |it, image| (it.steps, crate::exec::dump_state(it, image))).unwrap()
        };
        let off = polaris_obs::Recorder::disabled();
        let (serial, (serial_steps, serial_state)) = steps(&MachineConfig::serial().with_fuel(u64::MAX), &off);
        for schedule in [Schedule::Static, Schedule::Stealing { chunk: 4 }] {
            let cfg = MachineConfig::threaded(2, schedule).with_fuel(u64::MAX);
            let rec = polaris_obs::Recorder::monotonic();
            let (thr, (thr_steps, thr_state)) = steps(&cfg, &rec);
            let (sim, _) = steps(&simulated(&cfg), &off);
            assert_eq!(thr_state, serial_state, "{schedule:?}");
            assert_eq!(thr.output, serial.output, "{schedule:?}");
            assert_eq!(thr.cycles, sim.cycles, "{schedule:?}");
            assert_eq!(thr_steps, serial_steps, "{schedule:?}");
            assert_eq!(rec.counters().get("exec.threaded.chunks"), None, "{schedule:?}: a chunk joined");
        }
    }

    #[test]
    fn threaded_dynamic_schedule_is_run_to_run_deterministic() {
        // Self-scheduling assigns chunks to threads nondeterministically;
        // the committed results must still be bit-identical across runs.
        let src = "program t\nreal a(300,300)\ns = 0.0\n!$polaris doall private(J) reduction(+:S)\ndo i = 1, 300\n  do j = 1, i\n    a(j, i) = i * 1.0 + j\n    s = s + a(j, i)\n  end do\nend do\nprint *, s, a(1,1), a(150,300)\nend\n";
        let p = parse(src);
        let cfg = MachineConfig::threaded(8, Schedule::Dynamic { chunk: 4 });
        let first = crate::exec::run(&p, &cfg).unwrap();
        for _ in 0..5 {
            let again = crate::exec::run(&p, &cfg).unwrap();
            assert_eq!(first.output, again.output, "dynamic schedule leaked nondeterminism");
        }
    }

    #[test]
    fn threaded_stop_in_body_falls_back_to_serial() {
        let src = "program t\nreal a(100)\n!$polaris doall\ndo i = 1, 100\n  a(i) = i * 1.0\n  if (i == 13) then\n    stop\n  end if\nend do\nprint *, a(1)\nend\n";
        let p = parse(src);
        let serial = crate::exec::run_serial(&p).unwrap();
        let t = crate::exec::run(&p, &MachineConfig::threaded(8, Schedule::Static)).unwrap();
        // STOP at i=13 suppresses the PRINT in both modes
        assert_eq!(serial.output, t.output);
        assert!(t.output.is_empty());
    }

    /// `STOP` in a DOALL body is decided where the backend is chosen: the
    /// loop takes the simulated path under either `ExecMode`, so the bill
    /// is the simulator's (the threaded driver's own serial fallback used
    /// to skip the guard branch, two cycles short of the simulator).
    #[test]
    fn stop_bearing_doall_bills_the_same_on_both_backends() {
        let looped = |at: i64| {
            parse(&format!("program t\nreal a(100)\n!$polaris doall\ndo i = 1, 100\n  a(i) = i * 1.0\n  if (i == {at}) then\n    stop\n  end if\nend do\nprint *, a(1)\nend\n"))
        };
        // One STOP that fires mid-loop, one that never does.
        for p in [looped(13), looped(1000)] {
            for schedule in ALL_SCHEDULES {
                for procs in [2, 8] {
                    let threaded = MachineConfig::threaded(procs, schedule);
                    let simulated =
                        MachineConfig { exec_mode: crate::ExecMode::Simulated, ..threaded.clone() };
                    let sim = crate::exec::run(&p, &simulated).unwrap();
                    let thr = crate::exec::run(&p, &threaded).unwrap();
                    assert_eq!(sim.output, thr.output, "{schedule:?} x {procs}");
                    assert_eq!(sim.cycles, thr.cycles, "{schedule:?} x {procs}");
                }
            }
        }
    }

    #[test]
    fn threaded_print_inside_parallel_loop_keeps_iteration_order() {
        let src = "program t\n!$polaris doall\ndo i = 1, 64\n  print *, 'iter', i\nend do\nend\n";
        let (s, t) = run_both(src, 8, Schedule::Static);
        assert_eq!(s, t);
        let (s, t) = run_both(src, 4, Schedule::Dynamic { chunk: 3 });
        assert_eq!(s, t);
    }

    #[test]
    fn threaded_out_of_bounds_is_reported() {
        let src = "program t\nreal a(50)\ninteger key(100)\ndo k = 1, 100\n  key(k) = k\nend do\n!$polaris doall\ndo i = 1, 100\n  a(key(i)) = i * 1.0\nend do\nend\n";
        let p = parse(src);
        let serial_err = crate::exec::run_serial(&p).unwrap_err();
        let err = crate::exec::run(&p, &MachineConfig::threaded(4, Schedule::Static)).unwrap_err();
        // the smallest failing iteration (i=51) determines the error
        assert_eq!(serial_err, err);
    }

    #[test]
    fn threaded_fuel_budget_is_global() {
        let src = "program t\nreal a(100000)\n!$polaris doall\ndo i = 1, 100000\n  a(i) = i * 1.0\nend do\nend\n";
        let p = parse(src);
        let cfg = MachineConfig::threaded(4, Schedule::Static).with_fuel(500);
        let err = crate::exec::run(&p, &cfg).unwrap_err();
        assert!(matches!(err, MachineError::FuelExhausted { .. }), "{err}");
    }

    /// The same machine with the DOALLs executed in order on one thread.
    fn simulated(threaded: &MachineConfig) -> MachineConfig {
        MachineConfig { exec_mode: ExecMode::Simulated, ..threaded.clone() }
    }

    /// `f`, and the helper threads this thread spawned and the lanes it
    /// handed them while `f` ran.
    fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
        let (spawned, handed) = HELPER_COUNTS.with(std::cell::Cell::get);
        let out = f();
        let now = HELPER_COUNTS.with(std::cell::Cell::get);
        (out, (now.0 - spawned, now.1 - handed))
    }

    /// `f` on a new thread, which starts with no helpers; a hang or an
    /// unwind fails the test instead of stalling it.
    fn on_a_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || tx.send(f()));
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("the run hung or unwound ({e})"));
        // Its helpers stop with it.
        thread.join().expect("the thread and its helpers exit cleanly").expect("the result was received");
        out
    }

    /// A loop the bill's guard charges as the serial side of the `IF`
    /// wakes no one: the master runs every lane itself, and the output
    /// and the bill are the simulator's.
    #[test]
    fn doalls_under_the_guard_spawn_and_wake_no_helper() {
        let src = "program t\nreal a(8)\ndo k = 1, 50\n!$polaris doall\ndo i = 1, 8\n  a(i) = a(i) + k\nend do\nend do\nprint *, a(1), a(8)\nend\n";
        let p = parse(src);
        let cfg = MachineConfig::threaded(2, Schedule::Static);
        let (thr, helpers) = on_a_fresh_thread({
            let (p, cfg) = (p.clone(), cfg.clone());
            move || counted(|| crate::exec::run(&p, &cfg).unwrap())
        });
        assert_eq!(helpers, (0, 0), "50 forks of 8 assignments each must not spawn or wake a thread");
        let sim = crate::exec::run(&p, &simulated(&cfg)).unwrap();
        assert_eq!(thr.output, sim.output);
        assert_eq!(thr.cycles, sim.cycles);
        assert!(thr.loops.values().all(|s| s.parallel_invocations == 0), "{:?}", thr.loops);
    }

    /// First lanes a few cycles, last lanes thousands: the guard's
    /// threshold is crossed late. The master never leaves lane 0: done
    /// with its own block's pieces, it steals the back of the next
    /// block's, and the first heavy piece it steals crosses the
    /// threshold, so it hands every other lane over (7 at 8 block lanes,
    /// 1 at 2), whose owners start on what is left of their blocks. Who
    /// ran a piece shows nowhere.
    #[test]
    fn skewed_doall_forks_late_and_matches_serial_and_the_simulator() {
        let src = "program t\nreal a(64)\n!$polaris doall private(J)\ndo i = 1, 64\n  a(i) = i * 1.0\n  if (i > 32) then\n    do j = 1, 200\n      a(i) = a(i) + j * 0.5\n    end do\n  end if\nend do\nprint *, a(1), a(32), a(33), a(64)\nend\n";
        let p = parse(src);
        let serial = crate::exec::run_serial(&p).unwrap();
        for schedule in ALL_SCHEDULES {
            for procs in [2, 8] {
                let cfg = MachineConfig::threaded(procs, schedule);
                let (thr, (_, handed)) = counted(|| crate::exec::run(&p, &cfg).unwrap());
                let sim = crate::exec::run(&p, &simulated(&cfg)).unwrap();
                assert_eq!(thr.output, serial.output, "{schedule:?} x {procs}");
                assert_eq!(thr.cycles, sim.cycles, "{schedule:?} x {procs}");
                if schedule == Schedule::Static {
                    assert_eq!(handed, if procs == 8 { 7 } else { 1 }, "{procs} block lanes");
                }
            }
        }
    }

    /// A lane that panics is `WorkerPanicked` whoever ran it: the master
    /// before it forked (step 100), both threads after (5000), a lane in
    /// block 1 (7000: block 0 takes 6000 steps, block 1 8000, so only the
    /// helper, or the master stealing block 1's back, gets there). Nothing
    /// unwinds out of `run`, nothing hangs, and the helper survives: the
    /// next run on the thread spawns nothing and is clean.
    #[test]
    fn panicking_lane_is_worker_panicked_on_either_side_of_the_fork() {
        let src = "program t\nreal a(4000)\n!$polaris doall\ndo i = 1, 4000\n  a(i) = i * 1.0\n  if (i > 2000) then\n    a(i) = a(i) + 1.0\n  end if\nend do\nprint *, a(1), a(4000)\nend\n";
        let serial = crate::exec::run_serial(&parse(src)).unwrap();
        for (schedule, steps) in [
            (Schedule::Static, &[100, 5000, 7000][..]),
            (Schedule::Dynamic { chunk: 4 }, &[100, 5000][..]),
        ] {
            for &at in steps {
                let cfg = MachineConfig::threaded(2, schedule);
                let ((panicked, (spawned, _)), (clean, (respawned, _))) = on_a_fresh_thread(move || {
                    let panicking = MachineConfig { panic_at_step: Some(at), ..cfg.clone() };
                    let panicked = counted(|| crate::exec::run(&parse(src), &panicking));
                    (panicked, counted(|| crate::exec::run(&parse(src), &cfg)))
                });
                match panicked {
                    Err(MachineError::WorkerPanicked { loop_label }) => {
                        assert!(loop_label.contains("do"), "{loop_label}")
                    }
                    other => panic!("{schedule:?}, step {at}: {other:?}"),
                }
                assert_eq!(clean.unwrap().output, serial.output, "{schedule:?} after step {at}");
                // Only the master's early panic comes before the fork.
                let forked = at > 100;
                assert_eq!((spawned, respawned), (forked as u64, !forked as u64), "{schedule:?}, step {at}");
            }
        }
    }

    /// The deterministic twin of the fork cost: the first pass over the
    /// 26 kernels on two threads spawns the one helper, and a second pass
    /// on the same thread hands its lanes to that helper and spawns none.
    #[test]
    fn helpers_outlive_the_run_that_spawned_them() {
        let kernels = crate::vm::tests::kernels();
        let cfg = MachineConfig::threaded(2, Schedule::Static);
        let passes = on_a_fresh_thread(move || {
            let pass = || {
                counted(|| {
                    kernels.iter().for_each(|(name, p)| {
                        crate::exec::run(p, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
                    })
                })
                .1
            };
            [pass(), pass()]
        });
        let [(first, handed), (second, handed_again)] = passes;
        assert_eq!((first, second), (1, 0));
        assert!(handed > 0 && handed_again == handed, "{handed} then {handed_again} lanes handed over");
    }

    #[test]
    fn threaded_nested_parallel_runs_inner_serial() {
        let src = "program t\nreal a(40,40)\n!$polaris doall private(J)\ndo i = 1, 40\n!$polaris doall\ndo j = 1, 40\n  a(i,j) = i * 100.0 + j\nend do\nend do\nprint *, a(3,5), a(40,40)\nend\n";
        let (s, t) = run_both(src, 8, Schedule::Static);
        assert_eq!(s, t);
    }

    #[test]
    fn threaded_array_reduction_matches_serial() {
        // histogram-style array reduction
        let src = "program t\ninteger h(10)\ninteger key(1000)\ndo k = 1, 1000\n  key(k) = mod(k * 7, 10) + 1\nend do\n!$polaris doall reduction(+:H)\ndo i = 1, 1000\n  h(key(i)) = h(key(i)) + 1\nend do\nprint *, h(1), h(5), h(10)\nend\n";
        for procs in [2, 8] {
            let (s, t) = run_both(src, procs, Schedule::Static);
            assert_eq!(s, t, "integer array reduction must be exact");
        }
    }

    /// `-0.0` is the exact additive identity (`-0.0 + β` is `β` bit for
    /// bit, `+0.0` included; `0.0 + -0.0` is `+0.0`), so a lane's store
    /// into a target holding it is β itself, and an element no iteration
    /// stores to logs nothing and keeps its bits.
    #[test]
    fn negative_zero_survives_a_sum_reduction_on_threads() {
        let scalar = "program t\ns = -0.0\n!$polaris doall reduction(+:S)\ndo i = 1, 100\n  s = s + (-0.0)\nend do\nprint *, 1.0 / s\nend\n";
        // H(1) is never touched by the body; H(2..4) are.
        let array = "program t\nreal h(4)\nh(1) = -0.0\n!$polaris doall reduction(+:H)\ndo i = 1, 100\n  h(mod(i, 3) + 2) = h(mod(i, 3) + 2) + 1.0\nend do\nprint *, 1.0 / h(1), h(2)\nend\n";
        for (src, want) in [(scalar, "-inf"), (array, "-inf 3.300000E1")] {
            for schedule in ALL_SCHEDULES {
                let (s, t) = run_both(src, 2, schedule);
                assert_eq!(s, [want], "serial");
                assert_eq!(t, s, "{schedule:?}");
            }
            crate::exec::run_validated(&parse(src), &MachineConfig::challenge_8()).unwrap();
        }
    }

    /// The plan bounds the chunk count per worker, so a forced chunk of
    /// one on a long loop cuts 128 chunks on 2 threads, not 131 072:
    /// claims and chunk results stay O(workers). Half [`LOG_CAP`] trips,
    /// so that no lane's log can fill, whoever runs what: at 400 000 a
    /// master that ran past the cap before its helper woke sent the loop
    /// in order, and no chunk joined.
    #[test]
    fn chunk_count_does_not_grow_with_the_trip_count() {
        let trips = LOG_CAP / 2;
        let src = format!("program t\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, {trips}\n  s = s + 1.0\nend do\nprint *, s\nend\n");
        let rec = polaris_obs::Recorder::monotonic();
        let cfg = MachineConfig::threaded(2, Schedule::Stealing { chunk: 1 });
        let r = crate::exec::run_recorded(&parse(&src), &cfg, &rec).unwrap();
        assert_eq!(r.output, ["1.310720E5"]);
        let chunks = rec.counters()["exec.threaded.chunks"];
        assert!((2..=128).contains(&chunks), "{chunks} chunks");
    }

    /// A 400 000-trip histogram under forced stealing: every chunk hands
    /// back a dense copy of `H`, so an unbounded chunk count (100 000 at
    /// chunk 4) made this 173x the block schedule and 1.6 GB.
    #[test]
    fn long_histogram_under_stealing_matches_serial() {
        let src = "program t\nreal h(1024)\n!$polaris doall reduction(+:H)\ndo i = 1, 400000\n  h(mod(i * 7, 1024) + 1) = h(mod(i * 7, 1024) + 1) + 1.0\nend do\nprint *, h(1), h(512), h(1024)\nend\n";
        let (s, t) = run_both(src, 2, Schedule::Stealing { chunk: 4 });
        assert_eq!(s, t);
    }

    #[test]
    fn threaded_loop_var_has_final_value_after_loop() {
        let src = "program t\nreal a(100)\n!$polaris doall\ndo i = 1, 100\n  a(i) = 1.0\nend do\nprint *, i\nend\n";
        let (s, t) = run_both(src, 8, Schedule::Static);
        assert_eq!(s, t);
        assert_eq!(t, vec!["101".to_string()]);
    }

    #[test]
    fn pool_survives_panicking_job() {
        let mut pool = ThreadPool::new();
        pool.grow(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(Box::new(|| panic!("boom")));
        let tx2 = tx.clone();
        pool.submit(Box::new(move || {
            tx2.send(41).unwrap();
        }));
        pool.submit(Box::new(move || {
            tx.send(1).unwrap();
        }));
        let sum: i32 = rx.iter().take(2).sum();
        assert_eq!(sum, 42);
    }

    /// Regression for the silent worker death: a panic while holding the
    /// queue lock poisons the mutex, and workers used to `return` on the
    /// poisoned `lock()`, permanently shrinking the pool (here: to zero,
    /// since every worker sees the poison on its first acquisition).
    /// Recovery means *both* workers of a 2-thread pool must still be
    /// alive — proven by a barrier job pair that only completes if two
    /// workers pick up jobs concurrently.
    #[test]
    fn pool_keeps_capacity_after_panic_while_holding_queue_lock() {
        use std::sync::Barrier;

        let mut pool = ThreadPool::new_with_poisoned_queue_lock();
        pool.grow(2);

        let barrier = Arc::new(Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                // Blocks until the *other* worker arrives: a pool that
                // lost a worker to the poisoned lock deadlocks here and
                // the recv_timeout below catches it.
                barrier.wait();
                tx.send(21).unwrap();
            }));
        }
        let mut sum = 0;
        for _ in 0..2 {
            sum += rx
                .recv_timeout(Duration::from_secs(10))
                .expect("pool lost a worker after the poisoned lock");
        }
        assert_eq!(sum, 42);
        assert_eq!(pool.workers.len(), 2);
    }
}

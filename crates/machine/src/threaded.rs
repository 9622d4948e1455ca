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
//!   on to the next lane when one is done. Once the cycles it has
//!   executed reach the threshold of the bill's profitability guard
//!   (`Interp::guard_threshold`) the lanes nobody has started go to the
//!   helpers; a loop that ends under it — one the bill charges as the
//!   serial side of the generated `IF` — never wakes anyone. Each lane
//!   is its own interpreter over the pre-fork snapshot and claims through
//!   the same [`Claims`] whoever runs it, so nothing below can tell.
//! * **Every lane marks its own shadows.** In a `SPECULATIVE` loop a lane
//!   marks what its iterations touch of each speculated array on a
//!   lane-private [`Shadow`], stamped with the iteration index exactly as
//!   the in-order simulation stamps its one shadow. The PD test is
//!   [`PdVerdict::of`] over all the lanes' shadows, at the join.
//!
//! Speculation contract — **commit all of it or none of it**. If every
//! speculated array passes the test and no lane reported an error, the
//! lanes executed the serial loop (up to its first stale read a lane's
//! execution *is* the sequential one); they are committed like a
//! `PARALLEL DO`'s and billed by `Interp::bill_speculative`. Anything
//! else — a failed verdict, or *any* lane error or fuel-out, since a lane
//! that read a pre-loop value may fault where the serial loop does not —
//! drops the lanes wholesale (arrays, output, steps, loop stats; the
//! master ran lane 0 on a copy too) and runs `Interp::run_speculative`,
//! the in-order simulation, from the untouched state. That *is* the
//! serial re-execution, and the one reporter of verdict, error, steps
//! and the attempt + re-execution bill, so none of them can differ
//! between the backends. A lane panic is `WorkerPanicked`, as in any loop.
//!
//! Correctness contract — results must be **deterministic and identical
//! to serial execution** even though execution order is not:
//!
//! * Every worker starts from a copy-on-write snapshot of the shared
//!   state (scalars are copied; the fork makes every array shared with
//!   the snapshot — `ArrStore::share` — and a lane's copy its own at the
//!   lane's first store into it). Privatized variables are thereby
//!   trivially private.
//! * Reductions are accumulated **per chunk** (the target is reset to
//!   the identity at chunk start and the partial captured at chunk end)
//!   and merged on the main thread in chunk-index order by a fixed-shape
//!   binary tree ([`tree_merge`]), so the floating-point association
//!   is a function of the chunk plan alone — not of thread timing. The
//!   same program at the same thread count always produces bit-identical
//!   results; *across* thread counts, sums may differ from serial by
//!   reassociation roundoff (see the tolerance notes in the tests). The
//!   plan bounds the chunk count per worker, so the partials do not
//!   grow with the trip count.
//! * Shared arrays are committed by diffing each worker's copy against
//!   the pre-fork snapshot (a copy that still *is* the snapshot was
//!   never written; otherwise bit-level comparison, so `-0.0` vs `0.0`
//!   and NaN payloads are preserved) and applying only written elements,
//!   in worker order (the first writer's copy is adopted whole, by move, and
//!   later writers merge into it in place — [`commit_array`]). A
//!   correctly-parallelized loop writes disjoint
//!   elements, so the order cannot matter; if a miscompile makes writes
//!   collide, the equivalence tests catch the divergence.
//! * Worker output (PRINT) and copy-out scalars are committed in chunk
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
//! per-chunk cycle deltas go to the buckets the shared
//! [`ChunkPlan`] names and through the same `Interp::bill_parallel` or
//! `Interp::bill_speculative` the simulator pays, so `--diag`-style
//! speedup *models* are identical between `ExecMode::Simulated` and
//! `ExecMode::Threaded`.

use crate::claims::Claims;
use crate::dispatch::{ChunkPlan, IterSpace};
use crate::error::MachineError;
use crate::exec::{red_apply_i, red_apply_r, set_identity, Flow, Interp};
use crate::lower::{RLoop, RRed, RRef};
use crate::lrpd::{PdVerdict, Shadow};
use crate::value::{ArrData, ArrObj, ArrStore, Scalar};
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

struct ChunkOut {
    k: usize,
    cycles: u64,
    output: Vec<String>,
    /// What the chunk left in each `l.par.reductions` target, in order,
    /// having started it from the operator's identity.
    partials: Vec<ArrData>,
    /// Copy-out scalar values captured after the final iteration
    /// (only set on the chunk containing it).
    copy_out: Option<Vec<(usize, Scalar)>>,
}

struct WorkerOut {
    wid: usize,
    arrays: Vec<ArrObj>,
    loops: Vec<Option<(String, crate::exec::LoopExecStats)>>,
    chunks: Vec<ChunkOut>,
    /// The lane's marks on each array a `SPECULATIVE` loop tracks, in
    /// `l.par.spec_arrays` order.
    shadows: Vec<(usize, Shadow)>,
    /// Fuel steps the lane took: its count less the master's at the fork.
    steps: u64,
    /// First failing iteration index and its error, if any.
    err: Option<(u64, MachineError)>,
    /// The lane's `Interp::{activations, arm_iterations, dispatches}`.
    #[cfg(test)]
    fence: (u64, u64, u64),
}

/// Everything a lane needs, owned, so a helper's job closure is `'static`.
struct WorkerTask {
    wid: usize,
    l: Arc<RLoop>,
    space: IterSpace,
    plan: ChunkPlan,
    claims: Arc<Claims>,
    cfg: MachineConfig,
    scalars: Vec<Scalar>,
    arrays: Vec<ArrObj>,
    /// The master's step count at the fork, where the lane's own starts.
    steps: u64,
    /// Bytecode of the running unit + where this loop's body starts in
    /// it, when the VM engine drives execution (`None` pair = tree-walk).
    bc: Option<Arc<crate::bytecode::BcUnit>>,
    body: Option<u32>,
}

/// Run lane `task.wid` on the calling thread: claim chunks until none
/// are left for it. `progress` sees, before each iteration, the cycles
/// the lane has executed so far.
fn worker_run(task: WorkerTask, mut progress: impl FnMut(u64)) -> WorkerOut {
    let WorkerTask { wid, l, space, plan, claims, cfg, scalars, arrays, steps, bc, body } = task;
    let mut it = Interp::over(&cfg, scalars, arrays, steps);
    it.in_parallel = true;
    it.bc = bc;
    it.spec = it.fresh_shadows(&l);
    // One register frame for every iteration of every chunk of the lane.
    let mut frame = it.body_frame(body);
    let mut chunks: Vec<ChunkOut> = Vec::new();
    let mut err: Option<(u64, MachineError)> = None;
    let last_chunk = plan.last_chunk();
    while let Some(k) = claims.next(wid) {
        let (start, end) = plan.bounds(k);
        let c0 = it.cycles;
        let out0 = it.output.len();
        for red in &l.par.reductions {
            set_identity(&mut it, red);
        }
        for idx in start..end {
            progress(it.cycles);
            err = match it.run_stamped_iteration(&l, space, idx, frame.as_mut()) {
                Ok(Flow::Normal) => continue,
                // STOP bodies never reach the threaded path, but surface
                // it as an error defensively rather than silently
                // dropping iterations.
                Ok(Flow::Stop) => Some((idx, MachineError::Stopped)),
                Err(e) => Some((idx, e)),
            };
            break;
        }
        let partials = l.par.reductions.iter().map(|red| capture_partial(&it, red.target)).collect();
        let copy_out = (k == last_chunk && err.is_none())
            .then(|| l.par.copy_out_scalars.iter().map(|&s| (s, it.scalars[s])).collect());
        chunks.push(ChunkOut {
            k,
            cycles: it.cycles - c0,
            output: it.output.split_off(out0),
            partials,
            copy_out,
        });
        if err.is_some() {
            break;
        }
    }
    let steps = it.steps - steps;
    WorkerOut {
        wid,
        #[cfg(test)]
        fence: (it.activations, it.arm_iterations, it.dispatches),
        arrays: it.arrays,
        loops: it.loop_stats,
        chunks,
        shadows: it.spec,
        steps,
        err,
    }
}

// ---- reduction partials: one type, one merge ---------------------------

/// A reduction target's current contents as a partial: an array's
/// elements, a scalar as a one-element array. Reductions do not apply to
/// logical targets; their partial is empty and merges to nothing.
pub(crate) fn capture_partial(it: &Interp<'_>, target: RRef) -> ArrData {
    match target {
        RRef::Scalar(s) => match it.scalars[s] {
            Scalar::R(v) => ArrData::R(vec![v]),
            Scalar::I(v) => ArrData::I(vec![v]),
            Scalar::B(_) => ArrData::B(Vec::new()),
        },
        RRef::Array(a) => match it.arrays[a].data.get() {
            ArrData::B(_) => ArrData::B(Vec::new()),
            data => data.clone(),
        },
    }
}

/// `acc := acc ∘ part`, element by element.
fn merge_partial(acc: &mut ArrData, part: &ArrData, op: RedOp) {
    match (acc, part) {
        (ArrData::R(a), ArrData::R(p)) => {
            a.iter_mut().zip(p).for_each(|(x, y)| *x = red_apply_r(op, *x, *y));
        }
        (ArrData::I(a), ArrData::I(p)) => {
            a.iter_mut().zip(p).for_each(|(x, y)| *x = red_apply_i(op, *x, *y));
        }
        _ => {}
    }
}

/// `total := total ∘ partial`, the partial read in place from `red`'s
/// target: what adversarial validation does after each iteration.
pub(crate) fn fold_partial(total: &mut ArrData, it: &Interp<'_>, red: &RRed) {
    match (red.target, total) {
        (RRef::Array(a), total) => merge_partial(total, it.arrays[a].data.get(), red.op),
        (RRef::Scalar(s), ArrData::R(t)) => {
            if let Scalar::R(v) = it.scalars[s] {
                t[0] = red_apply_r(red.op, t[0], v);
            }
        }
        (RRef::Scalar(s), ArrData::I(t)) => {
            if let Scalar::I(v) = it.scalars[s] {
                t[0] = red_apply_i(red.op, t[0], v);
            }
        }
        (RRef::Scalar(_), ArrData::B(_)) => {}
    }
}

/// `shared := shared ∘ total`: commit a reduction's total to its target.
pub(crate) fn commit_total(it: &mut Interp<'_>, red: &RRed, total: &ArrData) {
    match red.target {
        RRef::Array(a) => merge_partial(it.arrays[a].data.make_mut(), total, red.op),
        RRef::Scalar(s) => {
            let mut shared = capture_partial(it, red.target);
            merge_partial(&mut shared, total, red.op);
            match shared {
                ArrData::R(v) => it.scalars[s] = Scalar::R(v[0]),
                ArrData::I(v) => it.scalars[s] = Scalar::I(v[0]),
                ArrData::B(_) => {}
            }
        }
    }
}

/// Fold `vals` into `vals[0]` pairwise in a fixed-shape binary tree:
/// `[a,b,c,d,e]` → `[(a∘b),(c∘d),e]` → `[((a∘b)∘(c∘d)),e]` → result.
/// The association depends only on the *number and order* of partials
/// (chunk-index order), never on thread completion order. For integers
/// any shape gives the serial answer (wrapping sum/product and min/max
/// are associative); for reals the shape is what the output is pinned to.
fn tree_merge<T>(vals: &mut [T], mut merge: impl FnMut(&mut T, &T)) {
    let mut stride = 1;
    while stride < vals.len() {
        for i in (0..vals.len() - stride).step_by(2 * stride) {
            let (head, tail) = vals.split_at_mut(i + stride);
            merge(&mut head[i], &tail[0]);
        }
        stride *= 2;
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

// ---- the main-thread driver ------------------------------------------

/// Execute one `PARALLEL DO` or `SPECULATIVE` loop over `plan` on the
/// calling thread and, once the loop has shown it amortizes a fork, the
/// helper pool, and return the cycles of each chunk. Called from
/// `Interp::run_concurrent` when `cfg.exec_mode` is `Threaded`.
pub(crate) fn run_threaded_loop(
    interp: &mut Interp<'_>,
    l: &Arc<RLoop>,
    space: IterSpace,
    body: Option<u32>,
    plan: ChunkPlan,
) -> Result<(Flow, Vec<u64>), MachineError> {
    // An adaptive plan may have fewer lanes than the machine has threads
    // (idle helpers are fine).
    let procs = plan.procs();
    let speculative = !l.par.parallel;
    if space.trip() == 0 {
        // Nothing to fork, but the generated guard (or the PD test) still ran.
        if speculative {
            return interp.run_speculative(l, space, body, &plan);
        }
        interp.bill_parallel(&l.par, &plan, &[]);
        return Ok((Flow::Normal, Vec::new()));
    }

    let claims = Arc::new(Claims::new(&plan));
    // Every array becomes shared with the snapshot here, so the lanes'
    // copies below are handles, and owned again at whoever writes first.
    let snapshot: Vec<Arc<ArrData>> = interp.arrays.iter_mut().map(|a| a.data.share()).collect();
    let lane = |wid: usize| WorkerTask {
        wid,
        l: Arc::clone(l),
        space,
        plan,
        claims: Arc::clone(&claims),
        cfg: interp.cfg.clone(),
        scalars: interp.scalars.clone(),
        arrays: interp.arrays.clone(),
        steps: interp.steps,
        bc: interp.bc.clone(),
        body,
    };

    // The master runs lanes itself, in lane order, until the cycles it
    // has executed reach the bill's guard; the lanes nobody has started
    // by then go to the helpers. Which thread ran a lane shows in nothing
    // the join merges, so a loop under the guard wakes no one and commits
    // what a forked one would.
    let threshold = interp.guard_threshold();
    let (tx, rx) = mpsc::channel::<WorkerOut>();
    let mut results: Vec<WorkerOut> = Vec::with_capacity(procs);
    // First lane nobody has started; cycles of the lanes the master finished.
    let (mut unstarted, mut ran) = (0, 0u64);
    while unstarted < procs {
        let wid = unstarted;
        unstarted += 1;
        // A panic in the master's lane is a helper's: no result for it.
        let Ok(out) = catch_unwind(AssertUnwindSafe(|| {
            worker_run(lane(wid), |cycles| {
                if unstarted < procs && ran + cycles >= threshold {
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
        ran += out.chunks.iter().map(|ch| ch.cycles).sum::<u64>();
        results.push(out);
    }
    // Every lane handed over reports (or its sender drops, unwinding)
    // before the run goes on: no work crosses into a later run.
    drop(tx);
    while let Ok(out) = recv_spinning(&rx) {
        results.push(out);
    }
    if results.len() < procs {
        return Err(MachineError::WorkerPanicked { loop_label: l.label.clone() });
    }
    results.sort_by_key(|w| w.wid);
    #[cfg(test)]
    for w in &results {
        interp.activations += w.fence.0;
        interp.arm_iterations += w.fence.1;
        interp.dispatches += w.fence.2;
    }

    // The PD test over the lanes' marks. A lane error counts as a failed
    // verdict (the marks of a faulting iteration are not even complete).
    // Nothing of the lanes has reached `interp` yet: drop them and run the
    // loop in order, which re-derives verdict, error, steps and bill.
    if speculative {
        let passes = |j: usize| {
            let lanes: Vec<&Shadow> = results.iter().map(|w| &w.shadows[j].1).collect();
            PdVerdict::of(&lanes, 0..lanes[0].len()).plain_ok()
        };
        if results.iter().any(|w| w.err.is_some()) || !(0..l.par.spec_arrays.len()).all(passes) {
            return interp.run_speculative(l, space, body, &plan);
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
    // Settle the fuel: each lane was held to the budget on its own count;
    // the limit applies to what all of them took, the serial count.
    interp.steps += results.iter().map(|w| w.steps).sum::<u64>();
    if let Some(limit) = interp.cfg.fuel.filter(|&limit| interp.steps > limit) {
        return Err(MachineError::FuelExhausted { limit });
    }

    let mut chunks: Vec<ChunkOut> =
        results.iter_mut().flat_map(|w| std::mem::take(&mut w.chunks)).collect();
    chunks.sort_by_key(|c| c.k);
    let mut merge_bytes = 0u64;

    // Observability: chunk spans are emitted here, post-join and sorted
    // by chunk index, *not* from the workers — the trace must not depend
    // on thread interleaving. The tid encodes the bucket (worker lane)
    // the plan assigned the chunk to.
    if interp.recorder.is_enabled() {
        interp.recorder.count(polaris_obs::Counter::ThreadedChunks, chunks.len() as u64);
        if let Some((steals, attempts)) = claims.steal_counts() {
            interp.recorder.count(polaris_obs::Counter::StealChunks, steals);
            interp.recorder.count(polaris_obs::Counter::StealAttempts, attempts);
        }
        for ch in &chunks {
            let tid = 1 + plan.bucket_of(ch.k) as u32;
            interp
                .recorder
                .span_with("exec", format!("chunk:{}", ch.k), tid, Some(l.loop_id), None)
                .end();
        }
    }

    // -- simulated cycle accounting: the simulator's bill ---------------
    let mut buckets = vec![0u64; procs];
    for ch in &chunks {
        buckets[plan.bucket_of(ch.k)] += ch.cycles;
    }
    if speculative {
        let marks = results.iter().flat_map(|w| &w.shadows).map(|(_, sh)| sh.marks_done()).sum();
        interp.bill_speculative(l, &buckets, marks, true);
    } else if interp.bill_parallel(&l.par, &plan, &buckets) {
        interp.loop_entry(l).parallel_invocations += 1;
    }
    // Chunk cycle totals in chunk order: the deterministic cost profile
    // (never wall time, never steal interleaving).
    let profile = chunks.iter().map(|ch| ch.cycles).collect();

    // -- nested-loop stats and shared arrays (diff vs snapshot), worker order
    let mut skip = vec![false; interp.arrays.len()];
    for &a in &l.par.private_arrays {
        skip[a] = true;
    }
    for red in &l.par.reductions {
        if let RRef::Array(a) = red.target {
            skip[a] = true;
        }
    }
    let count_adopted = interp.recorder.is_enabled();
    for w in results {
        for (i, slot) in w.loops.iter().enumerate() {
            if let Some((label, st)) = slot {
                interp.loop_slot(i, label).absorb(st);
            }
        }
        for (i, wa) in w.arrays.into_iter().enumerate() {
            if !skip[i] {
                merge_bytes +=
                    commit_array(&mut interp.arrays[i].data, wa.data, &snapshot[i], count_adopted);
            }
        }
    }

    // -- reductions: chunk-ordered tree merge, shared := shared ∘ total --
    let mut partials: Vec<Vec<ArrData>> =
        chunks.iter_mut().map(|ch| std::mem::take(&mut ch.partials)).collect();
    tree_merge(&mut partials, |acc, part| {
        for ((a, p), red) in acc.iter_mut().zip(part).zip(&l.par.reductions) {
            merge_partial(a, p, red.op);
        }
    });
    // `trip > 0`, so there is a chunk 0 and the tree left the total there.
    for (red, total) in l.par.reductions.iter().zip(&partials[0]) {
        commit_total(interp, red, total);
        merge_bytes += 8 * total.len() as u64;
    }

    // -- copy-out (lastprivate) and output, in chunk order --------------
    for ch in &chunks {
        if let Some(vals) = &ch.copy_out {
            for &(s, v) in vals {
                interp.scalars[s] = v;
                merge_bytes += 8;
            }
        }
    }
    for ch in &mut chunks {
        interp.output.append(&mut ch.output);
    }
    interp.recorder.count(polaris_obs::Counter::ThreadedMergeBytes, merge_bytes);
    Ok((Flow::Normal, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::V;
    use crate::{ExecMode, Schedule};

    /// Tiny deterministic PRNG (SplitMix64) for the adversarial-order
    /// tests; the machine crate deliberately has no dev-dependencies on
    /// the fuzz harness.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Documented tolerance for floating-point reduction reassociation:
    /// merging P partials in a different association than the serial
    /// left fold perturbs a sum of N well-scaled terms by at most a few
    /// ULPs per level, far below 1e-12 relative for the sizes tested.
    const FP_REL_TOL: f64 = 1e-12;

    fn rel_err(a: f64, b: f64) -> f64 {
        (a - b).abs() / a.abs().max(b.abs()).max(1.0)
    }

    /// [`tree_merge`] over plain values, as the driver runs it over
    /// chunk-ordered partials.
    fn merged<T: Copy>(mut vals: Vec<T>, apply: impl Fn(T, T) -> T) -> Option<T> {
        tree_merge(&mut vals, |a, b| *a = apply(*a, *b));
        vals.first().copied()
    }

    #[test]
    fn tree_merge_has_the_documented_fixed_shape() {
        let shape = |n: usize| {
            let mut leaves: Vec<String> = (0..n).map(|i| ((b'a' + i as u8) as char).to_string()).collect();
            tree_merge(&mut leaves, |a, b| *a = format!("({a}{b})"));
            leaves.into_iter().next()
        };
        assert_eq!(shape(0), None);
        assert_eq!(shape(1).unwrap(), "a");
        assert_eq!(shape(4).unwrap(), "((ab)(cd))");
        assert_eq!(shape(5).unwrap(), "(((ab)(cd))e)");
        assert_eq!(shape(7).unwrap(), "(((ab)(cd))((ef)g))");
    }

    #[test]
    fn tree_merge_matches_serial_fold_within_tolerance() {
        let mut rng = Rng(42);
        for n in [1usize, 2, 3, 7, 8, 64, 1000] {
            let vals: Vec<f64> = (0..n).map(|_| rng.f64() * 100.0).collect();
            let serial: f64 = vals.iter().fold(0.0, |a, v| a + v);
            let tree = merged(vals.clone(), |a, b| red_apply_r(RedOp::Sum, a, b)).unwrap();
            assert!(
                rel_err(serial, tree) <= FP_REL_TOL,
                "n={n}: serial {serial} vs tree {tree}"
            );
            // max/min are exact under any association
            let serial_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(merged(vals.clone(), |a, b| red_apply_r(RedOp::Max, a, b)).unwrap(), serial_max);
        }
    }

    #[test]
    fn tree_merge_of_integers_is_exact() {
        let mut rng = Rng(7);
        for n in [1usize, 5, 17, 256] {
            let vals: Vec<i64> = (0..n).map(|_| (rng.next() % 1000) as i64 - 500).collect();
            let tree = |op| merged(vals.clone(), |a, b| red_apply_i(op, a, b)).unwrap();
            assert_eq!(tree(RedOp::Sum), vals.iter().fold(0i64, |a, v| a.wrapping_add(*v)));
            assert_eq!(tree(RedOp::Product), vals.iter().fold(1i64, |a, v| a.wrapping_mul(*v)));
            assert_eq!(tree(RedOp::Min), *vals.iter().min().unwrap());
        }
    }

    /// Chunks complete in adversarial (shuffled) order, but the merge
    /// consumes them by chunk index — the result must be bit-identical
    /// no matter the completion order.
    #[test]
    fn seeded_adversarial_completion_order_is_bit_stable() {
        let mut rng = Rng(0xDEAD_BEEF);
        let n = 37;
        let partials: Vec<(usize, f64)> =
            (0..n).map(|k| (k, rng.f64() * 10.0 - 5.0)).collect();
        let sum = |parts: &[(usize, f64)]| {
            merged(parts.iter().map(|(_, v)| *v).collect(), |a, b| red_apply_r(RedOp::Sum, a, b)).unwrap()
        };
        let reference = sum(&partials);
        for seed in 0..50u64 {
            let mut shuffled = partials.clone();
            let mut r = Rng(seed);
            // Fisher-Yates with the seeded generator
            for i in (1..shuffled.len()).rev() {
                let j = (r.next() % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            // what the driver does: sort by chunk index, then merge
            shuffled.sort_by_key(|(k, _)| *k);
            assert_eq!(sum(&shuffled).to_bits(), reference.to_bits(), "seed {seed}");
        }
    }

    /// An array partial merges element by element, each element in the
    /// association a scalar partial at the same chunk count gets — so a
    /// histogram cell's bits depend on the chunk plan exactly as a
    /// scalar sum's do.
    #[test]
    fn array_partials_merge_elementwise_in_the_scalar_association() {
        let mut rng = Rng(1996);
        for chunks in [1usize, 2, 5, 37] {
            let cols: Vec<Vec<f64>> =
                (0..3).map(|_| (0..chunks).map(|_| rng.f64() * 10.0 - 5.0).collect()).collect();
            let mut partials: Vec<ArrData> =
                (0..chunks).map(|k| ArrData::R(cols.iter().map(|c| c[k]).collect())).collect();
            tree_merge(&mut partials, |a, b| merge_partial(a, b, RedOp::Sum));
            let ArrData::R(total) = &partials[0] else { unreachable!() };
            for (j, col) in cols.iter().enumerate() {
                let want = merged(col.clone(), |a, b| red_apply_r(RedOp::Sum, a, b)).unwrap();
                assert_eq!(total[j].to_bits(), want.to_bits(), "{chunks} chunks, element {j}");
            }
        }
    }

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

    #[test]
    fn threaded_scalar_reduction_within_tolerance() {
        // A positive, well-scaled sum: the chunked tree association may
        // differ from the serial left fold by reassociation roundoff
        // only, far below the 1e-6 printed precision (see FP_REL_TOL).
        let src = "program t\nreal b(2000)\ndo k = 1, 2000\n  b(k) = k * 0.25\nend do\ns = 100.0\n!$polaris doall reduction(+:S)\ndo i = 1, 2000\n  s = s + b(i)\nend do\nprint *, s\nend\n";
        let p = parse(src);
        let serial = crate::exec::run_serial(&p).unwrap();
        for procs in [2, 4, 8] {
            let t = crate::exec::run(&p, &MachineConfig::threaded(procs, Schedule::Static)).unwrap();
            assert!(
                crate::exec::outputs_match(&serial.output, &t.output, FP_REL_TOL),
                "procs={procs}: {:?} vs {:?}",
                serial.output,
                t.output
            );
        }
    }

    #[test]
    fn threaded_max_reduction_is_exact() {
        let src = "program t\nreal b(777)\ndo k = 1, 777\n  b(k) = mod(k * 37, 101) * 1.0\nend do\nt = -1.0\n!$polaris doall reduction(MAX:T)\ndo i = 1, 777\n  t = max(t, b(i))\nend do\nprint *, t\nend\n";
        for procs in [2, 8] {
            let (s, t) = run_both(src, procs, Schedule::Static);
            assert_eq!(s, t, "max reduction must be exact at {procs} procs");
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
    /// threshold is crossed late. At 8 block lanes the master is in lane
    /// 4 by then and hands lanes 5..8 over; at 2 it is already in the
    /// last lane and runs both. Who ran a lane shows nowhere.
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
                    assert_eq!(handed, if procs == 8 { 3 } else { 0 }, "{procs} block lanes");
                }
            }
        }
    }

    /// A lane that panics is `WorkerPanicked` whoever ran it: the master
    /// before it forked (step 100), both threads after (5000), the helper
    /// alone (7000: lane 0 takes 6000 steps, lane 1 takes 8000). Nothing
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

    /// `-0.0` is the exact additive identity (`x + -0.0` is `x` bit for
    /// bit, `+0.0` included; `-0.0 + 0.0` is `+0.0`). With exact
    /// identities `shared ∘ identity == shared`, so the commit needs no
    /// "did any chunk touch it" flag: merging a partial nothing touched
    /// is a no-op by arithmetic. (The validator's `RedAccum` keeps its
    /// flag: it is the independent reference.)
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
    /// one on a long loop cuts 128 chunks on 2 threads, not a million:
    /// claims, chunk results and partials stay O(workers).
    #[test]
    fn chunk_count_does_not_grow_with_the_trip_count() {
        let src = "program t\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, 1000000\n  s = s + 1.0\nend do\nprint *, s\nend\n";
        let rec = polaris_obs::Recorder::monotonic();
        let cfg = MachineConfig::threaded(2, Schedule::Stealing { chunk: 1 });
        let r = crate::exec::run_recorded(&parse(src), &cfg, &rec).unwrap();
        assert_eq!(r.output, ["1.000000E6"]);
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

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
//!   interpreter over the master's memory and claims through the same
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
//! **Lanes store in place; the master folds the rest as it goes, and the
//! join commits it or sends the loop back.** A lane stores into the
//! master's arrays themselves, as the iterations of a `DOALL` on a
//! shared-memory machine do: a fork copies only what is private to a lane
//! (see below). What a lane's pieces leave besides — reduction updates,
//! lines, copy-out — it hands the master in records ([`Record`]), over
//! the join channel. The master keeps a frontier, the lowest piece not
//! folded yet, and folds every record the frontier reaches, in piece
//! order, into staged targets, lines and copy-out ([`Fold`]): between its
//! own pieces, while a claim of its own waits, and after its lanes. The
//! frontier piece it runs itself it runs on the staged targets: nothing
//! is logged. A loop that reduces claims its pieces under [`Claims`]'
//! window, none four pieces per worker or more past the frontier, so what
//! the lanes hold unfolded is bounded by the window, not by the trip
//! count. The master claims the lowest piece, so it most often runs the
//! frontier itself and logs nothing, and the helpers the highest the
//! window allows. The wait cannot deadlock: the lane that holds the
//! frontier piece is never waiting (only pieces past it wait), it hands
//! the piece over when done, and the master folds while it waits; a
//! lane that panics closes the claims, so nobody waits for the piece it
//! held. A helper the window holds back polls for [`SPIN`], then parks
//! until the master moves the frontier.
//!
//! Nothing staged reaches the run until the join commits it: steps, bill,
//! loop stats, the scalar reductions, output, copy-out. An array
//! reduction is folded into the run's array in place: in a `DOALL` the
//! join fails only with an error, which ends the run. A `SPECULATIVE`
//! loop commits when every speculated array passes the test and no lane
//! reported an error (a passing test means no iteration read what
//! another wrote, so the lanes' execution *is* the sequential one).
//! Anything else — a failed verdict, *any* lane error or fuel-out in a
//! speculation (a lane that read another iteration's element may fault
//! where the serial loop does not) — drops what was staged, and the
//! invocation runs in order (`Interp::run_simulated`) from the state
//! before the fork: a speculation saves, once before it forks, each array
//! its body may store into (`RLoop::rollback`), and those copies are
//! restored first. That run *is* the serial execution, and the one
//! reporter of verdict, error, steps and the attempt + re-execution bill,
//! so none of them can differ between the backends. A lane panic is
//! `WorkerPanicked`, as in any loop.
//!
//! **The validator forks through the same [`join`].** `run_validated`'s
//! adversarial run forks each DOALL and speculation as one lane on the
//! calling thread: one-iteration pieces claimed last to first, privates
//! poisoned before each. So `--validate` checks them through the fold and
//! the join. Its lane reaches the frontier last, so it folds nothing
//! before it is done; past a budget of held updates the invocation runs
//! in order, from the arrays its fork saved.
//!
//! Correctness contract — results must be **deterministic and identical
//! to serial execution** even though execution order is not:
//!
//! * A lane copies the scalars (so privatized scalars are private), one
//!   handle per array on the master's elements and one reference to the
//!   image's shape table (names and layouts are never copied). It has
//!   its own elements for two kinds of array only: a copy of each array
//!   the loop privatizes, which is never merged, and each array-reduction
//!   target, held at the identity ([`RedLog::hold`]).
//! * A record holds a run of adjacent pieces — their output, where each
//!   one's lines end, the reduction log ([`RedLog`]) cut at the same
//!   ends — and reductions fold **in serial order**: the master replays
//!   each piece's updates in piece-index order, serial's own fold at any
//!   thread count or schedule.
//! * Shared arrays need no commit: a correctly-parallelized loop writes
//!   disjoint elements, so the lanes' stores are serial's whatever their
//!   order. The elements are atomic cells, so lanes that a miscompile or
//!   a forged annotation lets collide leave unspecified values, never
//!   undefined behaviour, and the equivalence tests and `run_validated`
//!   catch the divergence.
//! * Output (PRINT) is moved in piece order and copy-out scalars written
//!   last; errors are reported for the smallest failing iteration
//!   index, matching what sequential execution would hit first, and the
//!   settled fuel total is checked after them.
//! * Loops that lowering marked `in_order` never get here — a body that
//!   may `STOP` (a mid-loop STOP must suppress later iterations), a
//!   `SPECULATIVE` body in which a stale value could reach an inner `DO`
//!   (and keep a lane running long after the serial loop is done):
//!   `Interp::run_concurrent` keeps them on the simulated path.
//!
//! Simulated cycle accounting is maintained alongside real execution:
//! a lane adds up its pieces' cycles per plan chunk, whose total goes
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
use crate::value::{ArrData, Scalar, Shape};
use crate::MachineConfig;
use polaris_ir::expr::RedOp;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---- the persistent worker pool --------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle helper polls the job queue (and a helper the window
/// holds back, the frontier), and the master the join channel, before
/// parking. On the 2-core development host a round trip
/// between two parked threads takes ≈ 30 µs (median) and between two
/// polling ones ≈ 1 µs; the forks of a run arrive microseconds to tens
/// of microseconds apart.
pub(crate) const SPIN: Duration = Duration::from_micros(50);

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
    /// The most reduction updates this thread has held unfolded at once,
    /// as the master of a fork.
    pub(crate) static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

// ---- a lane, and what it hands the master -------------------------------

/// Pieces one lane ran back to back, adjacent in piece order (ascending,
/// or descending where it claims from the back), and what the join
/// commits of them: the master folds a record once the frontier reaches
/// its lowest piece.
#[derive(Default)]
struct Record {
    /// Each piece (a plan has under 2³² pieces), in the order it ran, and
    /// where its lines end in `output`: piece `k` of `updates` too.
    pieces: Vec<(u32, u32)>,
    output: Vec<String>,
    /// Per reduction, in `l.par.reductions` order.
    updates: Vec<Updates>,
    /// Copy-out values, from the piece that ends at the trip count.
    copy_out: Option<Vec<(usize, Scalar)>>,
}

impl Record {
    /// Whether piece `p` continues the run.
    fn extends(&self, p: usize) -> bool {
        self.pieces.last().is_none_or(|&(q, _)| p.abs_diff(q as usize) == 1)
    }
}

/// What a lane sends the master over the join channel.
enum Report {
    Record(Record),
    /// The lane is done; `None` when it panicked.
    Done(Option<LaneOut>),
}

/// What a lane reports once it is done, beside its records.
struct LaneOut {
    wid: usize,
    loops: Vec<Option<(String, crate::exec::LoopExecStats)>>,
    /// The lane's cycles per plan chunk, up to the last one it ran.
    cycles: Vec<u64>,
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
    /// The master's scalars at the fork, which the lane copies on its own
    /// thread: lanes' copies made side by side on the master's would
    /// share cache lines, which every iteration's stores then bounce.
    scalars: Arc<[Scalar]>,
    shapes: Arc<[Shape]>,
    /// Handles on the master's arrays.
    arrays: Vec<ArrData>,
    /// The master's step count at the fork, where the lane's own starts.
    steps: u64,
    /// Bytecode of the running unit + where this loop's body starts in
    /// it, when the VM engine drives execution (`None` pair = tree-walk).
    bc: Option<Arc<crate::bytecode::BcUnit>>,
    body: Option<u32>,
}

/// The thread a lane runs on: how it claims, what it does before a
/// piece, and where the lane's records go. The master folds them, a
/// helper sends them, the validator holds them to a budget.
trait Host {
    /// The lane's next piece: a helper's claim parks while the window
    /// holds it back.
    fn claim(&mut self, claims: &Claims, wid: usize) -> Option<usize> {
        claims.next(wid, None)
    }

    /// Before the lane runs piece `p`: the targets to fold it straight
    /// into, when this thread folds and `p` is the frontier.
    fn before(&mut self, _it: &mut Interp<'_>, _p: usize) -> Option<&mut Staged> {
        None
    }

    fn hand(&mut self, rec: Record);
}

/// Run lane `task.wid` on the calling thread: claim pieces until none
/// are left for it, each run as one range ([`Interp::run_range`]), and
/// hand its records to `host` — before a piece that does not extend the
/// run, after every piece under a window, and at the end. The lane stores
/// into the master's arrays in place but for the ones it has its own
/// of: a copy of each private array, and each array-reduction target
/// ([`RedLog::hold`]).
fn worker_run(task: WorkerTask, host: &mut impl Host) -> LaneOut {
    let WorkerTask { wid, l, space, claims, cfg, scalars, shapes, mut arrays, steps, bc, body } = task;
    for &a in &l.par.private_arrays {
        arrays[a] = arrays[a].copy();
    }
    let mut it = Interp::over(&cfg, scalars.to_vec(), shapes, arrays, steps);
    it.in_parallel = true;
    it.bc = bc;
    it.spec = it.fresh_shadows(&l);
    it.red = RedLog::hold(&mut it, &l.par.reductions);
    // One register frame for every piece of the lane.
    let mut frame = it.body_frame(body);
    let (mut rec, mut cycles, mut err) = (Record::default(), Vec::new(), None);
    while let Some(p) = host.claim(&claims, wid) {
        let (start, end) = claims.bounds(p);
        if start == end {
            continue; // a piece past a short block's end
        }
        if !rec.extends(p) {
            cut(&mut it, &mut rec, host);
        }
        let c0 = it.cycles;
        let mut range = ArmRange::new(space, start, end);
        // The frontier piece runs on the fold's own targets, logging
        // nothing: serial's fold itself.
        let mut direct = host.before(&mut it, p);
        let log = direct.is_some().then(|| it.red.take()).flatten();
        if let Some(staged) = direct.as_mut() {
            staged.swap(&mut it, &l.par.reductions);
        }
        err = match it.run_range(&l, &mut range, frame.as_mut()) {
            Ok(Flow::Normal) => None,
            // STOP bodies never reach the threaded path, but surface
            // it as an error defensively rather than silently
            // dropping iterations.
            Ok(Flow::Stop) => Some((range.idx, MachineError::Stopped)),
            Err(e) => Some((range.idx, e)),
        };
        if let Some(staged) = direct {
            staged.swap(&mut it, &l.par.reductions);
            it.red = log;
        }
        let chunk = claims.chunk_of(p);
        cycles.resize(cycles.len().max(chunk + 1), 0);
        cycles[chunk] += it.cycles - c0;
        rec.pieces.push((p as u32, u32::try_from(it.output.len()).expect("a lane's lines fit a u32")));
        if end == space.trip() && err.is_none() {
            rec.copy_out = Some(l.par.copy_out_scalars.iter().map(|&s| (s, it.scalars[s])).collect());
        }
        if let Some(log) = it.red.as_deref_mut() {
            log.end_piece();
        }
        if claims.windowed() {
            cut(&mut it, &mut rec, host);
        }
        if err.is_some() {
            break;
        }
    }
    cut(&mut it, &mut rec, host);
    let steps = it.steps - steps;
    LaneOut {
        wid,
        #[cfg(test)]
        fence: (it.activations, it.dispatches),
        loops: it.loop_stats,
        cycles,
        shadows: it.spec,
        steps,
        err,
    }
}

/// Hand the lane's run of pieces, with its lines and updates, to `host`.
fn cut(it: &mut Interp<'_>, rec: &mut Record, host: &mut impl Host) {
    if !rec.pieces.is_empty() {
        let output = std::mem::take(&mut it.output);
        let updates = it.red.as_deref_mut().map(RedLog::cut).unwrap_or_default();
        host.hand(Record { output, updates, ..std::mem::take(rec) });
    }
}

// ---- the reduction log: one fold, in serial order ----------------------

/// One reduction's updates in a lane, in the order they ran: the bits
/// each store left in the target — exactly its β — and, for an array
/// target, the element it went to (lowering caps an array at 2²⁸
/// elements); `ends[k]` is where the record's `k`-th piece's updates end.
#[derive(Default)]
pub(crate) struct Updates {
    elems: Blocks<u32>,
    bits: Blocks<u64>,
    ends: Vec<usize>,
}

impl Updates {
    /// No update of any of `reds`.
    fn none(reds: &[RRed]) -> Vec<Updates> {
        reds.iter().map(|_| Updates::default()).collect()
    }

    /// The updates in `all`.
    fn count(all: &[Updates]) -> usize {
        all.iter().map(|u| u.bits.len()).sum()
    }
}

/// Entries in a full block of a log: 32 KB of bits. A block doubles up to
/// it, then a log grows a block at a time, so it never reserves twice
/// what it needs, and blocks this small are memory the allocator hands
/// the next fork's logs again, where freeing a log that had doubled past
/// the allocator's mmap threshold raised it and left megabytes resident
/// (EXPERIMENTS.md, "Lanes store in place").
const BLOCK: usize = 4096;

/// An append-only sequence, kept in blocks of [`BLOCK`] entries.
#[derive(Default)]
struct Blocks<T> {
    blocks: Vec<Vec<T>>,
}

impl<T: Copy> Blocks<T> {
    fn len(&self) -> usize {
        self.blocks.last().map_or(0, |last| (self.blocks.len() - 1) * BLOCK + last.len())
    }

    fn push(&mut self, x: T) {
        if self.blocks.last().is_none_or(|last| last.len() == BLOCK) {
            self.blocks.push(Vec::new());
        }
        self.blocks.last_mut().expect("a block with room").push(x);
    }

    /// Entries `span`, in order: a slice of each block it covers.
    fn span(&self, span: std::ops::Range<usize>) -> impl Iterator<Item = T> + '_ {
        let blocks = span.start / BLOCK..span.end.div_ceil(BLOCK);
        self.blocks[blocks.clone()].iter().zip(blocks).flat_map(move |(block, b)| {
            let base = b * BLOCK;
            block[span.start.max(base) - base..(span.end - base).min(block.len())].iter().copied()
        })
    }
}

/// What a lane logs of one forked loop's reductions (`Interp::red`;
/// `None` everywhere else, so a serial store pays one test). While it is
/// installed each target holds its operator's identity, and
/// [`Interp::log_store`] turns a store into it into an update. The lane
/// cuts it with its record.
pub(crate) struct RedLog {
    reds: Vec<RRed>,
    /// Per reduction, in `reds` order.
    updates: Vec<Updates>,
}

impl RedLog {
    /// Hold `reds`' targets at their identities — an array target in
    /// cells of the lane's own — and log their stores, or `None` when the
    /// loop reduces nothing.
    fn hold(it: &mut Interp<'_>, reds: &[RRed]) -> Option<Box<RedLog>> {
        for red in reds {
            let (i, r) = (red_identity_i(red.op), red_identity_r(red.op));
            match red.target {
                RRef::Scalar(s) => match &mut it.scalars[s] {
                    Scalar::R(v) => *v = r,
                    Scalar::I(v) => *v = i,
                    Scalar::B(_) => {}
                },
                RRef::Array(a) => {
                    let own = it.arrays[a].blank();
                    own.fill(i, r, false);
                    it.arrays[a] = own;
                }
            }
        }
        (!reds.is_empty()).then(|| Box::new(RedLog { reds: reds.to_vec(), updates: Updates::none(reds) }))
    }

    /// End the piece the lane ran last here.
    fn end_piece(&mut self) {
        self.updates.iter_mut().for_each(|u| u.ends.push(u.bits.len()));
    }

    /// The updates since the last cut; the log goes on empty.
    fn cut(&mut self) -> Vec<Updates> {
        std::mem::replace(&mut self.updates, Updates::none(&self.reds))
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
    /// the target held the identity — so log its bits and reset the
    /// target.
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
            // The lane's own cells: a load and a store, no exchange.
            RRef::Array(a) => match &self.arrays[a] {
                ArrData::R(v) => {
                    let bits = v[elem].load(Relaxed);
                    v[elem].store(red_identity_r(op).to_bits(), Relaxed);
                    bits
                }
                ArrData::I(v) => {
                    let bits = v[elem].load(Relaxed) as u64;
                    v[elem].store(red_identity_i(op), Relaxed);
                    bits
                }
                ArrData::B(_) => return,
            },
        };
        let u = &mut log.updates[j];
        u.bits.push(bits);
        if let RRef::Array(_) = target {
            u.elems.push(elem as u32);
        }
    }
}

/// The reduction targets as folded so far, by slot: a scalar target's
/// value, staged until the join commits it, and a handle on an array
/// target's elements, which the fold updates in place (a speculation's
/// fork saved them, `RLoop::rollback`). Empty for a loop that reduces
/// nothing.
#[derive(Default)]
struct Staged {
    scalars: Vec<Scalar>,
    arrays: Vec<ArrData>,
}

impl Staged {
    /// Trade the targets with the lane's: around the frontier piece the
    /// lane runs on the fold's values, and its identities wait here.
    fn swap(&mut self, it: &mut Interp<'_>, reds: &[RRed]) {
        for red in reds {
            match red.target {
                RRef::Scalar(s) => std::mem::swap(&mut it.scalars[s], &mut self.scalars[s]),
                RRef::Array(a) => std::mem::swap(&mut it.arrays[a], &mut self.arrays[a]),
            }
        }
    }

    /// Apply piece `k`'s updates to their targets in order, `σ = σ ∘ β`
    /// per update — the serial loop's own fold when pieces are replayed
    /// in serial order. Returns the bytes applied.
    fn replay(&mut self, reds: &[RRed], updates: &[Updates], k: usize) -> u64 {
        let mut bytes = 0;
        for (red, u) in reds.iter().zip(updates) {
            let span = k.checked_sub(1).map_or(0, |prev| u.ends[prev])..u.ends[k];
            bytes += 8 * span.len() as u64;
            let (op, betas) = (red.op, u.bits.span(span.clone()));
            match red.target {
                RRef::Scalar(s) => match &mut self.scalars[s] {
                    Scalar::R(v) => *v = betas.fold(*v, |acc, b| red_apply_r(op, acc, f64::from_bits(b))),
                    Scalar::I(v) => *v = betas.fold(*v, |acc, b| red_apply_i(op, acc, b as i64)),
                    Scalar::B(_) => {}
                },
                RRef::Array(a) => match &self.arrays[a] {
                    ArrData::R(v) => u.elems.span(span).zip(betas).for_each(|(e, b)| {
                        let cell = &v[e as usize];
                        let sigma = f64::from_bits(cell.load(Relaxed));
                        cell.store(red_apply_r(op, sigma, f64::from_bits(b)).to_bits(), Relaxed);
                    }),
                    ArrData::I(v) => u.elems.span(span).zip(betas).for_each(|(e, b)| {
                        let cell = &v[e as usize];
                        cell.store(red_apply_i(op, cell.load(Relaxed), b as i64), Relaxed);
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

// ---- the fold: the master's side of the join ----------------------------

/// What the master gathers of one fork: the lanes' reports, and the fold
/// of their records from the frontier on, in piece order — serial
/// order — into targets, lines and copy-out that reach `interp` only when
/// the join commits.
struct Fold {
    claims: Arc<Claims>,
    reds: Vec<RRed>,
    staged: Staged,
    /// Records handed over before the frontier reached them (a window's).
    held: Vec<Record>,
    /// The updates in `held`.
    held_updates: usize,
    output: Vec<String>,
    copy_out: Option<Vec<(usize, Scalar)>>,
    merge_bytes: u64,
    lanes: Vec<LaneOut>,
    rx: mpsc::Receiver<Report>,
}

impl Fold {
    fn new(interp: &Interp<'_>, l: &RLoop, claims: &Arc<Claims>, rx: mpsc::Receiver<Report>) -> Fold {
        let staged = match l.par.reductions.is_empty() {
            true => Staged::default(),
            false => Staged { scalars: interp.scalars.clone(), arrays: interp.arrays.clone() },
        };
        Fold {
            claims: Arc::clone(claims),
            reds: l.par.reductions.clone(),
            staged,
            held: Vec::new(),
            held_updates: 0,
            output: Vec::new(),
            copy_out: None,
            merge_bytes: 0,
            lanes: Vec::new(),
            rx,
        }
    }

    fn take(&mut self, report: Report) {
        match report {
            Report::Record(rec) => self.add(rec),
            Report::Done(out) => self.lanes.extend(out),
        }
    }

    /// Wait for a report and take it.
    fn recv(&mut self) {
        if let Ok(report) = recv_spinning(&self.rx) {
            self.take(report);
        }
    }

    /// Take the reports that have arrived.
    fn poll(&mut self) {
        while let Ok(report) = self.rx.try_recv() {
            self.take(report);
        }
    }

    /// Fold `rec` and every held record the frontier reaches, or hold it.
    fn add(&mut self, rec: Record) {
        let lowest = |r: &Record| r.pieces[0].0.min(r.pieces[r.pieces.len() - 1].0) as usize;
        if lowest(&rec) != self.claims.frontier() {
            self.held_updates += Updates::count(&rec.updates);
            #[cfg(test)]
            HELD.with(|h| h.set(h.get().max(self.held_updates)));
            self.held.push(rec);
            return;
        }
        self.fold(rec);
        while let Some(at) = self.held.iter().position(|r| lowest(r) == self.claims.frontier()) {
            let rec = self.held.swap_remove(at);
            self.held_updates -= Updates::count(&rec.updates);
            self.fold(rec);
        }
    }

    /// Fold `rec`, whose lowest piece is the frontier, a piece at a time
    /// in piece order: its updates, then its lines.
    fn fold(&mut self, mut rec: Record) {
        let n = rec.pieces.len();
        let ascending = rec.pieces[0].0 <= rec.pieces[n - 1].0;
        for k in (0..n).map(|i| if ascending { i } else { n - 1 - i }) {
            self.merge_bytes += self.staged.replay(&self.reds, &rec.updates, k);
            let lines = k.checked_sub(1).map_or(0, |j| rec.pieces[j].1 as usize)..rec.pieces[k].1 as usize;
            self.output.extend(rec.output[lines].iter_mut().map(std::mem::take));
            self.claims.pass(rec.pieces[k].0 as usize);
        }
        if rec.copy_out.is_some() {
            self.copy_out = rec.copy_out;
        }
    }
}

/// The master: it runs lanes itself, in lane order, until the cycles it
/// has executed reach the bill's guard, then hands the lanes nobody has
/// started to the helpers; between its pieces and while a claim waits it
/// folds, and the frontier piece it runs it folds straight into the
/// staged targets.
struct Master<'f> {
    fold: &'f mut Fold,
    tx: &'f mpsc::Sender<Report>,
    lane: &'f dyn Fn(usize) -> WorkerTask,
    /// Lanes to run, and the first one nobody has started.
    procs: usize,
    unstarted: usize,
    /// Cycles of the lanes the master finished, and the guard's threshold.
    ran: u64,
    threshold: u64,
    helpers: usize,
}

impl Master<'_> {
    fn hand_over(&mut self) {
        HELPERS.with_borrow_mut(|pool| {
            pool.grow(self.helpers);
            #[cfg(test)]
            HELPER_COUNTS.with(|c| c.set((c.get().0, c.get().1 + (self.procs - self.unstarted) as u64)));
            for task in (self.unstarted..self.procs).map(self.lane) {
                let (tx, claims) = (self.tx.clone(), Arc::clone(&task.claims));
                pool.submit(Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| worker_run(task, &mut Helper(&tx))));
                    if out.is_err() {
                        claims.close();
                    }
                    let _ = tx.send(Report::Done(out.ok()));
                }));
            }
        });
        self.unstarted = self.procs;
    }
}

impl Host for Master<'_> {
    /// The master claims the lowest piece, and folds while the window
    /// holds it back.
    fn claim(&mut self, claims: &Claims, wid: usize) -> Option<usize> {
        claims.next(wid, Some(&mut || self.fold.recv()))
    }

    fn before(&mut self, it: &mut Interp<'_>, p: usize) -> Option<&mut Staged> {
        if self.unstarted < self.procs && self.ran + it.cycles >= self.threshold {
            self.hand_over();
        }
        self.fold.poll();
        (self.fold.claims.frontier() == p).then_some(&mut self.fold.staged)
    }

    fn hand(&mut self, rec: Record) {
        self.fold.add(rec);
    }
}

/// A helper sends its records to the master.
struct Helper<'t>(&'t mpsc::Sender<Report>);

impl Host for Helper<'_> {
    fn hand(&mut self, rec: Record) {
        let _ = self.0.send(Report::Record(rec));
    }
}

/// The validator's reversed lane reaches the frontier last, so it folds
/// nothing before it is done: it holds its updates to a budget of its
/// own, past which it claims nothing more and the invocation runs in
/// order.
struct Validator<'f> {
    fold: &'f mut Fold,
    par: &'f RPar,
    budget: usize,
    full: bool,
}

impl Host for Validator<'_> {
    fn before(&mut self, it: &mut Interp<'_>, _p: usize) -> Option<&mut Staged> {
        let logged = it.red.as_ref().map_or(0, |log| Updates::count(&log.updates));
        if self.fold.held_updates + logged >= self.budget {
            self.full = true;
            self.fold.claims.close();
        }
        poison(it, self.par);
        None
    }

    fn hand(&mut self, rec: Record) {
        self.fold.add(rec);
    }
}

// ---- the fork and the join --------------------------------------------

/// Execute one `PARALLEL DO` or `SPECULATIVE` loop over `plan` and hand
/// what its lanes did to [`join`]. Real threads: the calling thread and,
/// once the loop has shown it amortizes a fork, the helper pool. With
/// `validate`, the validator's run of the loop: one lane on the calling
/// thread that claims the iterations last to first ([`Claims::reversed`],
/// at most `validate.0` pieces), what the loop privatizes poisoned before
/// each piece, and `None` — run it in order — once it holds `validate.1`
/// reduction updates. Called from `Interp::run_concurrent`.
pub(crate) fn run_threaded_loop(
    interp: &mut Interp<'_>,
    l: &Arc<RLoop>,
    space: IterSpace,
    body: Option<u32>,
    plan: ChunkPlan,
    validate: Option<(usize, usize)>,
) -> Result<Option<(Flow, Vec<u64>)>, MachineError> {
    // An adaptive plan may have fewer lanes than the machine has threads
    // (idle helpers are fine).
    let procs = plan.procs();
    let claims = Arc::new(match validate {
        Some((pieces, _)) => Claims::reversed(&plan, pieces),
        None => Claims::new(&plan, !l.par.reductions.is_empty()),
    });
    let (tx, rx) = mpsc::channel::<Report>();
    let mut fold = Fold::new(interp, l, &claims, rx);
    let scalars: Arc<[Scalar]> = interp.scalars.as_slice().into();
    let lane = |wid: usize| WorkerTask {
        wid,
        l: Arc::clone(l),
        space,
        claims: Arc::clone(&claims),
        cfg: interp.cfg.clone(),
        scalars: Arc::clone(&scalars),
        shapes: Arc::clone(&interp.shapes),
        arrays: interp.arrays.clone(),
        steps: interp.steps,
        bc: interp.bc.clone(),
        body,
    };
    if let Some((_, budget)) = validate {
        let mut validator = Validator { fold: &mut fold, par: &l.par, budget, full: false };
        let out = worker_run(lane(0), &mut validator);
        if validator.full {
            return Ok(None);
        }
        fold.lanes.push(out);
        return join(interp, l, &plan, fold);
    }

    // Which thread ran a lane shows in nothing the join commits, so a
    // loop under the guard wakes no one and commits what a forked one
    // would. A lane with nothing left to claim is not started: it would
    // only return an empty result.
    let mut master = Master {
        fold: &mut fold,
        tx: &tx,
        lane: &lane,
        procs,
        unstarted: 0,
        ran: 0,
        threshold: interp.guard_threshold(),
        helpers: interp.cfg.procs - 1,
    };
    while master.unstarted < procs && !claims.drained() {
        let wid = master.unstarted;
        master.unstarted += 1;
        // A panic in the master's lane is a helper's: no result for it,
        // and nothing more to claim.
        match catch_unwind(AssertUnwindSafe(|| worker_run(lane(wid), &mut master))) {
            Ok(out) => {
                master.ran += out.cycles.iter().sum::<u64>();
                master.fold.lanes.push(out);
            }
            Err(_) => {
                claims.close();
                break;
            }
        }
    }
    // Every lane handed over reports before the run goes on: no work
    // crosses into a later run. A lane started with no result is one
    // that panicked.
    let started = master.unstarted;
    drop(tx);
    while let Ok(report) = recv_spinning(&fold.rx) {
        fold.take(report);
    }
    if fold.lanes.len() < started {
        return Err(MachineError::WorkerPanicked { loop_label: l.label.clone() });
    }
    join(interp, l, &plan, fold)
}

/// Decide the invocation from its lanes, whoever ran them, and return
/// the cycles of each plan chunk — or `None` when a speculation must run
/// in order instead, having changed nothing but the arrays the lanes and
/// the fold stored into, which the caller restores (`RLoop::rollback`).
/// Errors are reported for the smallest failing iteration; committed are
/// the fuel the lanes took, the bill, the lanes' loop stats, and what
/// the fold staged: the scalar reduction targets, the output in piece
/// order, which is serial order, and the copy-out. The lanes' other
/// stores, and the array reductions, are in memory already.
fn join(interp: &mut Interp<'_>, l: &RLoop, plan: &ChunkPlan, fold: Fold) -> Result<Option<(Flow, Vec<u64>)>, MachineError> {
    let Fold { claims, staged, output, copy_out, mut merge_bytes, lanes: mut results, .. } = fold;
    results.sort_by_key(|w| w.wid);

    // The PD test over the lanes' marks failing. A lane error counts as a
    // failed verdict (the marks of a faulting iteration are not even
    // complete). Nothing of the lanes but their stores has reached
    // `interp` yet: drop them and run the loop in order, which re-derives
    // values, verdict, error, steps and bill.
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

    // Each plan chunk's cycles, the lanes' added up, in chunk order: the
    // deterministic cost profile (never wall time, never steal
    // interleaving), and what the simulator bills.
    let profile: Vec<u64> = (0..plan.n_chunks())
        .map(|c| results.iter().filter_map(|w| w.cycles.get(c)).sum())
        .collect();

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

    // -- nested-loop stats, lane order
    for w in &results {
        for (i, slot) in w.loops.iter().enumerate() {
            if let Some((label, st)) = slot {
                interp.loop_slot(i, label).absorb(st);
            }
        }
    }

    // -- what the fold staged: the scalar reductions, the output in
    // piece order, then the copy-out (lastprivate)
    for red in &l.par.reductions {
        if let RRef::Scalar(s) = red.target {
            interp.scalars[s] = staged.scalars[s];
        }
    }
    interp.output.extend(output);
    for &(s, v) in copy_out.iter().flatten() {
        interp.scalars[s] = v;
        merge_bytes += 8;
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
        it.arrays[a].fill(POISON_I, f64::NAN, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, Schedule};

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

    /// A reduction two lanes' logs of 2¹⁸ updates could not hold stays
    /// on threads: the master folds the pieces in order as they finish,
    /// and the lanes' `b(i) = b(i) + i` in place counts once. Serial's
    /// bits, the simulator's cycles, the serial fuel steps, and its
    /// chunks joined.
    #[test]
    fn a_reduction_past_the_old_log_cap_stays_on_threads() {
        let trips = 2 * (1 << 18) + 2;
        let src = format!("program t\nreal b({trips})\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, {trips}\n  s = s + 1.0 / i\n  b(i) = b(i) + i\nend do\nprint *, s, b({trips})\nend\n");
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
            let chunks = rec.counters().get("exec.threaded.chunks").copied().unwrap_or(0);
            assert!(chunks > 0, "{schedule:?}: no chunk joined");
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
    /// one on a long loop cuts 128 chunks on 2 threads, not 400 000:
    /// claims and chunk results stay O(workers).
    #[test]
    fn chunk_count_does_not_grow_with_the_trip_count() {
        let src = "program t\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, 400000\n  s = s + 1.0\nend do\nprint *, s\nend\n";
        let rec = polaris_obs::Recorder::monotonic();
        let cfg = MachineConfig::threaded(2, Schedule::Stealing { chunk: 1 });
        let r = crate::exec::run_recorded(&parse(src), &cfg, &rec).unwrap();
        assert_eq!(r.output, ["4.000000E5"]);
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

//! How a real thread claims its next piece of a [`ChunkPlan`], under
//! every schedule.
//!
//! The plan is a pure function of `(trip, schedule, procs)`, so a piece
//! index is all a thread needs: its bounds come from the plan and nothing
//! is published through the claims. A *piece* is a plan chunk under
//! `Dynamic` and `Stealing`; under `Static` each block chunk is cut into
//! [`PIECES`] of them. The unclaimed pieces are one half-open interval
//! packed into one `AtomicU64`: the master, which folds, takes the front,
//! and every other caller the back — the helpers, and the validator's
//! reversed lane — one compare-and-swap each. The schedules differ only
//! in how the plan is cut into pieces.
//!
//! The master takes one piece a claim. Where two or more helpers share
//! the back, a helper takes a run of `left / (2 × procs)` adjacent
//! pieces, at least one (factoring), and runs it in order, so however
//! their claims interleave the master folds a record a run, not a piece.
//! A lone helper and the validator's lane take one piece a claim.
//!
//! So the master runs the loop's first iterations and the helpers its
//! last ones, and the two ends meet wherever the work balances: the
//! helpers of a fork the guard deferred start late on the back of the
//! space, and every piece the master did not take lies above those it
//! did.
//!
//! A loop that reduces claims its pieces under a [`Window`], whatever the
//! schedule: each piece is at most [`REDUCTION_PIECE`] iterations, and
//! none is claimed [`WINDOW_PER_WORKER`] pieces per worker or more past
//! the *frontier*, the lowest piece the master has not folded yet (see
//! `threaded.rs`), so what the lanes hold unfolded is bounded by the
//! window, not by the trip count. The master takes the lowest unclaimed
//! piece, which is most often the frontier itself, and the helpers the
//! highest the window allows — the interval's rule, below a bound that
//! moves, so it is a lock, not a word; a helper the window holds back
//! polls, then parks until the master moves the frontier.
//!
//! Determinism: a claim decides **who executes** a piece, never **what**
//! the piece is. Piece bounds, the order reduction logs are replayed in,
//! and the merge order downstream are all keyed by the piece index, which
//! orders pieces as their iterations are, and a piece folds back to its
//! plan chunk for the bill, so any claim interleaving yields
//! bit-identical results (see `threaded.rs`).

use crate::cost::Schedule;
use crate::dispatch::ChunkPlan;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::ops::Range;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Pieces a `Static` block is claimed in. Each costs one claim and one
/// VM activation; more of them balance a late fork more finely.
const PIECES: usize = 16;

/// Iterations a reduction loop's piece holds at most: without it a
/// `Static` piece of a 40 M-trip sum on 2 threads is 1.25 M iterations
/// of log. No kernel's piece count changes (OCEAN's are 3 971).
const REDUCTION_PIECE: u64 = 1 << 12;

/// Pieces past the frontier a reduction loop may claim, per worker. A
/// helper's piece, logged, takes about 1.7 times the master's, folded
/// as it runs, and the master logs a piece it claims while a helper's
/// below it still runs: on the 40 M-trip sum on 2 threads the master
/// logged a third of its iterations with 2 per worker, and 0.3–1.6 %
/// with 4 (EXPERIMENTS.md).
const WINDOW_PER_WORKER: usize = 4;

/// The unclaimed pieces of one loop invocation. Threads call
/// [`Claims::next`] until it returns `None`. O(1) to build and to hold,
/// whatever the chunk count.
pub(crate) struct Claims {
    plan: ChunkPlan,
    /// Pieces per plan chunk.
    pieces: usize,
    /// A back claim takes `1 / share` of the pieces left, at least one;
    /// 0 (one piece) for a lone helper or the validator's lane.
    share: u32,
    /// `front << 32 | back`: pieces `front..back` are unclaimed.
    left: AtomicU64,
    /// A reducing loop's claims, which replace `left`.
    window: Option<Window>,
    /// The frontier: the lowest piece not folded yet. Only the master
    /// moves it ([`Claims::pass`]); `Relaxed`, as it publishes no memory
    /// (a lane reads nothing the fold wrote), it only holds claims back.
    frontier: AtomicUsize,
}

/// The claims of a loop that reduces: which pieces are taken, under a
/// lock (a piece is up to [`REDUCTION_PIECE`] iterations, so a claim is
/// rare beside the work), and where a helper parks.
struct Window {
    /// Pieces past the frontier a worker may claim.
    size: usize,
    claimed: Mutex<Claimed>,
    /// Signalled when the frontier moves or the claims close.
    moved: Condvar,
}

#[derive(Default)]
struct Claimed {
    /// Every piece below `low` is claimed, and `low` is not.
    low: usize,
    /// The pieces above `low` the helpers claimed.
    high: Vec<usize>,
    /// Helpers parked until the frontier moves.
    parked: usize,
    closed: bool,
}

impl Window {
    fn lock(&self) -> MutexGuard<'_, Claimed> {
        self.claimed.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn pack(front: u32, back: u32) -> u64 {
    u64::from(front) << 32 | u64::from(back)
}

impl Claims {
    /// The plan cut into pieces as its schedule asks — and, for a loop
    /// that `reduces`, claimed under a window.
    pub(crate) fn new(plan: &ChunkPlan, reduces: bool) -> Claims {
        let pieces = if plan.schedule == Schedule::Static { PIECES } else { 1 };
        if !reduces {
            return Claims::cut(plan, pieces);
        }
        let capped = plan.bounds(0).1.div_ceil(REDUCTION_PIECE).min(u64::from(u32::MAX) / plan.n_chunks().max(1) as u64);
        let window = Window {
            size: WINDOW_PER_WORKER * plan.procs().max(1),
            claimed: Mutex::default(),
            moved: Condvar::new(),
        };
        Claims { window: Some(window), ..Claims::cut(plan, pieces.max(capped as usize)) }
    }

    /// The cut of the validator's reversed lane, which claims from the
    /// back: a piece is one iteration while that makes at most `budget`
    /// pieces; past it each chunk is cut into `budget / chunks` pieces.
    pub(crate) fn reversed(plan: &ChunkPlan, budget: usize) -> Claims {
        let (chunks, per) = (plan.n_chunks(), plan.bounds(0).1 as usize);
        Claims { share: 0, ..Claims::cut(plan, per.min(budget / chunks.max(1)).max(1)) }
    }

    /// The plan's chunks cut into `pieces` pieces each, all unclaimed.
    fn cut(plan: &ChunkPlan, pieces: usize) -> Claims {
        let n = plan.n_chunks().saturating_mul(pieces);
        assert!(n <= u32::MAX as usize, "a plan cuts at most 64 chunks per worker thread");
        let claims = Claims {
            plan: *plan,
            pieces,
            share: if plan.procs() > 2 { 2 * plan.procs().min(1 << 30) as u32 } else { 0 },
            left: AtomicU64::new(pack(0, n as u32)),
            window: None,
            frontier: AtomicUsize::new(0),
        };
        claims.frontier.store(claims.nonempty_from(0), Ordering::Relaxed);
        claims
    }

    fn n_pieces(&self) -> usize {
        self.plan.n_chunks() * self.pieces
    }

    /// The first piece from `p` on that has an iteration, or the piece
    /// count.
    fn nonempty_from(&self, mut p: usize) -> usize {
        while p < self.n_pieces() && matches!(self.bounds(p), (start, end) if start == end) {
            p += 1;
        }
        p
    }

    /// Whether `q` is the first piece after `p` with an iteration: the
    /// frontier passes the two one after the other.
    pub(crate) fn follows(&self, p: usize, q: usize) -> bool {
        q > p && self.nonempty_from(p + 1) == q
    }

    /// The lowest piece not folded yet. A piece with no iteration counts
    /// as folded at once.
    pub(crate) fn frontier(&self) -> usize {
        self.frontier.load(Ordering::Relaxed)
    }

    /// Piece `p`, the frontier, is folded: move the frontier past it and
    /// the empty pieces after it, and wake the helpers the window parked.
    pub(crate) fn pass(&self, p: usize) {
        debug_assert_eq!(p, self.frontier(), "pieces fold in order");
        self.frontier.store(self.nonempty_from(p + 1), Ordering::Relaxed);
        if let Some(w) = &self.window {
            if w.lock().parked > 0 {
                w.moved.notify_all();
            }
        }
    }

    /// Whether a lane hands over each piece as soon as it is done: the
    /// master can fold it only then, and a window waits for the fold.
    pub(crate) fn windowed(&self) -> bool {
        self.window.is_some()
    }

    /// Leave nothing more to claim: a lane panicked, so the frontier will
    /// not pass the piece it held and no lane may wait for it, or the
    /// validator's lane holds its budget.
    pub(crate) fn close(&self) {
        self.left.store(0, Ordering::Relaxed);
        if let Some(w) = &self.window {
            w.lock().closed = true;
            w.moved.notify_all();
        }
    }

    /// The plan chunk piece `p` is part of.
    pub(crate) fn chunk_of(&self, p: usize) -> usize {
        p / self.pieces
    }

    /// The iterations of piece `p`: its share of its chunk's, larger
    /// shares first. A chunk shorter than its piece count leaves the
    /// pieces at its back empty.
    pub(crate) fn bounds(&self, p: usize) -> (u64, u64) {
        let (start, end) = self.plan.bounds(self.chunk_of(p));
        let n = self.pieces as u64;
        let (per, longer) = ((end - start) / n, (end - start) % n);
        let cut = |j: u64| start + j * per + j.min(longer);
        let j = (p % self.pieces) as u64;
        (cut(j), cut(j + 1))
    }

    /// Claim the next pieces, to run in order: the master (`fold`, which
    /// it calls while a window holds it back) the lowest unclaimed one,
    /// any other caller (`None`) a run of the highest — one piece under a
    /// window. `None` means nothing is left to claim, for good: the
    /// interval only shrinks.
    pub(crate) fn next(&self, fold: Option<&mut dyn FnMut()>) -> Option<Range<usize>> {
        if let Some(w) = &self.window {
            return self.claim_windowed(w, fold).map(|p| p..p + 1);
        }
        self.take(fold.is_none())
    }

    /// Claim one end of the interval: the front piece, or a run off the
    /// back. `Relaxed` suffices: the word publishes no other memory
    /// (bounds come from the plan, results travel through the join
    /// channel), and exactly-once follows from the single word's
    /// modification order alone.
    fn take(&self, from_back: bool) -> Option<Range<usize>> {
        let mut seen = self.left.load(Ordering::Relaxed);
        loop {
            let (front, back) = ((seen >> 32) as u32, seen as u32);
            if front >= back {
                return None;
            }
            let (from, to) = match from_back {
                true => (back - (back - front).checked_div(self.share).unwrap_or(1).max(1), back),
                false => (front, front + 1),
            };
            let rest = if from_back { pack(front, from) } else { pack(to, back) };
            match self.left.compare_exchange_weak(seen, rest, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(from as usize..to as usize),
                Err(now) => seen = now,
            }
        }
    }

    /// Under the window: the lowest unclaimed piece for the master, the
    /// highest below the window's end for a helper. While there is none,
    /// the master folds; a helper polls for `threaded::SPIN`, then parks
    /// until the frontier moves. The one that holds the frontier piece is
    /// never held back, so someone always hands it over.
    fn claim_windowed(&self, w: &Window, mut fold: Option<&mut dyn FnMut()>) -> Option<usize> {
        let n = self.n_pieces();
        let until = Instant::now() + crate::threaded::SPIN;
        let mut c = w.lock();
        loop {
            if c.closed || c.low >= n {
                return None;
            }
            let end = (self.frontier() + w.size).min(n);
            let p = match fold {
                Some(_) => (c.low < end).then_some(c.low),
                None => (c.low..end).rev().find(|p| !c.high.contains(p)),
            };
            if let Some(p) = p {
                if p == c.low {
                    c.low += 1;
                    while let Some(i) = c.high.iter().position(|&q| q == c.low) {
                        c.high.swap_remove(i);
                        c.low += 1;
                    }
                } else {
                    c.high.push(p);
                }
                return Some(p);
            }
            match fold.as_mut() {
                Some(fold) => {
                    drop(c);
                    fold();
                    c = w.lock();
                }
                None if Instant::now() < until => {
                    drop(c);
                    std::thread::yield_now();
                    c = w.lock();
                }
                None => {
                    c.parked += 1;
                    c = w.moved.wait(c).unwrap_or_else(PoisonError::into_inner);
                    c.parked -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    const SCHEDULES: [Schedule; 3] =
        [Schedule::Static, Schedule::Dynamic { chunk: 1 }, Schedule::Stealing { chunk: 1 }];

    /// `workers` threads start together and drain `claims`, the first as
    /// the master and the others as helpers; returns what each claimed,
    /// in claim order.
    fn drain(claims: &Claims, workers: usize) -> Vec<Vec<Range<usize>>> {
        let start = Barrier::new(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        let mut fold = || {};
                        let next = || match wid {
                            0 => claims.next(Some(&mut fold)),
                            _ => claims.next(None),
                        };
                        std::iter::from_fn(next).collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn assert_each_piece_once(runs: Vec<Range<usize>>, pieces: usize, what: &str) {
        let mut got: Vec<usize> = runs.into_iter().flatten().collect();
        got.sort_unstable();
        assert_eq!(got, (0..pieces).collect::<Vec<_>>(), "pieces lost or duplicated: {what}");
    }

    /// Every schedule's claim × 1..=8 workers × trips around the worker
    /// count, under the piece count and far past both: the workers
    /// partition the piece space exactly — nothing lost, nothing claimed
    /// twice — the master claiming one piece at a time in ascending
    /// order, and every helper in descending order, one piece at a time
    /// when it is the only one.
    #[test]
    fn every_piece_is_claimed_exactly_once_under_every_schedule() {
        for schedule in SCHEDULES {
            for workers in 1..=8usize {
                for trip in [0, 1, workers - 1, workers, PIECES - 1, 1000] {
                    let plan = ChunkPlan::new(trip as u64, workers, schedule);
                    let claims = Claims::new(&plan, false);
                    let per_worker = drain(&claims, workers);
                    let what = format!("{schedule:?} x{workers} trip {trip}");
                    let master = &per_worker[0];
                    assert!(master.iter().all(|r| r.len() == 1), "the master takes one piece: {what}");
                    assert!(master.is_sorted_by(|a, b| a.end <= b.start), "the master ascends: {what}");
                    for mine in &per_worker[1..] {
                        assert!(workers > 2 || mine.iter().all(|r| r.len() == 1), "a lone helper: {what}");
                        assert!(mine.is_sorted_by(|a, b| a.start >= b.end), "a helper descends: {what}");
                    }
                    let pieces = if schedule == Schedule::Static { PIECES } else { 1 };
                    assert_each_piece_once(per_worker.concat(), plan.n_chunks() * pieces, &what);
                }
            }
        }
    }

    /// A `Static` block's pieces tile it in order and fold back to it, a
    /// block shorter than the piece count leaves the pieces at its back
    /// empty, and exactly one piece ends at the trip count: the one
    /// holding iteration `trip - 1`, which copy-out comes from.
    #[test]
    fn static_pieces_tile_each_block_and_fold_back_to_it() {
        for procs in [2, 3, 8] {
            for trip in [1, procs as u64 - 1, PIECES as u64 - 1, 1000] {
                let plan = ChunkPlan::new(trip, procs, Schedule::Static);
                let claims = Claims::new(&plan, false);
                let mut last = Vec::new();
                for k in 0..plan.n_chunks() {
                    let (start, end) = plan.bounds(k);
                    let mut next = start;
                    for p in k * PIECES..(k + 1) * PIECES {
                        assert_eq!(claims.chunk_of(p), k);
                        let (s, e) = claims.bounds(p);
                        assert!(s == next && s <= e, "piece {p} of {plan:?}");
                        let empty = (p - k * PIECES) as u64 >= end - start;
                        assert_eq!(s == e, empty, "piece {p} of {plan:?}");
                        if s < trip && trip - 1 < e {
                            last.push(p);
                        }
                        next = e;
                    }
                    assert_eq!(next, end, "the pieces tile chunk {k} of {plan:?}");
                }
                let holding = (0..plan.n_chunks() * PIECES).filter(|&p| claims.bounds(p).1 == trip && claims.bounds(p).0 < trip);
                assert!(last.len() == 1 && holding.eq(last.iter().copied()), "{plan:?}: {last:?}");
            }
        }
    }

    /// The validator's lane hands out the iterations last to first, one a
    /// piece while the budget lasts and `budget / chunks` pieces a chunk
    /// past it, and each piece folds back to the chunk holding it.
    #[test]
    fn a_reversed_lane_claims_iterations_last_to_first() {
        for (trip, budget) in [(100, 1000), (1000, 64), (0, 8)] {
            let plan = ChunkPlan::new(trip, 8, Schedule::Static);
            let claims = Claims::reversed(&plan, budget);
            let got: Vec<usize> = std::iter::from_fn(|| claims.next(None)).flatten().collect();
            assert!(
                trip <= budget as u64 || got.len() <= budget,
                "{trip}, {budget}: {} pieces",
                got.len()
            );
            let mut next = trip;
            for &p in &got {
                let (s, e) = claims.bounds(p);
                if s < e {
                    assert_eq!(e, next, "{trip}, {budget}: piece {p}");
                    assert!(
                        trip > budget as u64 || e - s == 1,
                        "{trip}, {budget}: piece {p}"
                    );
                    let (cs, ce) = plan.bounds(claims.chunk_of(p));
                    assert!(cs <= s && e <= ce, "{trip}, {budget}: piece {p}");
                    next = s;
                }
            }
            assert_eq!(next, 0, "{trip}, {budget}: the pieces tile 0..trip");
        }
    }

    /// The master takes ascending pieces off the front, helpers
    /// descending ones off the back, so the interval's two ends never
    /// cross, and once they meet neither gets a piece. With one helper
    /// a run is one piece.
    #[test]
    fn the_master_takes_the_front_and_a_helper_the_back() {
        let claims = Claims::new(&ChunkPlan::new(10, 2, Schedule::Stealing { chunk: 1 }), false);
        let mut fold = || panic!("no window holds the master back");
        assert_eq!(claims.next(Some(&mut fold)), Some(0..1));
        assert_eq!(claims.next(Some(&mut fold)), Some(1..2));
        for k in (5..10).rev() {
            assert_eq!(claims.next(None), Some(k..k + 1), "a helper takes the back");
        }
        assert_eq!(claims.next(Some(&mut fold)), Some(2..3));
        assert_eq!(claims.next(None), Some(4..5));
        assert_eq!(claims.next(Some(&mut fold)), Some(3..4));
        assert_eq!(claims.next(Some(&mut fold)), None);
        assert_eq!(claims.next(None), None);
    }

    /// On 8 threads a helper's run is a sixteenth of the pieces left off
    /// the back, so the runs shrink to one piece as the two ends meet.
    #[test]
    fn a_helper_takes_half_a_workers_share_off_the_back() {
        let claims = Claims::new(&ChunkPlan::new(1000, 8, Schedule::Static), false);
        assert_eq!(claims.n_pieces(), 128);
        let mut fold = || panic!("no window holds the master back");
        assert_eq!(claims.next(None), Some(120..128));
        assert_eq!(claims.next(None), Some(113..120));
        for _ in 0..100 {
            claims.next(Some(&mut fold));
        }
        // 100..113 are left: 13 / 16 is under one piece.
        assert_eq!(claims.next(None), Some(112..113));
        assert_eq!(claims.next(Some(&mut fold)), Some(100..101));
    }

    /// The race-to-last-piece edge: when the master's front claim and a
    /// helper's back claim collide on a single piece, exactly one wins.
    #[test]
    fn race_to_last_chunk_has_exactly_one_winner() {
        for round in 0..200 {
            let claims = Claims::new(&ChunkPlan::new(1, 2, Schedule::Stealing { chunk: 1 }), false);
            let got = drain(&claims, 2).concat();
            assert_eq!(got, vec![0..1], "round {round}: both or neither claimed");
        }
    }

    /// The window bounds what the lanes hold unfolded: a sum 64 times
    /// longer holds no more updates at once, at most a window of
    /// [`REDUCTION_PIECE`]-iteration pieces.
    #[test]
    fn the_window_bounds_the_updates_held_unfolded() {
        let bound = WINDOW_PER_WORKER * 2 * REDUCTION_PIECE as usize;
        for trips in [1 << 16, 1 << 22] {
            let src = format!("program t\ns = 0.0\n!$polaris doall reduction(+:S)\ndo i = 1, {trips}\n  s = s + 1.0\nend do\nprint *, s\nend\n");
            let p = polaris_ir::parse(&src).unwrap();
            crate::threaded::HELD.with(|h| h.set(0));
            for schedule in SCHEDULES {
                let cfg = crate::MachineConfig::threaded(2, schedule);
                let (r, serial) = (crate::exec::run(&p, &cfg).unwrap(), crate::exec::run_serial(&p).unwrap());
                assert_eq!(r.output, serial.output, "{trips} trips, {schedule:?}");
            }
            let held = crate::threaded::HELD.with(std::cell::Cell::get);
            assert!(held <= bound, "{trips} trips: {held} updates held at once, over {bound}");
        }
    }

    /// The window grows with the workers: each of 8 claims a piece
    /// before it holds anyone back, and 2 each in all. The master takes
    /// the lowest piece, the helpers the highest the window allows; once
    /// the master folds the frontier, the window moves on by one.
    #[test]
    fn the_window_lets_every_worker_run_and_the_master_keeps_the_front() {
        for workers in [1, 2, 3, 8] {
            let claims = Claims::new(&ChunkPlan::new(1 << 20, workers, Schedule::Static), true);
            let size = WINDOW_PER_WORKER * workers;
            let mut held = || panic!("{workers} workers: the master was held back");
            let mut got = vec![claims.next(Some(&mut held))];
            got.extend((1..size).map(|_| claims.next(None)));
            let want: Vec<_> = std::iter::once(0).chain((1..size).rev()).map(|p| Some(p..p + 1)).collect();
            assert_eq!(got, want, "{workers} workers");
            let mut folded = 0;
            let mut fold = || {
                claims.pass(folded);
                folded += 1;
            };
            assert_eq!(claims.next(Some(&mut fold)), Some(size..size + 1), "{workers} workers");
            assert_eq!(folded, 1, "{workers} workers: the master folded once to move the window");
        }
    }

    /// Claim state is O(1): a plan over the largest space there is builds
    /// (and drains) at once.
    #[test]
    fn construction_does_not_grow_with_the_trip_count() {
        for schedule in SCHEDULES {
            let plan = ChunkPlan::new(u64::MAX, 8, schedule);
            let claims = Claims::new(&plan, false);
            let pieces = if schedule == Schedule::Static { PIECES } else { 1 };
            assert_each_piece_once(drain(&claims, 8).concat(), plan.n_chunks() * pieces, "u64::MAX");
        }
    }
}

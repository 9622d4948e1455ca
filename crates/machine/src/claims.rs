//! How a real worker claims its next piece of a [`ChunkPlan`], under
//! every schedule.
//!
//! The plan is a pure function of `(trip, schedule, procs)`, so a piece
//! index is all a worker needs: its bounds come from the plan and nothing
//! is published through the queue. A *piece* is a plan chunk under
//! `Dynamic` and `Stealing`; under `Static` each block chunk is cut into
//! [`PIECES`] of them. Each *lane* is just a half-open interval of
//! unclaimed piece indices packed into one `AtomicU64`; its owner takes
//! the front, a thief the back, one compare-and-swap each. The schedules
//! differ only in how the pieces are laid over lanes and whether an idle
//! worker may steal.
//!
//! A `Static` lane is its worker's block, and a worker whose block is
//! done steals the back of another's: the helpers of a fork the guard
//! deferred start late on a full block, and the master, done with its
//! own, takes the rest of theirs from the back.
//!
//! A loop that reduces claims its pieces under a [`Window`], whatever the
//! schedule: each piece is at most [`REDUCTION_PIECE`] iterations, and
//! none is claimed [`WINDOW_PER_WORKER`] pieces per worker or more past
//! the *frontier*, the lowest piece the master has not folded yet (see
//! `threaded.rs`), so what the lanes hold unfolded is bounded by the
//! window, not by the trip count. The master takes the lowest unclaimed
//! piece, which is most often the frontier itself, and the helpers the
//! highest the window allows; a helper the window holds back polls, then
//! parks until the master moves the frontier.
//!
//! The validator's lane ([`Claims::reversed`]) is one lane its owner
//! claims from the back, in one-iteration pieces.
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

/// The unclaimed pieces of one loop invocation, plus the steal counters
/// behind the `exec.steal.*` observability columns. Workers call
/// [`Claims::next`] until it returns `None`. O(workers) to build and to
/// hold, whatever the chunk count.
pub(crate) struct Claims {
    plan: ChunkPlan,
    /// Pieces per plan chunk.
    pieces: usize,
    /// `front << 32 | back` per lane: pieces `front..back` are unclaimed.
    lanes: Vec<AtomicU64>,
    /// Whether a worker whose lane ran dry takes from the others.
    steal: bool,
    /// Whether the owner takes the back of its lane, not the front.
    backward: bool,
    /// A reducing loop's claims, which replace the lanes.
    window: Option<Window>,
    /// The frontier: the lowest piece not folded yet. Only the master
    /// moves it ([`Claims::pass`]); `Relaxed`, as it publishes no memory
    /// (a lane reads nothing the fold wrote), it only holds claims back.
    frontier: AtomicUsize,
    steals: AtomicU64,
    attempts: AtomicU64,
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
    /// The plan's pieces, laid over lanes as its schedule asks — or, for
    /// a loop that `reduces`, under a window.
    pub(crate) fn new(plan: &ChunkPlan, reduces: bool) -> Claims {
        let (chunks, workers) = (plan.n_chunks(), plan.procs());
        if reduces {
            let base = if plan.schedule == Schedule::Static { PIECES } else { 1 };
            let capped = plan.bounds(0).1.div_ceil(REDUCTION_PIECE).min(u64::from(u32::MAX) / chunks.max(1) as u64);
            let pieces = base.max(capped as usize);
            let window = Window {
                size: WINDOW_PER_WORKER * workers.max(1),
                claimed: Mutex::default(),
                moved: Condvar::new(),
            };
            return Claims { window: Some(window), ..Claims::laid(plan, pieces, 0, 0, false) };
        }
        match plan.schedule {
            // A block plan has a chunk per worker at most: a lane is its
            // chunk's pieces.
            Schedule::Static => Claims::laid(plan, PIECES, workers, PIECES, true),
            // Self-scheduling: one lane every worker takes the front of.
            Schedule::Dynamic { .. } => Claims::laid(plan, 1, 1, chunks, false),
            Schedule::Stealing { .. } => Claims::laid(plan, 1, workers, chunks.div_ceil(workers), true),
        }
    }

    /// The plan's pieces on one lane, taken back to front: the layout of
    /// the validator's reversed lane. A piece is one iteration while that
    /// makes at most `budget` pieces; past it each chunk is cut into
    /// `budget / chunks` pieces.
    pub(crate) fn reversed(plan: &ChunkPlan, budget: usize) -> Claims {
        let (chunks, per) = (plan.n_chunks(), plan.bounds(0).1 as usize);
        let pieces = per.min(budget / chunks.max(1)).max(1);
        Claims {
            backward: true,
            ..Claims::laid(plan, pieces, 1, chunks * pieces, false)
        }
    }

    /// The plan's chunks cut into `pieces` pieces each, laid over `lanes`
    /// lanes in contiguous runs of `per` pieces.
    fn laid(plan: &ChunkPlan, pieces: usize, lanes: usize, per: usize, steal: bool) -> Claims {
        let n = plan.n_chunks().saturating_mul(pieces);
        assert!(n <= u32::MAX as usize, "a plan cuts at most 64 chunks per worker thread");
        let lane = |w: usize| {
            let front = w.saturating_mul(per).min(n);
            AtomicU64::new(pack(front as u32, front.saturating_add(per).min(n) as u32))
        };
        let claims = Claims {
            plan: *plan,
            pieces,
            lanes: (0..lanes).map(lane).collect(),
            steal,
            backward: false,
            window: None,
            frontier: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
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

    /// Whether a worker hands over each piece as soon as it is done: the
    /// master can fold it only then, and a window waits for the fold.
    pub(crate) fn windowed(&self) -> bool {
        self.window.is_some()
    }

    /// Leave nothing more to claim: a lane panicked, so the frontier will
    /// not pass the piece it held and no worker may wait for it, or the
    /// validator's lane holds its budget.
    pub(crate) fn close(&self) {
        self.lanes.iter().for_each(|lane| lane.store(0, Ordering::Relaxed));
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

    /// Claim one piece off a lane. `Relaxed` suffices: the word publishes
    /// no other memory (bounds come from the plan, results travel through
    /// the join channel), and exactly-once follows from the single word's
    /// modification order alone. A lane only shrinks, so an empty one
    /// stays empty.
    fn take(&self, lane: usize, from_back: bool) -> Option<usize> {
        let lane = &self.lanes[lane];
        let mut seen = lane.load(Ordering::Relaxed);
        loop {
            let (front, back) = ((seen >> 32) as u32, seen as u32);
            if front >= back {
                return None;
            }
            let (k, rest) =
                if from_back { (back - 1, pack(front, back - 1)) } else { (front, pack(front + 1, back)) };
            match lane.compare_exchange_weak(seen, rest, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(k as usize),
                Err(now) => seen = now,
            }
        }
    }

    /// Claim the next piece for worker `wid`: the front of its own lane
    /// (the one lane, when all workers share it; the back of a reversed
    /// one), else — under stealing — the back of the first non-empty
    /// victim, round-robin from `wid + 1`. `None` means every lane it may
    /// take from was seen empty, hence is empty for good. Under a window,
    /// the master (`fold`, which it calls while the window holds it back)
    /// takes the lowest piece and a helper (`None`) the highest.
    pub(crate) fn next(&self, wid: usize, fold: Option<&mut dyn FnMut()>) -> Option<usize> {
        if let Some(w) = &self.window {
            return self.claim_windowed(w, fold);
        }
        let n = self.lanes.len();
        let own = wid % n;
        if let Some(k) = self.take(own, self.backward) {
            return Some(k);
        }
        if self.steal {
            for victim in (1..n).map(|off| (own + off) % n) {
                self.attempts.fetch_add(1, Ordering::Relaxed);
                if let Some(k) = self.take(victim, true) {
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Some(k);
                }
            }
        }
        None
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

    /// Whether every piece has been claimed: a worker that starts now
    /// gets none. Empty for good once seen empty.
    pub(crate) fn drained(&self) -> bool {
        if let Some(w) = &self.window {
            let c = w.lock();
            return c.closed || c.low >= self.n_pieces();
        }
        self.lanes.iter().all(|lane| {
            let seen = lane.load(Ordering::Relaxed);
            (seen >> 32) as u32 >= seen as u32
        })
    }

    /// Under a `Stealing` schedule: chunks obtained by stealing (vs
    /// taken from the owner's lane), and steal attempts, successful or
    /// not. A `Static` block's stolen pieces are not counted.
    pub(crate) fn steal_counts(&self) -> Option<(u64, u64)> {
        matches!(self.plan.schedule, Schedule::Stealing { .. })
            .then(|| (self.steals.load(Ordering::Relaxed), self.attempts.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    const SCHEDULES: [Schedule; 3] =
        [Schedule::Static, Schedule::Dynamic { chunk: 1 }, Schedule::Stealing { chunk: 1 }];

    /// `workers` threads start together and drain `claims`; returns what
    /// each claimed, in claim order.
    fn drain(claims: &Claims, workers: usize) -> Vec<Vec<usize>> {
        let start = Barrier::new(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wid| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        std::iter::from_fn(|| claims.next(wid, None)).collect::<Vec<usize>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn assert_each_piece_once(mut got: Vec<usize>, pieces: usize, what: &str) {
        got.sort_unstable();
        assert_eq!(got, (0..pieces).collect::<Vec<_>>(), "pieces lost or duplicated: {what}");
    }

    /// Every schedule's claim × 1..=8 workers × trips around the worker
    /// count, under the piece count and far past both: the workers
    /// partition the piece space exactly — nothing lost, nothing claimed
    /// twice. A `Static` worker starts on its own block's pieces, in
    /// order, and may steal the back of another's.
    #[test]
    fn every_piece_is_claimed_exactly_once_under_every_schedule() {
        for schedule in SCHEDULES {
            for workers in 1..=8usize {
                for trip in [0, 1, workers - 1, workers, PIECES - 1, 1000] {
                    let plan = ChunkPlan::new(trip as u64, workers, schedule);
                    let claims = Claims::new(&plan, false);
                    let per_worker = drain(&claims, workers);
                    let what = format!("{schedule:?} x{workers} trip {trip}");
                    let pieces = if schedule == Schedule::Static { PIECES } else { 1 };
                    if schedule == Schedule::Static {
                        for (wid, mine) in per_worker.iter().enumerate() {
                            let own = mine.iter().take_while(|&&p| claims.chunk_of(p) == wid);
                            assert!(own.clone().copied().eq(wid * PIECES..wid * PIECES + own.count()), "{what}");
                        }
                    }
                    let stealing = matches!(schedule, Schedule::Stealing { .. });
                    assert_eq!(claims.steal_counts().is_some(), stealing, "only stealing counts steals: {what}");
                    let (steals, attempts) = claims.steal_counts().unwrap_or((0, 0));
                    assert!(attempts >= steals);
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
            let got: Vec<usize> = std::iter::from_fn(|| claims.next(0, None)).collect();
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

    /// Owners take ascending chunks off the front, thieves descending
    /// ones off the back, so a lane's two ends never cross.
    #[test]
    fn owner_takes_the_front_and_a_thief_the_back() {
        let claims = Claims::laid(&ChunkPlan::new(10, 2, Schedule::Stealing { chunk: 1 }), 1, 2, 5, true);
        assert_eq!(claims.next(0, None), Some(0));
        assert_eq!(claims.next(0, None), Some(1));
        for k in 5..10 {
            assert_eq!(claims.next(1, None), Some(k), "worker 1 drains its own lane first");
        }
        assert_eq!(claims.next(1, None), Some(4), "then steals lane 0's back");
        assert_eq!(claims.steal_counts(), Some((1, 1)));
        assert_eq!(claims.next(0, None), Some(2));
        assert!(!claims.drained());
        assert_eq!(claims.next(1, None), Some(3));
        assert!(claims.drained(), "no piece left for a worker that starts now");
        assert_eq!(claims.next(0, None), None);
        assert_eq!(claims.next(1, None), None);
    }

    /// The race-to-last-chunk edge: when an owner's front claim and a
    /// thief's back claim (or two sharers' front claims) collide on a
    /// single chunk, exactly one wins.
    #[test]
    fn race_to_last_chunk_has_exactly_one_winner() {
        for round in 0..200 {
            for (lanes, steal) in [(2, true), (1, false)] {
                let plan = ChunkPlan::new(1, 2, Schedule::Stealing { chunk: 1 });
                let claims = Claims::laid(&plan, 1, lanes, 1, steal);
                let got = drain(&claims, 2).concat();
                assert_eq!(got, vec![0], "round {round}, {lanes} lane(s): both or neither claimed");
            }
        }
    }

    /// A skewed distribution (every chunk on lane 0) forces the other
    /// workers to live entirely off steals.
    #[test]
    fn idle_lane_owners_survive_on_steals_alone() {
        let chunks = 200;
        let claims = Claims {
            lanes: [pack(0, chunks as u32), 0, 0, 0].map(AtomicU64::new).into(),
            ..Claims::laid(&ChunkPlan::new(0, 1, Schedule::Stealing { chunk: 1 }), 1, 1, 1, true)
        };
        let per_worker = drain(&claims, 4);
        let stolen: usize = per_worker[1..].iter().map(Vec::len).sum();
        assert_eq!(claims.steal_counts().map(|(steals, _)| steals), Some(stolen as u64));
        assert_each_piece_once(per_worker.concat(), chunks, "skewed");
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
            let mut got = vec![claims.next(0, Some(&mut held))];
            got.extend((1..size).map(|wid| claims.next(wid % workers, None)));
            let want: Vec<Option<usize>> = std::iter::once(0).chain((1..size).rev()).map(Some).collect();
            assert_eq!(got, want, "{workers} workers");
            let mut folded = 0;
            let mut fold = || {
                claims.pass(folded);
                folded += 1;
            };
            assert_eq!(claims.next(0, Some(&mut fold)), Some(size), "{workers} workers");
            assert_eq!(folded, 1, "{workers} workers: the master folded once to move the window");
        }
    }

    /// Claim state is O(workers): a plan over the largest space there is
    /// builds (and drains) at once.
    #[test]
    fn construction_does_not_grow_with_the_trip_count() {
        for schedule in SCHEDULES {
            let plan = ChunkPlan::new(u64::MAX, 8, schedule);
            let claims = Claims::new(&plan, false);
            assert!(claims.lanes.len() <= 8);
            let pieces = if schedule == Schedule::Static { PIECES } else { 1 };
            assert_each_piece_once(drain(&claims, 8).concat(), plan.n_chunks() * pieces, "u64::MAX");
        }
    }
}

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
use std::sync::atomic::{AtomicU64, Ordering};

/// Pieces a `Static` block is claimed in. Each costs one claim and one
/// VM activation; more of them balance a late fork more finely.
const PIECES: usize = 16;

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
    steals: AtomicU64,
    attempts: AtomicU64,
}

fn pack(front: u32, back: u32) -> u64 {
    u64::from(front) << 32 | u64::from(back)
}

impl Claims {
    /// The plan's pieces, laid over lanes as its schedule asks.
    pub(crate) fn new(plan: &ChunkPlan) -> Claims {
        let (chunks, workers) = (plan.n_chunks(), plan.procs());
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
        Claims {
            plan: *plan,
            pieces,
            lanes: (0..lanes).map(lane).collect(),
            steal,
            backward: false,
            steals: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
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
    /// take from was seen empty, hence is empty for good.
    pub(crate) fn next(&self, wid: usize) -> Option<usize> {
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

    /// Whether every piece has been claimed: a worker that starts now
    /// gets none. Empty for good once seen empty.
    pub(crate) fn drained(&self) -> bool {
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
                        std::iter::from_fn(|| claims.next(wid)).collect::<Vec<usize>>()
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
                    let claims = Claims::new(&plan);
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
                let claims = Claims::new(&plan);
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
            let got: Vec<usize> = std::iter::from_fn(|| claims.next(0)).collect();
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
        assert_eq!(claims.next(0), Some(0));
        assert_eq!(claims.next(0), Some(1));
        for k in 5..10 {
            assert_eq!(claims.next(1), Some(k), "worker 1 drains its own lane first");
        }
        assert_eq!(claims.next(1), Some(4), "then steals lane 0's back");
        assert_eq!(claims.steal_counts(), Some((1, 1)));
        assert_eq!(claims.next(0), Some(2));
        assert!(!claims.drained());
        assert_eq!(claims.next(1), Some(3));
        assert!(claims.drained(), "no piece left for a worker that starts now");
        assert_eq!(claims.next(0), None);
        assert_eq!(claims.next(1), None);
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

    /// Claim state is O(workers): a plan over the largest space there is
    /// builds (and drains) at once.
    #[test]
    fn construction_does_not_grow_with_the_trip_count() {
        for schedule in SCHEDULES {
            let plan = ChunkPlan::new(u64::MAX, 8, schedule);
            let claims = Claims::new(&plan);
            assert!(claims.lanes.len() <= 8);
            let pieces = if schedule == Schedule::Static { PIECES } else { 1 };
            assert_each_piece_once(drain(&claims, 8).concat(), plan.n_chunks() * pieces, "u64::MAX");
        }
    }
}

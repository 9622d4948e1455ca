//! How a real worker claims its next chunk of a [`ChunkPlan`], under
//! every schedule.
//!
//! The plan is a pure function of `(trip, schedule, procs)`, so a chunk
//! index is all a worker needs: its bounds come from the plan and nothing
//! is published through the queue. Each *lane* is therefore just a
//! half-open interval of unclaimed chunk indices packed into one
//! `AtomicU64`; its owner takes the front, a thief the back, one
//! compare-and-swap each. The schedules differ only in how the chunk
//! space is laid over lanes and whether an idle worker may steal.
//!
//! Determinism: a claim decides **who executes** a chunk, never **what**
//! the chunk is. Chunk bounds, the order reduction logs are replayed in,
//! and the merge order downstream are all keyed by the chunk index, so any claim
//! interleaving yields bit-identical results (see `threaded.rs`).

use crate::cost::Schedule;
use crate::dispatch::ChunkPlan;
use std::sync::atomic::{AtomicU64, Ordering};

/// The unclaimed chunks of one loop invocation, plus the steal counters
/// behind the `exec.steal.*` observability columns. Workers call
/// [`Claims::next`] until it returns `None`. O(workers) to build and to
/// hold, whatever the chunk count.
pub(crate) struct Claims {
    /// `front << 32 | back` per lane: chunks `front..back` are unclaimed.
    lanes: Vec<AtomicU64>,
    /// Whether a worker whose lane ran dry takes from the others.
    steal: bool,
    steals: AtomicU64,
    attempts: AtomicU64,
}

fn pack(front: u32, back: u32) -> u64 {
    u64::from(front) << 32 | u64::from(back)
}

impl Claims {
    /// The plan's chunks, laid over lanes as its schedule asks.
    pub(crate) fn new(plan: &ChunkPlan) -> Claims {
        let (chunks, workers) = (plan.n_chunks(), plan.procs());
        match plan.schedule {
            // A block plan has a chunk per worker at most: one-chunk lanes.
            Schedule::Static => Claims::block(chunks, workers, false),
            // Self-scheduling: one lane every worker takes the front of.
            Schedule::Dynamic { .. } => Claims::block(chunks, 1, false),
            Schedule::Stealing { .. } => Claims::block(chunks, workers, true),
        }
    }

    /// Chunks `0..chunks` laid over `lanes` lanes in contiguous blocks,
    /// the shape of a `Schedule::Static` plan over iterations.
    fn block(chunks: usize, lanes: usize, steal: bool) -> Claims {
        assert!(chunks <= u32::MAX as usize, "a plan cuts at most 64 chunks per worker thread");
        let per = chunks.div_ceil(lanes);
        let lane = |w: usize| {
            let front = (w * per).min(chunks);
            AtomicU64::new(pack(front as u32, (front + per).min(chunks) as u32))
        };
        Claims {
            lanes: (0..lanes).map(lane).collect(),
            steal,
            steals: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
        }
    }

    /// Claim one chunk off a lane. `Relaxed` suffices: the word publishes
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

    /// Claim the next chunk for worker `wid`: the front of its own lane
    /// (the one lane, when all workers share it), else — under stealing —
    /// the back of the first non-empty victim, round-robin from `wid + 1`.
    /// `None` means every lane it may take from was seen empty, hence is
    /// empty for good.
    pub(crate) fn next(&self, wid: usize) -> Option<usize> {
        let n = self.lanes.len();
        let own = wid % n;
        if let Some(k) = self.take(own, false) {
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

    /// Under a stealing schedule: chunks obtained by stealing (vs taken
    /// from the owner's lane), and steal attempts, successful or not.
    pub(crate) fn steal_counts(&self) -> Option<(u64, u64)> {
        self.steal.then(|| (self.steals.load(Ordering::Relaxed), self.attempts.load(Ordering::Relaxed)))
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

    fn assert_each_chunk_once(mut got: Vec<usize>, chunks: usize, what: &str) {
        got.sort_unstable();
        assert_eq!(got, (0..chunks).collect::<Vec<_>>(), "chunks lost or duplicated: {what}");
    }

    /// Every schedule's claim × 1..=8 workers × chunk counts around the
    /// worker count and far past it: the workers partition the chunk
    /// space exactly — nothing lost, nothing claimed twice.
    #[test]
    fn every_chunk_is_claimed_exactly_once_under_every_schedule() {
        for schedule in SCHEDULES {
            for workers in 1..=8usize {
                for trip in [0, 1, workers - 1, workers, 1000] {
                    let plan = ChunkPlan::new(trip as u64, workers, schedule);
                    let claims = Claims::new(&plan);
                    let per_worker = drain(&claims, workers);
                    let what = format!("{schedule:?} x{workers} trip {trip}");
                    if schedule == Schedule::Static {
                        for (wid, mine) in per_worker.iter().enumerate() {
                            let own: Vec<usize> = (wid < plan.n_chunks()).then_some(wid).into_iter().collect();
                            assert_eq!(mine, &own, "a block worker runs its own chunk only: {what}");
                        }
                    }
                    let stealing = matches!(schedule, Schedule::Stealing { .. });
                    assert_eq!(claims.steal_counts().is_some(), stealing, "only stealing steals: {what}");
                    let (steals, attempts) = claims.steal_counts().unwrap_or((0, 0));
                    assert!(attempts >= steals);
                    assert_each_chunk_once(per_worker.concat(), plan.n_chunks(), &what);
                }
            }
        }
    }

    /// Owners take ascending chunks off the front, thieves descending
    /// ones off the back, so a lane's two ends never cross.
    #[test]
    fn owner_takes_the_front_and_a_thief_the_back() {
        let claims = Claims::block(10, 2, true);
        assert_eq!(claims.next(0), Some(0));
        assert_eq!(claims.next(0), Some(1));
        for k in 5..10 {
            assert_eq!(claims.next(1), Some(k), "worker 1 drains its own lane first");
        }
        assert_eq!(claims.next(1), Some(4), "then steals lane 0's back");
        assert_eq!(claims.steal_counts(), Some((1, 1)));
        assert_eq!(claims.next(0), Some(2));
        assert_eq!(claims.next(1), Some(3));
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
                let claims = Claims::block(1, lanes, steal);
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
            ..Claims::block(0, 1, true)
        };
        let per_worker = drain(&claims, 4);
        let stolen: usize = per_worker[1..].iter().map(Vec::len).sum();
        assert_eq!(claims.steal_counts().map(|(steals, _)| steals), Some(stolen as u64));
        assert_each_chunk_once(per_worker.concat(), chunks, "skewed");
    }

    /// Claim state is O(workers): a plan over the largest space there is
    /// builds (and drains) at once.
    #[test]
    fn construction_does_not_grow_with_the_trip_count() {
        for schedule in SCHEDULES {
            let plan = ChunkPlan::new(u64::MAX, 8, schedule);
            let claims = Claims::new(&plan);
            assert!(claims.lanes.len() <= 8);
            assert_each_chunk_once(drain(&claims, 8).concat(), plan.n_chunks(), "u64::MAX");
        }
    }
}

//! The loop-dispatch protocol every executor of a `DO` shares: *which
//! iterations* ([`IterSpace`]), *cut into which chunks, charged to which
//! processor* ([`ChunkPlan`]) and *what a concurrent invocation costs*
//! ([`Interp::bill_invocation`]). The serial, simulated-parallel,
//! speculative, adversarial and real-thread dispatchers differ only in
//! the order and the thread they run iterations on.

use crate::cost::{Schedule, COSTS};
use crate::exec::Interp;
use crate::lower::{RLoop, RPar, RRef};

/// The iteration space of one loop invocation, as arithmetic: bounds are
/// evaluated once (F77 semantics) and iteration `idx` is `init + idx *
/// step`. O(1) whatever the trip count, so a `DO I = 1, 2000000000`
/// costs no memory before its first iteration runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IterSpace {
    init: i64,
    step: i64,
    trip: u64,
}

impl IterSpace {
    /// `DO v = init, limit, step`; a zero step is the caller's error.
    /// The one space that does not fit (`i64::MIN..=i64::MAX` by 1, 2^64
    /// iterations) saturates — no run gets that far.
    pub(crate) fn new(init: i64, limit: i64, step: i64) -> IterSpace {
        debug_assert!(step != 0, "zero step reaches IterSpace");
        let trip = if (step > 0 && init <= limit) || (step < 0 && init >= limit) {
            ((limit as i128 - init as i128) / step as i128) as u128 + 1
        } else {
            0
        };
        IterSpace { init, step, trip: u64::try_from(trip).unwrap_or(u64::MAX) }
    }

    pub(crate) fn trip(&self) -> u64 {
        self.trip
    }

    /// Whether a §3.5 shadow can stamp every iteration: stamps are `u32`
    /// with `u32::MAX` meaning "never", and a wrapped stamp makes two
    /// iterations one — harmless while values come from in-order
    /// execution, a committed wrong answer once lanes' copies are.
    pub(crate) fn fits_shadow_stamps(&self) -> bool {
        self.trip < u64::from(u32::MAX)
    }

    /// The loop variable's value in iteration `idx < trip`. Wrapping
    /// arithmetic is exact here: the true value lies between `init` and
    /// `limit`, so it is representable.
    pub(crate) fn value(&self, idx: u64) -> i64 {
        self.init.wrapping_add((idx as i64).wrapping_mul(self.step))
    }

    /// What F77 leaves in the loop variable after normal completion: the
    /// first value past the limit (`init` for a zero-trip loop), wrapping
    /// like every other integer operation of the machine.
    pub(crate) fn exit_value(&self) -> i64 {
        self.value(self.trip)
    }
}

/// How the iteration space `0..trip` is cut into chunks. Chunk `k`
/// covers `bounds(k)` and its cycles are charged to simulated processor
/// `bucket_of(k)`; both are pure functions of `(trip, schedule, procs)`,
/// so every run and both backends agree on them. The schedule only
/// decides the chunk size and how a *real* worker claims its next chunk
/// ([`crate::claims::Claims`]), so the merge, keyed by chunk index, is
/// oblivious to who ran what and the bill lands where the no-steals
/// round-robin would put it.
///
/// No plan has more than [`MAX_CHUNKS_PER_PROC`] chunks per worker: a
/// requested chunk size that would cut more is raised to the smallest
/// one that does not. Everything kept per chunk on either backend
/// (claims, chunk results, chunk spans, the cycle
/// profile a threaded invocation returns, the per-chunk `dispatch` bill)
/// is thereby bounded by the machine, not by the trip count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkPlan {
    trip: u64,
    /// Iterations per chunk (the last one may be shorter).
    per: u64,
    procs: usize,
    pub(crate) schedule: Schedule,
}

/// 512 chunks at the paper's 8 processors: enough for a single-iteration
/// chunk to balance any loop of up to 512 trips, and past that the
/// imbalance left is under 1/64 of a worker's share.
const MAX_CHUNKS_PER_PROC: u64 = 64;

impl ChunkPlan {
    pub(crate) fn new(trip: u64, procs: usize, schedule: Schedule) -> ChunkPlan {
        let procs = procs.max(1);
        let per = match schedule {
            Schedule::Static => trip.div_ceil(procs as u64),
            Schedule::Dynamic { chunk } | Schedule::Stealing { chunk } => chunk as u64,
        };
        let floor = trip.div_ceil(MAX_CHUNKS_PER_PROC.saturating_mul(procs as u64));
        ChunkPlan { trip, per: per.max(floor).max(1), procs, schedule }
    }

    pub(crate) fn procs(&self) -> usize {
        self.procs
    }

    /// Non-empty chunks: at most `procs` for a block plan, at most
    /// `MAX_CHUNKS_PER_PROC * procs` for any.
    pub(crate) fn n_chunks(&self) -> usize {
        self.trip.div_ceil(self.per) as usize
    }

    pub(crate) fn bounds(&self, k: usize) -> (u64, u64) {
        let start = (k as u64).saturating_mul(self.per).min(self.trip);
        (start, start.saturating_add(self.per).min(self.trip))
    }

    /// Simulated processor a chunk's cycles are charged to.
    pub(crate) fn bucket_of(&self, k: usize) -> usize {
        k % self.procs
    }

    /// Chunks that pay the scheduler's per-chunk `dispatch` cost: a
    /// block plan hands each worker its chunk at the fork for free.
    fn dispatches(&self) -> u64 {
        match self.schedule {
            Schedule::Static => 0,
            Schedule::Dynamic { .. } | Schedule::Stealing { .. } => self.n_chunks() as u64,
        }
    }
}

impl Interp<'_> {
    /// What running on the machine's processors costs beyond the serial
    /// work: fork/join, the busiest processor, and merging reductions
    /// and private arrays back.
    pub(crate) fn concurrent_cost(&self, buckets: &[u64], par: &RPar) -> u64 {
        let c = &COSTS;
        let mut total = c.fork_join + buckets.iter().copied().max().unwrap_or(0);
        for red in &par.reductions {
            total += match red.target {
                RRef::Scalar(_) => self.cfg.procs as u64 * c.reduction_merge,
                RRef::Array(a) => self.arrays[a].get().len() as u64 * c.reduction_merge,
            };
        }
        for &a in &par.private_arrays {
            total += self.arrays[a].get().len() as u64 * c.private_setup;
        }
        total
    }

    /// Total cycles from which the generated guard takes the parallel
    /// side of its IF: a loop must do the work of two forks to pay for
    /// one. Where the threaded backend's deferred fork wakes its helpers.
    pub(crate) fn guard_threshold(&self) -> u64 {
        2 * COSTS.fork_join
    }

    /// The one bill of a concurrent invocation, whichever backend ran it:
    /// `chunks[k]` holds the cycles of plan chunk `k`, charged to the
    /// processor bucket the plan names; returns the buckets.
    ///
    /// A `PARALLEL DO`: the generated code wraps the parallel region in an
    /// IF (as both PFA and Polaris did), so a loop whose total work cannot
    /// amortize the fork is charged as the serial loop plus that branch,
    /// and only the parallel side of the IF is a parallel invocation.
    ///
    /// A `SPECULATIVE` loop, whose shadows made `marks` marking operations
    /// and whose PD verdict is `passed`: the attempt pays the concurrent
    /// cost plus the PD-test analysis, which is itself parallel over the
    /// tracked elements; a failed one is wasted and the loop then
    /// re-executes sequentially, which costs the iterations without their
    /// marking. Counts the verdict.
    pub(crate) fn bill_invocation(
        &mut self,
        l: &RLoop,
        plan: &ChunkPlan,
        chunks: &[u64],
        marks: u64,
        passed: bool,
    ) -> Vec<u64> {
        let c = &COSTS;
        let mut buckets = vec![0u64; plan.procs()];
        for (k, cycles) in chunks.iter().enumerate() {
            buckets[plan.bucket_of(k)] += cycles;
        }
        let total: u64 = chunks.iter().sum();
        if l.par.parallel {
            let parallel = total >= self.guard_threshold();
            self.cycles += if parallel {
                self.concurrent_cost(&buckets, &l.par) + plan.dispatches() * c.dispatch
            } else {
                total + c.branch
            };
            if parallel {
                self.loop_entry(l).parallel_invocations += 1;
            }
            return buckets;
        }
        let tracked: u64 = l.par.spec_arrays.iter().map(|&a| self.arrays[a].get().len() as u64).sum();
        let analysis = tracked * c.spec_analysis / self.cfg.procs as u64 + c.fork_join / 2;
        let attempt = self.concurrent_cost(&buckets, &l.par) + analysis;
        let sequential = total - (marks * c.spec_mark).min(total);
        self.cycles += if passed { attempt } else { attempt + sequential };
        let entry = self.loop_entry(l);
        let verdict = if passed {
            entry.spec_success += 1;
            entry.parallel_invocations += 1;
            polaris_obs::Counter::LrpdPass
        } else {
            entry.spec_fail += 1;
            polaris_obs::Counter::LrpdFail
        };
        self.recorder.count(verdict, 1);
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecMode, MachineConfig};

    /// What the machine used to do: materialise every value, stopping
    /// when the next one is past the limit or unrepresentable.
    fn materialised(init: i64, limit: i64, step: i64) -> Vec<i64> {
        let mut out = Vec::new();
        let mut v = init;
        while (step > 0 && v <= limit) || (step < 0 && v >= limit) {
            out.push(v);
            match v.checked_add(step) {
                Some(nv) => v = nv,
                None => break,
            }
        }
        out
    }

    #[test]
    fn iter_space_agrees_with_the_materialising_loop() {
        const MIN: i64 = i64::MIN;
        const MAX: i64 = i64::MAX;
        // Negative step, init past the limit either way, a step that
        // overshoots, bounds at both ends of i64 ...
        let mut triples = vec![
            (1, 10, 1), (10, 1, -3), (5, 1, 1), (1, 5, -1), (1, 10, 4), (1, 10, 100),
            (MAX - 1, MAX, 1), (MIN + 1, MIN, -1), (MIN, MAX, MAX), (MAX, MIN, MIN),
        ];
        // ... and 1000 seeded short spans around zero and around both ends.
        let mut state = 1996u64;
        let mut next = |modulus: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % modulus) as i64
        };
        for case in 0..1000 {
            let anchor = [0, MAX - 200, MIN + 200][case % 3];
            let step = [next(8) + 1, -next(8) - 1][case % 2];
            triples.push((anchor + (next(401) - 200), anchor + (next(401) - 200), step));
        }
        for (init, limit, step) in triples {
            let want = materialised(init, limit, step);
            let s = IterSpace::new(init, limit, step);
            assert_eq!(s.trip(), want.len() as u64, "{init},{limit},{step}");
            let got: Vec<i64> = (0..s.trip()).map(|i| s.value(i)).collect();
            assert_eq!(got, want, "{init},{limit},{step}");
            let exit = want.last().map_or(init, |last| last.wrapping_add(step));
            assert_eq!(s.exit_value(), exit, "{init},{limit},{step}");
        }
        assert_eq!(IterSpace::new(MAX - 1, MAX, 1).exit_value(), MIN, "wraps, no overflow");
        assert_eq!(IterSpace::new(MIN, MAX, 1).trip(), u64::MAX, "2^64 iterations saturate");
    }

    /// A shadow stamp is the iteration index as a `u32`, `u32::MAX` being
    /// "never": the last space speculation takes has `u32::MAX - 1` trips.
    #[test]
    fn speculation_stops_where_iteration_stamps_would_wrap() {
        let last = i64::from(u32::MAX) - 1;
        assert!(IterSpace::new(1, last, 1).fits_shadow_stamps());
        assert!(!IterSpace::new(1, last + 1, 1).fits_shadow_stamps());
        assert!(IterSpace::new(1, 0, 1).fits_shadow_stamps(), "zero trips");
        assert!(!IterSpace::new(i64::MIN, i64::MAX, 1).fits_shadow_stamps());
    }

    #[test]
    fn plans_cover_the_iteration_space_exactly_once() {
        let schedules =
            [Schedule::Static, Schedule::Dynamic { chunk: 3 }, Schedule::Stealing { chunk: 3 }];
        for trip in [0u64, 1, 3, 7, 8, 9, 100] {
            for procs in [1usize, 2, 4, 8] {
                for schedule in schedules {
                    let plan = ChunkPlan::new(trip, procs, schedule);
                    let mut seen = vec![0u32; trip as usize];
                    for k in 0..plan.n_chunks() {
                        let (s, e) = plan.bounds(k);
                        assert!(s < e, "empty chunk {k}: {plan:?}");
                        assert!(plan.bucket_of(k) < procs);
                        for slot in &mut seen[s as usize..e as usize] {
                            *slot += 1;
                        }
                    }
                    assert!(seen.iter().all(|&c| c == 1), "{plan:?}");
                    if schedule == Schedule::Static {
                        assert!(plan.n_chunks() <= procs, "a block per worker at most");
                    }
                }
            }
        }
        // Spaces no vector could hold still plan in O(1), and no plan cuts
        // more than 64 chunks per worker: a smaller requested chunk is
        // raised, a plan already under the bound keeps its chunk size.
        for trip in [100, 511, 512, 513, 65_537, 1 << 24, (1 << 40) - 1, 1 << 40, u64::MAX] {
            for procs in 1..=8usize {
                for schedule in schedules {
                    let plan = ChunkPlan::new(trip, procs, schedule);
                    let n = plan.n_chunks();
                    assert!(n <= 64 * procs, "{n} chunks: {plan:?}");
                    let mut next = 0;
                    for k in (0..n.min(3)).chain(n.saturating_sub(3)..n) {
                        let (s, e) = plan.bounds(k);
                        assert!(s < e && e - s <= plan.per && s == k as u64 * plan.per, "{plan:?}");
                        next = e;
                    }
                    assert_eq!(next, trip, "chunks tile 0..trip: {plan:?}");
                    if schedule != Schedule::Static && trip.div_ceil(3) <= 64 * procs as u64 {
                        assert_eq!(plan.per, 3, "under the bound, the requested chunk: {plan:?}");
                    }
                }
            }
        }
    }

    /// A DOALL whose bound turns out to be zero at run time: both backends
    /// pay the generated guard's branch per invocation and nothing else
    /// (the threaded driver used to return before billing anything).
    #[test]
    fn zero_trip_parallel_do_bills_the_same_on_both_backends() {
        let src = "program z\nreal a(10)\ninteger n, i, k\nn = 0\ndo k = 1, 50\n!$polaris doall\n  do i = 1, n\n    a(i) = i * 2.0\n  end do\nend do\nprint *, n\nend\n";
        let p = polaris_ir::parse(src).unwrap();
        for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 4 }, Schedule::Stealing { chunk: 4 }] {
            for procs in [2, 8] {
                let threaded = MachineConfig::threaded(procs, schedule);
                let simulated = MachineConfig { exec_mode: ExecMode::Simulated, ..threaded.clone() };
                let sim = crate::exec::run(&p, &simulated).unwrap();
                let thr = crate::exec::run(&p, &threaded).unwrap();
                assert_eq!(sim.output, thr.output);
                assert_eq!(sim.cycles, thr.cycles, "{schedule:?} x {procs}");
                for r in [sim, thr] {
                    assert!(r.loops.values().all(|s| s.parallel_invocations == 0));
                }
            }
        }
    }
}

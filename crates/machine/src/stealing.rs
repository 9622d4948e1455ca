//! A fixed-capacity Chase–Lev work-stealing deque for chunk indices,
//! and the per-worker queue harness the threaded backend drives it with.
//!
//! The threaded backend knows every chunk of a loop up front (the chunk
//! plan is a pure function of `(trip, schedule, procs)`), so the deque
//! never needs to grow: capacity is the chunk count, the owner pushes
//! its initial block before any worker starts, and from then on the
//! owner only `pop`s its own bottom while idle workers `steal` from the
//! top. This is the classic Chase–Lev algorithm restricted to the
//! no-growth case — `push` is still owner-only and supported (the unit
//! tests exercise interleaved push/pop), but the runtime itself only
//! pushes during setup.
//!
//! Determinism: the deque decides **who executes** a chunk, never
//! **what** the chunk is. Chunk bounds, reduction partial order, and
//! the merge order downstream are all keyed by the chunk index, so any
//! victim/steal interleaving yields bit-identical results (see
//! `threaded.rs`).

use std::sync::atomic::{fence, AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Result of a steal attempt against a victim deque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal {
    /// The victim's deque was empty.
    Empty,
    /// Lost a race with the owner or another thief; worth retrying.
    Retry,
    /// Stole the chunk index.
    Success(usize),
}

/// One worker's deque of chunk indices. The owner pushes and pops at the
/// bottom (LIFO); thieves steal from the top (FIFO) with a CAS.
///
/// Contract: `push` and `pop` may only be called by the owning worker
/// (they are not mutually atomic); `steal` may be called from any
/// thread. Total pushes over the deque's lifetime must not exceed the
/// construction capacity.
pub struct ChunkDeque {
    top: AtomicI64,
    bottom: AtomicI64,
    buf: Box<[AtomicUsize]>,
}

impl ChunkDeque {
    pub fn with_capacity(cap: usize) -> ChunkDeque {
        ChunkDeque {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            buf: (0..cap.max(1)).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Owner-only: append a chunk index at the bottom.
    pub fn push(&self, v: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        debug_assert!((b as usize) < self.buf.len(), "deque capacity exceeded");
        self.buf[b as usize].store(v, Ordering::Relaxed);
        // Release: the slot write must be visible before the new bottom.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: take the most recently pushed chunk, racing thieves
    /// for the last element.
    pub fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the bottom write against the top read:
        // either a concurrent thief sees the decremented bottom, or we
        // see its incremented top — never neither.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let item = self.buf[b as usize].load(Ordering::Relaxed);
            if t == b {
                // Single element left: win it with the same CAS thieves
                // use, or concede it to whoever did.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                return won.then_some(item);
            }
            Some(item)
        } else {
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief-side: try to take the oldest chunk.
    pub fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let item = self.buf[t as usize].load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Success(item)
    }

    /// Racy size estimate (diagnostics only).
    pub fn len_hint(&self) -> usize {
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }
}

/// Per-worker deques pre-filled with a block distribution of the chunk
/// space, plus steal counters for the `exec.steal.*` observability
/// columns. Workers call [`StealQueue::next`] until it returns `None`.
pub struct StealQueue {
    deques: Vec<ChunkDeque>,
    steals: AtomicU64,
    attempts: AtomicU64,
}

impl StealQueue {
    /// Distribute chunks `0..n_chunks` across `workers` deques in the
    /// same contiguous-block shape as a `Schedule::Static` plan, pushed in
    /// reverse so each owner pops its own chunks in ascending order.
    pub fn block_distributed(n_chunks: usize, workers: usize) -> StealQueue {
        let workers = workers.max(1);
        let per = n_chunks.div_ceil(workers).max(1);
        let deques: Vec<ChunkDeque> = (0..workers)
            .map(|w| {
                let (start, end) = ((w * per).min(n_chunks), ((w + 1) * per).min(n_chunks));
                let d = ChunkDeque::with_capacity(end - start);
                for k in (start..end).rev() {
                    d.push(k);
                }
                d
            })
            .collect();
        StealQueue { deques, steals: AtomicU64::new(0), attempts: AtomicU64::new(0) }
    }

    /// Claim the next chunk for worker `wid`: its own deque first, then
    /// round-robin steal attempts starting at `wid + 1`. Returns `None`
    /// only once every deque is drained (a `Retry` race keeps spinning —
    /// the contended chunk is still unclaimed by anyone).
    pub fn next(&self, wid: usize) -> Option<usize> {
        if let Some(k) = self.deques[wid].pop() {
            return Some(k);
        }
        let n = self.deques.len();
        loop {
            let mut contended = false;
            for off in 1..n {
                let victim = (wid + off) % n;
                self.attempts.fetch_add(1, Ordering::Relaxed);
                match self.deques[victim].steal() {
                    Steal::Success(k) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(k);
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Chunks obtained by stealing (vs popped from the owner's deque).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Steal attempts, successful or not.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    #[test]
    fn single_owner_push_pop_is_lifo_and_exact() {
        let d = ChunkDeque::with_capacity(8);
        assert_eq!(d.pop(), None);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.len_hint(), 3);
        assert_eq!(d.pop(), Some(3));
        d.push(4);
        assert_eq!(d.pop(), Some(4));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None);
        assert_eq!(d.len_hint(), 0);
    }

    #[test]
    fn steal_takes_the_oldest_and_empty_is_reported() {
        let d = ChunkDeque::with_capacity(4);
        assert_eq!(d.steal(), Steal::Empty);
        d.push(10);
        d.push(11);
        d.push(12);
        assert_eq!(d.steal(), Steal::Success(10));
        assert_eq!(d.steal(), Steal::Success(11));
        // owner and thief split the rest
        assert_eq!(d.pop(), Some(12));
        assert_eq!(d.steal(), Steal::Empty);
        assert_eq!(d.pop(), None);
    }

    /// Seeded stress: an owner popping and several thieves stealing must
    /// partition the chunk set exactly — every chunk claimed once,
    /// nothing lost, nothing duplicated — under many interleavings.
    #[test]
    fn concurrent_steal_claims_every_chunk_exactly_once() {
        for (n_chunks, thieves) in [(1usize, 4usize), (2, 4), (64, 2), (257, 7), (1000, 3)] {
            let d = Arc::new(ChunkDeque::with_capacity(n_chunks));
            for k in 0..n_chunks {
                d.push(k);
            }
            let go = Arc::new(AtomicBool::new(false));
            let claimed = Arc::new(Mutex::new(Vec::<usize>::new()));
            let mut handles = Vec::new();
            for _ in 0..thieves {
                let d = Arc::clone(&d);
                let go = Arc::clone(&go);
                let claimed = Arc::clone(&claimed);
                handles.push(std::thread::spawn(move || {
                    while !go.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                    let mut mine = Vec::new();
                    loop {
                        match d.steal() {
                            Steal::Success(k) => mine.push(k),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => break,
                        }
                    }
                    claimed.lock().unwrap().extend(mine);
                }));
            }
            go.store(true, Ordering::Relaxed);
            // The owner pops concurrently, contending for the last chunk.
            let mut mine = Vec::new();
            while let Some(k) = d.pop() {
                mine.push(k);
            }
            for h in handles {
                h.join().unwrap();
            }
            let mut all = claimed.lock().unwrap().clone();
            all.extend(mine);
            all.sort_unstable();
            assert_eq!(
                all,
                (0..n_chunks).collect::<Vec<_>>(),
                "chunks lost or duplicated at n={n_chunks} thieves={thieves}"
            );
        }
    }

    /// The race-to-last-chunk edge: exactly one claimant wins when the
    /// owner's pop and a thief's steal collide on a single element.
    #[test]
    fn race_to_last_chunk_has_exactly_one_winner() {
        for round in 0..200 {
            let d = Arc::new(ChunkDeque::with_capacity(1));
            d.push(round);
            let thief = {
                let d = Arc::clone(&d);
                std::thread::spawn(move || loop {
                    match d.steal() {
                        Steal::Success(k) => return Some(k),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => return None,
                    }
                })
            };
            let owner_got = d.pop();
            let thief_got = thief.join().unwrap();
            match (owner_got, thief_got) {
                (Some(k), None) | (None, Some(k)) => assert_eq!(k, round),
                other => panic!("round {round}: both or neither claimed: {other:?}"),
            }
        }
    }

    /// The harness drains every chunk exactly once across workers and
    /// reports a plausible steal count.
    #[test]
    fn steal_queue_partitions_the_chunk_space() {
        for (n_chunks, workers) in [(1usize, 8usize), (7, 3), (100, 4), (64, 64)] {
            let q = Arc::new(StealQueue::block_distributed(n_chunks, workers));
            let mut handles = Vec::new();
            for wid in 0..workers {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(k) = q.next(wid) {
                        mine.push(k);
                    }
                    mine
                }));
            }
            let all: BTreeSet<usize> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            assert_eq!(all.len(), n_chunks, "n={n_chunks} w={workers}");
            assert_eq!(all.iter().copied().max(), n_chunks.checked_sub(1));
            assert!(q.attempts() >= q.steals());
        }
    }

    /// A skewed distribution (all chunks on worker 0) forces the other
    /// workers to live entirely off steals.
    #[test]
    fn idle_workers_survive_on_steals_alone() {
        let n_chunks = 200;
        let q = Arc::new(StealQueue::block_distributed(n_chunks, 1));
        // One owner-shaped deque, but four claimants: 1..4 have no deque
        // of their own in this construction, so give them wid 0 too —
        // instead, exercise via a 4-worker queue where 3 deques are empty.
        drop(q);
        let q = Arc::new(StealQueue {
            deques: {
                let d = ChunkDeque::with_capacity(n_chunks);
                for k in (0..n_chunks).rev() {
                    d.push(k);
                }
                vec![
                    d,
                    ChunkDeque::with_capacity(1),
                    ChunkDeque::with_capacity(1),
                    ChunkDeque::with_capacity(1),
                ]
            },
            steals: AtomicU64::new(0),
            attempts: AtomicU64::new(0),
        });
        let mut handles = Vec::new();
        for wid in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut mine = Vec::new();
                while let Some(k) = q.next(wid) {
                    mine.push(k);
                }
                mine
            }));
        }
        let all: BTreeSet<usize> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        assert_eq!(all.len(), n_chunks);
    }
}

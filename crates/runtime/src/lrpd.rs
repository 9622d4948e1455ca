//! The Privatizing-Doall / LRPD test and the speculative executor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How loop bodies touch the shared array under test. The same body
/// closure runs speculatively (buffered view) and sequentially
/// (pass-through view), which guarantees both executions perform the
/// same computation.
pub trait ArrayView<T> {
    fn read(&mut self, idx: usize) -> T;
    fn write(&mut self, idx: usize, value: T);

    /// A *reduction update* `A(idx) = A(idx) + value`. During
    /// speculative execution the update accumulates into a per-thread
    /// partial (committed on success); the LRPD test validates that
    /// reduced elements are touched by reduction updates only. The
    /// sequential view applies it directly.
    fn reduce_add(&mut self, idx: usize, value: T);
}

/// Result of a speculative execution attempt.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// The loop was fully parallel as a plain doall.
    pub parallel_valid: bool,
    /// The loop was fully parallel with the array privatized
    /// (output dependences forgiven, §3.5.2).
    pub privatized_valid: bool,
    /// `any(A_w ∧ A_r)` — flow/anti dependence.
    pub flow_anti: bool,
    /// `w_A != m_A` — output dependence.
    pub output_dep: bool,
    /// `any(A_w ∧ A_np)` — read-before-write in an iteration.
    pub not_privatizable: bool,
    /// A reduced element was also read/written outside reduction updates
    /// (`any(A_x ∧ (A_w ∨ A_r))` in LRPD terms).
    pub reduction_conflict: bool,
    /// Elements updated through [`ArrayView::reduce_add`].
    pub reduced: u64,
    /// Total first-writes per (element, iteration).
    pub writes: u64,
    /// Elements marked in `A_w`.
    pub marks: u64,
    /// Whether the buffered values were committed.
    pub committed: bool,
    /// A speculative worker thread panicked. The attempt is treated
    /// exactly like a failed PD test: nothing is committed and the
    /// caller falls back to [`run_sequential`].
    pub worker_panicked: bool,
    /// Wall-clock of the speculative execution (marking included).
    pub exec_time: Duration,
    /// Wall-clock of merge + analysis + commit (the "PD test" overhead,
    /// `T_pdt` in §3.5.3).
    pub test_time: Duration,
}

impl SpecOutcome {
    /// Did the speculation succeed under the requested mode?
    pub fn success(&self) -> bool {
        self.committed
    }
}

const NEVER: u32 = u32::MAX;

/// The §3.5 shadow marks of one array, as kept by one executor of
/// iterations: a speculative thread of [`speculative_doall`], or the
/// simulated machine of `polaris-machine` running a `SPECULATIVE` loop.
/// The executor reports every access ([`Shadow::on_read`],
/// [`Shadow::on_write`], iterations stamped `t`) and closes each
/// iteration ([`Shadow::end_iteration`]); [`PdVerdict::of`] analyses the
/// marks afterwards.
#[derive(Debug, Clone)]
pub struct Shadow {
    read_epoch: Vec<u32>,
    write_epoch: Vec<u32>,
    /// Iterations that wrote the element: the mark `A_w` is `> 0`, and
    /// the write count `w_A` is the sum.
    aw: Vec<u32>,
    ar: Vec<bool>,
    np: Vec<bool>,
    /// Elements first-read in the current iteration (tentative `A_r`).
    reads_buf: Vec<usize>,
    marks_done: u64,
}

impl Shadow {
    pub fn new(n: usize) -> Shadow {
        Shadow {
            read_epoch: vec![NEVER; n],
            write_epoch: vec![NEVER; n],
            aw: vec![0; n],
            ar: vec![false; n],
            np: vec![false; n],
            reads_buf: Vec::new(),
            marks_done: 0,
        }
    }

    /// Elements shadowed.
    pub fn len(&self) -> usize {
        self.aw.len()
    }

    pub fn is_empty(&self) -> bool {
        self.aw.is_empty()
    }

    /// Marking operations performed (what a cost model bills).
    pub fn marks_done(&self) -> u64 {
        self.marks_done
    }

    /// Mark a read of `idx` in iteration `t`. True when the iteration has
    /// already written the element: the read sees that value and exposes
    /// nothing.
    ///
    /// Like [`Shadow::on_write`], deliberately not `#[inline]`: this crate
    /// inlines it where it pays anyway, and inlined into the machine's VM
    /// dispatch loop the marking slows every loop that is *not*
    /// speculative (`exec_serial` +8 % measured).
    pub fn on_read(&mut self, idx: usize, t: u32) -> bool {
        self.marks_done += 1;
        if self.write_epoch[idx] == t {
            return true;
        }
        if self.read_epoch[idx] != t {
            self.read_epoch[idx] = t;
            self.reads_buf.push(idx);
        }
        false
    }

    /// Mark a write of `idx` in iteration `t`.
    pub fn on_write(&mut self, idx: usize, t: u32) {
        self.marks_done += 1;
        if self.write_epoch[idx] != t {
            // first write of this iteration
            self.aw[idx] += 1;
            if self.read_epoch[idx] == t {
                self.np[idx] = true;
            }
            self.write_epoch[idx] = t;
        }
    }

    /// Commit the tentative `A_r` marks of iteration `t`: a read really
    /// was "never written in this iteration" if no write followed.
    pub fn end_iteration(&mut self, t: u32) {
        for &idx in &self.reads_buf {
            if self.write_epoch[idx] != t {
                self.ar[idx] = true;
            }
        }
        self.reads_buf.clear();
    }

    /// `A_w ∨ A_r`: some iteration wrote the element or exposed a read
    /// of it.
    pub fn touched(&self, idx: usize) -> bool {
        self.aw[idx] > 0 || self.ar[idx]
    }
}

/// What the PD test (§3.5.2) finds on a range of elements. Elements are
/// independent, so the verdict on an array is the [`PdVerdict::and`] of
/// the verdicts on any partition of it — which is what lets the analysis
/// run on disjoint ranges concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PdVerdict {
    /// `any(A_w ∧ A_r)` — flow/anti dependence.
    pub flow_anti: bool,
    /// `any(A_w ∧ A_np)` — read-before-write in an iteration.
    pub not_privatizable: bool,
    /// `w_A`: first-writes per (element, iteration).
    pub writes: u64,
    /// `m_A`: elements marked in `A_w`.
    pub marks: u64,
}

impl PdVerdict {
    /// Analyse elements `range` of an array whose iterations were marked
    /// by `shadows`, each iteration by exactly one of them.
    pub fn of(shadows: &[&Shadow], range: std::ops::Range<usize>) -> PdVerdict {
        let mut v = PdVerdict::default();
        for idx in range {
            let writes: u64 = shadows.iter().map(|s| u64::from(s.aw[idx])).sum();
            if writes > 0 {
                v.writes += writes;
                v.marks += 1;
                v.flow_anti |= shadows.iter().any(|s| s.ar[idx]);
                v.not_privatizable |= shadows.iter().any(|s| s.np[idx]);
            }
        }
        v
    }

    /// The verdict on the union of two disjoint ranges.
    pub fn and(self, other: PdVerdict) -> PdVerdict {
        PdVerdict {
            flow_anti: self.flow_anti || other.flow_anti,
            not_privatizable: self.not_privatizable || other.not_privatizable,
            writes: self.writes + other.writes,
            marks: self.marks + other.marks,
        }
    }

    /// `w_A ≠ m_A` — an element was written by more than one iteration.
    pub fn output_dep(&self) -> bool {
        self.writes != self.marks
    }

    /// Valid with the array privatized (output dependences forgiven).
    pub fn privatized_ok(&self) -> bool {
        !self.flow_anti && !self.not_privatizable
    }

    /// Valid as a plain doall.
    pub fn plain_ok(&self) -> bool {
        self.privatized_ok() && !self.output_dep()
    }
}

/// One thread's shadow of the array: the marks, and the values the
/// marks say nothing about.
struct ThreadShadow<T> {
    marks: Shadow,
    /// Touched by a reduction update (the LRPD `A_x` shadow).
    rx: Vec<bool>,
    values: Vec<T>,
    /// Per-thread reduction partials.
    partial: Vec<T>,
    last_write_iter: Vec<u32>,
}

impl<T: Copy + Default> ThreadShadow<T> {
    fn new(n: usize) -> ThreadShadow<T> {
        ThreadShadow {
            marks: Shadow::new(n),
            values: vec![T::default(); n],
            rx: vec![false; n],
            partial: vec![T::default(); n],
            last_write_iter: vec![NEVER; n],
        }
    }
}

/// The view used during speculative execution: writes are buffered,
/// reads prefer the iteration's own writes, shadow marks are maintained.
struct SpecView<'a, T> {
    original: &'a [T],
    shadow: &'a mut ThreadShadow<T>,
    iter: u32,
}

impl<'a, T: Copy + Default + std::ops::Add<Output = T>> ArrayView<T> for SpecView<'a, T> {
    fn read(&mut self, idx: usize) -> T {
        if self.shadow.marks.on_read(idx, self.iter) {
            return self.shadow.values[idx];
        }
        self.original[idx]
    }

    fn write(&mut self, idx: usize, value: T) {
        self.shadow.marks.on_write(idx, self.iter);
        self.shadow.values[idx] = value;
        self.shadow.last_write_iter[idx] = self.iter;
    }

    fn reduce_add(&mut self, idx: usize, value: T) {
        self.shadow.rx[idx] = true;
        self.shadow.partial[idx] = self.shadow.partial[idx] + value;
    }
}

/// Pass-through view for sequential (re-)execution.
struct DirectView<'a, T> {
    data: &'a mut [T],
}

impl<'a, T: Copy + std::ops::Add<Output = T>> ArrayView<T> for DirectView<'a, T> {
    fn read(&mut self, idx: usize) -> T {
        self.data[idx]
    }

    fn write(&mut self, idx: usize, value: T) {
        self.data[idx] = value;
    }

    fn reduce_add(&mut self, idx: usize, value: T) {
        self.data[idx] = self.data[idx] + value;
    }
}

/// Execute the loop sequentially (used for re-execution after a failed
/// speculation, and as the test oracle).
pub fn run_sequential<T, F>(data: &mut [T], n_iters: usize, body: F)
where
    T: Copy + std::ops::Add<Output = T>,
    F: Fn(usize, &mut dyn ArrayView<T>),
{
    let mut view = DirectView { data };
    for i in 0..n_iters {
        body(i, &mut view);
    }
}

/// Speculatively execute `body` for iterations `0..n_iters` as a doall
/// over `n_threads` threads, applying the PD test to accesses on `data`.
///
/// `privatized` selects the §3.5.2 acceptance rule: with privatization,
/// output dependences are forgiven (last-value commit resolves them).
/// Values are committed to `data` only on success; on failure `data` is
/// untouched and the caller should fall back to [`run_sequential`].
pub fn speculative_doall<T, F>(
    data: &mut [T],
    n_iters: usize,
    n_threads: usize,
    privatized: bool,
    body: F,
) -> SpecOutcome
where
    T: Copy + Default + Send + Sync + std::ops::Add<Output = T>,
    F: Fn(usize, &mut dyn ArrayView<T>) + Sync,
{
    speculative_doall_faulty(data, n_iters, n_threads, privatized, None, body)
}

/// [`speculative_doall`] with deterministic fault injection: when
/// `fail_at` is `Some(k)`, the worker that owns iteration `k` panics
/// just before executing it. Used to exercise the isolation guarantee —
/// a crashed speculative worker must surface as a failed speculation
/// ([`SpecOutcome::worker_panicked`], `committed == false`, `data`
/// untouched), never as a crash of the caller or a partial commit.
pub fn speculative_doall_faulty<T, F>(
    data: &mut [T],
    n_iters: usize,
    n_threads: usize,
    privatized: bool,
    fail_at: Option<usize>,
    body: F,
) -> SpecOutcome
where
    T: Copy + Default + Send + Sync + std::ops::Add<Output = T>,
    F: Fn(usize, &mut dyn ArrayView<T>) + Sync,
{
    let n = data.len();
    let n_threads = n_threads.max(1);
    let t_exec = Instant::now();

    // --- speculative parallel execution with marking -------------------
    // Workers run under the scope's isolation: a panicking worker is
    // detected at join and poisons the whole attempt, exactly like a
    // failed PD test. The shared array is read-only here, so a dead
    // worker cannot have left partial state anywhere but in its own
    // (discarded) shadow.
    let mut shadows: Vec<ThreadShadow<T>> = Vec::with_capacity(n_threads);
    let mut worker_panicked = false;
    {
        let data_ref: &[T] = data;
        let body_ref = &body;
        // Every handle is joined, so a dead worker is an `Err` in the
        // list; the outer `Err` is a worker that could not be started.
        let joined = catch_unwind(AssertUnwindSafe(|| std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tid in 0..n_threads {
                handles.push(scope.spawn(move || {
                    let mut shadow = ThreadShadow::<T>::new(n);
                    // block distribution, matching the machine model
                    let per = n_iters.div_ceil(n_threads);
                    let lo = tid * per;
                    let hi = ((tid + 1) * per).min(n_iters);
                    for it in lo..hi {
                        if fail_at == Some(it) {
                            panic!("injected fault: speculative worker {tid} at iteration {it}");
                        }
                        let t = it as u32;
                        {
                            let mut view =
                                SpecView { original: data_ref, shadow: &mut shadow, iter: t };
                            body_ref(it, &mut view);
                        }
                        shadow.marks.end_iteration(t);
                    }
                    shadow
                }));
            }
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        })));
        match joined {
            Ok(results) => {
                for r in results {
                    match r {
                        Ok(shadow) => shadows.push(shadow),
                        Err(_) => worker_panicked = true,
                    }
                }
            }
            Err(_) => worker_panicked = true,
        }
    }
    let exec_time = t_exec.elapsed();
    if worker_panicked {
        return SpecOutcome {
            parallel_valid: false,
            privatized_valid: false,
            flow_anti: false,
            output_dep: false,
            not_privatizable: false,
            reduction_conflict: false,
            reduced: 0,
            writes: 0,
            marks: 0,
            committed: false,
            worker_panicked: true,
            exec_time,
            test_time: Duration::ZERO,
        };
    }

    // --- parallel merge + analysis (the PD test proper) ------------------
    let t_test = Instant::now();
    let marks: Vec<&Shadow> = shadows.iter().map(|s| &s.marks).collect();
    let mut verdict = PdVerdict::default();
    let mut reduction_conflict = false;
    let mut reduced: u64 = 0;
    let chunk = n.div_ceil(n_threads).max(1);
    {
        // Disjoint element ranges analysed concurrently: O(a/p + log p).
        // Per range: (verdict, reduced, reduction_conflict).
        let (shadows_ref, marks_ref) = (&shadows, &marks);
        let pieces: Vec<(PdVerdict, u64, bool)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for c in 0..n_threads {
                let lo = c * chunk;
                let hi = ((c + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let mut reduced = 0u64;
                    let mut rc = false;
                    for idx in lo..hi {
                        if shadows_ref.iter().any(|s| s.rx[idx]) {
                            reduced += 1;
                            rc |= marks_ref.iter().any(|m| m.touched(idx));
                        }
                    }
                    (PdVerdict::of(marks_ref, lo..hi), reduced, rc)
                }));
            }
            handles.into_iter().map(|h| h.join().expect("merge worker panicked")).collect()
        });
        for (v, red, rc) in pieces {
            verdict = verdict.and(v);
            reduced += red;
            reduction_conflict |= rc;
        }
    }
    let parallel_valid = verdict.plain_ok() && !reduction_conflict;
    let privatized_valid = verdict.privatized_ok() && !reduction_conflict;
    let success = if privatized { privatized_valid } else { parallel_valid };

    // --- commit ------------------------------------------------------------
    if success {
        let shadows_ref = &shadows;
        let mut data_chunks: Vec<&mut [T]> = data.chunks_mut(chunk).collect();
        std::thread::scope(|scope| {
            for (c, chunk_data) in data_chunks.iter_mut().enumerate() {
                let lo = c * chunk;
                let chunk_data: &mut [T] = chunk_data;
                scope.spawn(move || {
                    for (off, slot) in chunk_data.iter_mut().enumerate() {
                        let idx = lo + off;
                        // value written by the globally last iteration
                        let last = shadows_ref
                            .iter()
                            .filter(|s| s.last_write_iter[idx] != NEVER)
                            .max_by_key(|s| s.last_write_iter[idx]);
                        if let Some(s) = last {
                            *slot = s.values[idx];
                        }
                        if shadows_ref.iter().any(|s| s.rx[idx]) {
                            // fold the per-thread reduction partials
                            let mut acc = *slot;
                            for s in shadows_ref {
                                acc = acc + s.partial[idx];
                            }
                            *slot = acc;
                        }
                    }
                });
            }
        });
    }
    let test_time = t_test.elapsed();

    SpecOutcome {
        parallel_valid,
        privatized_valid,
        flow_anti: verdict.flow_anti,
        output_dep: verdict.output_dep(),
        not_privatizable: verdict.not_privatizable,
        reduction_conflict,
        reduced,
        writes: verdict.writes,
        marks: verdict.marks,
        committed: success,
        worker_panicked: false,
        exec_time,
        test_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// fully parallel: every iteration writes its own element
    #[test]
    fn disjoint_writes_pass_and_commit() {
        let mut data = vec![0i64; 64];
        let out = speculative_doall(&mut data, 64, 4, false, |i, v| {
            v.write(i, i as i64 * 3);
        });
        assert!(out.parallel_valid && out.committed, "{out:?}");
        assert!(!out.flow_anti && !out.output_dep && !out.not_privatizable);
        assert_eq!(data[10], 30);
        assert_eq!(out.writes, 64);
        assert_eq!(out.marks, 64);
    }

    #[test]
    fn flow_dependence_fails_and_preserves_data() {
        let mut data: Vec<i64> = (0..64).collect();
        let orig = data.clone();
        let out = speculative_doall(&mut data, 63, 4, false, |i, v| {
            let prev = v.read(i);
            v.write(i + 1, prev + 1);
        });
        assert!(!out.parallel_valid, "{out:?}");
        assert!(out.flow_anti);
        assert!(!out.committed);
        assert_eq!(data, orig, "failed speculation must not disturb the array");
        // sequential re-execution completes the work
        run_sequential(&mut data, 63, |i, v| {
            let prev = v.read(i);
            v.write(i + 1, prev + 1);
        });
        assert_eq!(data[63], 63);
    }

    #[test]
    fn crashed_worker_fails_speculation_and_serial_fallback_recovers() {
        // A perfectly parallel loop, but one worker dies mid-flight: the
        // attempt must report worker_panicked with nothing committed, and
        // the standard failed-speculation path (sequential re-execution)
        // must still produce the right answer.
        let body = |i: usize, v: &mut dyn ArrayView<i64>| {
            v.write(i, i as i64 * 3);
        };
        let mut data = vec![0i64; 64];
        let out = speculative_doall_faulty(&mut data, 64, 4, false, Some(17), body);
        assert!(out.worker_panicked, "{out:?}");
        assert!(!out.committed && !out.parallel_valid && !out.privatized_valid);
        assert_eq!(data, vec![0i64; 64], "crashed speculation must not disturb the array");
        if !out.success() {
            run_sequential(&mut data, 64, body);
        }
        assert_eq!(data[21], 63);
    }

    #[test]
    fn fault_in_every_worker_slot_is_isolated() {
        // Whichever worker the doomed iteration lands on, the caller
        // never sees the panic and the data is never partially written.
        for fail_at in [0usize, 15, 16, 31, 47, 63] {
            let mut data = vec![7i64; 64];
            let out = speculative_doall_faulty(&mut data, 64, 4, true, Some(fail_at), |i, v| {
                v.write(i, 0);
            });
            assert!(out.worker_panicked && !out.committed, "fail_at={fail_at}: {out:?}");
            assert_eq!(data, vec![7i64; 64], "fail_at={fail_at}");
        }
    }

    #[test]
    fn fault_outside_iteration_space_is_inert() {
        let mut data = vec![0i64; 8];
        let out = speculative_doall_faulty(&mut data, 8, 2, false, Some(100), |i, v| {
            v.write(i, 1);
        });
        assert!(!out.worker_panicked && out.committed, "{out:?}");
        assert_eq!(data, vec![1i64; 8]);
    }

    #[test]
    fn output_dependence_fails_plain_but_passes_privatized() {
        // every iteration writes element 0: output deps only
        let mut data = vec![0i64; 8];
        let out = speculative_doall(&mut data, 100, 4, false, |_, v| {
            v.write(0, 7);
        });
        assert!(!out.parallel_valid && out.output_dep && !out.flow_anti, "{out:?}");
        let out2 = speculative_doall(&mut data, 100, 4, true, |i, v| {
            v.write(0, i as i64);
        });
        assert!(out2.privatized_valid && out2.committed, "{out2:?}");
        // last-value semantics: iteration 99 wins
        assert_eq!(data[0], 99);
    }

    #[test]
    fn write_then_read_same_iteration_is_private() {
        // classic privatizable temp: each iteration writes A(0..4) then
        // reads them. Plain doall has output deps; privatized passes.
        let mut data = vec![0i64; 5];
        let body = |i: usize, v: &mut dyn ArrayView<i64>| {
            for k in 0..5 {
                v.write(k, (i + k) as i64);
            }
            let mut s = 0;
            for k in 0..5 {
                s += v.read(k);
            }
            v.write(0, s);
        };
        let out = speculative_doall(&mut data, 16, 4, true, body);
        assert!(out.privatized_valid && out.committed, "{out:?}");
        assert!(!out.not_privatizable);
        // matches sequential
        let mut seq = vec![0i64; 5];
        run_sequential(&mut seq, 16, body);
        assert_eq!(data, seq);
    }

    #[test]
    fn read_before_write_not_privatizable() {
        let mut data = vec![1i64; 8];
        let out = speculative_doall(&mut data, 8, 4, true, |i, v| {
            let x = v.read(3); // read first...
            v.write(3, x + i as i64); // ...then write: A_np
        });
        assert!(out.not_privatizable, "{out:?}");
        assert!(!out.privatized_valid && !out.committed);
    }

    #[test]
    fn read_only_array_always_passes() {
        let mut data: Vec<i64> = (0..32).collect();
        let out = speculative_doall(&mut data, 32, 4, false, |i, v| {
            let _ = v.read(i % 32);
            let _ = v.read((i * 7) % 32);
        });
        assert!(out.parallel_valid, "{out:?}");
        assert_eq!(out.marks, 0);
        assert_eq!(out.writes, 0);
    }

    #[test]
    fn single_thread_matches_multi_thread_verdict() {
        let body = |i: usize, v: &mut dyn ArrayView<i64>| {
            v.write(i % 10, i as i64);
        };
        let mut d1 = vec![0i64; 10];
        let mut d2 = vec![0i64; 10];
        let o1 = speculative_doall(&mut d1, 40, 1, true, body);
        let o2 = speculative_doall(&mut d2, 40, 7, true, body);
        assert_eq!(o1.privatized_valid, o2.privatized_valid);
        assert_eq!(o1.writes, o2.writes);
        assert_eq!(o1.marks, o2.marks);
        assert_eq!(d1, d2);
    }

    #[test]
    fn indirection_through_permutation_is_parallel() {
        // A(P(i)) = i with P a permutation — the paper's motivating
        // "access pattern is a function of the input data" case.
        let n = 128usize;
        let perm: Vec<usize> = (0..n).map(|i| (i * 77 + 13) % n).collect();
        // 77 is coprime with 128: a permutation
        let mut data = vec![0i64; n];
        let out = speculative_doall(&mut data, n, 8, false, |i, v| {
            v.write(perm[i], i as i64);
        });
        assert!(out.parallel_valid && out.committed, "{out:?}");
        for i in 0..n {
            assert_eq!(data[perm[i]], i as i64);
        }
    }

    #[test]
    fn colliding_indirection_is_caught() {
        let n = 64usize;
        let idx: Vec<usize> = (0..n).map(|i| i / 2).collect(); // collisions
        let mut data = vec![0i64; n];
        let out = speculative_doall(&mut data, n, 4, false, |i, v| {
            v.write(idx[i], i as i64);
        });
        assert!(out.output_dep, "{out:?}");
        assert!(!out.parallel_valid);
    }

    // ---- reduction speculation (the "R" in LRPD) -----------------------

    #[test]
    fn histogram_reduction_validates_and_commits() {
        // colliding indices, but every touch is a reduction update:
        // valid, and the committed totals match sequential execution.
        let n = 32usize;
        let iters = 400usize;
        let key: Vec<usize> = (0..iters).map(|i| (i * 7) % n).collect();
        let mut data = vec![0f64; n];
        let body = |i: usize, v: &mut dyn ArrayView<f64>| {
            v.reduce_add(key[i], (i % 5) as f64 + 0.5);
        };
        let out = speculative_doall(&mut data, iters, 4, false, body);
        assert!(out.parallel_valid && out.committed, "{out:?}");
        assert!(out.reduced as usize <= n && out.reduced > 0);
        assert!(!out.reduction_conflict);
        let mut seq = vec![0f64; n];
        run_sequential(&mut seq, iters, body);
        for (a, b) in data.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn mixing_reduction_and_plain_write_fails() {
        let mut data = vec![0f64; 8];
        let out = speculative_doall(&mut data, 16, 4, true, |i, v| {
            v.reduce_add(3, 1.0);
            if i == 7 {
                v.write(3, 99.0); // same element written non-reductively
            }
        });
        assert!(out.reduction_conflict, "{out:?}");
        assert!(!out.committed);
        assert!(data.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reading_a_reduced_element_fails() {
        let mut data = vec![1f64; 8];
        let out = speculative_doall(&mut data, 16, 4, true, |_, v| {
            let x = v.read(2);
            v.reduce_add(2, x * 0.0 + 1.0);
        });
        assert!(out.reduction_conflict, "{out:?}");
        assert!(!out.committed);
    }

    #[test]
    fn reductions_coexist_with_disjoint_writes() {
        let n = 64usize;
        let mut data = vec![0f64; n];
        let body = |i: usize, v: &mut dyn ArrayView<f64>| {
            v.write(i, i as f64); // disjoint plain writes
            v.reduce_add(0, 1.0); // histogram cell 0... wait: cell 0 is
                                  // also written by iteration 0 -> conflict
        };
        let out = speculative_doall(&mut data, n, 4, false, body);
        assert!(out.reduction_conflict, "cell 0 both written and reduced: {out:?}");
        // move the reduction target outside the written range:
        let mut d2 = vec![0f64; n + 1];
        let body2 = |i: usize, v: &mut dyn ArrayView<f64>| {
            v.write(i, i as f64);
            v.reduce_add(n, 1.0);
        };
        let out2 = speculative_doall(&mut d2, n, 4, false, body2);
        assert!(out2.parallel_valid && out2.committed, "{out2:?}");
        assert_eq!(d2[n], n as f64);
        let mut seq = vec![0f64; n + 1];
        run_sequential(&mut seq, n, body2);
        assert_eq!(d2, seq);
    }

    // ---- property: verdicts and values against a brute-force oracle ----

    #[derive(Debug, Clone)]
    enum Op {
        Read(usize),
        Write(usize),
    }

    fn apply_ops(ops: &[Vec<Op>]) -> impl Fn(usize, &mut dyn ArrayView<i64>) + Sync + '_ {
        move |i: usize, v: &mut dyn ArrayView<i64>| {
            let mut acc = i as i64;
            for op in &ops[i] {
                match op {
                    Op::Read(idx) => acc = acc.wrapping_add(v.read(*idx)),
                    Op::Write(idx) => v.write(*idx, acc),
                }
            }
        }
    }

    /// Oracle: is the loop fully parallel as a plain doall (every
    /// element touched by a write is touched by exactly one iteration,
    /// and never read by another)?
    fn oracle(ops: &[Vec<Op>], n_elems: usize) -> (bool, bool) {
        let n_iters = ops.len();
        let mut writers: Vec<Vec<usize>> = vec![Vec::new(); n_elems];
        let mut cross_readers: Vec<Vec<usize>> = vec![Vec::new(); n_elems];
        let mut read_before_write: Vec<bool> = vec![false; n_elems];
        for (it, seq) in ops.iter().enumerate() {
            let mut written = vec![false; n_elems];
            let mut read_first = vec![false; n_elems];
            let mut read_any = vec![false; n_elems];
            for op in seq {
                match op {
                    Op::Read(i) => {
                        if !written[*i] {
                            read_first[*i] = true;
                        }
                        read_any[*i] = true;
                    }
                    Op::Write(i) => written[*i] = true,
                }
            }
            for e in 0..n_elems {
                if written[e] {
                    writers[e].push(it);
                    if read_first[e] {
                        read_before_write[e] = true;
                    }
                }
                if read_any[e] && !written[e] {
                    cross_readers[e].push(it);
                }
            }
        }
        let _ = n_iters;
        let mut flow_anti = false;
        let mut output = false;
        let mut not_priv = false;
        for e in 0..n_elems {
            if writers[e].is_empty() {
                continue;
            }
            if !cross_readers[e].is_empty() {
                flow_anti = true;
            }
            if writers[e].len() > 1 {
                output = true;
            }
            if read_before_write[e] {
                not_priv = true;
            }
        }
        (
            !flow_anti && !output && !not_priv,
            !flow_anti && !not_priv,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_verdict_matches_oracle(
            seed in proptest::collection::vec(
                proptest::collection::vec((0usize..2, 0usize..6), 0..5),
                1..10,
            )
        ) {
            let n_elems = 6usize;
            let ops: Vec<Vec<Op>> = seed
                .iter()
                .map(|seq| {
                    seq.iter()
                        .map(|(k, i)| if *k == 0 { Op::Read(*i) } else { Op::Write(*i) })
                        .collect()
                })
                .collect();
            let (want_plain, want_priv) = oracle(&ops, n_elems);
            let mut d1 = vec![0i64; n_elems];
            let body = apply_ops(&ops);
            let out = speculative_doall(&mut d1, ops.len(), 3, false, &body);
            prop_assert_eq!(out.parallel_valid, want_plain, "plain verdict mismatch {:?}", out);
            let mut d2 = vec![0i64; n_elems];
            let out2 = speculative_doall(&mut d2, ops.len(), 3, true, &body);
            prop_assert_eq!(out2.privatized_valid, want_priv, "priv verdict mismatch {:?}", out2);
            // When committed, results must equal sequential execution.
            if out2.committed {
                let mut seq = vec![0i64; n_elems];
                run_sequential(&mut seq, ops.len(), &body);
                prop_assert_eq!(d2, seq);
            } else {
                prop_assert_eq!(d2, vec![0i64; n_elems], "failed spec must not mutate");
            }
        }
    }
}

//! Run-time speculative parallelization (§3.5): the **Privatizing
//! Doall (PD) test** of Rauchwerger & Padua as used by Polaris. A loop
//! whose access pattern cannot be analyzed at compile time is
//! *speculatively executed as a doall* while shadow arrays record, per
//! element,
//!
//! * `A_w` — written (marked on the first write of each iteration),
//! * `A_r` — read but never written in some iteration,
//! * `A_np` — read *before* being written in some iteration (the
//!   privatization spoiler),
//!
//! together with the total write count `w_A`. The post-execution
//! analysis of §3.5.2 then decides:
//!
//! * `any(A_w ∧ A_r)` → a flow/anti dependence survives even
//!   privatization,
//! * `any(A_w ∧ A_np)` → the array is not privatizable,
//! * `w_A ≠ m_A` (marks in `A_w`) → an output dependence, removed only
//!   if the array is privatized.
//!
//! This module holds the test and no executor: [`Shadow`] is what one
//! executor of iterations marks, [`PdVerdict`] the analysis of any
//! number of them. The executor is the machine's loop dispatch. On real
//! threads every lane works on a copy-on-write snapshot and marks a
//! shadow of its own, and the join commits the lanes' writes only if
//! the test passes (the "values computed during parallel execution are
//! stored in temporary locations and then stored in permanent locations
//! if the parallel execution was correct" strategy of §3.5.1); on
//! failure the shared state is untouched and the loop re-executes in
//! order — exactly the protocol whose cost Figure 6 charts as "potential
//! slowdown". Elements are independent, so verdicts of disjoint element
//! ranges combine (flags or, counts add) — the property behind the
//! `O(a/p + log p)` analysis of §3.5.2, which the machine's cost model
//! bills.

const NEVER: u32 = u32::MAX;

/// The §3.5 shadow marks of one array, as kept by one executor of
/// iterations of a `SPECULATIVE` loop: a lane of the threaded backend,
/// or the in-order simulation. The executor reports
/// every access ([`Shadow::on_read`],
/// [`Shadow::on_write`], iterations stamped `t`) and closes each
/// iteration ([`Shadow::end_iteration`]); [`PdVerdict::of`] analyses the
/// marks afterwards.
#[derive(Debug, Clone)]
pub(crate) struct Shadow {
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
    pub(crate) fn new(n: usize) -> Shadow {
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
    pub(crate) fn len(&self) -> usize {
        self.aw.len()
    }

    /// Marking operations performed (what a cost model bills).
    pub(crate) fn marks_done(&self) -> u64 {
        self.marks_done
    }

    /// Mark a read of `idx` in iteration `t`. A read of an element the
    /// iteration has already written sees that value and exposes nothing.
    ///
    /// Like [`Shadow::on_write`], `#[inline(never)]`: inlined into the
    /// VM's dispatch loop the marking slows every loop that is *not*
    /// speculative (`exec_serial` +8 % measured). The caller,
    /// `Interp::mark_access`, is `#[inline(always)]` and this body is
    /// small, so without the attribute the optimizer may inline it.
    #[inline(never)]
    pub(crate) fn on_read(&mut self, idx: usize, t: u32) {
        self.marks_done += 1;
        if self.write_epoch[idx] != t && self.read_epoch[idx] != t {
            self.read_epoch[idx] = t;
            self.reads_buf.push(idx);
        }
    }

    /// Mark a write of `idx` in iteration `t`.
    #[inline(never)]
    pub(crate) fn on_write(&mut self, idx: usize, t: u32) {
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
    pub(crate) fn end_iteration(&mut self, t: u32) {
        for &idx in &self.reads_buf {
            if self.write_epoch[idx] != t {
                self.ar[idx] = true;
            }
        }
        self.reads_buf.clear();
    }
}

/// What the PD test (§3.5.2) finds on a range of elements. Elements are
/// independent, so the verdict on an array combines the verdicts on any
/// partition of it (flags or, counts add) — which is what lets the
/// analysis run on disjoint ranges concurrently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PdVerdict {
    /// `any(A_w ∧ A_r)` — flow/anti dependence.
    flow_anti: bool,
    /// `any(A_w ∧ A_np)` — read-before-write in an iteration.
    not_privatizable: bool,
    /// `w_A`: first-writes per (element, iteration).
    writes: u64,
    /// `m_A`: elements marked in `A_w`.
    marks: u64,
}

impl PdVerdict {
    /// Analyse elements `range` of an array whose iterations were marked
    /// by `shadows`, each iteration by exactly one of them.
    pub(crate) fn of(shadows: &[&Shadow], range: std::ops::Range<usize>) -> PdVerdict {
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

    /// `w_A ≠ m_A` — an element was written by more than one iteration.
    fn output_dep(&self) -> bool {
        self.writes != self.marks
    }

    /// Valid with the array privatized (output dependences forgiven).
    fn privatized_ok(&self) -> bool {
        !self.flow_anti && !self.not_privatizable
    }

    /// Valid as a plain doall.
    pub(crate) fn plain_ok(&self) -> bool {
        self.privatized_ok() && !self.output_dep()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(usize),
        Write(usize),
    }
    use Op::{Read, Write};

    /// How iterations are dealt to the executors: a block schedule's
    /// contiguous runs, or a self-scheduler's interleaving.
    #[derive(Debug, Clone, Copy)]
    enum Deal {
        Blocks,
        RoundRobin,
    }

    /// `ops[i]`, the accesses of iteration `i` in program order, marked by
    /// `k` executors on a shadow of `n` elements each.
    fn marked(ops: &[Vec<Op>], n: usize, k: usize, deal: Deal) -> Vec<Shadow> {
        let mut shadows = vec![Shadow::new(n); k];
        let per = ops.len().div_ceil(k).max(1);
        for (i, seq) in ops.iter().enumerate() {
            let sh = &mut shadows[match deal {
                Deal::Blocks => i / per,
                Deal::RoundRobin => i % k,
            }];
            for op in seq {
                match *op {
                    Read(e) => sh.on_read(e, i as u32),
                    Write(e) => sh.on_write(e, i as u32),
                }
            }
            sh.end_iteration(i as u32);
        }
        shadows
    }

    fn verdict_of(shadows: &[Shadow], range: std::ops::Range<usize>) -> PdVerdict {
        PdVerdict::of(&shadows.iter().collect::<Vec<_>>(), range)
    }

    /// The verdict on `iters` iterations, iteration `i` doing `body(i)`,
    /// marked in blocks by 4 executors.
    fn verdict(iters: usize, n: usize, body: impl Fn(usize) -> Vec<Op>) -> PdVerdict {
        let ops: Vec<Vec<Op>> = (0..iters).map(body).collect();
        verdict_of(&marked(&ops, n, 4, Deal::Blocks), 0..n)
    }

    /// fully parallel: every iteration writes its own element
    #[test]
    fn disjoint_writes_pass() {
        let v = verdict(64, 64, |i| vec![Write(i)]);
        assert!(v.plain_ok(), "{v:?}");
        assert!(!v.flow_anti && !v.output_dep() && !v.not_privatizable);
        assert_eq!((v.writes, v.marks), (64, 64));
    }

    #[test]
    fn flow_dependence_fails() {
        let v = verdict(63, 64, |i| vec![Read(i), Write(i + 1)]);
        assert!(v.flow_anti && !v.plain_ok() && !v.privatized_ok(), "{v:?}");
    }

    #[test]
    fn output_dependence_fails_plain_but_passes_privatized() {
        // every iteration writes element 0: output deps only
        let v = verdict(100, 8, |_| vec![Write(0)]);
        assert!(!v.plain_ok() && v.output_dep() && !v.flow_anti, "{v:?}");
        assert!(v.privatized_ok());
        assert_eq!((v.writes, v.marks), (100, 1));
    }

    #[test]
    fn write_then_read_same_iteration_is_private() {
        // classic privatizable temp: each iteration writes A(0..5) then
        // reads them. Plain doall has output deps; privatized passes.
        let v = verdict(16, 5, |_| {
            (0..5).map(Write).chain((0..5).map(Read)).chain([Write(0)]).collect()
        });
        assert!(v.privatized_ok() && !v.not_privatizable && !v.plain_ok(), "{v:?}");
    }

    #[test]
    fn read_before_write_not_privatizable() {
        let v = verdict(8, 8, |_| vec![Read(3), Write(3)]);
        assert!(v.not_privatizable && !v.privatized_ok(), "{v:?}");
    }

    #[test]
    fn read_only_array_always_passes() {
        let v = verdict(32, 32, |i| vec![Read(i % 32), Read((i * 7) % 32)]);
        assert!(v.plain_ok(), "{v:?}");
        assert_eq!((v.writes, v.marks), (0, 0));
    }

    #[test]
    fn single_thread_matches_multi_thread_verdict() {
        let ops: Vec<Vec<Op>> = (0..40).map(|i| vec![Write(i % 10)]).collect();
        let one = verdict_of(&marked(&ops, 10, 1, Deal::Blocks), 0..10);
        let seven = verdict_of(&marked(&ops, 10, 7, Deal::Blocks), 0..10);
        assert_eq!(one, seven);
        assert_eq!((one.writes, one.marks), (40, 10));
    }

    #[test]
    fn indirection_through_permutation_is_parallel() {
        // A(P(i)) = i with P a permutation (77 is coprime with 128) — the
        // paper's motivating "access pattern is a function of the input
        // data" case.
        let v = verdict(128, 128, |i| vec![Write((i * 77 + 13) % 128)]);
        assert!(v.plain_ok(), "{v:?}");
    }

    #[test]
    fn colliding_indirection_is_caught() {
        let v = verdict(64, 64, |i| vec![Write(i / 2)]);
        assert!(v.output_dep() && !v.plain_ok(), "{v:?}");
    }

    // ---- property: verdicts against a brute-force oracle -----------------

    /// Brute-force oracle, `(plain, privatized)`: is the loop fully
    /// parallel as a plain doall (every element touched by a write is
    /// touched by exactly one iteration, and never read by another), and
    /// with the array privatized (output dependences forgiven)?
    fn oracle(ops: &[Vec<Op>], n_elems: usize) -> (bool, bool) {
        let mut writers: Vec<Vec<usize>> = vec![Vec::new(); n_elems];
        let mut cross_readers: Vec<Vec<usize>> = vec![Vec::new(); n_elems];
        let mut read_before_write: Vec<bool> = vec![false; n_elems];
        for (it, seq) in ops.iter().enumerate() {
            let mut written = vec![false; n_elems];
            let mut read_first = vec![false; n_elems];
            let mut read_any = vec![false; n_elems];
            for op in seq {
                match op {
                    Read(i) => {
                        if !written[*i] {
                            read_first[*i] = true;
                        }
                        read_any[*i] = true;
                    }
                    Write(i) => written[*i] = true,
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

        /// However the iterations are dealt to however many executors,
        /// the verdict is the oracle's — and the verdicts of two halves
        /// of the array add up to the verdict on all of it.
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
                .map(|seq| seq.iter().map(|(k, i)| if *k == 0 { Read(*i) } else { Write(*i) }).collect())
                .collect();
            let (want_plain, want_priv) = oracle(&ops, n_elems);
            for k in [1usize, 2, 3, 8] {
                for deal in [Deal::Blocks, Deal::RoundRobin] {
                    let shadows = marked(&ops, n_elems, k, deal);
                    let whole = verdict_of(&shadows, 0..n_elems);
                    prop_assert_eq!(whole.plain_ok(), want_plain, "plain, {} x {:?}: {:?}", k, deal, whole);
                    prop_assert_eq!(whole.privatized_ok(), want_priv, "privatized, {} x {:?}: {:?}", k, deal, whole);
                }
            }
        }
    }
}

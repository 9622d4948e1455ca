//! A checked compile's allocation budget — a deterministic regression
//! fence for `analyze`, `verify` and the pipeline's per-stage snapshot
//! and validation (ROADMAP aim 1: counts, not wall clocks, are the hard
//! gates on this host).
//!
//! A counting `#[global_allocator]` tallies the heap traffic of the test
//! thread while it runs one checked compile (parse →
//! `compile(PassOptions::polaris())` → `verify_compiled`) of each of the
//! 26 kernels, one of `common::MULTI_UNIT` (the inliner's path), and one
//! range test of the paper's §3.3.1 TRFD subscript. The counts repeat
//! exactly from run to run (a release build elides a few dozen dead
//! allocations a debug build makes), so the budgets below are what was
//! measured plus 5 %, not a guess with headroom.
//!
//! Run with `-- --nocapture` to see the numbers.

mod common;

use polaris::core::ddtest::range_test::{no_carried_dependence, InnerLoop, RefSpec};
use polaris::core::ddtest::DdStats;
use polaris::symbolic::poly::{DivPolicy, Poly};
use polaris::symbolic::{Range, RangeEnv};
use polaris::PassOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Measured since a disabled recorder's span names (`pass:`, `verify:`,
/// `unit:`) are no longer formatted: 98 226 allocations / 18 448 941
/// bytes (debug and release alike), a `realloc` counted as an allocation
/// of its new size. Budget = that + 5 %. History, newest first: with the
/// names formatted, once every identifier the IR held was one shared
/// `Name`, 99 301 / 18 466 055; while every identifier was a `String`,
/// 134 814 / 19 395 731 (release 134 794 / 19 400 276); before the lowered
/// image kept its arrays' shapes in one shared table, once the range test
/// tried per-iteration separation before it built a whole-loop footprint,
/// range propagation killed each set of names in one pass and a loop
/// header converted each bound once, 134 760 / 19 393 731 (release
/// 134 730 / 19 393 684); once the IR was rewritten
/// in place, the inliner bound each site in one pass, accesses shared
/// their loop contexts and polynomial atoms their names, 148 483 /
/// 20 539 159 (release 148 453 / 20 539 112); while every rewrite
/// rebuilt its tree, 226 069 / 24 057 161 (release 226 039 / 24 057 114);
/// before one liveness numbering per analyzed unit, 225 990 / 23 897 169;
/// when the validator stopped building a control-flow graph per unit
/// per validation (seven invariants), 228 833 / 24 157 575; with the
/// graph, one `Program` clone per compile and one typing per expression,
/// 244 866 / 26 284 709; with the flat polynomial form alone, 297 117 /
/// 31 816 755; the `BTreeMap<Monomial, Rat>` form before it, 960 309 /
/// 234 483 573. The kernels are single-unit, so restructuring main alone
/// after inlining changes nothing here.
const SUITE_ALLOCS_BUDGET: u64 = 103_200;
const SUITE_BYTES_BUDGET: u64 = 19_371_400;

/// `common::MULTI_UNIT`'s checked compile — two subroutines and a
/// function inlined into main — made 4 279 allocations / 432 919 bytes
/// while every formal and every local cost a rebuild of the whole body;
/// binding each site in one pass: 2 345 / 329 544; with the range layer
/// doing only the work a verdict needs: 2 201 / 318 288 (debug). Budget
/// = that + 5 %. With the image's shape table: 2 203 / 318 304; with
/// shared names: 1 489 / 296 424; with no span names formatted for a
/// disabled recorder: 1 446 / 295 670.
const MULTI_UNIT_ALLOCS_BUDGET: u64 = 1_519;

/// One TRFD range test on that `BTreeMap` form (and an environment
/// deep-copied per dimension query) made 14 794 allocations; the flat
/// form 1 141; with atoms that share their names 747; with no whole-loop
/// footprint built for a pair that per-iteration separation proves, 239;
/// with the IR's names shared, 237. It must stay within that + 5 %.
const TRFD_ALLOCS_BUDGET: u64 = 249;

struct Counting;

thread_local! {
    // `const` and without a destructor, so touching them inside the
    // allocator neither allocates nor registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations by every thread: a fork's helpers allocate too.
static EVERY_THREAD: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
    EVERY_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Every test holds this while it runs, so [`EVERY_THREAD`] counts one
/// test's threads only.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain thread-local cells and never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made by this thread while `f` ran.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (ALLOCS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

fn poly(src: &str) -> Poly {
    let program = polaris::ir::parse(&format!("program t\nx = {src}\nend\n")).unwrap();
    match &program.units[0].body.0[0].kind {
        polaris::ir::StmtKind::Assign { rhs, .. } => Poly::from_expr(rhs, DivPolicy::Exact).unwrap(),
        other => unreachable!("not an assignment: {other:?}"),
    }
}

fn inner(var: &str, lo: &str, hi: &str) -> InnerLoop {
    InnerLoop { var: var.into(), lo: poly(lo), hi: poly(hi), step: 1 }
}

// One test function: the three measurements share the thread's counters.
#[test]
fn checked_compiles_and_the_trfd_range_test_stay_within_their_allocation_budgets() {
    let _alone = alone();
    let kernels = common::kernels();
    let (allocs, bytes) = counted(|| {
        for b in &kernels {
            let mut program = polaris::ir::parse(b.source).expect("kernel parses");
            let report = polaris::core::compile(&mut program, &PassOptions::polaris())
                .expect("kernel compiles");
            let verify = polaris::verify::verify_compiled(&program, &report);
            assert!(!report.degraded() && verify.ok(), "{}: checked compile failed", b.name);
        }
    });
    println!("alloc_budget: 26 checked compiles: {allocs} allocations, {bytes} bytes");
    let (mu_allocs, mu_bytes) = counted(|| {
        let mut program = polaris::ir::parse(common::MULTI_UNIT).expect("MULTI_UNIT parses");
        let report = polaris::core::compile(&mut program, &PassOptions::polaris())
            .expect("MULTI_UNIT compiles");
        let verify = polaris::verify::verify_compiled(&program, &report);
        assert!(!report.degraded() && verify.ok(), "MULTI_UNIT: checked compile failed");
    });
    println!("alloc_budget: MULTI_UNIT checked compile: {mu_allocs} allocations, {mu_bytes} bytes");

    // The §3.3.1 worked example, as `benchmark/src/symbolic.rs` probes it.
    let trfd = RefSpec {
        subs: vec![poly("(i*(n**2+n) + j**2 - j)/2 + k + 1")],
        inner: vec![inner("J", "0", "n - 1"), inner("K", "0", "j - 1")],
    };
    let mut env = RangeEnv::new();
    env.set("N", Range::at_least(Poly::int(1)));
    env.set("I", Range::new(Some(Poly::int(0)), Some(poly("m - 1"))));
    let tested = inner("I", "0", "m - 1");
    let stats = DdStats::new();
    let (trfd_allocs, trfd_bytes) = counted(|| {
        assert!(no_carried_dependence(&trfd, &trfd, "I", 1, &tested, &env, &stats, true));
    });
    println!("alloc_budget: TRFD range test: {trfd_allocs} allocations, {trfd_bytes} bytes");

    assert!(
        allocs <= SUITE_ALLOCS_BUDGET,
        "26 checked compiles made {allocs} allocations, budget {SUITE_ALLOCS_BUDGET}"
    );
    assert!(
        bytes <= SUITE_BYTES_BUDGET,
        "26 checked compiles allocated {bytes} bytes, budget {SUITE_BYTES_BUDGET}"
    );
    assert!(
        mu_allocs <= MULTI_UNIT_ALLOCS_BUDGET,
        "MULTI_UNIT's checked compile made {mu_allocs} allocations, budget {MULTI_UNIT_ALLOCS_BUDGET}"
    );
    assert!(
        trfd_allocs <= TRFD_ALLOCS_BUDGET,
        "TRFD range test made {trfd_allocs} allocations, budget {TRFD_ALLOCS_BUDGET}"
    );
}

/// A run's heap traffic is what its arrays and bookkeeping need, not
/// what its stores do: twice the element stores into the same array
/// allocate nothing more (a store is a `Relaxed` store into the array's
/// cells: no reference count, no copy), and the interpreter takes the
/// lowered image's arrays by value — one allocation of the array per
/// run, where copying it away from the image on the first store made two.
#[test]
fn element_stores_allocate_nothing_and_a_run_holds_one_copy_of_each_array() {
    let _alone = alone();
    const ELEMENTS: u64 = 40_000;
    let run = |trips: u64| {
        let src = format!(
            "program stores\nreal a({ELEMENTS})\ndo i = 1, {trips}\n  a(i) = i * 0.5\nend do\nprint *, a(7)\nend\n"
        );
        let program = polaris::ir::parse(&src).unwrap();
        counted(|| {
            let ran = polaris::machine::run(&program, &polaris::MachineConfig::serial()).unwrap();
            assert_eq!(ran.output, ["3.500000E0"]);
        })
    };
    let (half, full) = (run(ELEMENTS / 2), run(ELEMENTS));
    println!("alloc_budget: a run of {ELEMENTS} element stores: {} allocations, {} bytes", full.0, full.1);
    assert_eq!(half.0, full.0, "allocations grew with the number of stores");
    assert!(
        full.1 < 2 * 8 * ELEMENTS,
        "a run allocated {} bytes: more than one copy of its {}-byte array",
        full.1,
        8 * ELEMENTS
    );
}

/// `(allocations, bytes)` of a run of `forks` forks on 2 threads of an
/// 8-trip DOALL over `A`, declared in `decls` beside the loop's `T`. The
/// DOALL stays under the profitability guard, so every lane a fork
/// starts runs on this thread and every allocation is counted.
fn forked(decls: &str, forks: u64) -> (u64, u64) {
    let src = format!(
        "program forks\n{decls}do t = 1, {forks}\n!$polaris doall\ndo i = 1, 8\n  a(i) = a(i) + t\nend do\nend do\nprint *, a(8)\nend\n"
    );
    let program = polaris::ir::parse(&src).unwrap();
    let cfg = polaris::MachineConfig::threaded(2, polaris::machine::Schedule::Static);
    counted(|| {
        polaris::machine::run(&program, &cfg).unwrap();
    })
}

const FORKS: u64 = 10;

/// What `FORKS` more forks of the loop over `decls` allocate.
fn fork_traffic(decls: &str) -> (u64, u64) {
    let (one, more) = (forked(decls, 1), forked(decls, FORKS + 1));
    (more.0 - one.0, more.1 - one.1)
}

/// A fork shares what its lanes do not own: each lane gets the scalars,
/// a handle on each array's elements and one reference to the image's
/// shape table, so a fork allocates as much in a unit of 40 arrays as in
/// one of 2, and at most 12 allocations and 1 480 bytes per fork, among
/// them the claims, the report channel, the master's snapshot of the
/// scalars and the lane's copy of it, the lane's cycles per plan chunk
/// and its record of pieces; a record that reaches the master at the
/// frontier is folded, not held. (While the claims kept a lane per
/// worker, 13 and 1 536; while the fold held every record in a map
/// first, 14 and 2 696; while a lane copied each array's name and
/// bounds, the 40-array unit made 3 × 38 more allocations per lane per
/// fork: 135 against 21; while the fork shared each array with a
/// snapshot for the join to diff against and a lane copied an array it
/// stored into, 16.)
#[test]
fn a_forks_allocations_do_not_grow_with_the_array_count() {
    let _alone = alone();
    let arrays = |n: usize| -> String {
        let decls: String = (1..n).map(|k| format!("real b{k}(4)\n")).collect();
        format!("real a(8)\n{decls}")
    };
    let (few, many) = (fork_traffic(&arrays(2)).0, fork_traffic(&arrays(40)).0);
    println!("alloc_budget: {FORKS} forks on 2 threads: {few} allocations with 2 arrays, {many} with 40");
    assert_eq!(few, many, "a fork's allocations grew with the array count");
    assert!(few <= 12 * FORKS, "{FORKS} forks made {few} allocations");
}

/// A fork copies no element of an array its lanes share: they store
/// into it in place, so `FORKS` more forks allocate the same bytes with
/// `A` of 8 elements as of 2²⁰, and at most 16 000 of them: 14 800.
/// (While the fold held every record in a map first, 26 960; while a
/// lane copied an array at its first store into it, each fork here
/// copied the 8 MB array: 83 901 680 bytes against 16 240.)
#[test]
fn a_forks_bytes_do_not_grow_with_a_shared_arrays_size() {
    let _alone = alone();
    let small = fork_traffic("real a(8)\n").1;
    let large = fork_traffic("real a(1048576)\n").1;
    println!("alloc_budget: {FORKS} forks on 2 threads: {small} bytes with A(8), {large} with A(1048576)");
    assert_eq!(small, large, "a fork's bytes grew with the size of an array its lanes store into");
    assert!(small <= 16_000, "{FORKS} forks allocated {small} bytes");
}

/// The validator's reversed lane keeps one record for all its pieces —
/// its output lines cut at the piece ends, as its reduction log is — so
/// a validated DOALL that prints once per iteration allocates, per
/// extra iteration of its adversarial run, what a serial run does: the
/// printed line, and O(log N) for the vectors that grow. (While each
/// one-iteration piece split its output off into a `Vec` of its own,
/// the adversarial run made one allocation more per iteration.)
#[test]
fn a_validated_print_loop_allocates_per_iteration_what_a_serial_run_does() {
    let _alone = alone();
    const N: u64 = 2048;
    let program = |trips: u64| {
        let src =
            format!("program p\n!$polaris doall\ndo i = 1, {trips}\n  print *, i\nend do\nend\n");
        polaris::ir::parse(&src).unwrap()
    };
    let (short, long) = (program(N), program(2 * N));
    let serial = |p: &_| counted(|| assert!(polaris::machine::run_serial(p).is_ok())).0;
    let validated = |p: &_| {
        let cfg = polaris::MachineConfig::challenge_8();
        counted(|| assert!(polaris::machine::run_validated(p, &cfg).is_ok())).0
    };
    // What N more iterations allocate: in a serial run, and in the
    // adversarial run, a validation less its sequential run.
    let serial_extra = serial(&long) - serial(&short);
    let adversarial_extra = validated(&long) - validated(&short) - serial_extra;
    println!("alloc_budget: {N} more printed iterations: {serial_extra} allocations serially, {adversarial_extra} in the validator's lane");
    let growth = 2 * u64::from((2 * N).ilog2() + 1);
    assert!(
        adversarial_extra.abs_diff(serial_extra) <= growth,
        "the validator's lane allocated {adversarial_extra} for {N} iterations, a serial run {serial_extra}"
    );
}

/// Both runs of a validation execute one bytecode stream: per extra
/// statement a validation allocates the bytes one run does — lowering it
/// and compiling it once — since executing `X = X + 1.0` allocates
/// nothing. (While each run compiled the unit, a validation allocated
/// one compile's bytes more.)
#[test]
fn a_validation_compiles_its_unit_once() {
    let _alone = alone();
    const N: usize = 200;
    let program = |stmts: usize| {
        let body = "x = x + 1.0\n".repeat(stmts);
        polaris::ir::parse(&format!("program p\nx = 0.0\n{body}print *, x\nend\n")).unwrap()
    };
    let (short, long) = (program(N), program(2 * N));
    let run = |p: &_| counted(|| assert!(polaris::machine::run_serial(p).is_ok())).1;
    let validated = |p: &_| {
        let cfg = polaris::MachineConfig::challenge_8();
        counted(|| assert!(polaris::machine::run_validated(p, &cfg).is_ok())).1
    };
    let run_extra = run(&long) - run(&short);
    let validated_extra = validated(&long) - validated(&short);
    println!("alloc_budget: {N} more statements: {run_extra} bytes in a run, {validated_extra} in a validation");
    assert_eq!(validated_extra, run_extra, "a validation compiled its unit twice");
}

/// Names are shared, not copied: cloning `A1 + A2 + … + A64` allocates
/// one `Box` per operand edge of its 63 `+` nodes and nothing for its 64
/// identifiers. (While every identifier was a `String`, the clone made
/// 64 allocations more, one per name.)
#[test]
fn cloning_an_expression_allocates_its_nodes_and_not_its_names() {
    let _alone = alone();
    let sum = (1..=64).map(|k| format!("a{k}")).collect::<Vec<_>>().join(" + ");
    let program = polaris::ir::parse(&format!("program t\nx = {sum}\nend\n")).unwrap();
    let polaris::ir::StmtKind::Assign { rhs, .. } = &program.units[0].body.0[0].kind else {
        unreachable!("an assignment")
    };
    let mut boxes = 0u64;
    rhs.for_each(&mut |e| match e {
        polaris::ir::Expr::Bin { .. } => boxes += 2,
        polaris::ir::Expr::Un { .. } => boxes += 1,
        _ => {}
    });
    let (allocs, _) = counted(|| drop(std::hint::black_box(rhs.clone())));
    println!("alloc_budget: cloning A1 + ... + A64: {allocs} allocations for {boxes} boxes");
    assert_eq!(boxes, 126);
    assert_eq!(allocs, boxes, "a clone allocated for something other than its boxes");
}

/// What a validation of a 64-trip scalar sum allocates beyond a serial
/// run of it, less the same for a 64-trip DOALL that stores a private
/// scalar instead: the reduction's log and its fold, 2 034 bytes. The
/// validator's reversed lane logs its 64 updates on this thread, and a
/// log's block grows with what it holds. (While each record reserved a
/// whole block of 4 096 entries, 33 792.)
#[test]
fn a_short_reduction_logs_what_it_holds() {
    let _alone = alone();
    let extra = |body: &str, annotation: &str| {
        let src = format!(
            "program p\ns = 0.0\n{annotation}\ndo i = 1, 64\n  {body}\nend do\nprint *, s\nend\n"
        );
        let program = polaris::ir::parse(&src).unwrap();
        let serial = counted(|| assert!(polaris::machine::run_serial(&program).is_ok())).1;
        let cfg = polaris::MachineConfig::challenge_8();
        let validated =
            counted(|| assert!(polaris::machine::run_validated(&program, &cfg).is_ok())).1;
        validated - serial
    };
    let sum = extra("s = s + 1.0", "!$polaris doall reduction(+:S)");
    let store = extra("t = 1.0", "!$polaris doall private(T)");
    println!("alloc_budget: validating a 64-trip sum: {sum} bytes beyond a serial run, {store} for a plain DOALL");
    assert!(sum - store < 4096, "the 64-trip sum's log took {} bytes", sum - store);
}

/// `FORKS` more forks past the guard on `procs` threads, of a 1 024-trip
/// DOALL of 8 steps an iteration: the allocations of every thread per
/// fork, and whether the loop forked.
fn forks_past_the_guard(procs: usize, schedule: polaris::machine::Schedule) -> (f64, bool) {
    let program = |forks: u64| {
        let src = format!(
            "program forks\nreal a(1024)\ndo t = 1, {forks}\n!$polaris doall private(J)\ndo i = 1, 1024\n  do j = 1, 8\n    a(i) = a(i) + j * t\n  end do\nend do\nend do\nprint *, a(1)\nend\n"
        );
        polaris::ir::parse(&src).unwrap()
    };
    let cfg = polaris::MachineConfig::threaded(procs, schedule);
    let run = |p: &polaris::ir::Program| {
        let before = EVERY_THREAD.load(Ordering::Relaxed);
        let r = polaris::machine::run(p, &cfg).unwrap();
        (EVERY_THREAD.load(Ordering::Relaxed) - before, r.loops.values().any(|s| s.parallel_invocations > 0))
    };
    let (one, more) = (program(1), program(FORKS + 1));
    run(&one); // spawns this thread's helpers
    let ((few, _), (many, forked)) = (run(&one), run(&more));
    ((many - few) as f64 / FORKS as f64, forked)
}

/// Forks past the guard on 4 and 8 threads, where two or more helpers
/// claim off the back of the pieces and their claims interleave: every
/// thread together allocates at most 32 per thread per fork, because a
/// helper claims a run of pieces and hands the master one record for
/// claims that lie side by side; a record a piece would be 256 on 4
/// threads and 512 on 8 under `Stealing`. On a 2-core host (release; a
/// debug build reads up to 40 % more), `Static` measured 38–44
/// allocations per fork on 4 threads and 60–65 on 8, `Stealing` 50–56
/// and 71–104. (While the helpers had a lane each and stole one piece at
/// a time: `Static` 66–73 and 137–150, `Stealing` 136–165 and 99–392.)
#[test]
fn forks_past_the_guard_on_4_and_8_threads_stay_within_their_allocation_budget() {
    let _alone = alone();
    for schedule in [polaris::machine::Schedule::Static, polaris::machine::Schedule::Stealing { chunk: 1 }] {
        for procs in [4, 8] {
            let (per_fork, forked) = forks_past_the_guard(procs, schedule);
            println!("alloc_budget: a fork past the guard on {procs} threads, {schedule:?}: {per_fork:.1} allocations");
            assert!(forked, "{schedule:?} on {procs} threads: the loop stayed under the guard");
            assert!(per_fork <= 32.0 * procs as f64, "{schedule:?} on {procs} threads: {per_fork:.1} allocations a fork");
        }
    }
}

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

/// Measured since the range test tries per-iteration separation before
/// it builds a whole-loop footprint, range propagation kills each set of
/// names in one pass and a loop header converts each bound once:
/// 134 760 allocations / 19 393 731 bytes (debug; release 134 730 /
/// 19 393 684), a `realloc` counted as an allocation of its new size.
/// Budget = that + 5 %. Since the lowered image keeps its arrays' shapes
/// in one shared table apart from their elements, 134 814 / 19 395 731
/// (release 134 784 / 19 395 684). History, newest first: once the IR was rewritten
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
const SUITE_ALLOCS_BUDGET: u64 = 141_500;
const SUITE_BYTES_BUDGET: u64 = 20_363_500;

/// `common::MULTI_UNIT`'s checked compile — two subroutines and a
/// function inlined into main — made 4 279 allocations / 432 919 bytes
/// while every formal and every local cost a rebuild of the whole body;
/// binding each site in one pass: 2 345 / 329 544; with the range layer
/// doing only the work a verdict needs: 2 201 / 318 288 (debug). Budget
/// = that + 5 %. With the image's shape table: 2 203 / 318 304.
const MULTI_UNIT_ALLOCS_BUDGET: u64 = 2_312;

/// One TRFD range test on that `BTreeMap` form (and an environment
/// deep-copied per dimension query) made 14 794 allocations; the flat
/// form 1 141; with atoms that share their names 747; with no whole-loop
/// footprint built for a pair that per-iteration separation proves, 239.
/// It must stay within that + 5 %.
const TRFD_ALLOCS_BUDGET: u64 = 251;

struct Counting;

thread_local! {
    // `const` and without a destructor, so touching them inside the
    // allocator neither allocates nor registers a TLS dtor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
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
/// allocate nothing more (a store into storage the interpreter owns is a
/// tag test, no reference count, no copy), and the interpreter takes the
/// lowered image's arrays by value — one allocation of the array per
/// run, where copying it away from the image on the first store made two.
#[test]
fn element_stores_allocate_nothing_and_a_run_holds_one_copy_of_each_array() {
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

/// A fork copies what a lane may write and shares the rest: each lane
/// gets the scalars, a handle on each array's elements and one reference
/// to the image's shape table, so a fork allocates as much in a unit of
/// 40 arrays as in one of 2: 15 allocations per fork. The DOALL stays
/// under the profitability guard, so every lane a fork starts runs on
/// this thread and every allocation is counted. (While a lane copied
/// each array's name and bounds, the 40-array unit made 3 × 38 more
/// allocations per lane per fork: 135 against 21.)
#[test]
fn a_forks_allocations_do_not_grow_with_the_array_count() {
    const FORKS: u64 = 10;
    let allocations = |arrays: usize, forks: u64| {
        let decls: String = (1..arrays).map(|k| format!("real b{k}(4)\n")).collect();
        let src = format!(
            "program forks\nreal a(8)\n{decls}do t = 1, {forks}\n!$polaris doall\ndo i = 1, 8\n  a(i) = a(i) + t\nend do\nend do\nprint *, a(8)\nend\n"
        );
        let program = polaris::ir::parse(&src).unwrap();
        let cfg = polaris::MachineConfig::threaded(2, polaris::machine::Schedule::Static);
        counted(|| {
            polaris::machine::run(&program, &cfg).unwrap();
        })
        .0
    };
    // What FORKS more forks of the same loop allocate.
    let forks = |arrays: usize| allocations(arrays, FORKS + 1) - allocations(arrays, 1);
    let (few, many) = (forks(2), forks(40));
    println!("alloc_budget: {FORKS} forks on 2 threads: {few} allocations with 2 arrays, {many} with 40");
    assert_eq!(few, many, "a fork's allocations grew with the array count");
}

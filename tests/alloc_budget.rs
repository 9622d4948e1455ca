//! A checked compile's allocation budget — a deterministic regression
//! fence for `analyze`, `verify` and the pipeline's per-stage snapshot
//! and validation (ROADMAP aim 1: counts, not wall clocks, are the hard
//! gates on this host).
//!
//! A counting `#[global_allocator]` tallies the heap traffic of the test
//! thread while it runs one checked compile (parse →
//! `compile(PassOptions::polaris())` → `verify_compiled`) of each of the
//! 26 kernels, and one range test of the paper's §3.3.1 TRFD subscript.
//! The counts repeat exactly from run to run (a release build elides a
//! few dozen dead allocations a debug build makes), so the budgets below
//! are what was measured plus 5 %, not a guess with headroom.
//!
//! Run with `-- --nocapture` to see the numbers.

use polaris::core::ddtest::range_test::{no_carried_dependence, InnerLoop, RefSpec};
use polaris::core::ddtest::DdStats;
use polaris::symbolic::poly::{DivPolicy, Poly};
use polaris::symbolic::{Range, RangeEnv};
use polaris::benchmarks::Benchmark;
use polaris::PassOptions;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Measured when the validator stopped building a control-flow graph per
/// unit per validation (PR 24, seven invariants): 228 833 allocations /
/// 24 157 575 bytes (debug; release 30 fewer), a `realloc` counted as an
/// allocation of its new size. Budget = that + 5 %. With the graph, one
/// `Program` clone per compile and one typing per expression (PR 22):
/// 244 866 / 26 284 709; with the flat polynomial form alone (PR 20):
/// 297 117 / 31 816 755; the `BTreeMap<Monomial, Rat>` form before it:
/// 960 309 / 234 483 573.
const SUITE_ALLOCS_BUDGET: u64 = 240_200;
const SUITE_BYTES_BUDGET: u64 = 25_360_000;

/// One TRFD range test on that `BTreeMap` form (and an environment
/// deep-copied per dimension query) made 14 794 allocations; the flat
/// form makes 1 141 and must stay at or under a third of the old count.
const TRFD_PARENT_ALLOCS: u64 = 14_794;

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

/// The 26 kernels the benchmark's `compile_suite` workload compiles.
fn kernels() -> Vec<Benchmark> {
    use polaris::benchmarks as b;
    b::all()
        .into_iter()
        .chain([b::track()])
        .chain(b::irregular().into_iter().map(|(k, _)| k))
        .chain([b::skewed()])
        .chain(b::locality().into_iter().map(|(k, _)| k))
        .collect()
}

// One test function: the two measurements share the thread's counters.
#[test]
fn checked_compiles_and_the_trfd_range_test_stay_within_their_allocation_budgets() {
    let kernels = kernels();
    assert_eq!(kernels.len(), 26);
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
        trfd_allocs * 3 <= TRFD_PARENT_ALLOCS,
        "TRFD range test made {trfd_allocs} allocations, more than a third of the parent's \
         {TRFD_PARENT_ALLOCS}"
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

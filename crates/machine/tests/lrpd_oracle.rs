//! Property: the machine's `SPECULATIVE` loops reach the verdict a
//! brute-force oracle reaches on the access pattern, and the serial
//! program's output, whichever backend runs them — the machine-level
//! twin of the unit property `lrpd::tests::prop_verdict_matches_oracle`
//! inside the crate.
//!
//! A random table of reads and writes (three per iteration) is rendered
//! as an F-Mini `!$polaris doall speculative(A)` loop over `kind(i, j)`
//! and `idx(i, j)` tables. On the simulated machine the loop runs in
//! order and only the verdict is at stake; on real threads a passing
//! verdict commits the lanes' copies of `A`, so the output is too.

use polaris_machine::{run, run_serial, ExecMode, MachineConfig, Schedule};
use proptest::prelude::*;

const ELEMS: usize = 6;
const OPS: usize = 3;

/// `(kind, element)`: kind 0 does nothing, 1 reads, 2 writes.
type Op = (usize, usize);

/// Is the loop fully parallel as a plain doall: every element some
/// iteration writes is touched by that iteration alone, and not read
/// there before it is written?
fn oracle(ops: &[Vec<Op>]) -> bool {
    (0..ELEMS).all(|e| {
        let touches = |it: &&Vec<Op>| it.iter().any(|&(kind, at)| kind != 0 && at == e);
        let writes = |it: &&Vec<Op>| it.iter().any(|&(kind, at)| kind == 2 && at == e);
        let reads_first = |it: &&Vec<Op>| it.iter().find(|&&(kind, at)| kind != 0 && at == e).is_some_and(|op| op.0 == 1);
        let writers: Vec<&Vec<Op>> = ops.iter().filter(writes).collect();
        writers.is_empty() || (ops.iter().filter(touches).count() == 1 && !reads_first(&writers[0]))
    })
}

/// The loop over the tables, and a `PRINT` of every element of `A`.
fn program(ops: &[Vec<Op>]) -> polaris_ir::Program {
    use std::fmt::Write as _;
    let n = ops.len();
    let mut src = format!("program lrpd\ninteger kind({n}, {OPS}), idx({n}, {OPS})\nreal a({ELEMS}), acc\n");
    for (i, it) in ops.iter().enumerate() {
        for j in 0..OPS {
            let (kind, at) = it.get(j).copied().unwrap_or((0, 0));
            let _ = writeln!(src, "kind({i}, {j}) = {kind}\nidx({i}, {j}) = {at}", i = i + 1, j = j + 1, at = at + 1);
        }
    }
    let _ = writeln!(src, "do k = 1, {ELEMS}\n  a(k) = k * 0.5\nend do");
    let _ = writeln!(src, "!$polaris doall speculative(A) private(ACC)\ndo i = 1, {n}\n  acc = i * 1.0");
    for j in 1..=OPS {
        let _ = writeln!(
            src,
            "  if (kind(i, {j}) == 1) then\n    acc = acc + a(idx(i, {j}))\n  else if (kind(i, {j}) == 2) then\n    a(idx(i, {j})) = acc\n  end if"
        );
    }
    let elems: Vec<String> = (1..=ELEMS).map(|e| format!("a({e})")).collect();
    let _ = writeln!(src, "end do\nprint *, {}\nend", elems.join(", "));
    polaris_ir::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn speculative_loops_match_the_oracle_and_serial_output(
        ops in proptest::collection::vec(proptest::collection::vec((0usize..3, 0usize..ELEMS), 0..OPS + 1), 1..10)
    ) {
        let program = program(&ops);
        let serial = run_serial(&program).unwrap();
        let want = if oracle(&ops) { (1, 0) } else { (0, 1) };
        for schedule in [Schedule::Static, Schedule::Dynamic { chunk: 2 }] {
            for exec_mode in [ExecMode::Simulated, ExecMode::Threaded] {
                let cfg = MachineConfig { exec_mode, ..MachineConfig::threaded(3, schedule) };
                let ran = run(&program, &cfg).unwrap();
                let verdicts = ran.loops.values().fold((0, 0), |(ok, no), s| (ok + s.spec_success, no + s.spec_fail));
                prop_assert_eq!(verdicts, want, "{:?} {:?}: {:?}", exec_mode, schedule, ops);
                prop_assert_eq!(&ran.output, &serial.output, "{:?} {:?}: {:?}", exec_mode, schedule, ops);
            }
        }
    }
}
